import numpy as np
import pytest

from bubblescreen import (EffectiveField, KFunction, PointSource,
                          QuadratureRule, SourcePulse, TimeGrid, build_rule,
                          effective_grid, partition, place_bubbles, pulse_eval)
from bubblescreen.effective import EffectiveSystem
from bubblescreen.errors import EvaluationPointError, UsageError

from oracles import (_second_derivative, duhamel_oscillator, jump_residual,
                     kernel_identity_residual, memory_convolution)


def make_source(params, x0=(0.0, 0.0, 1.5), t_rise=1.5):
    pulse = SourcePulse(omega0=1.0 / params.omega_m, t_rise=t_rise)
    return PointSource(np.asarray(x0, dtype=float), pulse, rho_c=1.0, c0=params.c0)


def one_node_rule(x, weight, spacing):
    return QuadratureRule(nodes=np.array([x], dtype=float), weights=np.array([weight]),
                          density=np.array([1]), spacing=spacing)


class TestBuildRule:
    def test_unit_density_for_zero_k(self, disk_scene):
        assert np.all(disk_scene["rule"].density == 1)

    def test_weights_sum_to_area(self, disk_scene):
        assert abs(disk_scene["rule"].weights.sum() - 1.0) < 1e-10

    def test_self_term_closed_form(self):
        rule = one_node_rule([0, 0, 0], 0.01, 0.1)
        assert rule.self_terms[0] == pytest.approx(np.sqrt(0.01 / np.pi) / 2.0,
                                                   rel=1e-14)

    def test_density_from_k_function(self, disk):
        rule = build_rule(partition(disk, 0.125), KFunction.constant(2.5))
        assert np.all(rule.density == 3)

    def test_density_on_a_grid_without_bubbles(self, disk):
        # the screen's own grid at d/2, where no bubble was placed: the
        # density is floor(K)+1 at its nodes
        k = KFunction.linear_axis(scale=1.0, offset=0.6, axis=0)
        pw = partition(disk, 1.0 / 32.0)
        rule = build_rule(pw, k)
        want = np.floor(pw.centers[:, 0] + 0.6).astype(int) + 1
        assert np.array_equal(rule.density, want)
        assert set(want) == {1, 2}

    def test_density_is_the_cluster_counts_at_its_spacing(self, disk):
        k = KFunction.linear_axis(scale=1.0, offset=0.6, axis=0)
        pw = partition(disk, 1.0 / 16.0)
        cluster = place_bubbles(pw, k, eps=1.0 / 256.0, seed=7)
        rule = build_rule(pw, k)
        assert np.array_equal(rule.density, cluster.counts)
        assert rule.density.dtype == cluster.counts.dtype
        assert cluster.n > pw.m


class TestSolveEffective:
    def test_zero_source_zero_trace(self, params, disk_scene):
        rule = disk_scene["rule"]
        source = make_source(params)
        grid = effective_grid(rule, params, 3.0)
        system = EffectiveSystem(rule, params, source)
        system.forcing = lambda t: np.zeros(rule.m)
        trace = system.solve(grid)
        assert np.all(trace.value == 0.0)

    def test_single_node_modified_frequency_duhamel(self, params):
        rule = one_node_rule([0.2, 0.0, 0.0], 0.015625, 0.125)
        source = make_source(params, x0=(0, 0, 1.0))
        grid = TimeGrid.fit(6.0, 1e-3)
        trace = EffectiveSystem(rule, params, source).solve(grid)
        mass = params.omega_m_sq + params.c_bar * 1 * rule.self_terms[0]
        r = np.linalg.norm(rule.nodes[0] - source.x0)
        u_in = pulse_eval(source.pulse, grid.times - r / params.c0) / r
        ref = duhamel_oscillator(grid.times, u_in, mass)
        rel = np.linalg.norm(trace.value[:, 0] - ref) / np.linalg.norm(ref)
        assert rel < 1e-5

    def test_doubling_resonance_reduces_response(self, params, disk_scene):
        rule = disk_scene["rule"]
        source = disk_scene["source"]
        grid = effective_grid(rule, params, 6.0)
        base = EffectiveSystem(rule, params, source).solve(grid)
        high = EffectiveSystem(rule, params.with_scaled_resonance(2.0), source).solve(grid)
        assert np.abs(high.acc).max() < np.abs(base.acc).max()

    def test_high_resonance_trend_times_ten(self, params, disk_scene):
        rule = disk_scene["rule"]
        source = disk_scene["source"]
        grid = effective_grid(rule, params, 6.0)
        base = EffectiveSystem(rule, params, source).solve(grid)
        high = EffectiveSystem(rule, params.with_scaled_resonance(10.0), source).solve(grid)
        sup = lambda tr: np.abs(tr.acc).max()
        assert sup(high) <= 0.1 * sup(base)

    def test_low_resonance_memoryless_limit(self, params, disk_scene):
        # with the instantaneous diagonal absorbed, omega_m -> 0 converges to
        # the kernel-free oscillator driven by the self mass alone
        rule = disk_scene["rule"]
        source = disk_scene["source"]
        grid = effective_grid(rule, params, 5.0)
        small = EffectiveSystem(rule, params.with_scaled_resonance(1e-3), source).solve(grid)
        tiny = EffectiveSystem(rule, params.with_scaled_resonance(1e-5), source).solve(grid)
        scale = np.abs(small.acc).max()
        assert np.abs(small.acc - tiny.acc).max() < 1e-3 * scale


class TestEffectiveScattered:
    def test_zero_before_first_arrival(self, params, disk_scene):
        rule = disk_scene["rule"]
        grid = effective_grid(rule, params, 6.0)
        trace = EffectiveSystem(rule, params, disk_scene["source"]).solve(grid)
        field = EffectiveField(rule, trace, params, disk_scene["source"])
        x = np.array([0.0, 0.0, -0.6])
        # incident front: source to surface to probe
        first = (np.linalg.norm(rule.nodes - disk_scene["source"].x0, axis=1)
                 + np.linalg.norm(rule.nodes - x, axis=1)).min() / params.c0
        t = np.linspace(0.0, first - 1e-6, 10)
        assert np.all(field.scattered(x, t) == 0.0)

    def test_zero_trace_zero_field(self, params, disk_scene):
        rule = disk_scene["rule"]
        source = make_source(params)
        system = EffectiveSystem(rule, params, source)
        system.forcing = lambda t: np.zeros(rule.m)
        trace = system.solve(effective_grid(rule, params, 3.0))
        field = EffectiveField(rule, trace, params, source)
        assert np.all(field.scattered(np.array([0, 0, 0.8]), 2.5) == 0.0)

    def test_refinement_converges_at_fixed_point(self, params, disk):
        source = make_source(params)
        x, t_eval = np.array([0.0, 0.0, 0.7]), 5.0
        vals = []
        for d in (0.125, 1 / np.sqrt(128.0), 0.0625):
            pw = partition(disk, d)
            rule = build_rule(pw, KFunction.constant(0.0))
            grid = effective_grid(rule, params, 6.0, h_max=0.02)
            trace = EffectiveSystem(rule, params, source).solve(grid)
            vals.append(EffectiveField(rule, trace, params, source).scattered(x, t_eval)[0, 0])
        d1, d2 = abs(vals[0] - vals[1]), abs(vals[1] - vals[2])
        assert d1 > d2

    def test_near_surface_rejected(self, params, disk_scene):
        rule = disk_scene["rule"]
        grid = effective_grid(rule, params, 2.0)
        trace = EffectiveSystem(rule, params, disk_scene["source"]).solve(grid)
        field = EffectiveField(rule, trace, params, disk_scene["source"])
        with pytest.raises(EvaluationPointError):
            field.scattered(np.array([0, 0, 0.1]), 1.0)

    def test_causality_randomized_points(self, params, disk_scene):
        rule = disk_scene["rule"]
        grid = effective_grid(rule, params, 6.0)
        trace = EffectiveSystem(rule, params, disk_scene["source"]).solve(grid)
        field = EffectiveField(rule, trace, params, disk_scene["source"])
        rng = np.random.default_rng(8)
        for _ in range(10):
            x = rng.uniform(-1, 1, 3)
            x[2] = rng.choice([-1, 1]) * rng.uniform(0.4, 1.0)
            first = (np.linalg.norm(rule.nodes - disk_scene["source"].x0, axis=1)
                     + np.linalg.norm(rule.nodes - x, axis=1)).min() / params.c0
            t = rng.uniform(0.0, max(first - 1e-6, 0.0))
            assert field.scattered(x, t)[0, 0] == 0.0


class TestMemoryKernel:
    def test_zero_input(self):
        grid = TimeGrid.fit(1.0, 0.01)
        assert np.all(memory_convolution(np.zeros(grid.steps + 1), 1.0, grid) == 0.0)

    def test_quadratic_closed_form(self):
        # int_0^t sin(t - tau) * 2 dtau = 2 (1 - cos t): equals 4 at pi, 0 at 2 pi
        grid = TimeGrid.fit(2.0 * np.pi, 1e-3)
        out = memory_convolution(grid.times**2, 1.0, grid)
        exact = 2.0 * (1.0 - np.cos(grid.times))
        assert np.abs(out - exact).max() < 1e-9
        i_pi = np.argmin(np.abs(grid.times - np.pi))
        assert out[i_pi] == pytest.approx(4.0, abs=1e-6)
        assert abs(out[-1]) < 1e-9

    def test_identity_zero_input(self):
        grid = TimeGrid.fit(1.0, 0.01)
        assert kernel_identity_residual(np.zeros(grid.steps + 1), 1.0, grid) == 0.0

    def test_identity_quadratic(self):
        grid = TimeGrid.fit(2.0 * np.pi, 1e-3)
        res = kernel_identity_residual(grid.times**2, 1.0, grid)
        assert res < 1e-6

    def test_identity_requires_zero_initial_data(self):
        grid = TimeGrid.fit(1.0, 1e-3)
        with pytest.raises(UsageError):
            kernel_identity_residual(grid.times + 0.5, 1.0, grid)
        with pytest.raises(UsageError):
            kernel_identity_residual(grid.times, 1.0, grid)  # f'(0) = 1

    @pytest.mark.parametrize("seed", range(4))
    def test_identity_random_smooth_pulse_combinations(self, seed, params):
        # random causal smooth f from the pulse basis, f(0) = f'(0) = 0
        rng = np.random.default_rng(seed)
        grid = TimeGrid.fit(5.0, 2e-3)
        f = np.zeros(grid.steps + 1)
        for _ in range(3):
            p = SourcePulse(omega0=rng.uniform(0.3, 2.0),
                            t_rise=rng.uniform(0.5, 1.5),
                            amplitude=rng.uniform(-2, 2))
            f += pulse_eval(p, grid.times - rng.uniform(0.0, 1.0))
        om = rng.uniform(0.5, 2.0)
        res = kernel_identity_residual(f, om, grid)
        assert res < 1e-6 * max(np.abs(f).max(), 1.0)

    def test_stencil_fourth_order_without_f_ddot(self):
        # f = 1 - cos(a t), f'' = a^2 cos(a t), w = 1/om:
        # int_0^t sin(w (t - tau)) f''(tau) dtau = w a^2 (cos(a t) - cos(w t))
        # / (w^2 - a^2), scaled by 1/om = w; with f_ddot omitted the
        # finite-difference stencil supplies f''
        om, a = 0.8, 2.0
        w = 1.0 / om
        errs = []
        for h in (0.02, 0.01, 0.005):
            grid = TimeGrid.fit(4.0, h)
            t = grid.times
            exact = a**2 * w**2 / (w**2 - a**2) * (np.cos(a * t) - np.cos(w * t))
            out = memory_convolution(1.0 - np.cos(a * t), om, grid)
            errs.append(np.abs(out - exact).max())
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(orders >= 3.5)

    def test_short_traces(self):
        # three samples: the three-point rule, exact for a quadratic
        t = np.array([0.0, 0.25, 0.5])
        assert np.allclose(_second_derivative(t**2, 0.25), 2.0, rtol=1e-14)
        with pytest.raises(UsageError):
            _second_derivative(np.array([0.0, 1.0]), 0.5)
        # a one-step grid has no second derivative to offer
        one = TimeGrid.fit(0.5, 0.5)
        with pytest.raises(UsageError):
            memory_convolution(np.array([0.0, 1.0]), 1.0, one)

    def test_identity_second_order_refinement_on_solver_trace(self, params, disk_scene):
        rule = disk_scene["rule"]
        source = disk_scene["source"]
        resids = []
        for h in (0.02, 0.01, 0.005):
            grid = TimeGrid.fit(6.0, h)
            trace = EffectiveSystem(rule, params, source).solve(grid)
            resids.append(kernel_identity_residual(
                trace.value[:, 0], params.omega_m, grid, f_ddot=trace.acc[:, 0]))
        order = np.log2(resids[0] / resids[1])
        assert order >= 1.8
        assert resids[2] < resids[1] < resids[0]


class TestJumpCondition:
    def test_zero_trace_zero_residual(self, params, disk_scene):
        rule = disk_scene["rule"]
        source = make_source(params)
        system = EffectiveSystem(rule, params, source)
        system.forcing = lambda t: np.zeros(rule.m)
        trace = system.solve(effective_grid(rule, params, 2.0))
        diag = jump_residual(rule, trace, params, source, [0, 1],
                             delta=5 * rule.spacing)
        assert diag.residual == 0.0 and diag.jump_scale == 0.0

    def test_residual_decreases_under_refinement(self, params, disk):
        source = make_source(params, x0=(0, 0, 3.0))
        resids, conts = [], []
        for d in (0.125, 0.0625, 0.05):
            pw = partition(disk, d)
            rule = build_rule(pw, KFunction.constant(0.0))
            grid = effective_grid(rule, params, 5.0)
            trace = EffectiveSystem(rule, params, source).solve(grid)
            probes = np.argsort(np.linalg.norm(rule.nodes[:, :2], axis=1))[:2]
            diag = jump_residual(rule, trace, params, source, probes,
                                 delta=5 * d)
            resids.append(diag.residual)
            conts.append(diag.continuity)
        assert resids[0] > resids[1] > resids[2]

    def test_value_continuity_shrinks_with_offset(self, params, disk_scene):
        # [W] = 0: at fixed resolution the across-surface value gap decays
        # linearly in the offset
        rule = disk_scene["rule"]
        source = disk_scene["source"]
        grid = effective_grid(rule, params, 6.0)
        trace = EffectiveSystem(rule, params, source).solve(grid)
        field = EffectiveField(rule, trace, params, source)
        node = int(np.argsort(np.linalg.norm(rule.nodes[:, :2], axis=1))[0])
        xc, nu = rule.nodes[node], np.array([0.0, 0.0, 1.0])   # the disk's normal e_z
        gaps = []
        for delta in (0.5, 0.25, 0.125):
            wp = field.total(xc + delta * nu, grid.times, min_dist_factor=0.0)
            wm = field.total(xc - delta * nu, grid.times, min_dist_factor=0.0)
            gaps.append(np.abs(wp - wm).max())
        assert gaps[0] > gaps[1] > gaps[2]

    def test_small_delta_warns(self, params, disk_scene):
        rule = disk_scene["rule"]
        grid = effective_grid(rule, params, 2.0)
        trace = EffectiveSystem(rule, params, disk_scene["source"]).solve(grid)
        with pytest.warns(UserWarning):
            jump_residual(rule, trace, params, disk_scene["source"], [0],
                          delta=2 * rule.spacing)
