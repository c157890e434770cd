import numpy as np
import pytest

from bubblescreen import (BubbleCluster, DelayNetwork, PointSource,
                          SourcePulse, TimeGrid, assemble)
from bubblescreen.errors import (ConfigError, EvaluationPointError,
                                 SolvabilityError)
from bubblescreen.foldy import scattered_series

from oracles import (duhamel_oscillator, incident_second_derivative, planar_grid,
                     pulse_second_derivative, reference_march)


def make_cluster(centers, eps=1.0 / 64.0):
    centers = np.asarray(centers, dtype=float)
    return BubbleCluster(centers=centers, patch_ids=np.arange(len(centers)),
                         counts=np.ones(len(centers), dtype=int), eps=eps)


def make_source(params, x0=(0.0, 0.0, 1.5), omega0=None, t_rise=1.0):
    pulse = SourcePulse(omega0=omega0 or 1.0 / params.omega_m, t_rise=t_rise)
    return PointSource(np.asarray(x0, dtype=float), pulse, rho_c=1.0, c0=params.c0)


class TestAssemble:
    def test_single_bubble_no_coupling(self, params):
        system = assemble(make_cluster([[0, 0, 0]]), params, make_source(params))
        assert system.n == 1
        coupling, delay = system.block(0, system.n)
        assert np.array_equal(coupling, [[0.0]]) and np.array_equal(delay, [[0.0]])
        assert system.min_delay == np.inf

    def test_two_bubble_entries(self, params):
        r = 0.25
        system = assemble(make_cluster([[0, 0, 0], [r, 0, 0]]), params,
                          make_source(params))
        # pairs (0, 1) and (1, 0) only: no self-coupling
        coupling, delay = system.block(0, system.n)
        assert np.array_equal(coupling != 0, [[False, True], [True, False]])
        assert np.array_equal(np.diagonal(delay), [0.0, 0.0])
        assert coupling[0, 1] == pytest.approx(params.c_eps / (4 * np.pi * r), rel=1e-14)
        assert delay[0, 1] == pytest.approx(r / params.c0, rel=1e-14)

    def test_grid_matrices_symmetric(self, params):
        system = assemble(make_cluster(planar_grid(4, 0.2)), params,
                          make_source(params))
        # every pair i != j coupled, and (i, j) and (j, i) bitwise equal
        coupling, delay = system.block(0, system.n)
        assert np.array_equal(coupling != 0, ~np.eye(system.n, dtype=bool))
        assert np.array_equal(coupling, coupling.T)
        assert np.array_equal(delay, delay.T)

    def test_condition_violation_strict_and_warn(self, params):
        tight = make_cluster(planar_grid(8, 0.01), eps=1.0 / 64.0)
        with pytest.raises(SolvabilityError):
            assemble(tight, params, make_source(params))
        with pytest.warns(UserWarning):
            assemble(tight, params, make_source(params), strict=False)


class TestAcceleration:
    def test_zero_history_zero_forcing(self, params):
        cluster = make_cluster([[0, 0, 0], [0.3, 0, 0]])
        system = assemble(cluster, params, make_source(params))
        grid = TimeGrid.fit(1.0, 0.05)
        trace = system.solve(grid)  # source front arrives after ~1.3
        val = system.accel_all(0.5, np.zeros(2), trace)[0]
        assert val == 0.0

    def test_single_bubble_formula(self, params):
        cluster = make_cluster([[0.2, 0, 0]])
        source = make_source(params)
        system = assemble(cluster, params, source)
        grid = TimeGrid.fit(4.0, 0.01)
        trace = system.solve(grid)
        t, y = 3.5, 0.37
        g = system.forcing(t)[0]
        expected = (g - y) / params.omega_m_sq
        assert system.accel_all(t, np.array([y]), trace)[0] == pytest.approx(
            expected, rel=1e-14)

    def test_symmetric_pair_equal(self, params):
        cluster = make_cluster([[0.3, 0, 0], [-0.3, 0, 0]])
        system = assemble(cluster, params, make_source(params, x0=(0, 0, 1.5)))
        grid = TimeGrid.fit(5.0, 0.05)
        trace = system.solve(grid)
        state = np.array([0.11, 0.11])
        a0 = system.accel_all(4.0, state, trace)[0]
        a1 = system.accel_all(4.0, state, trace)[1]
        assert a0 == pytest.approx(a1, abs=1e-14)


class TestSolve:
    def test_zero_source_zero_traces(self, params):
        cluster = make_cluster([[0, 0, 0], [0.3, 0, 0]])
        system = assemble(cluster, params, make_source(params))
        system.forcing = lambda t: np.zeros(2)
        trace = system.solve(TimeGrid.fit(3.0, 0.05))
        assert np.all(trace.value == 0.0)

    def test_single_bubble_duhamel(self, params):
        cluster = make_cluster([[0.3, 0, 0]])
        source = make_source(params, x0=(0, 0, 1.0))
        system = assemble(cluster, params, source)
        grid = TimeGrid.fit(6.0, 1e-3)
        trace = system.solve(grid)
        # the amplitude Y = U'' solves the same oscillator forced by d2/dt2 u_in
        r = np.linalg.norm(cluster.centers[0] - source.x0)
        g = pulse_second_derivative(source.pulse, grid.times - r / params.c0) / r
        ref = duhamel_oscillator(grid.times, g, params.omega_m_sq)
        rel = np.linalg.norm(trace.acc[:, 0] - ref) / np.linalg.norm(ref)
        assert rel < 1e-5

    def test_symmetric_bubbles_identical_traces(self, params):
        cluster = make_cluster([[0.3, 0.1, 0], [-0.3, 0.1, 0]])
        system = assemble(cluster, params, make_source(params, x0=(0, 0.2, 1.5)))
        trace = system.solve(TimeGrid.fit(6.0, 0.05))
        assert np.abs(trace.value[:, 0] - trace.value[:, 1]).max() < 1e-10

    def test_causality_before_front(self, params):
        cluster = make_cluster([[0.2, 0, 0], [-0.2, 0, 0]])
        source = make_source(params, x0=(0, 0, 2.0))
        system = assemble(cluster, params, source)
        grid = TimeGrid.fit(6.0, 0.02)
        trace = system.solve(grid)
        arrival = (np.linalg.norm(cluster.centers - source.x0, axis=1) / params.c0)
        for m in range(2):
            before = trace.times < arrival[m] - 1e-9
            assert np.abs(trace.value[before, m]).max() <= 1e-12
        # source -> bubble -> probe front: the field is exactly zero before it
        x = np.array([0.1, 0.3, -0.5])
        first = (arrival + np.linalg.norm(cluster.centers - x, axis=1)
                 / params.c0).min()
        t = np.linspace(0.0, first - 1e-6, 10)
        assert np.all(scattered_series(trace, cluster, params, x, t) == 0.0)

    def test_trace_exactly_zero_up_to_onset(self, params):
        cluster = make_cluster([[0.2, 0, 0], [-0.2, 0.1, 0]])
        source = make_source(params, x0=(0, 0, 2.0))
        trace = assemble(cluster, params, source).solve(TimeGrid.fit(4.0, 0.02))
        onset = np.linalg.norm(cluster.centers - source.x0, axis=1) / params.c0
        assert np.array_equal(trace.onset, onset)
        cols = np.arange(2)
        for tq in (onset, onset - 0.013):
            assert np.all(trace.accel_at(tq, cols) == 0.0)
            assert np.all(trace.value_at(tq, cols) == 0.0)
        assert np.all(trace.accel_at(onset + 0.3, cols) != 0.0)

    def test_onsets_must_respect_delays(self):
        coupling = np.array([[0.0, 0.05], [0.05, 0.0]])
        delays = np.array([[0.0, 0.25], [0.25, 0.0]])

        def network(onset):
            return DelayNetwork(np.ones(2), coupling, delays,
                                lambda t: np.zeros(2), onset=onset)

        assert np.array_equal(network([0.0, 0.25]).onset, [0.0, 0.25])
        with pytest.raises(ConfigError):
            network([0.0, 0.3])  # x_1 would hear x_0 before its own forcing
        with pytest.raises(ConfigError):
            network([-0.1, 0.0])
        # no pair reading a column with a NaN or infinite onset would go live
        for onset in ([0.0, np.nan], [np.inf, np.inf]):
            with pytest.raises(ConfigError, match="finite"):
                network(onset)

    def test_isometry_permutes_traces(self, params):
        rng = np.random.default_rng(5)
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        centers = np.array([[0.25, 0.0, 0.0], [-0.1, 0.2, 0.0], [0.0, -0.3, 0.1]])
        x0 = np.array([0.1, 0.2, 1.4])
        sys_a = assemble(make_cluster(centers), params,
                         make_source(params, x0=x0))
        sys_b = assemble(make_cluster(centers @ q.T), params,
                         make_source(params, x0=q @ x0))
        grid = TimeGrid.fit(5.0, 0.02)
        ta, tb = sys_a.solve(grid), sys_b.solve(grid)
        assert np.abs(ta.value - tb.value).max() < 1e-10

    def test_uncoupled_limit_matches_duhamel(self, params):
        centers = planar_grid(2, 0.3)
        cluster = make_cluster(centers)
        source = make_source(params, x0=(0, 0, 1.2))
        coupled = assemble(cluster, params, source)
        n = cluster.n
        system = DelayNetwork(np.full(n, params.omega_m_sq), np.zeros((n, n)),
                              np.zeros((n, n)), coupled.forcing)
        grid = TimeGrid.fit(5.0, 2e-3)
        trace = system.solve(grid)
        for m in range(cluster.n):
            r = np.linalg.norm(centers[m] - source.x0)
            g = pulse_second_derivative(source.pulse, grid.times - r / params.c0) / r
            ref = duhamel_oscillator(grid.times, g, params.omega_m_sq)
            rel = np.linalg.norm(trace.acc[:, m] - ref) / np.linalg.norm(ref)
            assert rel < 1e-6

    def test_amplitude_system_solves_to_the_acceleration_of_u(self, params, disk_scene):
        # the amplitudes' own system, forced by d2/dt2 u_in, is the march in U
        # differentiated twice: on the default disk its Y is U'' of the march
        cluster, source = disk_scene["cluster"], disk_scene["source"]
        system = assemble(cluster, params, source)
        amplitudes = DelayNetwork(
            system.masses, *system.block(0, system.n),
            lambda t: incident_second_derivative(source, cluster.centers, t), system.onset)
        grid = TimeGrid.fit(8.0, 0.00625)
        y, u = amplitudes.solve(grid).value, system.solve(grid).acc
        assert np.abs(y - u).max() <= 1e-8 * np.abs(y).max()

    def test_step_above_half_delay_matches_reference(self, params):
        # delay 0.1 < 1.5 h: both stages read the step's own cell, so the new
        # node is solved for with the near pair
        cluster = make_cluster([[0, 0, 0], [0.1, 0, 0]])
        system = assemble(cluster, params, make_source(params))
        grid = TimeGrid.fit(4.0, 0.09)
        trace, ref = system.solve(grid), reference_march(system, grid)
        assert trace.counters["near_pairs"] == 2
        for name in ("value", "rate", "acc"):
            got, want = getattr(trace, name), getattr(ref, name)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), name


def _smooth_network(n=2):
    # benign forcing with moderate derivatives isolates the scheme order from
    # the steep ramp of the physical pulse
    r = 0.25
    coupling = np.array([[0.0, 0.05], [0.05, 0.0]])
    delays = np.array([[0.0, r], [r, 0.0]])
    offsets = np.array([0.4, 0.7])

    def forcing(t):
        s = t - offsets
        return np.where(s > 0, s**5 * np.exp(-s) * np.sin(0.5 * s), 0.0)

    return DelayNetwork(np.full(2, 4.0), coupling, delays, forcing)


class TestConvergenceOrder:
    def test_rk4_order_on_smooth_forcing(self):
        vals = {}
        for h in (0.08, 0.04, 0.02, 0.005):
            net = _smooth_network()
            trace = net.solve(TimeGrid.fit(8.0, h))
            vals[h] = trace.value[-1].copy()
        e1 = np.abs(vals[0.08] - vals[0.005]).max()
        e2 = np.abs(vals[0.04] - vals[0.005]).max()
        e3 = np.abs(vals[0.02] - vals[0.005]).max()
        assert np.log2(e1 / e2) >= 3.5
        assert np.log2(e2 / e3) >= 3.2  # reference contamination allowance

    def test_scattered_field_fourth_order_in_step(self, params):
        cluster = make_cluster([[0.25 / 2, 0, 0], [-0.25 / 2, 0, 0]])
        x = np.array([0.1, 0.2, 0.8])
        t_eval = 7.5
        vals = []
        for h in (0.04, 0.02, 0.01):
            net = _smooth_network()
            trace = net.solve(TimeGrid.fit(8.0, h))
            vals.append(scattered_series(trace, cluster, params, x, t_eval)[0, 0])
        d1, d2 = abs(vals[0] - vals[1]), abs(vals[1] - vals[2])
        assert d1 / d2 > 10.0  # ~16x for a fourth-order scheme


class TestScatteredField:
    def test_zero_at_time_zero(self, params, disk_scene):
        system = assemble(disk_scene["cluster"], params, disk_scene["source"])
        trace = system.solve(TimeGrid.fit(4.0, 0.05))
        val = scattered_series(trace, disk_scene["cluster"], params,
                               np.array([0, 0, -0.5]), 0.0)
        assert np.all(val == 0.0)

    def test_single_bubble_one_term_formula(self, params):
        cluster = make_cluster([[0.2, 0, 0]])
        source = make_source(params, x0=(0, 0, 1.0))
        system = assemble(cluster, params, source)
        trace = system.solve(TimeGrid.fit(6.0, 0.01))
        x = np.array([0.0, 0.5, -0.4])
        r = np.linalg.norm(x - cluster.centers[0])
        for t in (2.5, 4.0, 5.5):
            manual = -params.c_eps / (4 * np.pi * r) * trace.accel_at(
                np.array([t - r / params.c0]), np.array([0]))[0]
            assert scattered_series(trace, cluster, params, x, t)[0, 0] == pytest.approx(
                manual, rel=1e-14)

    def test_too_close_rejected(self, params):
        cluster = make_cluster([[0.2, 0, 0]])
        system = assemble(cluster, params, make_source(params))
        trace = system.solve(TimeGrid.fit(2.0, 0.01))
        with pytest.raises(EvaluationPointError):
            scattered_series(trace, cluster, params,
                             cluster.centers[0] + 1e-4, 1.0)

