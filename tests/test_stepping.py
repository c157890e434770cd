import copy
import os
import resource
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from bubblescreen import (KFunction, TimeGrid, effective_grid, partition,
                          place_bubbles, sources, stepping)
from bubblescreen.config import ExperimentConfig
from bubblescreen.effective import EffectiveSystem
from bubblescreen.errors import ConfigError, DivergenceError, SolverError, UsageError
from bubblescreen.experiments import build_scene
from bubblescreen.foldy import DelaySystem, scattered_series
from bubblescreen.laplace_cq import assemble_operator
from oracles import (SIGMAS, dense_distances, half_cell_near_weights, int64_stage_pairs,
                     reference_march, split_stage_plan, stage_pairs, two_sum_near_pairs)

FIELDS = ("value", "rate", "acc")
ROOT = Path(__file__).resolve().parent.parent
CONFIG = ROOT / "configs" / "default.yaml"


def _networks(params, disk, disk_scene):
    rule, cluster, source = (disk_scene["rule"], disk_scene["cluster"],
                             disk_scene["source"])
    screen = EffectiveSystem(rule, params, source)
    foldy = DelaySystem(cluster, params, source)
    # two jittered bubbles per patch: off the patch-centre lattice
    jittered = place_bubbles(partition(disk, 0.125), KFunction.constant(1.0),
                             eps=1.0 / 256.0, seed=4)
    off_lattice = DelaySystem(jittered, params, source)
    # near pairs: the jittered bubbles' closest pair lies within 2h of the
    # default step, and the coarse grid's step exceeds the lattice spacing
    return {"screen": (screen, effective_grid(rule, params, 4.0)),
            "foldy": (foldy, TimeGrid.fit(4.0, 0.05)),
            "jittered": (off_lattice, TimeGrid.fit(4.0, 0.05)),
            "coarse": (screen, TimeGrid.fit(4.0, 1.2 * screen.min_delay))}


def _near_pairs(network, grid):
    """The near-pair system of a march of ``network`` on ``grid``, built
    from the near entries of its plan."""
    plan = stepping._StagePlan(network, grid, stepping._window_lead(grid.steps, grid.steps))
    return stepping._NearPairs(network, grid, plan.near)


@pytest.mark.parametrize("kind", ["screen", "foldy", "jittered", "coarse"])
def test_plan_matches_reference_march(params, disk, disk_scene, kind):
    network, grid = _networks(params, disk, disk_scene)[kind]
    trace = network.solve(grid)
    near = trace.counters["near_pairs"]
    assert (near > 0) == (kind in ("jittered", "coarse"))
    ref = reference_march(network, grid)
    for name in FIELDS:
        got, want = getattr(trace, name), getattr(ref, name)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), name
    # bitwise zero at or before each oscillator's onset, live after it
    pre = trace.times[:, None] <= trace.onset[None, :]
    assert pre.any() and (~pre).any()
    for name in FIELDS:
        assert np.all(getattr(trace, name)[pre] == 0.0), name
    assert np.all(np.abs(trace.acc[-1]) > 0.0)


def test_near_pair_march_converges_at_fourth_order():
    # disk at eps 1/256: tau_min = d = 1/16, so at h = 0.05 the 4 + 4 nearest
    # neighbours are near pairs; at h = 0.025 and 0.0125 there are none
    config = ExperimentConfig.load(CONFIG)
    scene = build_scene(config, 1.0 / 256.0)
    network = DelaySystem(scene.cluster, scene.params, scene.source)
    T = 4.0
    t_out = np.linspace(0.0, T, 241)
    near = [network.solve(TimeGrid.fit(T, h)).counters["near_pairs"] for h in (0.05, 0.025)]
    assert near[0] > 0 and near[1] == 0

    def probes(h):
        trace = network.solve(TimeGrid.fit(T, h))
        return scattered_series(trace, scene.cluster, scene.params,
                                config.observation_points, t_out)

    ref = probes(network.min_delay / 10)
    errors = [np.abs(probes(h) - ref).max(axis=1) for h in (0.05, 0.025, 0.0125)]
    assert np.all(errors[0] <= 5e-6 * np.abs(ref).max(axis=1))
    for coarse, fine in zip(errors, errors[1:]):
        assert np.all(coarse >= 12 * fine)


def test_march_counters(params, disk_scene):
    network = DelaySystem(disk_scene["cluster"], params, disk_scene["source"])
    grid = TimeGrid.fit(2.0, 0.05)
    counters = network.solve(grid).counters
    n = disk_scene["cluster"].n
    coupling, delay = network.block(0, network.n)
    tau_min, tau_max = network.min_delay, delay.max()
    lag_max = counters.pop("lag_max")
    assert counters == {"n": n, "pairs": n * (n - 1), "steps": grid.steps,
                        "h": grid.h, "tau_min": tau_min,
                        "h_over_tau_min": grid.h / tau_min,
                        "near_pairs": 0, "near_contraction": 0.0, "near_sweeps": 0}
    # the half-step query of the longest delay reads rows lag_max and
    # lag_max - 1 behind the step
    assert lag_max - 1 < tau_max / grid.h - 0.5 <= lag_max

    # a step above tau_min: every pair closer than 2h is near, and the sweeps
    # shrink the fixed-point error below rounding at the contraction bound
    coarse = TimeGrid.fit(2.0, 1.2 * tau_min)
    counters = network.solve(coarse).counters
    coupled = coupling != 0
    assert counters["near_pairs"] == np.count_nonzero(coupled & (delay < 2 * coarse.h)) > 0
    q, sweeps = counters["near_contraction"], counters["near_sweeps"]
    assert 0.0 < q < 1.0
    assert q ** sweeps <= np.finfo(float).eps < q ** (sweeps - 1)


def test_march_counters_reuse_the_march(monkeypatch):
    network, grid = _small_network(9, seed=3)
    coarse = TimeGrid.fit(grid.T, 1.2 * network.min_delay)
    built = []
    near_pairs = stepping._NearPairs

    def counted(*args):
        built.append(near_pairs(*args))
        return built[-1]

    monkeypatch.setattr(stepping, "_NearPairs", counted)
    counters = network.solve(coarse).counters
    # the march's near-pair system, built once, and the network keeps none
    near, = built
    assert counters["near_pairs"] == near.pairs > 0
    assert (counters["near_contraction"], counters["near_sweeps"]) == (near.contraction,
                                                                       near.sweeps)
    assert not any(isinstance(v, near_pairs) for v in vars(network).values())


def test_non_contracting_near_pairs_rejected():
    # two oscillators coupled twice as strongly as their unit masses, a delay
    # of half a step: the new node's fixed-point map does not contract
    network = stepping.DelayNetwork(np.ones(2), [[0.0, 2.0], [2.0, 0.0]],
                                    [[0.0, 0.1], [0.1, 0.0]], lambda t: np.exp(-t) * t ** 4)
    grid = TimeGrid.fit(2.0, 0.2)
    near = _near_pairs(network, grid)
    assert near.contraction >= 1.0
    with pytest.raises(SolverError, match="lower h_max"):
        network.solve(grid)


def test_solve_sums_both_stages_from_one_plan(monkeypatch):
    # near pairs live: the near pairs come from the plan's one pass
    network, grid = _small_network(9, seed=3)
    grid = TimeGrid.fit(grid.T, 1.2 * network.min_delay)
    built, sums = {}, []

    def counted(name):
        make = getattr(stepping, name)

        def wrapped(*args):
            built.setdefault(name, []).append(make(*args))
            return built[name][-1]
        monkeypatch.setattr(stepping, name, wrapped)

    delayed_sum = stepping._StagePlan.delayed_sum

    def counted_sum(plan, ns, cells):
        sums.append(delayed_sum(plan, ns, cells))
        return sums[-1]

    monkeypatch.setattr(stepping._StagePlan, "delayed_sum", counted_sum)
    for name in ("_NearPairs", "_StagePlan"):
        counted(name)
    network.solve(grid)
    assert {name: len(made) for name, made in built.items()} == {
        "_NearPairs": 1, "_StagePlan": 1}
    # one n x n plan serves both stages
    assert built["_StagePlan"][0].idx.shape == (network.n, network.n)
    assert built["_StagePlan"][0].weights.shape == (network.n, network.n, 4)
    assert len(sums) == grid.steps
    assert all(d.shape == (2, network.n) for d in sums)


def test_rk4_map_matches_staged_step():
    # the step as a linear map of (x, x', x'', g_half, g_full) against the
    # staged formula, on random masses, steps and inputs
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = 7
        masses = 10.0 ** rng.uniform(-2.0, 2.0, n)
        h = 10.0 ** rng.uniform(-3.0, 0.0)
        y, v, k1v = rng.normal(size=(3, n))
        f, d = rng.normal(size=(2, 2, n))
        want = np.stack(stepping._rk4(y, v, k1v, f, d, h, masses))
        inputs = np.concatenate(([y, v, k1v], f - d))
        coeffs = stepping._rk4_coefficients(h, masses)
        got = np.einsum("okn,kn->on", coeffs, inputs)
        # relative to the size of each output's terms, which may cancel
        size = np.einsum("okn,kn->on", np.abs(coeffs), np.abs(inputs))
        assert np.all(np.abs(got - want) <= 1e-14 * size)


def test_near_march_steps_once_per_step(monkeypatch):
    # near pairs live: the staged formula runs once per march, to build the
    # step's map, and the near share is solved once per live step
    network, grid = _small_network(9, seed=3)
    grid = TimeGrid.fit(grid.T, 1.2 * network.min_delay)
    live = np.flatnonzero(_near_pairs(network, grid).live)
    staged, shares = [], []
    rk4 = stepping._rk4

    def counted_rk4(*args):
        staged.append(args)
        return rk4(*args)

    class CountedNear(stepping._NearPairs):
        def solve(self, ns, r):
            shares.append(ns)
            return super().solve(ns, r)

    monkeypatch.setattr(stepping, "_rk4", counted_rk4)
    monkeypatch.setattr(stepping, "_NearPairs", CountedNear)
    network.solve(grid)
    assert len(live) > grid.steps // 2
    assert len(staged) == 1 and shares == live.tolist()


@pytest.mark.parametrize("kind", ["small", "jittered"])
def test_one_pass_near_sweeps_match_two_sums(params, disk, disk_scene, kind):
    if kind == "small":
        network, grid = _small_network(9, seed=3)
        grid = TimeGrid.fit(grid.T, 1.2 * network.min_delay)
    else:
        network, grid = _networks(params, disk, disk_scene)["jittered"]
    near = _near_pairs(network, grid)
    # the weights on the plan's half cells, pair by pair, bitwise, and the
    # bound from the premultiplied weights bitwise
    weights, contraction, sweeps = half_cell_near_weights(network, grid)
    assert len(near.weights) == len(weights) == 3
    for got, want in zip(near.weights, weights):
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert (near.contraction, near.sweeps) == (contraction, sweeps)
    assert 0.0 < contraction < 1.0 and sweeps > 0
    # the full cells' weights, summed twice a sweep, to rounding
    solve = two_sum_near_pairs(network, grid)[0]
    rng = np.random.default_rng(2)
    steps = np.flatnonzero(near.live)
    for ns in sorted({*steps[:3].tolist(), int(steps[len(steps) // 2]), int(steps[-1])}):
        r = rng.normal(size=network.n)
        want = solve(ns, r)
        assert np.abs(near.solve(ns, r) - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("kind", ["jittered", "coarse", "short", "short-onset"])
def test_radix_split_matches_the_int64_sort(params, disk, disk_scene, kind):
    # clipping the first live steps to the grid moves only entries that are
    # never live: the live counts, the live prefix and the near entries keep
    # their order, the live entries their cells and the near ones their rows
    if kind.startswith("short"):
        network, grid = _small_network(9, seed=3, onset=kind.endswith("onset"))
        grid = TimeGrid(T=8 * grid.h, h=grid.h, steps=8)
    else:
        network, grid = _networks(params, disk, disk_scene)[kind]
    lead = stepping._window_lead(grid.steps, grid.steps)
    plan = stepping._StagePlan(network, grid, lead)
    n = network.n
    coupling, delay = network.block(0, n)
    want_key, want_shift, want_live = int64_stage_pairs(network, grid)
    # the stage entries live at step m: those whose first live query is at
    # most the half stage's 2m + 1, and those at most the full stage's 2m + 2
    assert np.array_equal(plan.live[1:-1:2] + plan.live[2::2], want_live)
    # each stage's first live step from the first live query, keyed
    # s*n*n + i*n + j: q // 2 at the half stage, (q - 1) // 2 at the full one
    q = plan.first.astype(np.int64)
    step = np.concatenate((q // 2, (q - 1) // 2))
    # the plan's order of the coupled entries: by clipped first live step,
    # then by key
    coupled = np.flatnonzero(np.tile(coupling != 0, (2, 1)))
    key = coupled[np.argsort(step.ravel()[coupled], kind="stable")]
    m = want_live[-1]
    assert np.array_equal(key[:m], want_key[:m])
    # the live entries' cells, from their half-row shifts -2 tau/h
    e = key[:m] % n ** 2
    shift = -2.0 * (delay.ravel()[e] / grid.h)
    assert np.array_equal(plan.idx.ravel()[e],
                          (lead + np.floor(shift).astype(np.int64)) * n + e % n)
    near_key, near_row, near_live = plan.near
    near = np.flatnonzero(want_shift > -1.0)
    assert np.array_equal(near_key, want_key[near])
    # the stage-s cell's first half-row, 2 step + 1 + s + floor(-2 tau/h),
    # less 2 step - 2
    stage, e = np.divmod(want_key[near], n ** 2)
    half = np.floor(-2.0 * (delay.ravel()[e] / grid.h)).astype(np.int64)
    assert np.array_equal(near_row, 3 + stage + half)
    assert np.all((near_row >= 0) & (near_row <= 3))
    assert np.array_equal(near_live, np.searchsorted(near, want_live))
    assert np.array_equal(np.sort(key), np.sort(want_key))
    if kind.startswith("short"):
        assert not np.array_equal(key, want_key)


def test_horizon_below_rounding_is_one_step():
    # T / h_max below 1e-12 rounded to zero steps and divided by zero
    grid = TimeGrid.fit(4e-14, 0.05)
    assert (grid.steps, grid.h) == (1, 4e-14)
    assert grid.times.tolist() == [0.0, 4e-14]


def test_interp_matches_per_query_hermite():
    # columns given once, (n,), broadcast against the (times, n) queries:
    # the per-query Hermite formula bitwise, as with full-shape columns
    network, grid = _small_network(9, seed=5, onset=True)
    trace = network.solve(grid)
    tq = np.random.default_rng(4).uniform(0.0, grid.T, (50, network.n))
    cols = np.arange(network.n)
    at = np.broadcast_to(cols, tq.shape)
    k = np.minimum((tq / trace.h).astype(int), len(trace.times) - 2)
    w = stepping._hermite_weights(tq / trace.h - k, trace.h)
    pre = tq <= trace.onset[at]
    assert pre.any() and (~pre).any()
    for base, slope, interp in ((trace.value, trace.rate, trace.value_at),
                                (trace.acc, trace.acc_slope, trace.accel_at)):
        want = (w[0] * base[k, at] + w[1] * slope[k, at]
                + w[2] * base[k + 1, at] + w[3] * slope[k + 1, at])
        want[pre] = 0.0
        assert np.array_equal(interp(tq, cols), want)
        assert np.array_equal(interp(tq, at), want)


# Stage times t on h = 0.05, delays tau and source onsets whose arrival
# onset + tau ties t to the last ulp: t - tau > onset and t > onset + tau
# disagree, the first read live only by the former, the second by the latter.
_ARRIVAL_TIES = [(0.675, 0.2853138743084195, 0.3896861256915805),
                 (6.625000000000001, 0.7271683480209075, 5.897831651979093)]


def test_a_delayed_read_is_live_past_its_arrival():
    # one rule by arrival time: column j read through tau at t is exactly 0
    # iff t <= onset_j + tau; with no delay, iff t <= onset_j
    grid = TimeGrid.fit(8.0, 0.05)
    ones = np.ones((grid.steps + 1, 2))
    onset = np.array([tie[2] for tie in _ARRIVAL_TIES])
    trace = stepping.Trace(grid.times, ones, 0 * ones, ones, 0 * ones, onset, {})
    for j, (t, tau, _) in enumerate(_ARRIVAL_TIES):
        assert (t - tau > onset[j]) != (t > onset[j] + tau)
        for interp in (trace.accel_at, trace.value_at):
            assert (interp(t, j, tau) == 0.0) == (t <= onset[j] + tau)
            assert interp(onset[j], j) == 0.0
            assert interp(np.nextafter(onset[j], np.inf), j) == 1.0
    t = np.array([tie[0] for tie in _ARRIVAL_TIES])[:, None]
    tau = np.array([tie[1] for tie in _ARRIVAL_TIES])
    assert np.array_equal(trace.accel_at(t, [0, 1], tau) == 0.0, t <= onset + tau)


@pytest.mark.parametrize("tie", _ARRIVAL_TIES)
def test_plan_goes_live_past_a_tied_arrival(tie):
    # oscillator 0 reads oscillator 1 through tau and its own forcing starts
    # at that arrival, which ties a half-stage query: the plan's first live
    # query is the arrival's searchsorted over the stage times, and the march
    # is the per-query reference's, bitwise zero up to each onset
    t, tau, source = tie
    onset = np.array([source + tau, source])

    def forcing(times):
        return np.maximum(times - onset, 0.0) ** 3

    network = stepping.DelayNetwork([1.0, 1.5], [[0.0, 0.3], [-0.2, 0.0]],
                                    [[0.0, tau], [tau, 0.0]], forcing, onset)
    grid = TimeGrid.fit(np.ceil(t + 0.1), 0.05)
    steps = grid.steps
    query_t = grid.stage_times.T.ravel()
    tied = int(np.flatnonzero(query_t == t)[0]) + 1
    assert tied % 2 == 1
    plan = stepping._StagePlan(network, grid, stepping._window_lead(steps, steps))
    offset = np.floor(-2.0 * network.delay / grid.h).astype(np.int64)
    first = np.searchsorted(query_t, onset + network.delay, side="right") + 1
    want = np.where(network.coupling != 0, np.clip(first, -offset, 2 * steps + 1),
                    2 * steps + 1)
    assert np.array_equal(plan.first, want)
    assert plan.first[0, 1] == (tied + 1 if t <= onset[0] else tied)
    trace = network.solve(grid)
    ref = reference_march(network, grid)
    for name in FIELDS:
        got, want = getattr(trace, name), getattr(ref, name)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), name
    pre = trace.times[:, None] <= onset
    assert pre[:, 0].any() and not pre[:, 0].all()
    for name in FIELDS:
        assert np.all(getattr(trace, name)[pre] == 0.0), name
        assert np.all(getattr(ref, name)[pre] == 0.0), name


def _one_time_at_a_time(forcing):
    """The network's forcing, evaluated at one scalar time per call."""
    def per_time(t):
        return np.stack([forcing(ti) for ti in np.ravel(t)])
    return per_time


@pytest.mark.parametrize("kind", ["foldy", "jittered", "ragged_blocks"])
def test_block_forcing_matches_per_time_forcing(params, disk, disk_scene, kind,
                                                monkeypatch):
    network, grid = _networks(params, disk, disk_scene)[
        "jittered" if kind == "ragged_blocks" else kind]
    block = max(1, stepping.FORCING_BLOCK // network.n)
    if kind == "ragged_blocks":
        steps = 2 * block + 7   # two full blocks and a short one
        grid = TimeGrid(T=steps * grid.h, h=grid.h, steps=steps)
    per_time = copy.copy(network)
    per_time.forcing = _one_time_at_a_time(network.forcing)
    want = per_time.solve(grid)

    calls = []
    pulse_eval = sources.pulse_eval

    def counted(*args):
        calls.append(args)
        return pulse_eval(*args)

    monkeypatch.setattr(sources, "pulse_eval", counted)
    got = network.solve(grid)
    for name in FIELDS + ("acc_slope",):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    # one call at t = 0, then one per block at both stage offsets
    assert len(calls) == 1 + -(-grid.steps // block)


def _small_network(n, seed, onset=False):
    """n oscillators on a random cloud: some couplings zero, delays r_ij.

    With ``onset`` the forcing starts at each oscillator's distance from a
    source point, so onset_i <= onset_j + tau_ij; otherwise the onsets are
    the default zeros.
    """
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1.0, 1.0, (n, 3))
    delays = dense_distances(pts)
    coupling = rng.uniform(-0.02, 0.02, (n, n))
    coupling[rng.random((n, n)) < 0.3] = 0.0
    np.fill_diagonal(coupling, 0.0)
    start = np.linalg.norm(pts - [0.0, 0.0, 1.5], axis=1) if onset else np.zeros(n)
    amp = rng.uniform(0.5, 1.5, n)

    def forcing(t):
        return amp * np.maximum(t - start, 0.0) ** 4 * np.exp(-t)

    masses = rng.uniform(0.5, 2.0, n)
    network = stepping.DelayNetwork(masses, coupling, delays, forcing,
                                    start if onset else None)
    h = min(0.4 * network.min_delay, 0.05)
    steps = int(np.ceil(6.0 / h))
    return network, TimeGrid(T=steps * h, h=h, steps=steps)


@pytest.mark.parametrize("onset", [False, True], ids=["zero-onset", "onset"])
def test_march_shorter_than_its_deepest_lag_is_the_long_marchs_prefix(onset):
    # the history window holds 2 min(lag_max, steps) + 3 leading half-rows:
    # a grid shorter than the deepest lag gets fewer rows than the default
    # grid, and its trace is bitwise the first steps of the default grid's
    network, grid = _small_network(9, seed=3, onset=onset)
    full = network.solve(grid)
    lag_max = full.counters["lag_max"]
    steps = lag_max - 5
    assert grid.steps > lag_max > steps + 2 > 8
    short_grid = TimeGrid(T=steps * grid.h, h=grid.h, steps=steps)
    short = network.solve(short_grid)
    assert short.counters["lag_max"] == lag_max
    # the deepest cells lie before the short history: they read its zero cell
    plan = stepping._StagePlan(network, short_grid, stepping._window_lead(lag_max, steps))
    assert plan.idx.min() >= 0
    assert np.any(short.value != 0.0)
    for name in FIELDS:
        assert np.array_equal(getattr(short, name), getattr(full, name)[:steps + 1]), name
    # the newest slope is provisional until the next node finalizes it
    assert np.array_equal(short.acc_slope[:steps], full.acc_slope[:steps])


@pytest.mark.parametrize("gather_block", [4, stepping.GATHER_BLOCK], ids=["row", "default"])
def test_rows_without_live_pairs_sum_to_positive_zero(monkeypatch, gather_block):
    # two groups whose forcing arrives 1.0 apart: while only the first group's
    # pairs are live, the second group's rows hold zero weights only
    monkeypatch.setattr(stepping, "GATHER_BLOCK", gather_block)
    group = np.array([0, 0, 1, 1])
    tau = np.where(group[:, None] == group, 0.25, 1.0)
    network = stepping.DelayNetwork(np.full(4, 2.0), 0.05 * (1.0 - np.eye(4)), tau,
                                    lambda t: np.zeros(4), onset=group.astype(float))
    grid = TimeGrid.fit(3.0, 0.05)
    lead = stepping._window_lead(network.solve(grid).counters["lag_max"], grid.steps)
    plan = stepping._StagePlan(network, grid, lead)
    # every cell negative, so a zero weight times a value gives -0.0
    cells = np.full((stepping._Window.rows(lead) * network.n, 4), -1.0)
    mixed = 0
    for ns in range(grid.steps):
        # the rows with an entry live at the step's half stage (query
        # 2ns + 1) and at its full stage (2ns + 2)
        live = np.stack([(plan.first <= q).any(axis=1) for q in (2 * ns + 1, 2 * ns + 2)])
        total = plan.delayed_sum(ns, cells)
        assert np.all(total[~live] == 0.0) and not np.signbit(total[~live]).any(), ns
        assert np.all(total[live] != 0.0), ns
        mixed += live.any() and not live.all()
    assert mixed >= 10


def test_entries_live_from_a_full_stage_sum_zero_at_its_half_stage():
    # delays of 0.23 at h = 0.05: t_4 + h/2 = 0.225 is not past them and
    # t_5 = 0.25 is, so every entry goes live at the full stage of step 4,
    # with its weights written after that step's half-stage gather
    network = stepping.DelayNetwork(np.full(3, 2.0), 0.05 * (1.0 - np.eye(3)),
                                    np.full((3, 3), 0.23), lambda t: np.zeros(3))
    grid = TimeGrid.fit(1.0, 0.05)
    lead = stepping._window_lead(network.solve(grid).counters["lag_max"], grid.steps)
    plan = stepping._StagePlan(network, grid, lead)
    assert np.all(plan.first[network.coupling != 0] == 2 * 4 + 2)
    cells = np.full((stepping._Window.rows(lead) * network.n, 4), -1.0)
    for ns in range(6):
        total = plan.delayed_sum(ns, cells)
        live = np.broadcast_to([[ns > 4], [ns >= 4]], (2, 3))
        assert np.array_equal(total != 0.0, live), ns
        assert not np.signbit(total[total == 0.0]).any(), ns


@pytest.mark.parametrize("onset, kind", [(False, None), (True, None), (False, "coarse"),
                                         (False, "boundary")],
                         ids=["False", "True", "coarse", "boundary"])
def test_plan_with_zero_couplings_matches_reference(onset, kind):
    network, grid = _small_network(9, seed=3, onset=onset)
    if kind == "coarse":
        # near pairs live from the first step, through the start-up stencils
        grid = TimeGrid.fit(grid.T, 1.2 * network.min_delay)
        assert _near_pairs(network, grid).live[0] > 0
    if kind == "boundary":
        # delays of exactly 1.5h and 2h put cells on the near/far boundary:
        # shifts of exactly -1 at the half and the full stage
        delay = network.delay.copy()
        for (a, b), t in (((0, 1), 0.375), ((0, 2), 0.5)):
            delay[a, b] = delay[b, a] = t
        network = stepping.DelayNetwork(network.masses, network.coupling, delay,
                                        network.forcing)
        grid = TimeGrid.fit(grid.T, 0.25)
        assert grid.h == 0.25
        key, shift, _ = stage_pairs(network, grid)
        for stage in range(2):
            assert np.any(shift[key // network.n ** 2 == stage] == -1.0)
    assert 0 < np.count_nonzero(network.coupling) < 9 * 8
    # pairs not yet live gather rows before the first node from the zero
    # padding: lag_max rows deep in the first steps
    trace = network.solve(grid)
    assert trace.counters["lag_max"] > 2
    ref = reference_march(network, grid)
    for name in FIELDS:
        got, want = getattr(trace, name), getattr(ref, name)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), name
    pre = trace.times[:, None] <= trace.onset[None, :]
    assert pre.any() and (~pre).any()
    for name in FIELDS:
        assert np.all(getattr(trace, name)[pre] == 0.0), name


@pytest.mark.parametrize("coarse", [False, True])
def test_history_cells_hold_consecutive_rows(coarse, monkeypatch):
    network, grid = _small_network(9, seed=3, onset=not coarse)
    if coarse:
        # near pairs live: the half-rows are written twice per step
        grid = TimeGrid.fit(grid.T, 1.2 * network.min_delay)
    windows = []

    class Recorded(stepping._Window):
        def __init__(self, *args):
            super().__init__(*args)
            windows.append(self)

    monkeypatch.setattr(stepping, "_Window", Recorded)
    trace = network.solve(grid)
    if coarse:
        assert trace.counters["near_pairs"] > 0
    window, = windows
    cells, h, steps = window.H, grid.h, grid.steps
    assert cells.shape == (stepping._Window.rows(window.lead), network.n, 4)
    # the window was shifted past the first node, to start no later than
    # the last step's reach
    assert 0 <= window.base <= 2 * (steps - 1) + 1 - window.lead
    assert not np.shares_memory(trace.acc, cells) and not np.shares_memory(trace.acc_slope, cells)
    # cell (w, j) holds half-rows w and w + 1 bitwise; the trailing zero row
    # has no row after it
    bits = cells.view(np.int64)
    assert np.array_equal(bits[:-1, :, 2:], bits[1:, :, :2])
    assert not bits[-1].any()
    # the nodes are the trace's, the mid rows its cells' cubics at their
    # midpoints to rounding, and the rows past the last node read zero
    a, s = trace.acc, trace.acc_slope
    mid_a = (a[:-1] + a[1:]) / 2 + h * (s[:-1] - s[1:]) / 8
    mid_s = 1.5 * (a[1:] - a[:-1]) / h - (s[:-1] + s[1:]) / 4
    rows = np.zeros((2 * steps + 2 + len(cells), network.n, 2))
    rows[0:2 * steps + 1:2, :, 0], rows[0:2 * steps + 1:2, :, 1] = a, s
    rows[1:2 * steps:2, :, 0], rows[1:2 * steps:2, :, 1] = mid_a, mid_s
    held, got = rows[window.base:window.base + len(cells) - 1], cells[:-1, :, :2]
    node = (window.base + np.arange(len(held))) % 2 == 0
    assert np.array_equal(got[node], held[node])
    # values to rounding of the cells' data, slopes of that over h
    scale = (np.abs(a).max() + h * np.abs(s).max()) * np.array([1.0, 1.0 / h])
    assert np.all(np.abs(got[~node] - held[~node]) <= 1e-15 * scale)
    assert not got[window.base + np.arange(len(held)) > 2 * steps].any()


def test_divergence_names_the_first_non_finite_node():
    # a forcing that turns NaN after t = 1.03 reaches the stages of step 10,
    # whose half stage is t = 1.05: node 11 is the first non-finite one, in
    # the per-query reference march too, and the march stops there
    def forcing(t):
        return np.where(t < 1.03, np.exp(-t) * t ** 4, np.nan)

    network = stepping.DelayNetwork([1.0, 1.5], [[0.0, 0.1], [-0.2, 0.0]],
                                    [[0.0, 0.3], [0.3, 0.0]], forcing)
    grid = TimeGrid.fit(2.0, 0.1)
    value = reference_march(network, grid).value
    first = int(np.flatnonzero(~np.all(np.isfinite(value), axis=1))[0])
    assert first == 11
    with pytest.raises(DivergenceError) as caught:
        network.solve(grid)
    assert caught.value.step == first


def test_solve_is_bitwise_repeatable():
    network, grid = _small_network(9, seed=5, onset=True)
    other, other_grid = _small_network(14, seed=6)
    first = network.solve(grid)
    second = network.solve(grid)
    other.solve(other_grid)
    third = network.solve(grid)
    for name in FIELDS + ("acc_slope",):
        want = getattr(first, name)
        assert np.array_equal(getattr(second, name), want), name
        assert np.array_equal(getattr(third, name), want), name
    # the other network's march in between leaves no trace in the counters
    assert second.counters == first.counters == third.counters


def _plan_bytes(plan):
    return sum(a.nbytes for a in (plan.idx, plan.first, plan.live, plan.opens,
                                  plan.weights, plan.buf, *plan.near))


def test_plan_memory_within_old_budget():
    # the old per-pair plan held 48 B per pair per stage; the one row-major
    # plan of both stages, with its gather buffer, holds no more than one
    # stage of it and 8 B per n x n entry (2.37 MB of 2.75 MB at n = 222
    # when written)
    config = ExperimentConfig.load(CONFIG)
    scene = build_scene(config, 1.0 / 256.0)
    network = DelaySystem(scene.cluster, scene.params, scene.source)
    grid = TimeGrid.fit(config.horizon, 0.05)
    counters = network.solve(grid).counters
    plan = stepping._StagePlan(network, grid,
                               stepping._window_lead(counters["lag_max"], grid.steps))
    assert network.n > 200
    assert _plan_bytes(plan) <= 48 * counters["pairs"] + 8 * network.n ** 2


def _plan_case(params, disk_scene, kind):
    """A network and grid for the plan's reference tests, every one with
    onsets: one oscillator, two with a near pair, the default disk at
    d = 1/8 (n = 48) and 1/16 (n = 222), and nine on a grid of eight steps
    that the deepest delays outlast."""
    def decay(t):
        return np.exp(-t) * t ** 4

    if kind == "n1":
        network = stepping.DelayNetwork(np.ones(1), np.zeros((1, 1)), np.zeros((1, 1)),
                                        decay, onset=[0.25])
        return network, TimeGrid.fit(2.0, 0.05)
    if kind == "n2":
        network = stepping.DelayNetwork([1.0, 1.5], [[0.0, 0.1], [-0.2, 0.0]],
                                        [[0.0, 0.3], [0.3, 0.0]], decay, onset=[0.0, 0.2])
        return network, TimeGrid.fit(2.0, 0.2)
    if kind == "n48":
        return (DelaySystem(disk_scene["cluster"], params, disk_scene["source"]),
                TimeGrid.fit(4.0, 0.05))
    if kind == "n222":
        config = ExperimentConfig.load(CONFIG)
        scene = build_scene(config, 1.0 / 256.0)
        return (DelaySystem(scene.cluster, scene.params, scene.source),
                TimeGrid.fit(config.horizon, 0.05))
    network, grid = _small_network(9, seed=3, onset=True)
    return network, TimeGrid(T=8 * grid.h, h=grid.h, steps=8)


@pytest.mark.parametrize("kind", ["n1", "n2", "n48", "n48-row-blocks", "n222", "short"])
def test_plan_matches_the_split_plan(params, disk_scene, kind, monkeypatch):
    # the one pass over the plan rows against the plan and near entries
    # built pair by pair on the half-step grid: the same gather offsets,
    # first live queries, weights and near entries bitwise, in the same
    # order; with a buffer of one row, activation scans 32 rows at a time
    # and writes the entries it finds half a row at a time
    if kind.endswith("row-blocks"):
        monkeypatch.setattr(stepping, "GATHER_BLOCK", 64)
    network, grid = _plan_case(params, disk_scene, kind.split("-")[0])
    lead = stepping._window_lead(network.solve(grid).counters["lag_max"], grid.steps)
    plan = stepping._StagePlan(network, grid, lead)
    clear = stepping._Window.rows(lead) * network.n
    idx, first, weights, near = split_stage_plan(network, grid, lead, clear)
    assert np.array_equal(plan.idx, idx)
    assert np.array_equal(plan.first, first)
    assert plan.first.dtype == np.min_scalar_type(2 * grid.steps + 2)
    assert np.array_equal(plan.live[1:2 * grid.steps + 1],
                          np.count_nonzero(first.ravel() <= np.arange(1, 2 * grid.steps + 1)[:, None],
                                           axis=1))
    # every stage's sum activates the entries that go live at its query,
    # and no other
    coupled = network.block(0, network.n)[0] != 0
    cells = np.zeros((clear, 4))
    activated = []
    activate = plan.activate

    def recorded(q):
        activated.append(q)
        activate(q)

    monkeypatch.setattr(plan, "activate", recorded)
    for ns in range(grid.steps):
        plan.delayed_sum(ns, cells)
        assert np.array_equal(np.any(plan.weights != 0, axis=2),
                              coupled & (plan.first <= 2 * ns + 2)), ns
    assert activated == np.flatnonzero(plan.opens[:2 * grid.steps + 1]).tolist()
    assert np.array_equal(plan.weights.view(np.int64), weights.view(np.int64))
    assert len(plan.near) == len(near)
    for got, want in zip(plan.near, near):
        assert np.array_equal(got, want)
    if kind == "n2":
        assert len(near[0]) > 0
    if kind == "short":
        # coupled entries that never go live, some with cells before the
        # leading rows, read the trailing zero cell
        assert np.any(coupled & (plan.first == 2 * grid.steps + 1))
        assert np.any(coupled & (plan.idx == clear))


@pytest.mark.parametrize("kind", ["n1", "n2", "n48", "n222", "short"])
def test_first_live_query_is_the_earlier_stage_s(params, disk_scene, kind):
    # each entry's first live query is min(2 f_half + 1, 2 f_full + 2) of
    # its first live steps at the two stages taken apart, each from that
    # stage's times alone, so the half-step plan's live set at every stage
    # is the two-stage plan's
    network, grid = _plan_case(params, disk_scene, kind)
    n, h, steps = network.n, grid.h, grid.steps
    plan = stepping._StagePlan(network, grid, stepping._window_lead(steps, steps))
    coupling, delay = network.block(0, n)
    coupled = coupling != 0
    tau = np.where(coupled, delay, 0.0)
    f = []
    for sigma, stage_t in zip(SIGMAS, grid.stage_times):
        # a stage's first live step: the first time past the arrival onset_j + tau
        live = np.maximum(np.searchsorted(stage_t, network.onset + tau, side="right"),
                          -np.floor(sigma - tau / h).astype(np.int64))
        f.append(np.where(coupled, np.minimum(live, steps), steps))
    assert np.array_equal(plan.first, np.minimum(2 * f[0] + 1, 2 * f[1] + 2))
    if kind in ("n48", "n222"):
        # onsets put first live queries at both stages
        assert {1, 0} <= set(np.unique(plan.first[coupled] % 2).tolist())


@pytest.mark.parametrize("h", [0.05, 0.3])
def test_mid_rows_reproduce_the_full_cells_cubic(h):
    # on 10^5 random cells, the half cells between the nodes and the mid
    # rows interpolate the full cells' cubics: at each stage, at the query
    # of a pair with a random delay, the half-step plan's weights on the
    # half-rows give the full-cell Hermite value to rounding (7.4e-16 of the
    # cell's data at most when written)
    rng = np.random.default_rng(12)
    m = 10 ** 5
    A, S = rng.normal(size=(2, 4, m))
    S /= h
    # the seven half-rows of nodes 0 to 3: the nodes bitwise, the mid rows
    # from the cubics
    half = (stepping._half_row_map(h, 4) @ np.concatenate((A, S))).reshape(7, 2, m)
    assert np.array_equal(half[::2], np.stack((A, S), axis=1))
    # step 2 of the march, queries 5 and 6: delays reach back to node 0
    x = rng.uniform(0.0, 2.0, m)
    cols = np.arange(m)
    for sigma in SIGMAS:
        shift = sigma - x
        o = np.floor(shift).astype(int)
        w = stepping._hermite_weights(shift - o, h)
        want = (w[0] * A[2 + o, cols] + w[1] * S[2 + o, cols]
                + w[2] * A[3 + o, cols] + w[3] * S[3 + o, cols])
        # relative to the size of the cell's data
        size = (np.maximum(np.abs(A[2 + o, cols]), np.abs(A[3 + o, cols]))
                + h * np.maximum(np.abs(S[2 + o, cols]), np.abs(S[3 + o, cols])))
        q = 4 + int(2 * sigma)
        o2 = np.floor(-2.0 * x).astype(int)
        w2 = stepping._hermite_weights(-2.0 * x - o2, h / 2)
        got = (w2[0] * half[q + o2, 0, cols] + w2[1] * half[q + o2, 1, cols]
               + w2[2] * half[q + o2 + 1, 0, cols] + w2[3] * half[q + o2 + 1, 1, cols])
        assert np.all(np.abs(got - want) <= 1e-15 * size)


def _march_bytes(n, steps, lag_max):
    """The plan's offsets, weights and first live queries, the history
    window and the trace's four arrays of a march, in bytes."""
    first = np.min_scalar_type(2 * steps + 2).itemsize
    window = stepping._Window.rows(stepping._window_lead(lag_max, steps)) * n * 32
    return (40 + first) * n * n + window + 4 * (steps + 1) * n * 8


def test_foldy_march_peaks_within_its_plan_history_and_trace():
    # the plan's 41 B per n x n entry (int64 offsets, four weights and a
    # one-byte first live query, for both stages), the history window and
    # the trace's four arrays, and a fifth more: the march holds no list of
    # its pairs (1.17 times at n = 311 when written)
    config = ExperimentConfig.load(CONFIG)
    scene = build_scene(config, 1.0 / 350.0)
    network = DelaySystem(scene.cluster, scene.params, scene.source)
    grid = TimeGrid.fit(4.0, 0.05)
    tracemalloc.start()
    try:
        trace = network.solve(grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 280 < network.n < 320
    assert peak <= 1.2 * _march_bytes(network.n, grid.steps, trace.counters["lag_max"])


def test_sphere_foldy_march_peaks_within_its_plan_window_and_trace():
    # the sphere-cluster benchmark's scene, n = 256: its Foldy march's peak
    # within a fifth more than the plan's arrays, its gather buffer and near
    # entries included, the history window and the trace's four arrays
    # (1.15 times when written)
    config = ExperimentConfig.load(ROOT / "perfbench" / "configs" / "sphere_cluster.yaml")
    scene = build_scene(config)
    network = DelaySystem(scene.cluster, scene.params, scene.source)
    grid = TimeGrid.fit(config.horizon, config.data["run"]["h_max"])
    tracemalloc.start()
    try:
        trace = network.solve(grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    lead = stepping._window_lead(trace.counters["lag_max"], grid.steps)
    plan = _plan_bytes(stepping._StagePlan(network, grid, lead))
    window = stepping._Window.rows(lead) * network.n * 32
    values = sum(getattr(trace, name).nbytes for name in FIELDS + ("acc_slope",))
    assert network.n == 256
    assert peak <= 1.2 * (plan + window + values)


@pytest.mark.parametrize("eps, T", [(1.0 / 350.0, 4.0), (1.0 / 512.0, 20.0)])
def test_march_memory_estimates_the_network_and_its_march(eps, T):
    # the estimate counts the plan, the history and the trace, the network
    # holding no n x n array; what it leaves out (near pairs, block
    # temporaries) stays below 15% of the peak of building the network and
    # marching it (87% and 92% at this estimate, with 2,296 and 8,416 near
    # pairs)
    config = ExperimentConfig.load(CONFIG)
    scene = build_scene(config, eps)
    grid = TimeGrid.fit(T, 0.05)
    estimate = stepping.march_memory(scene.cluster.centers, scene.params.c0,
                                     grid)["memory_estimate_bytes"]
    tracemalloc.start()
    try:
        DelaySystem(scene.cluster, scene.params, scene.source).solve(grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0.85 * peak < estimate <= peak


def test_memory_budget_reads_the_address_space_limit_else_physical_memory(monkeypatch):
    # under a limit, the budget is what the process has not mapped yet; where
    # the mapped size cannot be read, the whole limit
    monkeypatch.setattr(resource, "getrlimit", lambda which: (123456789, resource.RLIM_INFINITY))
    monkeypatch.setattr(stepping, "_mapped_bytes", lambda: 23456789)
    assert stepping.memory_budget() == 100000000
    monkeypatch.setattr(stepping, "_mapped_bytes", lambda: 0)
    assert stepping.memory_budget() == 123456789
    monkeypatch.setattr(resource, "getrlimit",
                        lambda which: (resource.RLIM_INFINITY, resource.RLIM_INFINITY))
    assert stepping.memory_budget() == os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    monkeypatch.undo()
    assert stepping._mapped_bytes() > 0 or not os.path.exists("/proc/self/statm")


def test_march_memory_lag_covers_the_marchs_deepest_row(params, disk_scene):
    # the lag from the nodes' bounding box is never shallower than the
    # march's: the estimate's window holds every row the march keeps
    rule = disk_scene["rule"]
    network = EffectiveSystem(rule, params, disk_scene["source"])
    for h in (0.05, 0.01, 0.002):
        grid = TimeGrid.fit(2.0, h)
        lag = network.solve(grid).counters["lag_max"]
        estimate = stepping.march_memory(rule.nodes, params.c0, grid)["memory_estimate_bytes"]
        assert estimate >= _march_bytes(rule.m, grid.steps, lag)


def test_network_build_holds_and_peaks_within_its_two_matrices():
    # the network keeps per-oscillator arrays only, less than 1% of the
    # coupling and delay matrices it once held (16 B per n x n entry), and
    # its one check pass peaks below a quarter of them (0.13 when written)
    config = ExperimentConfig.load(CONFIG)
    scene = build_scene(config, 1.0 / 512.0)
    n = scene.cluster.n
    tracemalloc.start()
    try:
        network = DelaySystem(scene.cluster, scene.params, scene.source)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert n > 400
    arrays = [a for a in vars(network).values() if isinstance(a, np.ndarray)]
    assert sum(a.nbytes for a in arrays) < 0.01 * 16 * n * n
    assert peak < 0.25 * 16 * n * n


def _matrices_spec():
    """Three oscillators coupled in a ring 0 <- 1 <- 2 <- 0; the uncoupled
    entries carry delays, shorter than every coupled one, that are never read."""
    return {"masses": np.array([1.0, 2.0, 1.5]),
            "coupling": np.array([[0.0, 0.1, 0.0], [0.0, 0.0, 0.2], [-0.1, 0.0, 0.0]]),
            "delay": np.array([[0.0, 0.5, 0.1], [0.0, 0.0, 0.4], [0.3, 0.2, 0.0]]),
            "onset": np.zeros(3)}


def _matrices_network(spec):
    return stepping.DelayNetwork(spec["masses"], spec["coupling"], spec["delay"],
                                 lambda t: 0.0, spec["onset"])


@pytest.mark.parametrize("name, at, value", [
    pytest.param("coupling", None, np.zeros((3, 2)), id="non-square"),
    pytest.param("masses", None, np.ones(2), id="index-past-n"),
    pytest.param("delay", None, np.ones((2, 3)), id="unequal-lengths"),
    pytest.param("coupling", (1, 1), 0.3, id="i-equals-j"),
    pytest.param("coupling", (2, 0), np.nan, id="nan-coupling"),
    pytest.param("coupling", (2, 0), -np.inf, id="inf-coupling"),
    pytest.param("delay", (1, 2), 0.0, id="zero-delay"),
    pytest.param("delay", (1, 2), -0.4, id="negative-delay"),
    pytest.param("delay", (1, 2), np.nan, id="nan-delay"),
    pytest.param("delay", (1, 2), np.inf, id="inf-delay"),
    pytest.param("delay", (1, 0), -0.1, id="negative-uncoupled-delay"),
    pytest.param("delay", (1, 0), np.nan, id="nan-uncoupled-delay"),
    pytest.param("delay", (1, 0), np.inf, id="inf-uncoupled-delay"),
    pytest.param("masses", 1, np.nan, id="nan-mass"),
    pytest.param("masses", 1, 0.0, id="zero-mass"),
    pytest.param("masses", 1, np.inf, id="inf-mass"),
    pytest.param("onset", None, np.array([0.0, 0.0, 0.5]), id="onset-before-arrival"),
    pytest.param("onset", 0, -0.1, id="negative-onset"),
])
def test_bad_pair_lists_rejected(name, at, value):
    # the pairs are the nonzero entries of the coupling matrix, their delays
    # the delay matrix's; a bad entry, shape, mass or onset is a config error
    spec = _matrices_spec()
    assert _matrices_network(spec).min_delay == 0.3
    # onset_2 = 0.25 breaks only the uncoupled (2, 1): accepted
    assert _matrices_network({**spec, "onset": np.array([0.0, 0.0, 0.25])}).n == 3
    if at is None:
        spec[name] = value
    else:
        spec[name] = spec[name].copy()
        spec[name][at] = value
    with pytest.raises(ConfigError):
        _matrices_network(spec)


def test_uncoupled_delays_are_never_read():
    # any finite non-negative delay on a zero coupling, from zero to far past
    # the horizon: the march is bitwise the same and A(s) finite and equal
    network, grid = _small_network(9, seed=3, onset=True)
    uncoupled = network.coupling == 0
    assert np.count_nonzero(uncoupled) > 2 * network.n
    delay = network.delay.copy()
    delay[uncoupled] = np.random.default_rng(1).choice([0.0, 1e-3, 1e6],
                                                       np.count_nonzero(uncoupled))
    other = stepping.DelayNetwork(network.masses, network.coupling, delay,
                                  network.forcing, network.onset)
    assert other.min_delay == network.min_delay
    got, want = other.solve(grid), network.solve(grid)
    for name in FIELDS + ("acc_slope",):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert got.counters == want.counters
    for s in (0.5, 1.0 + 3.0j):
        a = assemble_operator(other, s)
        assert np.all(np.isfinite(a)) and np.array_equal(a, assemble_operator(network, s))


@pytest.fixture(scope="module")
def field_scene():
    """The default disk at eps 1/256, its Foldy trace and the output times."""
    config = ExperimentConfig.load(CONFIG)
    scene = build_scene(config, 1.0 / 256.0)
    network = DelaySystem(scene.cluster, scene.params, scene.source)
    trace = network.solve(TimeGrid.fit(config.horizon, 0.05))
    t_out = np.linspace(0.0, config.horizon, config.data["run"]["n_out"])
    return config, scene, trace, t_out


def test_blocked_field_matches_one_block(field_scene, monkeypatch):
    config, scene, trace, t_out = field_scene
    points, default = config.observation_points, stepping.FIELD_BLOCK
    assert scene.cluster.n * len(t_out) > 3 * default

    def series(block):
        monkeypatch.setattr(stepping, "FIELD_BLOCK", block)
        return scattered_series(trace, scene.cluster, scene.params, points, t_out)

    one = series(10**9)
    # one time per block, a ragged split and the default: the same sums bitwise
    for block in (1, 7 * scene.cluster.n, default):
        assert np.array_equal(series(block), one), block
    # one point and a scalar time give (1, 1); a time past the horizon is refused
    value = scattered_series(trace, scene.cluster, scene.params, points[0], t_out[-1])
    assert value.shape == (1, 1) and value[0, 0] == one[0, -1]
    with pytest.raises(UsageError):
        scattered_series(trace, scene.cluster, scene.params, points[0],
                         np.append(t_out, config.horizon + 1.0))


def test_blocked_field_memory(field_scene):
    # the (times x n) queries of a probe series no longer live at once, and
    # the blocks' temporaries stay small (0.76 MiB peak at n = 222; 3.04 MiB
    # with blocks four times larger)
    config, scene, trace, t_out = field_scene
    assert scene.cluster.n > 200 and len(t_out) > 400
    tracemalloc.start()
    try:
        scattered_series(trace, scene.cluster, scene.params, config.observation_points, t_out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
