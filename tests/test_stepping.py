import copy

import numpy as np
import pytest

from bubblescreen import (KFunction, TimeGrid, effective_grid, partition,
                          place_bubbles, stepping)
from bubblescreen.effective import EffectiveSystem
from bubblescreen.errors import ConfigError
from bubblescreen.foldy import DelaySystem, default_grid

from oracles import reference_march

FIELDS = ("value", "rate", "acc")


def _networks(params, disk, disk_scene):
    rule, cluster, source = (disk_scene["rule"], disk_scene["cluster"],
                             disk_scene["source"])
    screen = EffectiveSystem(rule, params, source)
    foldy = DelaySystem(cluster, params, source)
    # two jittered bubbles per patch: off the patch-centre lattice
    jittered = place_bubbles(partition(disk, 0.125), KFunction.constant(1.0),
                             eps=1.0 / 256.0, seed=4)
    off_lattice = DelaySystem(jittered, params, source)
    return {"screen": (screen, effective_grid(rule, params, 4.0)),
            "foldy": (foldy, default_grid(foldy, 4.0)),
            "jittered": (off_lattice, default_grid(off_lattice, 4.0))}


@pytest.mark.parametrize("kind", ["screen", "foldy", "jittered"])
def test_plan_matches_reference_march(params, disk, disk_scene, kind):
    network, grid = _networks(params, disk, disk_scene)[kind]
    trace = network.solve(grid)
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


def test_step_above_half_min_delay_rejected(params, disk_scene):
    network = EffectiveSystem(disk_scene["rule"], params, disk_scene["source"])
    tau_min = network.min_delay
    steps = int(np.ceil(1.0 / (0.5 * tau_min)))
    network.solve(TimeGrid(T=steps * 0.5 * tau_min, h=0.5 * tau_min, steps=steps))
    h = 0.5 * tau_min * (1 + 1e-9)
    with pytest.raises(ConfigError):
        network.solve(TimeGrid(T=steps * h, h=h, steps=steps))


def test_march_counters(params, disk_scene):
    network = DelaySystem(disk_scene["cluster"], params, disk_scene["source"])
    grid = default_grid(network, 2.0)
    counters = network.march_counters(grid)
    n = disk_scene["cluster"].n
    assert counters == {"n": n, "pairs": n * (n - 1), "steps": grid.steps,
                        "h": grid.h, "h_over_tau_min": grid.h / network.min_delay}
    assert counters["h_over_tau_min"] <= 0.5


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
    pulse_eval = stepping.pulse_eval

    def counted(*args):
        calls.append(args)
        return pulse_eval(*args)

    monkeypatch.setattr(stepping, "pulse_eval", counted)
    got = network.solve(grid)
    for name in FIELDS + ("acc_slope",):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    # one call at t = 0, then one per stage offset and block
    assert len(calls) == 1 + 2 * -(-grid.steps // block)
