import numpy as np
import pytest

from bubblescreen import (DelayNetwork, KFunction, TimeGrid, build_rule, cq_solve,
                          laplace_solve, partition)
from bubblescreen.effective import EffectiveSystem
from bubblescreen.errors import ParameterError
from bubblescreen.laplace_cq import assemble_operator

from oracles import dense_screen_operator

S_VALUES = [0.5 + 0.0j, 1.0 + 3.0j, 2.5 - 1.5j, 0.2 + 8.0j]


def _cq_gaps(network, weights, T):
    """max |Y_cq - x''| over max |x''| at h = 0.05, 0.025 and 0.0125."""
    diffs = []
    for h in (0.05, 0.025, 0.0125):
        grid = TimeGrid.fit(T, h)
        y_cq = cq_solve(network, weights, grid)
        acc = network.solve(grid).acc
        assert y_cq.shape == acc.shape
        diffs.append(np.abs(y_cq - acc).max() / np.abs(acc).max())
    return np.array(diffs)


def test_cq_matches_time_domain_second_order(params, disk_scene):
    # the CQ solves the march's own network in the Laplace domain, so only
    # the time stepping differs: BDF2 against RK4, agreeing to O(h^2)
    rule, source = disk_scene["rule"], disk_scene["source"]
    diffs = _cq_gaps(EffectiveSystem(rule, params, source), rule.weights, 4.0)
    assert diffs[0] <= 1.5e-3
    orders = np.log2(diffs[:-1] / diffs[1:])
    assert np.all(orders >= 1.7)


def test_cq_converges_to_the_march_on_a_generic_network():
    # any DelayNetwork, not only the screen: unequal masses, couplings of
    # both signs, no onsets and a forcing that is not a retarded pulse
    coupling = [[0.0, 0.6, -0.4], [0.3, 0.0, 0.5], [-0.2, 0.45, 0.0]]
    delays = [[0.0, 0.3, 0.7], [0.5, 0.0, 0.4], [0.6, 0.35, 0.0]]
    profile = np.array([1.0, -0.5, 0.25])
    network = DelayNetwork(np.array([2.0, 1.5, 3.0]), coupling, delays,
                           lambda t: np.exp(-t) * t**4 * profile)
    diffs = _cq_gaps(network, np.ones(3), 4.0)
    orders = np.log2(diffs[:-1] / diffs[1:])
    assert diffs[0] <= 2e-3
    assert np.all(orders >= 1.9)


def _sphere_rule(sphere):
    # two bubbles per patch: density 2 on every node
    pw = partition(sphere, 0.1)
    return build_rule(pw, KFunction.constant(1.0))


@pytest.mark.parametrize("surface", ["disk", "sphere"])
@pytest.mark.parametrize("s", S_VALUES)
def test_operator_matches_dense_screen_formula(params, disk_scene, sphere, surface, s):
    # the network's matrices against the screen written out densely: self
    # terms, column weights, 1/(4 pi r) kernel and delays r/c0
    rule = disk_scene["rule"] if surface == "disk" else _sphere_rule(sphere)
    want = dense_screen_operator(rule, params, s)
    got = assemble_operator(EffectiveSystem(rule, params, disk_scene["source"]), s)
    assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


@pytest.mark.parametrize("s", S_VALUES)
def test_laplace_solve_residual_and_resolvent_bound(params, disk_scene, s):
    rule = disk_scene["rule"]
    network = EffectiveSystem(rule, params, disk_scene["source"])
    rng = np.random.default_rng(3)
    rhs = rng.normal(size=rule.m) + 1j * rng.normal(size=rule.m)
    sol = laplace_solve(network, rule.weights, s, rhs)
    assert sol.residual <= 1e-8
    assert sol.bound_ok
    assert sol.sol_norm <= sol.bound


def test_laplace_solve_rejects_closed_half_plane(params, disk_scene):
    rule = disk_scene["rule"]
    network = EffectiveSystem(rule, params, disk_scene["source"])
    with pytest.raises(ParameterError):
        laplace_solve(network, rule.weights, 0.0 + 1.0j, np.ones(rule.m))
