import numpy as np
import pytest

from bubblescreen import TimeGrid, cq_solve, laplace_solve
from bubblescreen.effective import EffectiveSystem
from bubblescreen.errors import ParameterError


def test_cq_matches_time_domain_second_order(params, disk_scene):
    # BDF2 convolution quadrature shares no code with the RK4 march; both
    # discretize the same collocated screen, so they agree to O(h^2)
    rule, source = disk_scene["rule"], disk_scene["source"]
    diffs = []
    for h in (0.05, 0.025, 0.0125):
        grid = TimeGrid.fit(4.0, h)
        y_cq = cq_solve(rule, params, grid, source)
        acc = EffectiveSystem(rule, params, source).solve(grid).acc
        assert y_cq.shape == acc.shape
        diffs.append(np.abs(y_cq - acc).max() / np.abs(acc).max())
    assert diffs[0] <= 1.5e-3
    orders = np.log2(np.array(diffs[:-1]) / np.array(diffs[1:]))
    assert np.all(orders >= 1.7)


@pytest.mark.parametrize("s", [0.5 + 0.0j, 1.0 + 3.0j, 2.5 - 1.5j, 0.2 + 8.0j])
def test_laplace_solve_residual_and_resolvent_bound(params, disk_scene, s):
    rule = disk_scene["rule"]
    rng = np.random.default_rng(3)
    rhs = rng.normal(size=rule.m) + 1j * rng.normal(size=rule.m)
    sol = laplace_solve(rule, params, s, rhs)
    assert sol.residual <= 1e-8
    assert sol.bound_ok
    assert sol.sol_norm <= sol.bound


def test_laplace_solve_rejects_closed_half_plane(params, disk_scene):
    rule = disk_scene["rule"]
    with pytest.raises(ParameterError):
        laplace_solve(rule, params, 0.0 + 1.0j, np.ones(rule.m))
