import math
import random
import tracemalloc

import numpy as np
import pytest

from bubblescreen import (KFunction, build_surface, counting_scaling_check,
                          partition, place_bubbles)
from bubblescreen.errors import ConfigError, GeometryError, ResolutionError, UsageError
from bubblescreen.geometry import (_GRID_SHIFT, DISTANCE_BLOCK, MAX_PATCHES, _partition_disk,
                                   circle_rect_area, max_anchor_sums, pairwise_distances)
from bubblescreen.stepping import GATHER_BLOCK, RetardedNetwork

from oracles import (argsort_partition_disk, brute_inverse_distance_sum, dense_anchor_sums,
                     dense_min_distance, dense_retarded_matrices, loop_circle_rect_area,
                     loop_partition_sphere, loop_place_bubbles, planar_grid)


class TestSurfaces:
    def test_sphere_radius(self):
        s = build_surface("sphere", 1.0)
        assert s.radius == pytest.approx(1.0 / np.sqrt(4 * np.pi), rel=1e-14)

    def test_disk_radius(self):
        s = build_surface("disk", 1.0)
        assert s.radius == pytest.approx(1.0 / np.sqrt(np.pi), rel=1e-14)

    def test_zero_area_rejected(self):
        with pytest.raises(ConfigError):
            build_surface("sphere", 0.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            build_surface("torus", 1.0)


def _interior_cell_count(d: float, radius: float) -> int:
    # independent re-count of grid cells fully inside the disk, same
    # (1/3, 1/6)-of-a-cell anchor convention as the implementation
    ox, oy = _GRID_SHIFT[0] * d, _GRID_SHIFT[1] * d
    n = int(np.ceil(radius / d)) + 2
    count = 0
    for i in range(-n, n):
        for j in range(-n, n):
            x0, y0 = i * d + ox, j * d + oy
            if all((x0 + a * d) ** 2 + (y0 + b * d) ** 2 <= radius**2
                   for a in (0, 1) for b in (0, 1)):
                count += 1
    return count


class TestPartition:
    def test_disk_cell_count_example(self, disk):
        pw = partition(disk, 0.1)
        assert 75 <= pw.m <= 100
        assert pw.m == _interior_cell_count(0.1, disk.radius)

    def test_disk_partition_exhaustive(self, disk):
        pw = partition(disk, 0.1)
        assert abs(pw.areas.sum() - 1.0) < 1e-10

    def test_sphere_partition_exhaustive(self, sphere):
        pw = partition(sphere, 0.1)
        assert abs(pw.areas.sum() - 1.0) < 1e-10

    def test_sphere_equal_areas(self, sphere):
        pw = partition(sphere, 0.1)
        assert np.all(np.abs(pw.areas - 0.1**2) <= 0.2 * 0.1**2)
        assert np.ptp(pw.areas) < 1e-12

    def test_count_regime_band(self, disk, sphere):
        for surface in (disk, sphere):
            pw = partition(surface, 0.0625)
            assert 0.75 <= pw.m * pw.d**2 <= 1.25

    def test_spacing_too_large(self, disk):
        with pytest.raises(ResolutionError):
            partition(disk, 2.0 * disk.radius)

    def test_spacing_outside_count_regime(self, disk):
        # d = 1/4 covers too little of the disk with whole cells
        with pytest.raises(ResolutionError, match="M ~ d\\^-2"):
            partition(disk, 0.25)

    def test_no_cell_claimed_twice(self, disk):
        # each interior cell is one patch of at least its own d^2, and the
        # areas add up to the disk: a cell or sliver filed twice would exceed it
        pw = partition(disk, 0.1)
        assert pw.bounds.shape == (pw.m, 4) and pw.bounds.dtype == float
        assert len(np.unique(pw.bounds[:, :2], axis=0)) == pw.m == len(pw.centers)
        assert np.all(pw.bounds[:, 2:] == 0.1)
        assert np.all(pw.areas >= 0.1**2)
        assert abs(pw.areas.sum() - disk.total_area) < 1e-10

    def test_patch_centers_inside_disk(self, disk):
        pw = partition(disk, 0.1)
        rho = np.linalg.norm(pw.centers[:, :2], axis=1)
        assert np.all(rho < disk.radius)


class TestCircleRectArea:
    def test_cell_fully_inside(self):
        assert circle_rect_area(-0.1, 0.1, -0.1, 0.1, 5.0) == pytest.approx(0.04, rel=1e-14)

    def test_cell_fully_outside(self):
        assert circle_rect_area(2.0, 3.0, 2.0, 3.0, 1.0) == 0.0

    def test_full_disk_recovered(self):
        r = 0.7
        assert circle_rect_area(-1, 1, -1, 1, r) == pytest.approx(np.pi * r * r, rel=1e-13)

    @pytest.mark.parametrize("seed", range(6))
    def test_against_midpoint_sampling(self, seed):
        rng = np.random.default_rng(seed)
        r = rng.uniform(0.5, 1.5)
        x1, y1 = rng.uniform(-2, 1.5, 2)
        x2, y2 = x1 + rng.uniform(0.05, 1.0), y1 + rng.uniform(0.05, 1.0)
        n = 2000
        xs = np.linspace(x1, x2, n, endpoint=False) + (x2 - x1) / (2 * n)
        ys = np.linspace(y1, y2, n, endpoint=False) + (y2 - y1) / (2 * n)
        xx, yy = np.meshgrid(xs, ys, indexing="ij")
        approx = ((xx**2 + yy**2 <= r * r).sum() * (x2 - x1) * (y2 - y1) / n**2)
        exact = circle_rect_area(x1, x2, y1, y2, r)
        assert abs(exact - approx) < 5e-4 * max(r * r, 1.0)


class TestPlacement:
    def test_constant_zero_one_per_patch_at_centers(self, disk):
        pw = partition(disk, 0.125)
        cl = place_bubbles(pw, KFunction.constant(0.0), eps=1 / 64, seed=3)
        assert cl.n == pw.m
        assert np.allclose(cl.centers, pw.centers, atol=0.0)

    def test_constant_two_point_five_gives_three(self, disk):
        pw = partition(disk, 0.125)
        cl = place_bubbles(pw, KFunction.constant(2.5), eps=1e-3, seed=3)
        assert np.all(cl.counts == 3)
        assert cl.n == 3 * pw.m

    def test_linear_field_counts_match_direct_eval(self, sphere):
        pw = partition(sphere, 0.1)
        k = KFunction.linear_axis(scale=4.0, offset=0.5, axis=2)
        cl = place_bubbles(pw, k, eps=1e-3, seed=3)
        expected = np.floor(4.0 * (pw.centers[:, 2] + 0.5)).astype(int) + 1
        assert np.array_equal(cl.counts, expected)

    def test_deterministic_bitwise(self, sphere):
        pw = partition(sphere, 0.1)
        k = KFunction.linear_axis()
        a = place_bubbles(pw, k, eps=1e-3, seed=11)
        b = place_bubbles(pw, k, eps=1e-3, seed=11)
        assert np.array_equal(a.centers, b.centers)
        c = place_bubbles(pw, k, eps=1e-3, seed=12)
        assert not np.array_equal(a.centers, c.centers)

    @pytest.mark.parametrize("kind,const", [("disk", 2.5), ("sphere", 3.2)])
    def test_centers_on_surface_and_packed(self, kind, const):
        surface = build_surface(kind, 1.0)
        pw = partition(surface, 0.1)
        cl = place_bubbles(pw, KFunction.constant(const), eps=1e-3, seed=5)
        assert np.all(surface.surface_distance(cl.centers) <= 1e-12)
        floor = 0.3 * pw.d / np.sqrt(cl.counts.max())
        assert dense_min_distance(cl.centers) >= floor

    def test_infeasible_packing_rejected(self, disk):
        pw = partition(disk, 0.125)
        with pytest.raises(ResolutionError):
            place_bubbles(pw, KFunction.constant(0.0), eps=0.1, seed=0)

    def test_negative_k_rejected(self, disk):
        pw = partition(disk, 0.125)
        bad = KFunction(lambda pts: np.full(len(np.atleast_2d(pts)), -1.0))
        with pytest.raises(ConfigError):
            place_bubbles(pw, bad, eps=1e-3, seed=0)

    @pytest.mark.parametrize("value", [np.inf, np.nan, 2.0 ** 62])
    def test_k_beyond_the_counts_rejected(self, disk, value):
        # floor(K) + 1 once cast inf and nan to negative int64 counts, and
        # placement died on np.repeat
        pw = partition(disk, 0.125)
        bad = KFunction(lambda pts: np.full(len(np.atleast_2d(pts)), value))
        with pytest.raises(ConfigError, match=r"finite and in \[0, 2\*\*62\)"):
            bad.counts_at(pw.centers)


class TestInverseDistanceSums:
    def test_two_points(self):
        pts = np.array([[0.0, 0, 0], [0.3, 0, 0]])
        assert max_anchor_sums(pts, [1.0])[1][0] == pytest.approx(1 / 0.3, rel=1e-14)

    def test_three_collinear_middle_anchor(self):
        # the middle point (2/d) beats either end (1/d + 1/(2d))
        d = 0.2
        pts = np.array([[-d, 0, 0], [0, 0, 0], [d, 0, 0]])
        assert max_anchor_sums(pts, [1.0])[1][0] == pytest.approx(2 / d, rel=1e-14)

    def test_grid_matches_brute_force_and_bound(self):
        # bound constant fitted once on this grid family and frozen; the
        # maximum sits at a central anchor, 4.33 times d^-2 (1 + |log d|)
        pts = planar_grid(16, 1.0 / 16.0)
        d_min, (val,) = max_anchor_sums(pts, [2.0])
        best = max(brute_inverse_distance_sum(pts, 2.0, a) for a in range(len(pts)))
        assert val == pytest.approx(best, rel=1e-11)
        d = 1.0 / 16.0
        assert d_min == pytest.approx(d, rel=1e-14)
        assert val <= 4.5 * d**-2 * (1.0 + abs(np.log(d)))

    @pytest.mark.parametrize("kind", ["coincident", "nan"])
    def test_coincident_or_nan_centers_rejected(self, kind):
        pts = planar_grid(4, 0.25)
        pts[5] = pts[9] if kind == "coincident" else np.nan
        with pytest.raises(GeometryError):
            max_anchor_sums(pts, [1.0])


class TestCountingScaling:
    def test_k1_quadruples_when_halved(self, disk):
        rows = counting_scaling_check(disk, [0.125, 0.0625], [1.0])
        growth = rows[1]["max_anchor_sum"] / rows[0]["max_anchor_sum"]
        assert 2.0 < growth < 8.0
        ratios = [r["ratio"] for r in rows]
        assert max(ratios) / min(ratios) < 2.0

    def test_k3_octuples_when_halved(self, disk):
        rows = counting_scaling_check(disk, [0.125, 0.0625], [3.0])
        growth = rows[1]["max_anchor_sum"] / rows[0]["max_anchor_sum"]
        assert 4.0 < growth < 16.0

    def test_single_d_one_row(self, disk):
        rows = counting_scaling_check(disk, [0.125], [2.0])
        assert len(rows) == 1

    def test_increasing_list_rejected(self, disk):
        with pytest.raises(UsageError):
            counting_scaling_check(disk, [0.0625, 0.125], [1.0])

    def test_exponents_share_scenes_in_k_major_rows(self, disk):
        d_list = [0.125, 0.0625]
        rows = counting_scaling_check(disk, d_list, [1.0, 3.0])
        assert rows == (counting_scaling_check(disk, d_list, [1.0])
                        + counting_scaling_check(disk, d_list, [3.0]))
        with pytest.raises(UsageError):
            counting_scaling_check(disk, d_list, [])


def test_anchor_sums_of_a_single_point():
    assert max_anchor_sums(np.zeros((1, 3)), [1.0, 2.0]) == (np.inf, [0.0, 0.0])


def _difference_array_distances(points):
    diff = points[:, None, :] - points[None, :, :]
    return np.sqrt((diff**2).sum(axis=-1)), np.linalg.norm(diff, axis=-1)


@pytest.mark.parametrize("cloud", ["disk", "sphere", "random"])
def test_pairwise_distances_match_difference_array(cloud):
    if cloud == "random":
        pts = np.random.default_rng(3).normal(size=(150, 3))
    else:
        k = 0.0 if cloud == "disk" else 1.0
        pw = partition(build_surface(cloud, 1.0), 0.1)
        pts = place_bubbles(pw, KFunction.constant(k), eps=1e-3, seed=5).centers
    dist = np.vstack([block for _, block in pairwise_distances(pts)])
    off = ~np.eye(len(pts), dtype=bool)
    for ref in _difference_array_distances(pts):
        assert np.array_equal(dist[off], ref[off])
    assert np.all(np.diag(dist) == np.inf)
    assert np.array_equal(dist, dist.T)


# isqrt(DISTANCE_BLOCK) is the largest n whose rows all fit one block
_SIDE = math.isqrt(DISTANCE_BLOCK)
_BLOCK_EDGES = [1, 2, _SIDE - 1, _SIDE, _SIDE + 1, 1000]


@pytest.mark.parametrize("n", _BLOCK_EDGES)
def test_distance_blocks_cover_rows_in_order_within_the_bound(n):
    pts = np.random.default_rng(n).uniform(-1.0, 1.0, (n, 3))
    blocks = list(pairwise_distances(pts))
    assert [lo for lo, _ in blocks] == list(range(0, n, max(1, DISTANCE_BLOCK // n)))
    assert all(block.shape[1] == n and block.size <= DISTANCE_BLOCK for _, block in blocks)
    assert sum(len(block) for _, block in blocks) == n
    for lo, block in blocks:
        assert np.all(block[np.arange(len(block)), lo + np.arange(len(block))] == np.inf)
        assert np.count_nonzero(block == np.inf) == len(block)


@pytest.mark.parametrize("n", _BLOCK_EDGES)
def test_blocked_consumers_match_the_dense_matrix_bitwise(n, params, disk_scene):
    # placement minimum, counting sums at k = 1, 2, 3 and the retarded
    # network's couplings and delays, each against its one-piece reference:
    # every block of rows, at one row, at the network's own check and plan
    # blocks and at all rows, and random entries, the diagonal's among them
    rng = np.random.default_rng(n)
    pts = rng.uniform(-1.0, 1.0, (n, 3))
    assert max_anchor_sums(pts, [1.0, 2.0, 3.0]) == (
        dense_min_distance(pts), dense_anchor_sums(pts, [1.0, 2.0, 3.0]))
    w = rng.uniform(0.5, 1.5, n)
    network = RetardedNetwork(pts, w, np.ones(n), params, disk_scene["source"])
    # bitwise, the signs of the zero diagonals included
    dense = [m.view(np.int64) for m in dense_retarded_matrices(pts, w, params.c0)]
    assert not np.diagonal(dense[0]).any() and not np.diagonal(dense[1]).any()
    for rows in sorted({1, max(1, GATHER_BLOCK // n), n}):
        for lo in range(0, n, rows):
            for got, want in zip(network.block(lo, lo + rows), dense):
                assert np.array_equal(got.view(np.int64), want[lo:lo + rows])
    key = np.concatenate((rng.integers(0, n * n, 500), np.arange(n) * (n + 1)))
    for got, want in zip(network.entries(key), dense):
        assert np.array_equal(got.view(np.int64), want.take(key))


def test_anchor_sums_peak_below_a_quarter_of_the_dense_matrix():
    pts = planar_grid(45, 1.0 / 45.0)
    dense_bytes = 8 * len(pts) ** 2     # 32.8 MB at n = 2025
    tracemalloc.start()
    try:
        max_anchor_sums(pts, [1.0, 2.0, 3.0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < dense_bytes / 4


@pytest.mark.parametrize("seed", range(5))
def test_jittered_subgrids_match_the_per_point_loops_bitwise(seed):
    # disk cells, sphere collars and both polar caps holding one to 39
    # bubbles each, placed in one pass: the per-point loops' clusters, drawn
    # patch by patch from the same generator, bitwise
    cycle = KFunction(lambda pts: (np.arange(len(pts)) + 7 * seed) % 39 + 0.5)
    for kind in ("disk", "sphere"):
        pw = partition(build_surface(kind, 1.0), 0.1)
        got = place_bubbles(pw, cycle, 1e-3, seed)
        want = loop_place_bubbles(pw, cycle, 1e-3, seed)
        assert set(range(1, 40)) <= set(got.counts.tolist())
        assert np.array_equal(got.centers, want.centers)
        assert np.array_equal(got.patch_ids, want.patch_ids)


@pytest.mark.parametrize("kind,k,eps", [
    ("disk", KFunction.constant(0.0), 1.0 / 64.0),
    ("disk", KFunction.linear_axis(scale=1.0, offset=0.6, axis=0), 1.0 / 256.0),
    ("sphere", KFunction.constant(1.0), 1.0 / 128.0),
    ("sphere", KFunction.constant(4.0), 1.0 / 512.0),
    ("sphere", KFunction.linear_axis(), 1.0 / 256.0),
    ("disk", KFunction.constant(1.0), 1.0 / 1024.0),
], ids=["disk-K0", "disk-linear-axis", "sphere-K1", "sphere-K4", "sphere-linear-axis",
        "disk-K1"])
def test_placement_matches_the_per_patch_loop(kind, k, eps):
    # every bubble placed in one pass from the boxes and one draw: the
    # per-patch loop's cluster bitwise
    pw = partition(build_surface(kind, 1.0), float(np.sqrt(eps)))
    got, want = place_bubbles(pw, k, eps, seed=7), loop_place_bubbles(pw, k, eps, seed=7)
    assert np.array_equal(got.centers, want.centers)
    assert np.array_equal(got.patch_ids, want.patch_ids)
    assert np.array_equal(got.counts, want.counts)
    assert got.patch_ids.dtype == want.patch_ids.dtype
    assert got.counts.dtype == want.counts.dtype


@pytest.mark.parametrize("d", [1.0 / 8.0, 1.0 / 16.0, 1.0 / 64.0, 1.0 / 100.0, 1.0 / 128.0])
def test_disk_partition_matches_the_argsort_merge(d):
    # the array classification of the lattice, the one-pass clipped areas
    # and each sliver's 9 x 9 window, ranked in the order of a full stable
    # argsort, give the per-cell loop's patchwork bitwise; at d = 1/100 the
    # disk holds more than 8k interior cells, at d = 1/128 16k
    surface = build_surface("disk", 1.0)
    got, want = partition(surface, d), argsort_partition_disk(surface, d)
    assert np.array_equal(got.centers, want.centers)
    assert np.array_equal(got.areas, want.areas)
    assert np.array_equal(got.bounds, want.bounds)


def test_coarse_disk_partition_matches_the_argsort_merge():
    # five and seven interior patches, fewer than eight candidates: the
    # patchworks that validation then refuses are still the old ones
    surface = build_surface("disk", 1.0)
    for d, m in ((0.25, 7), (0.3, 5)):
        got, want = _partition_disk(surface, d), argsort_partition_disk(surface, d)
        assert got.m == m
        assert np.array_equal(got.centers, want.centers)
        assert np.array_equal(got.areas, want.areas)
        assert np.array_equal(got.bounds, want.bounds)


@pytest.mark.parametrize("area", [0.05, 1.0, 7.0])
def test_clipped_areas_match_the_per_rectangle_loop(area):
    # every cell of the shifted lattice of a sweep of spacings, inside,
    # boundary and outside the disk, clipped in one array pass: the
    # per-rectangle loop's areas bitwise, signed zeros included
    r = float(np.sqrt(area / np.pi))
    for rho in (1.3, 2.9, 4.4, 7.5, 11.2, 17.0, 23.6):
        d = r / rho
        idx = np.arange(int(np.floor(-rho)) - 3, int(np.ceil(rho)) + 3)
        x, y = np.meshgrid(idx * d + _GRID_SHIFT[0] * d, idx * d + _GRID_SHIFT[1] * d,
                           indexing="ij")
        got = circle_rect_area(x, x + d, y, y + d, r)
        want = [loop_circle_rect_area(a, a + d, b, b + d, r)
                for a, b in zip(x.ravel().tolist(), y.ravel().tolist())]
        assert got.shape == x.shape
        assert np.array_equal(got.ravel().view(np.int64), np.array(want).view(np.int64))
        assert np.count_nonzero((got > 0.0) & (got < d * d)) > 0


def _disk_lattice(rho):
    """Lattice indices, at d = 1, of the interior patches of a disk of radius
    rho in patch order, and every other cell that touches the disk (each
    boundary sliver among them), as a mask on the lattice from -n to n - 1."""
    surface = build_surface("disk", np.pi * rho * rho)
    inner = np.rint(_partition_disk(surface, 1.0).bounds[:, :2] - _GRID_SHIFT).astype(int)
    n = int(np.ceil(rho)) + 2
    lo = np.arange(-n, n)[:, None] + _GRID_SHIFT
    near = np.minimum(np.maximum(0.0, lo), lo + 1.0) ** 2
    boundary = np.add.outer(near[:, 0], near[:, 1]) < surface.radius ** 2
    boundary[tuple(inner.T + n)] = False
    return inner, boundary, n


def test_sliver_window_holds_the_eight_nearest_centers():
    # the partition ranks each sliver's candidates within its 9 x 9 window
    # of lattice cells.  Directly, for r/d in [1, 20]: every interior center
    # as near as a sliver's eighth nearest (ties included; every center when
    # there are fewer than eight) lies within Chebyshev radius 4 of it, and
    # radius 3 does not always do
    reach = []
    for rho in np.linspace(1.0, 20.0, 80):
        try:
            inner, boundary, n = _disk_lattice(rho)
        except ResolutionError:   # fewer than four interior cells
            continue
        diff = inner - (np.argwhere(boundary) - n)[:, None]
        d2 = (diff**2).sum(axis=2)
        kth = np.sort(d2, axis=1)[:, min(7, len(inner) - 1), None]
        reach.append(int(np.abs(diff).max(axis=2)[d2 <= kth].max()))
    assert len(reach) > 70 and max(reach) == 4 and reach.count(4) < len(reach)


def test_sliver_window_claim_holds_up_to_the_patch_limit():
    # past r/d = 2.74 and up to MAX_PATCHES (r/d about 144): the 7 x 7
    # window of every boundary cell holds min(8, m) interior cells, so the
    # eighth nearest center lies within sqrt(18) d < 5 d, while every cell
    # outside the 9 x 9 window is at least 5 d away
    assert np.sqrt(MAX_PATCHES / np.pi) < 144.5
    for rho in np.geomspace(2.75, 144.0, 30):
        inner, boundary, n = _disk_lattice(rho)
        grid = np.zeros(boundary.shape, int)
        grid[tuple(inner.T + n)] = 1
        total = np.pad(np.pad(grid, 3).cumsum(axis=0).cumsum(axis=1), ((1, 0), (1, 0)))
        a, b = np.nonzero(boundary)
        held = total[a + 7, b + 7] - total[a, b + 7] - total[a + 7, b] + total[a, b]
        assert held.min() >= min(8, len(inner)), rho


# the coarsest admissible spheres (m = 4 to 8 patches), then d = 1/3 to 1/69
# (4,761 patches)
_SPHERE_SPACINGS = [float(np.sqrt(1.0 / m)) for m in range(4, 9)] + [1.0 / k for k in range(3, 70)]


def test_sphere_partition_matches_the_sector_loop():
    # every collar sector built in one array pass: the per-sector loop's
    # centers, areas and boxes bitwise
    surface = build_surface("sphere", 1.0)
    for d in _SPHERE_SPACINGS:
        got, want = partition(surface, d), loop_partition_sphere(surface, d)
        assert np.array_equal(got.centers, want.centers)
        assert np.array_equal(got.areas, want.areas)
        assert np.array_equal(got.bounds, want.bounds)
    assert [partition(surface, d).m for d in _SPHERE_SPACINGS[:5]] == [4, 5, 6, 7, 8]


# a sphere of area 1/100 at eps 1/4096 (d = 1/64): 41 patches, and a cap's
# ring at radius sqrt(v / 4 pi) with v = d^2 to within 0.1%
_SMALL_SPHERE = 0.01
_CAP_EPS = 1.0 / 4096.0


def _cap_chord(pw, n):
    # a cap of area v = 4 pi r^2 sin^2(theta_cap / 2) puts its ring at
    # radius r sin(theta_cap / 2) = sqrt(v / 4 pi) from the axis
    return 2.0 * np.sqrt(pw.areas[0] / (4.0 * np.pi)) * np.sin(np.pi / (n - 1))


def test_cap_ring_that_overlaps_is_refused():
    # 64 bubbles a patch pass the sub-grid floor, 0.3 d / 8 = 2.40 eps, but
    # the 63 on a cap's ring sit 1.80 eps apart: radius-eps balls overlap
    pw = partition(build_surface("sphere", _SMALL_SPHERE), 1.0 / 64.0)
    assert pw.m == 41
    assert 0.3 * pw.d / 8.0 > 2.0 * _CAP_EPS
    assert _cap_chord(pw, 64) / _CAP_EPS == pytest.approx(1.80, abs=0.005)
    with pytest.raises(ResolutionError, match="cap ring"):
        place_bubbles(pw, KFunction.constant(63.0), _CAP_EPS, seed=1)


def test_cap_ring_with_room_is_placed():
    # 41 bubbles a patch: the 40 on a cap's ring sit 2.83 eps apart, which
    # is the cluster's least distance between ring neighbours
    pw = partition(build_surface("sphere", _SMALL_SPHERE), 1.0 / 64.0)
    cl = place_bubbles(pw, KFunction.constant(40.0), _CAP_EPS, seed=1)
    assert _cap_chord(pw, 41) / _CAP_EPS == pytest.approx(2.83, abs=0.005)
    ring = cl.centers[cl.patch_ids == 0][1:]
    assert dense_min_distance(ring) == pytest.approx(_cap_chord(pw, 41), rel=1e-9)
    assert dense_min_distance(cl.centers) > 2.0 * _CAP_EPS


@pytest.mark.parametrize("kind,k,caps", [
    ("disk", KFunction.constant(2.5), 0),
    ("disk", KFunction.linear_axis(scale=1.0, offset=0.6, axis=0), 0),
    ("sphere", KFunction.constant(2.5), 2),
    ("sphere", KFunction.linear_axis(), 1),
    ("disk", KFunction.constant(0.5), 0),
    ("sphere", KFunction.constant(0.0), 0),
], ids=["disk-K2.5", "disk-linear-axis", "sphere-K2.5", "sphere-linear-axis", "disk-K0.5",
        "sphere-K0"])
def test_placement_draws_once(monkeypatch, kind, k, caps):
    # one generator draws twice for every box bubble, plus a phase for each
    # cap holding more than one bubble (the north cap only, under
    # linear_axis); a scene of single bubbles makes no generator at all
    pw = partition(build_surface(kind, 1.0), 0.1)
    want = place_bubbles(pw, k, 1e-3, seed=4)
    made = []

    class Counting(random.Random):
        def __init__(self, seed):
            super().__init__(seed)
            self.draws = 0
            made.append(self)

        def random(self):
            self.draws += 1
            return super().random()

    monkeypatch.setattr(random, "Random", Counting)
    got = place_bubbles(pw, k, 1e-3, seed=4)
    assert np.array_equal(got.centers, want.centers)
    counts = k.counts_at(pw.centers)
    inner = counts[1:-1] if kind == "sphere" else counts
    draws = 2 * int(inner[inner > 1].sum()) + caps
    assert [gen.draws for gen in made] == ([draws] if draws else [])


@pytest.mark.parametrize("k", [0.0, 1.0])
def test_placement_refuses_a_negative_seed(k):
    # random.Random seeds from |seed|, so -7 would draw 7's stream
    pw = partition(build_surface("sphere", 1.0), 0.1)
    with pytest.raises(UsageError, match="seed must be nonnegative, got -7"):
        place_bubbles(pw, KFunction.constant(k), 1e-3, seed=-7)
