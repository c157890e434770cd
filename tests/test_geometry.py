import numpy as np
import pytest

from bubblescreen import (KFunction, build_surface, counting_scaling_check,
                          inverse_distance_sum, partition, place_bubbles)
from bubblescreen.errors import ConfigError, ResolutionError, UsageError
from bubblescreen.geometry import (_GRID_SHIFT, circle_rect_area,
                                   import_cluster_csv, min_pairwise_distance,
                                   pairwise_distances)

from oracles import brute_inverse_distance_sum, planar_grid


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
        pw = partition(disk, 0.1)
        cells = [c[0] for c in pw.cell_assignments]
        assert len(cells) == len(set(cells))

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
        assert cl.d_min >= floor

    def test_infeasible_packing_rejected(self, disk):
        pw = partition(disk, 0.125)
        with pytest.raises(ResolutionError):
            place_bubbles(pw, KFunction.constant(0.0), eps=0.1, seed=0)

    def test_negative_k_rejected(self, disk):
        pw = partition(disk, 0.125)
        bad = KFunction(lambda pts: np.full(len(np.atleast_2d(pts)), -1.0))
        with pytest.raises(ConfigError):
            place_bubbles(pw, bad, eps=1e-3, seed=0)

    def test_cluster_csv_roundtrip(self, disk, tmp_path):
        pw = partition(disk, 0.125)
        cl = place_bubbles(pw, KFunction.constant(1.2), eps=1e-3, seed=7)
        path = tmp_path / "cluster.csv"
        cl.export_csv(path)
        back = import_cluster_csv(path, eps=1e-3, surface=disk)
        assert np.array_equal(back.centers, cl.centers)
        assert np.array_equal(back.counts, cl.counts)
        assert back.d_min == pytest.approx(cl.d_min, rel=1e-14)


class TestInverseDistanceSums:
    def test_two_points(self):
        pts = np.array([[0.0, 0, 0], [0.3, 0, 0]])
        assert inverse_distance_sum(pts, 1.0, 0) == pytest.approx(1 / 0.3, rel=1e-14)

    def test_three_collinear_middle_anchor(self):
        d = 0.2
        pts = np.array([[-d, 0, 0], [0, 0, 0], [d, 0, 0]])
        assert inverse_distance_sum(pts, 1.0, 1) == pytest.approx(2 / d, rel=1e-14)

    def test_grid_matches_brute_force_and_bound(self):
        # bound constant fitted once on this grid family and frozen
        pts = planar_grid(16, 1.0 / 16.0)
        anchor = len(pts) // 2
        val = inverse_distance_sum(pts, 2.0, anchor)
        assert val == pytest.approx(
            brute_inverse_distance_sum(pts, 2.0, anchor), rel=1e-11)
        d = 1.0 / 16.0
        assert val <= 3.0 * d**-2 * (1.0 + abs(np.log(d)))

    def test_needs_two_points(self):
        with pytest.raises(UsageError):
            inverse_distance_sum(np.array([[0.0, 0, 0]]), 1.0, 0)


class TestCountingScaling:
    def test_k1_quadruples_when_halved(self, disk):
        rows = counting_scaling_check(disk, [0.125, 0.0625], 1.0)
        growth = rows[1]["max_anchor_sum"] / rows[0]["max_anchor_sum"]
        assert 2.0 < growth < 8.0
        ratios = [r["ratio"] for r in rows]
        assert max(ratios) / min(ratios) < 2.0

    def test_k3_octuples_when_halved(self, disk):
        rows = counting_scaling_check(disk, [0.125, 0.0625], 3.0)
        growth = rows[1]["max_anchor_sum"] / rows[0]["max_anchor_sum"]
        assert 4.0 < growth < 16.0

    def test_single_d_one_row(self, disk):
        rows = counting_scaling_check(disk, [0.125], 2.0)
        assert len(rows) == 1

    def test_increasing_list_rejected(self, disk):
        with pytest.raises(UsageError):
            counting_scaling_check(disk, [0.0625, 0.125], 1.0)


def test_min_pairwise_distance_single_point():
    assert min_pairwise_distance(np.zeros((1, 3))) == np.inf


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
    dist = pairwise_distances(pts)
    for ref in _difference_array_distances(pts):
        assert np.array_equal(dist, ref)
    assert np.all(np.diag(dist) == 0.0)
    assert np.array_equal(dist, dist.T)
