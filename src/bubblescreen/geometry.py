"""Surface construction, equal-area patch partitions, and bubble placement.

Two surfaces are supported, matching the two admissible cases (closed or open):

* ``sphere`` -- closed surface, partitioned into exact equal-area patches by
  polar caps plus latitude collars subdivided into sectors.
* ``disk`` -- open flat surface in the z = 0 plane, partitioned by clipping a
  square grid of spacing d to the disk.  Cells fully inside keep their exact
  d^2 area; boundary slivers are merged into the nearest interior patch so the
  partition stays exhaustive.

Patch areas on the sphere equal area/M exactly; on the disk the merged
boundary patches may exceed d^2 by up to roughly one cell, which is the O(d)
boundary budget of the model (interior cells stay exactly d^2).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, GeometryError, ResolutionError, UsageError

# ---------------------------------------------------------------------------
# Surfaces
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class SurfaceDescriptor:
    """Sphere (closed) or disk in the z=0 plane (open), with exact area."""

    kind: str
    radius: float
    total_area: float

    @property
    def diameter(self) -> float:
        return 2.0 * self.radius

    def normal_at(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(points)
        if self.kind == "sphere":
            return pts / np.linalg.norm(pts, axis=-1, keepdims=True)
        out = np.zeros_like(pts)
        out[:, 2] = 1.0
        return out

    def surface_distance(self, points: np.ndarray) -> np.ndarray:
        """Unsigned distance from points to the surface."""
        pts = np.atleast_2d(points)
        if self.kind == "sphere":
            return np.abs(np.linalg.norm(pts, axis=-1) - self.radius)
        rho = np.linalg.norm(pts[:, :2], axis=-1)
        inside = rho <= self.radius
        d_in = np.abs(pts[:, 2])
        d_out = np.sqrt((rho - self.radius) ** 2 + pts[:, 2] ** 2)
        return np.where(inside, d_in, d_out)


def build_surface(kind: str, target_area: float = 1.0) -> SurfaceDescriptor:
    """Build a surface of exactly ``target_area``."""
    if target_area <= 0:
        raise ConfigError("surface area must be positive")
    if kind == "sphere":
        return SurfaceDescriptor("sphere", float(np.sqrt(target_area / (4.0 * np.pi))), target_area)
    if kind == "disk":
        return SurfaceDescriptor("disk", float(np.sqrt(target_area / np.pi)), target_area)
    raise ConfigError(f"unsupported surface kind {kind!r}")


# ---------------------------------------------------------------------------
# Exact circle / axis-aligned-rectangle intersection area
# ---------------------------------------------------------------------------
def _sqrt_clip(v: float) -> float:
    return float(np.sqrt(max(v, 0.0)))


def _antider(x: float, r: float) -> float:
    # antiderivative of sqrt(r^2 - x^2)
    x = min(max(x, -r), r)
    return 0.5 * (x * _sqrt_clip(r * r - x * x) + r * r * np.arcsin(x / r))


def circle_rect_area(x1: float, x2: float, y1: float, y2: float, r: float) -> float:
    """Exact area of [x1,x2] x [y1,y2] intersected with the disk |p| <= r."""
    x1, x2 = min(x1, x2), max(x1, x2)
    y1, y2 = min(y1, y2), max(y1, y2)
    lo, hi = max(x1, -r), min(x2, r)
    if lo >= hi:
        return 0.0
    # breakpoints where the circle height crosses y1 or y2
    cuts = {lo, hi}
    for yy in (y1, y2):
        if abs(yy) < r:
            xc = _sqrt_clip(r * r - yy * yy)
            for cand in (-xc, xc):
                if lo < cand < hi:
                    cuts.add(cand)
    xs = sorted(cuts)
    area = 0.0
    for a, b in zip(xs[:-1], xs[1:]):
        xm = 0.5 * (a + b)
        ym = _sqrt_clip(r * r - xm * xm)
        upper_is_circle = ym < y2
        lower_is_circle = -ym > y1
        if min(ym, y2) <= max(-ym, y1):
            continue
        seg = 0.0
        seg += (_antider(b, r) - _antider(a, r)) if upper_is_circle else y2 * (b - a)
        seg -= (-(_antider(b, r) - _antider(a, r))) if lower_is_circle else y1 * (b - a)
        area += seg
    return area


# ---------------------------------------------------------------------------
# Patchwork
# ---------------------------------------------------------------------------
@dataclass
class Patch:
    """One surface patch: center on the surface and exact area.

    ``bounds`` carries the parameter box needed for intra-patch placement:
    disk -> (x0, y0, size); sphere collar -> (z_lo, z_hi, phi_lo, phi_hi);
    sphere cap -> ("cap", z_pole_sign, theta_cap).
    """

    center: np.ndarray
    area: float
    bounds: tuple


@dataclass
class Patchwork:
    surface: SurfaceDescriptor
    d: float
    patches: list[Patch]
    cell_assignments: list[tuple] = field(default_factory=list, repr=False)

    @property
    def m(self) -> int:
        return len(self.patches)

    @property
    def centers(self) -> np.ndarray:
        return np.array([p.center for p in self.patches])

    @property
    def areas(self) -> np.ndarray:
        return np.array([p.area for p in self.patches])

    def validate(self) -> None:
        areas = self.areas
        total = float(areas.sum())
        if abs(total - self.surface.total_area) > 1e-10 * max(1.0, self.surface.total_area):
            raise GeometryError(
                f"partition not exhaustive: sum of areas {total} != {self.surface.total_area}"
            )
        if self.m * self.d**2 < 0.75 * self.surface.total_area or (
            self.m * self.d**2 > 1.25 * self.surface.total_area
        ):
            raise ResolutionError("patch count inconsistent with M ~ d^-2 regime")
        if self.surface.kind == "sphere":
            if np.any(np.abs(areas - self.d**2) > 0.2 * self.d**2):
                raise GeometryError("sphere patch areas beyond 20% of d^2")
        else:
            # interior cells are exactly d^2; merged boundary patches may carry
            # up to ~2 cells of clipped slivers (the paper's O(d) boundary ring)
            if np.any(areas < 0.8 * self.d**2) or np.any(areas > 3.0 * self.d**2):
                raise GeometryError("disk patch areas outside admissible band")
        seen = set()
        for key in (c[0] for c in self.cell_assignments):
            if key in seen:
                raise GeometryError(f"cell {key} assigned to two patches")
            seen.add(key)


# Grid anchor offsets (fractions of a cell).  Corner- or center-symmetric
# alignments of the square grid with the circular boundary make the covered
# area jump erratically between spacings; the asymmetric (1/3, 1/6) shift
# breaks those degeneracies so the uncovered boundary ring shrinks smoothly
# (~1.8 d across the operating range).
_GRID_SHIFT = (1.0 / 3.0, 1.0 / 6.0)


def _partition_disk(surface: SurfaceDescriptor, d: float) -> Patchwork:
    r = surface.radius
    ox, oy = _GRID_SHIFT[0] * d, _GRID_SHIFT[1] * d
    idx_lo = int(np.floor(-r / d)) - 2
    idx_hi = int(np.ceil(r / d)) + 2
    interior: list[tuple[int, int]] = []
    partial: list[tuple[tuple[int, int], float]] = []
    for i in range(idx_lo, idx_hi):
        for j in range(idx_lo, idx_hi):
            x0, y0 = i * d + ox, j * d + oy
            cx = min(max(0.0, x0), x0 + d)
            cy = min(max(0.0, y0), y0 + d)
            if cx * cx + cy * cy >= r * r:
                continue  # nearest rect point outside the disk
            corners_in = all(
                (x0 + a * d) ** 2 + (y0 + b * d) ** 2 <= r * r
                for a in (0, 1) for b in (0, 1)
            )
            if corners_in:
                interior.append((i, j))
            else:
                area = circle_rect_area(x0, x0 + d, y0, y0 + d, r)
                if area > 0.0:
                    partial.append(((i, j), area))
    if len(interior) < 4:
        raise ResolutionError(f"spacing d={d} leaves only {len(interior)} interior cells (< 4)")

    centers = np.array([((i + 0.5) * d + ox, (j + 0.5) * d + oy) for i, j in interior])
    areas = np.full(len(interior), d * d)
    assignments = [((i, j), k, "core") for k, (i, j) in enumerate(interior)]
    # merge boundary slivers into nearby interior patches, largest first and
    # capacity-aware so no patch collects much more than one extra cell
    cap = 2.2 * d * d
    order = sorted(partial, key=lambda item: (-item[1], item[0]))
    for (i, j), area in order:
        c = np.array([(i + 0.5) * d + ox, (j + 0.5) * d + oy])
        by_dist = np.argsort(((centers - c) ** 2).sum(axis=1), kind="stable")
        k = next((int(q) for q in by_dist[:8] if areas[q] + area <= cap),
                 int(by_dist[0]))
        areas[k] += area
        assignments.append(((i, j), k, "merged"))

    patches = [
        Patch(
            center=np.array([cx, cy, 0.0]),
            area=float(a),
            bounds=(interior[k][0] * d + ox, interior[k][1] * d + oy, d),
        )
        for k, ((cx, cy), a) in enumerate(zip(centers, areas))
    ]
    return Patchwork(surface=surface, d=d, patches=patches, cell_assignments=assignments)


def _collar_counts(ideal: np.ndarray, total: int) -> list[int]:
    counts, acc = [], 0.0
    for y in ideal:
        n = int(round(y + acc))
        n = max(n, 1)
        acc += y - n
        counts.append(n)
    counts[-1] += total - sum(counts)
    if counts[-1] < 1:
        # fold the deficit into the previous collar
        counts[-2] += counts[-1] - 1
        counts[-1] = 1
    return counts


def _sector_centroid(r: float, th_a: float, th_b: float, ph_a: float, ph_b: float) -> np.ndarray:
    i_th2 = 0.5 * (th_b - th_a) - 0.25 * (np.sin(2 * th_b) - np.sin(2 * th_a))
    i_thz = 0.5 * (np.sin(th_b) ** 2 - np.sin(th_a) ** 2)
    c = np.array(
        [
            i_th2 * (np.sin(ph_b) - np.sin(ph_a)),
            i_th2 * (np.cos(ph_a) - np.cos(ph_b)),
            i_thz * (ph_b - ph_a),
        ]
    )
    nrm = np.linalg.norm(c)
    if nrm == 0.0:
        return np.array([0.0, 0.0, r])
    return c / nrm * r


def _partition_sphere(surface: SurfaceDescriptor, d: float) -> Patchwork:
    r = surface.radius
    total = surface.total_area
    m = int(round(total / d**2))
    if m < 4:
        raise ResolutionError(f"spacing d={d} gives only {m} patches (< 4)")
    v = total / m

    cos_cap = 1.0 - v / (2.0 * np.pi * r * r)
    theta_cap = float(np.arccos(np.clip(cos_cap, -1.0, 1.0)))
    span = np.pi - 2.0 * theta_cap
    n_collars = max(1, int(round(span * r / np.sqrt(v))))
    edges = theta_cap + span * np.arange(n_collars + 1) / n_collars
    ideal = (
        2.0 * np.pi * r * r * (np.cos(edges[:-1]) - np.cos(edges[1:]))
    ) / v
    counts = _collar_counts(ideal, m - 2)

    patches: list[Patch] = [
        Patch(center=np.array([0.0, 0.0, r]), area=v, bounds=("cap", 1.0, theta_cap))
    ]
    # collar boundaries recomputed from cumulative exact areas -> every patch
    # has area exactly v
    used = 1
    cos_hi = cos_cap
    for ci, n_i in enumerate(counts):
        cos_lo = 1.0 - (used + n_i) * v / (2.0 * np.pi * r * r)
        th_a = float(np.arccos(np.clip(cos_hi, -1.0, 1.0)))
        th_b = float(np.arccos(np.clip(cos_lo, -1.0, 1.0)))
        offset = (ci % 2) * np.pi / n_i
        for k in range(n_i):
            ph_a = offset + 2.0 * np.pi * k / n_i
            ph_b = offset + 2.0 * np.pi * (k + 1) / n_i
            center = _sector_centroid(r, th_a, th_b, ph_a, ph_b)
            patches.append(
                Patch(center=center, area=v, bounds=(r * cos_lo, r * cos_hi, ph_a, ph_b))
            )
        used += n_i
        cos_hi = cos_lo
    patches.append(
        Patch(center=np.array([0.0, 0.0, -r]), area=v, bounds=("cap", -1.0, theta_cap))
    )
    assignments = [((k,), k, "sector") for k in range(len(patches))]
    return Patchwork(surface=surface, d=d, patches=patches, cell_assignments=assignments)


def partition(surface: SurfaceDescriptor, d: float) -> Patchwork:
    """Partition the surface into M ~ area/d^2 patches of area ~ d^2."""
    if d <= 0 or d >= surface.diameter:
        raise ResolutionError(f"spacing d={d} incompatible with surface diameter {surface.diameter}")
    pw = _partition_disk(surface, d) if surface.kind == "disk" else _partition_sphere(surface, d)
    pw.validate()
    return pw


# ---------------------------------------------------------------------------
# Bubble density and placement
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class KFunction:
    """Nonnegative surface density driver; per-patch count is floor(K)+1."""

    evaluator: Callable[[np.ndarray], np.ndarray]
    label: str = "custom"

    @staticmethod
    def constant(value: float) -> "KFunction":
        if value < 0:
            raise ConfigError("K must be nonnegative")
        return KFunction(lambda pts: np.full(len(np.atleast_2d(pts)), float(value)),
                         label=f"constant:{value}")

    @staticmethod
    def linear_axis(scale: float = 4.0, offset: float = 0.5, axis: int = 2) -> "KFunction":
        def ev(pts: np.ndarray) -> np.ndarray:
            return scale * (np.atleast_2d(pts)[:, axis] + offset)
        return KFunction(ev, label=f"linear_axis:{scale}:{offset}:{axis}")

    def counts_at(self, points: np.ndarray) -> np.ndarray:
        vals = np.asarray(self.evaluator(np.atleast_2d(points)), dtype=float)
        if np.any(vals < 0):
            raise ConfigError("K must be nonnegative on the surface")
        return np.floor(vals).astype(int) + 1


@dataclass
class BubbleCluster:
    """Bubble centers grouped by patch, with packing diagnostics."""

    centers: np.ndarray          # (n, 3)
    patch_ids: np.ndarray        # (n,)
    counts: np.ndarray           # (M,) = floor(K)+1 per patch
    eps: float
    d_min: float
    surface: SurfaceDescriptor

    @property
    def n(self) -> int:
        return len(self.centers)

    def export_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(["patch_id", "bubble_id", "x", "y", "z", "count"])
            for b, (pid, c) in enumerate(zip(self.patch_ids, self.centers)):
                wr.writerow([int(pid), b, repr(float(c[0])), repr(float(c[1])),
                             repr(float(c[2])), int(self.counts[pid])])


def import_cluster_csv(path, eps: float, surface: SurfaceDescriptor) -> BubbleCluster:
    pids, pts = [], []
    counts: dict[int, int] = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            pid = int(row["patch_id"])
            pids.append(pid)
            pts.append([float(row["x"]), float(row["y"]), float(row["z"])])
            counts[pid] = int(row["count"])
    centers = np.array(pts)
    count_arr = np.array([counts[k] for k in sorted(counts)])
    return BubbleCluster(
        centers=centers, patch_ids=np.array(pids), counts=count_arr, eps=eps,
        d_min=min_pairwise_distance(centers), surface=surface,
    )


def pairwise_distances(points: np.ndarray) -> np.ndarray:
    """(n, n) matrix of |p_i - p_j|, accumulated one coordinate at a time.

    No (n, n, 3) difference array is built.  The diagonal is exactly zero and
    the matrix exactly symmetric, since (a - b)^2 == (b - a)^2 in floating
    point.
    """
    pts = np.asarray(points, dtype=float)
    d2 = np.subtract.outer(pts[:, 0], pts[:, 0]) ** 2
    for k in range(1, pts.shape[1]):
        d2 += np.subtract.outer(pts[:, k], pts[:, k]) ** 2
    return np.sqrt(d2, out=d2)


def min_pairwise_distance(points: np.ndarray) -> float:
    if len(points) < 2:
        return float("inf")
    dist = pairwise_distances(points)
    np.fill_diagonal(dist, np.inf)
    return float(dist.min())


_JITTER = 0.15  # fraction of a sub-cell; keeps the packing floor at 0.3*d/sqrt(n)


def _subgrid_disk(patch: Patch, n: int, rng: np.random.Generator) -> np.ndarray:
    x0, y0, size = patch.bounds
    g = int(np.ceil(np.sqrt(n)))
    sub = size / g
    pts = []
    for i in range(n):
        cell = (i * g * g) // n
        gi, gj = divmod(cell, g)
        jx, jy = rng.uniform(-_JITTER, _JITTER, size=2) * sub
        pts.append([x0 + (gi + 0.5) * sub + jx, y0 + (gj + 0.5) * sub + jy, 0.0])
    return np.array(pts)


def _subgrid_sphere(patch: Patch, n: int, r: float, rng: np.random.Generator) -> np.ndarray:
    if patch.bounds[0] == "cap":
        _, sign, theta_cap = patch.bounds
        ring = theta_cap / 2.0
        pts = [np.array([0.0, 0.0, sign * r])]
        phase = rng.uniform(0.0, 2.0 * np.pi)
        for k in range(n - 1):
            ph = phase + 2.0 * np.pi * k / (n - 1)
            th = ring if sign > 0 else np.pi - ring
            pts.append(r * np.array([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)]))
        return np.array(pts)
    z_lo, z_hi, ph_a, ph_b = patch.bounds
    g = int(np.ceil(np.sqrt(n)))
    dz = (z_hi - z_lo) / g
    dph = (ph_b - ph_a) / g
    pts = []
    for i in range(n):
        cell = (i * g * g) // n
        gi, gj = divmod(cell, g)
        z = z_lo + (gi + 0.5) * dz + rng.uniform(-_JITTER, _JITTER) * dz
        ph = ph_a + (gj + 0.5) * dph + rng.uniform(-_JITTER, _JITTER) * dph
        rho = np.sqrt(max(r * r - z * z, 0.0))
        pts.append([rho * np.cos(ph), rho * np.sin(ph), z])
    return np.array(pts)


def place_bubbles(patchwork: Patchwork, k_func: KFunction, eps: float,
                  seed: int = 0) -> BubbleCluster:
    """Place floor(K)+1 bubble centers per patch on a jittered sub-grid.

    A single bubble goes exactly at the patch center.  Deterministic for a
    fixed seed.
    """
    if eps <= 0:
        raise GeometryError("eps must be positive")
    rng = np.random.default_rng(seed)
    counts = k_func.counts_at(patchwork.centers)
    d = patchwork.d
    n_max = int(counts.max())
    if 0.3 * d / np.sqrt(n_max) <= 2.0 * eps:
        raise ResolutionError(
            f"infeasible packing: {n_max} bubbles of scale eps={eps} in patches of size {d}"
        )
    all_pts, pids = [], []
    for pid, (patch, n_b) in enumerate(zip(patchwork.patches, counts)):
        if n_b == 1:
            pts = patch.center[None, :]
        elif patchwork.surface.kind == "disk":
            pts = _subgrid_disk(patch, int(n_b), rng)
        else:
            pts = _subgrid_sphere(patch, int(n_b), patchwork.surface.radius, rng)
        all_pts.append(pts)
        pids.extend([pid] * int(n_b))
    centers = np.vstack(all_pts)
    off = patchwork.surface.surface_distance(centers)
    if np.any(off > 1e-12):
        raise GeometryError("generated centers left the surface")
    d_min = min_pairwise_distance(centers)
    if not (d_min > 0.0):
        raise GeometryError("coincident bubble centers generated")
    return BubbleCluster(
        centers=centers, patch_ids=np.array(pids, dtype=int),
        counts=counts.astype(int), eps=float(eps), d_min=d_min,
        surface=patchwork.surface,
    )


# ---------------------------------------------------------------------------
# Counting diagnostics
# ---------------------------------------------------------------------------
def inverse_distance_sum(cluster_or_points, k: float, anchor: int) -> float:
    """Exact sum over b != anchor of 1/|z_anchor - z_b|^k."""
    pts = np.asarray(getattr(cluster_or_points, "centers", cluster_or_points), dtype=float)
    if len(pts) < 2:
        raise UsageError("need at least two points")
    dist = np.linalg.norm(pts - pts[anchor], axis=1)
    dist = np.delete(dist, anchor)
    if np.any(dist == 0.0):
        raise GeometryError("coincident points")
    return float((dist**-k).sum())


def counting_bound(d: float, k: float) -> float:
    """The three-branch bound: d^-2, d^-2 (1+|log d|), d^-k."""
    if k < 2:
        return d**-2.0
    if k == 2:
        return d**-2.0 * (1.0 + abs(np.log(d)))
    return d**-k


def max_anchor_sum(points: np.ndarray, k: float) -> float:
    dist = pairwise_distances(points)
    np.fill_diagonal(dist, np.inf)
    return float((dist**-k).sum(axis=1).max())


def counting_scaling_check(surface: SurfaceDescriptor, d_list: Sequence[float],
                           k: float, seed: int = 0) -> list[dict]:
    """Sweep d and tabulate max-anchor inverse-distance sums against the bound."""
    d_list = list(d_list)
    if any(b >= a for a, b in zip(d_list[:-1], d_list[1:])):
        raise UsageError("d_list must be strictly decreasing")
    rows = []
    for d in d_list:
        pw = partition(surface, d)
        cluster = place_bubbles(pw, KFunction.constant(0.0), eps=min(0.1 * d, 1e-3), seed=seed)
        s = max_anchor_sum(cluster.centers, k)
        b = counting_bound(d, k)
        rows.append({"d": d, "k": k, "max_anchor_sum": s, "bound": b, "ratio": s / b})
    return rows
