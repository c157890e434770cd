"""Surface construction, equal-area patch partitions, and bubble placement.

Two surfaces are supported, matching the two admissible cases (closed or open):

* ``sphere`` -- closed surface, partitioned into exact equal-area patches by
  polar caps plus latitude collars subdivided into sectors.  Every sector is
  built in one array pass: the collar edges from the cumulative patch counts,
  each sector's collar and phase by repeating the per-collar counts, and the
  sector centroids from one vectorised formula.
* ``disk`` -- open flat surface in the z = 0 plane, partitioned by clipping a
  square grid of spacing d to the disk.  One array pass classifies every
  lattice cell: a cell whose point nearest the disk's center lies at or
  beyond the radius is outside; of the rest, a cell whose four corners all
  lie within the closed disk is interior, and any other is a boundary cell.
  ``circle_rect_area`` computes every boundary cell's exact clipped area in
  one array pass; it takes ordered bounds (x1 <= x2, y1 <= y2).  Interior
  cells keep their exact d^2 area; boundary slivers of positive area are
  merged, largest first, into the first of their eight nearest interior
  patches with room (else the nearest), so the partition stays exhaustive.
  Each sliver's eight nearest are ranked within its 9 x 9 lattice window,
  which always holds them; the only loop left is that capacity pick, one
  step per sliver, since each pick depends on the merges before it.

Patch areas on the sphere equal area/M exactly; on the disk the merged
boundary patches may exceed d^2 by up to roughly one cell, which is the O(d)
boundary budget of the model (interior cells stay exactly d^2).  Each patch
also has a parameter box, one row of ``Patchwork.bounds``, and placement puts
the bubbles of every patch at once from those rows and one draw.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, GeometryError, ResolutionError, UsageError

# Largest patch count a partition may ask for: at this size one dense n x n
# float matrix of the scene would take 34 GB.
MAX_PATCHES = 2**16
# Distance cells per block of pairwise_distances: max(1, DISTANCE_BLOCK // n)
# rows of n distances, so each temporary of a distance pass stays at 512 KiB.
DISTANCE_BLOCK = 65536

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
def _antider(x: np.ndarray, r: float) -> np.ndarray:
    # antiderivative of sqrt(r^2 - x^2)
    x = np.clip(x, -r, r)
    return 0.5 * (x * np.sqrt(np.maximum(r * r - x * x, 0.0)) + r * r * np.arcsin(x / r))


def circle_rect_area(x1, x2, y1, y2, r: float) -> np.ndarray:
    """Exact area of each rectangle [x1,x2] x [y1,y2] within the disk
    |p| <= r, over arrays (broadcast together) in one pass.

    The bounds must be ordered, x1 <= x2 and y1 <= y2.  Each rectangle is
    cut at six breakpoints: lo = max(x1, -r), hi = min(x2, r) and the four
    crossings of the circle with y = y1 and y = y2, a crossing the rectangle
    lacks (outside (lo, hi), or of a line the circle misses) replaced by hi,
    which makes a zero-length segment that adds +0.0.  The breakpoints are
    sorted per rectangle, each segment's area is the arc's antiderivative or
    the flat edge, and the segments are accumulated left to right, so every
    area is bitwise that of one rectangle cut and summed on its own.
    """
    x1, x2, y1, y2 = np.broadcast_arrays(x1, x2, y1, y2)
    lo, hi = np.maximum(x1, -r), np.minimum(x2, r)
    yy = np.stack([y1, y1, y2, y2], axis=-1)
    cross = np.sqrt(np.maximum(r * r - yy * yy, 0.0)) * [-1.0, 1.0, -1.0, 1.0]
    cross = np.where((np.abs(yy) < r) & (lo[..., None] < cross) & (cross < hi[..., None]),
                     cross, hi[..., None])
    xs = np.sort(np.concatenate([lo[..., None], hi[..., None], cross], axis=-1), axis=-1)
    a, b = xs[..., :-1], xs[..., 1:]
    xm = 0.5 * (a + b)
    ym = np.sqrt(np.maximum(r * r - xm * xm, 0.0))
    top, bottom = y2[..., None], y1[..., None]
    arc = _antider(b, r) - _antider(a, r)
    seg = np.where(ym < top, arc, top * (b - a)) - np.where(-ym > bottom, -arc, bottom * (b - a))
    seg = np.where(np.minimum(ym, top) <= np.maximum(-ym, bottom), 0.0, seg)
    return np.where(lo < hi, seg.cumsum(axis=-1)[..., -1], 0.0)


# ---------------------------------------------------------------------------
# Patchwork
# ---------------------------------------------------------------------------
@dataclass
class Patchwork:
    """A partition of ``surface`` into M patches of spacing ``d``, as arrays.

    ``centers`` (M, 3) are points on the surface and ``areas`` (M,) the exact
    patch areas.  ``bounds`` (M, 4) holds each patch's parameter box for
    placing bubbles in it, as origin and span: a disk cell is (x0, y0, d, d)
    and a sphere collar sector (z_lo, phi_lo, z_hi - z_lo, phi_hi - phi_lo).
    On the sphere the first and last rows are the north and south caps, in
    the polar angle from their pole and the azimuth: (0, 0, theta_cap, 2 pi)
    and (pi, 0, -theta_cap, 2 pi).
    """

    surface: SurfaceDescriptor
    d: float
    centers: np.ndarray
    areas: np.ndarray
    bounds: np.ndarray

    @property
    def m(self) -> int:
        return len(self.areas)

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


# Grid anchor offsets (fractions of a cell).  Corner- or center-symmetric
# alignments of the square grid with the circular boundary make the covered
# area jump erratically between spacings; the asymmetric (1/3, 1/6) shift
# breaks those degeneracies so the uncovered boundary ring shrinks smoothly
# (~1.8 d across the operating range).
_GRID_SHIFT = (1.0 / 3.0, 1.0 / 6.0)


def _partition_disk(surface: SurfaceDescriptor, d: float) -> Patchwork:
    r = surface.radius
    ox, oy = _GRID_SHIFT[0] * d, _GRID_SHIFT[1] * d
    idx = np.arange(int(np.floor(-r / d)) - 2, int(np.ceil(r / d)) + 2)
    x0, y0 = idx * d + ox, idx * d + oy

    def squares(lo):
        """Per lattice line: the squared coordinate of the cell's point
        nearest the center and the larger squared coordinate of its corners.
        Corners are squared by the C library's pow (``float_power``), as by
        Python's ``**``, not as lo * lo, which can differ in the last bit:
        the patchworks stay bitwise those of a per-cell loop."""
        near = np.minimum(np.maximum(0.0, lo), lo + d)
        return near * near, np.maximum(np.float_power(lo, 2.0), np.float_power(lo + d, 2.0))

    (near_x, far_x), (near_y, far_y) = squares(x0), squares(y0)
    touches = np.add.outer(near_x, near_y) < r * r
    # rounded addition is monotone, so the farther corner along each axis
    # decides whether all four corners lie in the disk
    interior = touches & (np.add.outer(far_x, far_y) <= r * r)
    i, j = np.nonzero(interior)
    if len(i) < 4:
        raise ResolutionError(f"spacing d={d} leaves only {len(i)} interior cells (< 4)")
    bi, bj = np.nonzero(touches & ~interior)
    area = circle_rect_area(x0[bi], x0[bi] + d, y0[bj], y0[bj] + d, r)
    mid_x, mid_y = (idx + 0.5) * d + ox, (idx + 0.5) * d + oy
    m = len(i)
    # the interior centers, then one at infinity for an empty lattice slot
    centers = np.vstack([np.column_stack([mid_x[i], mid_y[j]]), [np.inf, np.inf]])
    # merge boundary slivers into nearby interior patches, largest first and
    # capacity-aware so no patch collects much more than one extra cell
    big = np.flatnonzero(area > 0.0)
    s = big[np.argsort(-area[big], kind="stable")]
    bi, bj, area = bi[s], bj[s], area[s]
    # each sliver's candidates are the interior patches of its 9 x 9 lattice
    # window (Chebyshev radius 4), read from a grid of patch indices padded
    # by 4.  That window holds the eight nearest centers (all of them when
    # there are fewer): beyond r/d = 2.74 the 7 x 7 window of a boundary
    # cell holds min(8, m) interior cells, all within sqrt(18) d < 5 d, and
    # every cell outside the 9 x 9 window is at least 5 d away; below it, a
    # direct check of every sliver over a fine sample of r/d confirms it.
    # Row-major window order is patch order, so a stable sort by distance
    # ranks the window as the stable argsort over all patches does; an empty
    # slot (d2 = inf) ranks last.
    slot = np.full((len(idx) + 8, len(idx) + 8), m)
    slot[i + 4, j + 4] = np.arange(m)
    win = np.arange(9)
    window = slot[bi[:, None, None] + win[:, None], bj[:, None, None] + win].reshape(len(s), 81)
    c = np.column_stack([mid_x[bi], mid_y[bj]])
    d2 = ((centers[window] - c[:, None]) ** 2).sum(axis=2)
    near = np.take_along_axis(window, np.argsort(d2, axis=1, kind="stable")[:, :8], axis=1)
    # the first of the eight with room takes the sliver, else the nearest
    # (argmax of no room is 0); the empty slot's infinite area has no room
    areas = np.append(np.full(m, d * d), np.inf)
    cap = 2.2 * d * d
    for q, sliver in zip(near, area):
        areas[q[np.argmax(areas[q] + sliver <= cap)]] += sliver
    return Patchwork(surface, d, np.column_stack([centers[:m], np.zeros(m)]), areas[:m],
                     np.column_stack([x0[i], y0[j], np.full((m, 2), d)]))


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
    counts = np.array(_collar_counts(ideal, m - 2))
    ends = np.cumsum(counts)
    # collar edges recomputed from cumulative exact areas -> every patch has
    # area exactly v; each sector is sector k of collar ci, which holds n
    cos_edge = 1.0 - np.append(1, 1 + ends) * v / (2.0 * np.pi * r * r)
    theta = np.arccos(np.clip(cos_edge, -1.0, 1.0))
    ci = np.repeat(np.arange(len(counts)), counts)
    n = counts[ci]
    k = np.arange(m - 2) - (ends - counts)[ci]
    offset = (ci % 2) * np.pi / n
    ph_a = offset + 2.0 * np.pi * k / n
    ph_b = offset + 2.0 * np.pi * (k + 1) / n
    th_a, th_b = theta[ci], theta[ci + 1]
    # sector centroids, pushed out to the sphere (straight up where it is
    # 0): squares by the C library's pow and norms by a stacked matmul, as
    # the per-sector scalar formula took them (x * x and norm(axis=1) can
    # differ in the last bit)
    i_th2 = 0.5 * (th_b - th_a) - 0.25 * (np.sin(2 * th_b) - np.sin(2 * th_a))
    i_thz = 0.5 * (np.float_power(np.sin(th_b), 2.0) - np.float_power(np.sin(th_a), 2.0))
    c = np.column_stack([i_th2 * (np.sin(ph_b) - np.sin(ph_a)),
                         i_th2 * (np.cos(ph_a) - np.cos(ph_b)), i_thz * (ph_b - ph_a)])
    nrm = np.sqrt(c[:, None, :] @ c[:, :, None])[:, 0]
    sectors = np.where(nrm == 0.0, [0.0, 0.0, r], c / np.where(nrm == 0.0, 1.0, nrm) * r)
    z = r * cos_edge
    bounds = np.column_stack([z[ci + 1], ph_a, z[ci] - z[ci + 1], ph_b - ph_a])
    return Patchwork(surface, d, np.vstack([[0.0, 0.0, r], sectors, [0.0, 0.0, -r]]),
                     np.full(m, v),
                     np.vstack([[0.0, 0.0, theta_cap, 2.0 * np.pi], bounds,
                                [np.pi, 0.0, -theta_cap, 2.0 * np.pi]]))


def partition(surface: SurfaceDescriptor, d: float) -> Patchwork:
    """Partition the surface into M ~ area/d^2 patches of area ~ d^2.

    A spacing that would give more than ``MAX_PATCHES`` patches is refused
    before anything is built.
    """
    if d <= 0 or d >= surface.diameter:
        raise ResolutionError(f"spacing d={d} incompatible with surface diameter {surface.diameter}")
    predicted = surface.total_area / d**2
    if predicted > MAX_PATCHES:
        raise ResolutionError(f"spacing d={d:.3g} asks for about {predicted:.3g} patches, "
                              f"above the limit of {MAX_PATCHES}")
    pw = _partition_disk(surface, d) if surface.kind == "disk" else _partition_sphere(surface, d)
    pw.validate()
    return pw


# ---------------------------------------------------------------------------
# Bubble density and placement
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class KFunction:
    """Surface density driver, finite and in [0, 2**62); per-patch count is
    floor(K)+1."""

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
        if axis not in (0, 1, 2):
            raise ConfigError(f"k.axis must be 0, 1 or 2, got {axis}")

        def ev(pts: np.ndarray) -> np.ndarray:
            return scale * (np.atleast_2d(pts)[:, axis] + offset)
        return KFunction(ev, label=f"linear_axis:{scale}:{offset}:{axis}")

    def counts_at(self, points: np.ndarray) -> np.ndarray:
        vals = np.asarray(self.evaluator(np.atleast_2d(points)), dtype=float)
        # floor(K) + 1 must fit the int64 counts: inf, nan or 1e300 cast to garbage
        if not np.all((vals >= 0) & (vals < 2.0 ** 62)):
            raise ConfigError("K must be finite and in [0, 2**62) on the surface")
        return np.floor(vals).astype(int) + 1


@dataclass
class BubbleCluster:
    """Bubble centers grouped by patch.

    ``centers`` (n, 3) lie on the surface, ``patch_ids`` (n,) name each
    bubble's patch and ``counts`` (M,) hold floor(K)+1 per patch; ``eps`` is
    the bubble scale.
    """

    centers: np.ndarray
    patch_ids: np.ndarray
    counts: np.ndarray
    eps: float

    @property
    def n(self) -> int:
        return len(self.centers)


def distance_rows(points: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """The package's one distance kernel: rows lo to hi of |p_i - p_j|, as
    a C-contiguous (rows, n) array whose entries (i, i) are +inf, so a row's
    minimum and its sums of inverse powers skip the point itself.

    Each distance is accumulated one coordinate at a time, with no
    (rows, n, 3) difference array, so any elementwise map or row reduction
    of the rows is bitwise equal to the same one over the whole n x n
    matrix, and ``pair_distances`` gives the same bits pair by pair.  The
    off-diagonal entries are exactly symmetric, since (a - b)^2 == (b - a)^2
    in floating point.
    """
    n, part = len(points), points[lo:hi]
    block = np.subtract.outer(part[:, 0], points[:, 0]) ** 2
    for k in range(1, points.shape[1]):
        block += np.subtract.outer(part[:, k], points[:, k]) ** 2
    np.sqrt(block, out=block)
    # entry (r, lo + r) sits at flat index lo + r * (n + 1)
    block.reshape(-1)[lo::n + 1] = np.inf
    return block


def pair_distances(points: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """|p_i - p_j| for the index arrays i and j, bitwise ``distance_rows``'
    entries (i, j), +inf where i == j."""
    diff = points[i] - points[j]
    r = diff[:, 0] ** 2
    for k in range(1, points.shape[1]):
        r += diff[:, k] ** 2
    np.sqrt(r, out=r)
    r[i == j] = np.inf
    return r


def pairwise_distances(points: np.ndarray):
    """|p_i - p_j| over all pairs, one block of rows at a time.

    Yields ``(lo, block)``, ``block`` = ``distance_rows(points, lo, lo +
    rows)``, for blocks of ``max(1, DISTANCE_BLOCK // n)`` consecutive rows
    in order, so no block holds more than ``DISTANCE_BLOCK`` cells once
    n <= ``DISTANCE_BLOCK``.
    """
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    rows = max(1, DISTANCE_BLOCK // max(n, 1))
    for lo in range(0, n, rows):
        yield lo, distance_rows(pts, lo, lo + rows)


_JITTER = 0.15  # fraction of a sub-cell; keeps the packing floor at 0.3*d/sqrt(n)


def place_bubbles(patchwork: Patchwork, k_func: KFunction, eps: float,
                  seed: int = 0) -> BubbleCluster:
    """Place floor(K)+1 bubble centers per patch, every patch at once.

    A single bubble goes exactly at the patch center.  In a box patch (a disk
    cell or a sphere collar sector) n > 1 bubbles sit on the box's
    ceil(sqrt(n))-square sub-grid, bubble i in cell (i g^2) // n, each
    jittered by up to ``_JITTER`` of a sub-cell along both axes.  A sphere
    cap with n > 1 keeps one bubble at its pole and puts the other n - 1 on
    the ring at half the cap's polar angle, evenly spaced from a random
    phase.

    Deterministic for a fixed seed: the draws are the ``random()`` sequence
    of ``random.Random(seed)``, taken in this order: the north cap's phase,
    then the (x, y) jitter of every box bubble in patch order (on the sphere
    the sector's z, then its azimuth), then the south cap's phase; a cap
    with one bubble draws no phase.  A draw u gives the phase 2 pi u and
    the jitter ``_JITTER`` (2u - 1) of a sub-cell.  The standard library
    keeps that sequence the same for a seed across Python versions, which
    numpy does not promise for its generators, and it needs neither
    ``numpy.random`` nor OpenSSL, which ``numpy.random`` imports.  The
    generator is created only when some patch holds more than one bubble,
    so a scene with one bubble per patch (K < 1) draws nothing.  A negative
    seed is refused with ``UsageError``: ``random.Random`` would seed from
    its absolute value.

    Packings whose bubbles of scale ``eps`` could touch are refused with
    ``ResolutionError``: within a box, sub-grid neighbours stay at least
    0.3 d / sqrt(n) apart, and on a cap ring neighbours are the chord
    2 r sin(theta_cap / 2) sin(pi / (n - 1)) apart; either must exceed
    2 eps.  The pole's distance to its ring is larger than the box floor.
    Placement measures no distance: a jitter of at most ``_JITTER`` of a
    sub-cell cannot make two centers coincide, and the passes that read
    distances (``max_anchor_sums``, ``RetardedNetwork``) reject coincident
    ones.
    """
    if eps <= 0:
        raise GeometryError("eps must be positive")
    if seed < 0:
        raise UsageError(f"seed must be nonnegative, got {seed}")
    counts = k_func.counts_at(patchwork.centers)
    d, m, bounds = patchwork.d, patchwork.m, patchwork.bounds
    r = patchwork.surface.radius
    sphere = patchwork.surface.kind == "sphere"
    n_max = int(counts.max())
    if 0.3 * d / np.sqrt(n_max) <= 2.0 * eps:
        raise ResolutionError(
            f"infeasible packing: {n_max} bubbles of scale eps={eps} in patches of size {d}"
        )
    ring = (counts[[0, -1]] - 1) * sphere
    chord = 2.0 * r * np.sin(0.5 * bounds[0, 2]) * np.sin(np.pi / np.maximum(ring, 2))
    if np.any((ring > 1) & (chord <= 2.0 * eps)):
        raise ResolutionError(f"infeasible packing: a polar cap ring of {ring.max()} bubbles "
                              f"of scale eps={eps} has neighbours {chord.min():.3g} apart")
    # every bubble starts at its patch's center, bubble i of n in its patch
    pids = np.repeat(np.arange(m), counts)
    centers = patchwork.centers[pids]
    if n_max > 1:
        n = counts[pids]
        i = np.arange(len(pids)) - (np.cumsum(counts) - counts)[pids]
        cap = sphere & ((pids == 0) | (pids == m - 1))
        box, on_ring = (n > 1) & ~cap, cap & (i > 0)
        draw = random.Random(seed).random
        phase = np.zeros(2)
        if sphere and counts[0] > 1:
            phase[0] = 2.0 * np.pi * draw()
        size = 2 * int(box.sum())
        u = np.fromiter(itertools.starmap(draw, itertools.repeat((), size)), float, size)
        jitter = _JITTER * (2.0 * u.reshape(-1, 2) - 1.0)
        if sphere and counts[-1] > 1:
            phase[1] = 2.0 * np.pi * draw()
        g = np.ceil(np.sqrt(n[box])).astype(int)
        step = bounds[pids[box], 2:] / g[:, None]
        cell = np.stack(np.divmod(i[box] * g * g // n[box], g), axis=1)
        u, w = (bounds[pids[box], :2] + (cell + 0.5) * step + jitter * step).T
        if sphere:
            rho = np.sqrt(np.maximum(r * r - u * u, 0.0))
            centers[box] = np.column_stack([rho * np.cos(w), rho * np.sin(w), u])
            cap_box = bounds[pids[on_ring]]
            th = cap_box[:, 0] + 0.5 * cap_box[:, 2]
            ph = (phase[pids[on_ring] // (m - 1)]
                  + cap_box[:, 3] * (i[on_ring] - 1) / (n[on_ring] - 1))
            centers[on_ring] = r * np.column_stack(
                [np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)])
        else:
            centers[box] = np.column_stack([u, w, np.zeros(len(u))])
    off = patchwork.surface.surface_distance(centers)
    if np.any(off > 1e-12):
        raise GeometryError("generated centers left the surface")
    return BubbleCluster(centers=centers, patch_ids=pids, counts=counts, eps=float(eps))


# ---------------------------------------------------------------------------
# Counting diagnostics
# ---------------------------------------------------------------------------
def counting_bound(d: float, k: float) -> float:
    """The three-branch bound: d^-2, d^-2 (1+|log d|), d^-k."""
    if k < 2:
        return d**-2.0
    if k == 2:
        return d**-2.0 * (1.0 + abs(np.log(d)))
    return d**-k


def max_anchor_sums(points: np.ndarray, k_list: Sequence[float]) -> tuple[float, list[float]]:
    """The least distance between two of ``points`` (inf for fewer than
    two) and, per k, the largest inverse-distance sum over anchors, from one
    pass of ``pairwise_distances`` blocks shared by every k.

    No temporary holds more than ``DISTANCE_BLOCK`` cells.  The minimum, and
    each anchor's sum over its contiguous row of a block, and the maximum,
    are bitwise those of the dense n x n matrix.  A zero or NaN distance
    raises ``GeometryError``.
    """
    d_min, best = np.inf, np.full(len(k_list), -np.inf)
    for _, dist in pairwise_distances(points):
        low = dist.min()
        if not low > 0.0:
            raise GeometryError("coincident bubble centers")
        d_min = min(d_min, low)
        np.maximum(best, [(dist**-k).sum(axis=1).max() for k in k_list], out=best)
    return float(d_min), best.tolist()


def counting_scaling_check(surface: SurfaceDescriptor, d_list: Sequence[float],
                           k_list: Sequence[float], seed: int = 0) -> list[dict]:
    """Sweep d and tabulate max-anchor inverse-distance sums against the bound.

    Each d builds one scene and one blocked distance pass, shared by every
    exponent in ``k_list``; rows are k-major (every d of the first k, then
    the next k).  Every d and k must be positive, and every bound finite and
    positive, which is checked before any scene is built.
    """
    d_list, k_list = list(d_list), list(k_list)
    if any(b >= a for a, b in zip(d_list[:-1], d_list[1:])):
        raise UsageError("d_list must be strictly decreasing")
    if not k_list:
        raise UsageError("k_list must name at least one exponent")
    for d, k in itertools.product(d_list, k_list):
        try:
            # k <= 0 would sum the anchor's own infinite distance
            ok = d > 0 and k > 0 and 0.0 < counting_bound(d, k) < np.inf
        except OverflowError:
            ok = False
        if not ok:
            raise UsageError(f"counting.d_list value {d!r} and counting.k_exponents value "
                             f"{k!r} must be positive and give a finite, positive bound")
    sums = []
    for d in d_list:
        pw = partition(surface, d)
        cluster = place_bubbles(pw, KFunction.constant(0.0), eps=min(0.1 * d, 1e-3), seed=seed)
        sums.append(max_anchor_sums(cluster.centers, k_list)[1])
    rows = []
    for i, k in enumerate(k_list):
        for d, s in zip(d_list, sums):
            b = counting_bound(d, k)
            rows.append({"d": d, "k": k, "max_anchor_sum": s[i], "bound": b,
                         "ratio": s[i] / b})
    return rows
