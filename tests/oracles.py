"""Independent reference computations used as test oracles.

These deliberately avoid the package's solver code paths: the Duhamel
solution is built from cumulative Simpson quadrature of the sine-kernel
convolution, derivative checks use plain finite differences, the shape
constant of the ball is a tensor Gauss-Legendre double surface integral, and
the Laplace-domain screen operator is a dense matrix written from the
quadrature rule and the materials (``dense_screen_operator``).  The
exceptions use package code:

- ``reference_march``, the per-query march that the history plan of
  ``DelayNetwork.solve`` replaced, iterated to a fixed point in the new node
  for pairs closer than two steps, kept as its reference;
- ``two_sum_near_pairs``, the near-pair fixed point on the unscaled coupled
  weights with one (2, n) sum per sweep, which the one-pass sweeps on
  premultiplied weights replaced, kept as their reference; its weights
  come from the full cells of h, which the plan's half cells replaced, so
  it pins the solve to rounding, and ``half_cell_near_weights``, the near
  weights on the half cells built pair by pair with their derivatives in
  the new node written out, pins the weights bitwise;
- ``pulse_second_derivative`` and ``incident_second_derivative``, lambda''
  and d2/dt2 u_in in closed form: the forcing of the amplitudes' own delay
  system, which the package marched before both models were marched in U on
  u_in itself, kept as the reference of that formulation;
- ``csv_rows_text``, the per-cell CSV formatter that the column-wise writer
  replaced, kept as its reference;
- ``dense_distances`` and its consumers ``dense_min_distance``,
  ``dense_anchor_sums`` and ``dense_retarded_matrices``: the one-piece n x n
  distance matrix that the row blocks of ``distance_rows`` replaced, and
  the least distance, anchor sums and retarded couplings and delays read
  from it, kept as the bitwise references of the blocked kernels and of a
  ``RetardedNetwork``'s ``block`` and ``entries``;
- ``loop_place_bubbles``, the placement that visited every patch in turn,
  one bubble at its center, a jittered sub-grid of several one point at a
  time (``loop_subgrid_disk`` and ``loop_subgrid_sphere``) or a polar cap's
  ring, each patch with its own draws, before every bubble was placed from
  the parameter boxes in one pass with one draw, kept as its bitwise
  reference;
- ``loop_partition_sphere``, the sphere partition that built its collar
  sectors and their centroids one at a time, before one array pass built
  them all, kept as its bitwise reference;
- ``loop_circle_rect_area``, the exact clipped area of one rectangle at a
  time, cut at the set of its breakpoints and summed segment by segment,
  which the one array pass over every rectangle replaced, kept as its
  bitwise reference;
- ``argsort_partition_disk``, the disk partition that visited every lattice
  cell in turn, took each boundary sliver's area from
  ``loop_circle_rect_area`` and found its nearest patches by a full stable
  argsort of the distances to every interior center, which the 9 x 9
  lattice window of each sliver replaced, kept as its bitwise reference;
- ``stage_pairs`` and ``split_stage_plan``, the split of every coupled pair
  over both stage offsets, sorted by first live step, and the history plan
  and near entries built from it, which the one pass over the plan rows
  replaced, kept as their bitwise references; and ``int64_stage_pairs``,
  the split sorted on unclipped int64 first live steps, which the radix
  sort on clipped small unsigned steps replaced, kept as its reference for
  the live prefix and the near entries;
- the transmission-law oracles ``memory_convolution``,
  ``kernel_identity_residual`` and ``jump_residual``, which check the paper's
  central claim on a screen solution: the jump of dW/dn across the surface
  equals the sine-kernel memory convolution of W''.  ``jump_residual``
  evaluates the field with ``EffectiveField`` along ``surface_normal``, which
  the rule does not carry.
"""

import math
import random
import warnings
from dataclasses import dataclass

import numpy as np

from bubblescreen.effective import EffectiveField, QuadratureRule
from bubblescreen.materials import PhysicalParams
from bubblescreen.sources import PointSource, SourcePulse
from bubblescreen.errors import ResolutionError, UsageError
from bubblescreen.geometry import (_GRID_SHIFT, _JITTER, BubbleCluster, Patchwork,
                                   _collar_counts)
from bubblescreen.stepping import TimeGrid, Trace, _hermite_weights

# The two stage offsets of an RK4 step, in steps past t_n: the half stage
# (second and third stages) and the full one (fourth stage and new node).
SIGMAS = (0.5, 1.0)


def cumulative_simpson(f: np.ndarray, h: float) -> np.ndarray:
    """Cumulative integral of samples f on a uniform grid (Simpson pairs,
    3-point end rule on odd steps)."""
    out = np.zeros_like(f)
    for i in range(1, len(f)):
        if i == 1:
            out[1] = h / 12.0 * (5 * f[0] + 8 * f[1] - f[2])
        elif i % 2 == 0:
            out[i] = out[i - 2] + h / 3.0 * (f[i - 2] + 4 * f[i - 1] + f[i])
        else:
            out[i] = out[i - 1] + h / 12.0 * (-f[i - 2] + 8 * f[i - 1] + 5 * f[i])
    return out


def duhamel_oscillator(times: np.ndarray, forcing: np.ndarray, mass: float) -> np.ndarray:
    """Solution of mass*y'' + y = forcing with zero initial data:

        y(t) = (1/sqrt(mass)) int_0^t sin((t - tau)/sqrt(mass)) forcing(tau) dtau,

    evaluated by splitting the sine and integrating with cumulative Simpson.
    """
    om_inv = 1.0 / np.sqrt(mass)
    h = times[1] - times[0]
    s, c = np.sin(om_inv * times), np.cos(om_inv * times)
    return (s * cumulative_simpson(forcing * c, h)
            - c * cumulative_simpson(forcing * s, h)) * om_inv


def _bump_derivs(x: np.ndarray):
    """f = exp(-1/x) on x > 0 and its first two derivatives, zero otherwise."""
    out = [np.zeros_like(x) for _ in range(3)]
    m = x > 0
    xm = x[m]
    e = np.exp(-1.0 / xm)
    out[0][m] = e
    out[1][m] = e / xm**2
    out[2][m] = e * (1.0 / xm**4 - 2.0 / xm**3)
    return out


def _ramp_derivs(t: np.ndarray, t_rise: float):
    """The ramp chi(t) and its first two t-derivatives."""
    s = t / t_rise
    out = [np.zeros_like(t) for _ in range(3)]
    out[0][t >= t_rise] = 1.0
    m = (t > 0) & (t < t_rise)
    if not m.any():
        return out
    a, a1, a2 = _bump_derivs(s[m])
    b, b1, b2 = _bump_derivs(1.0 - s[m])
    b1 = -b1  # chain rule through (1 - s)
    den, d1 = a + b, a1 + b1
    num, num1 = a1 * b - a * b1, a2 * b - a * b2
    out[0][m] = a / den
    out[1][m] = num / den**2 / t_rise
    out[2][m] = (num1 / den**2 - 2 * num * d1 / den**3) / t_rise**2
    return out


def pulse_second_derivative(pulse: SourcePulse, t: np.ndarray) -> np.ndarray:
    """lambda'' at the array of times ``t``, in closed form."""
    w = pulse.omega0
    s = np.sin(w * t)
    c0, c1, c2 = _ramp_derivs(np.asarray(t, dtype=float), pulse.t_rise)
    return pulse.amplitude * (c2 * s + 2 * c1 * w * np.cos(w * t) - c0 * w**2 * s)


def incident_second_derivative(source: PointSource, x: np.ndarray, t) -> np.ndarray:
    """d2/dt2 u_in = (rho_c / r) * lambda''(t - r / c0) at the points ``x``
    (p, 3), ``t`` broadcast as in ``incident_eval``."""
    r = np.linalg.norm(x - source.x0, axis=1)
    return (source.rho_c / r) * pulse_second_derivative(source.pulse, t - r / source.c0)


def fd_derivative(fun, t, order: int, h: float = 1e-5):
    """Central finite differences of a callable, orders 1..3."""
    if order == 1:
        return (fun(t + h) - fun(t - h)) / (2 * h)
    if order == 2:
        return (fun(t + h) - 2 * fun(t) + fun(t - h)) / h**2
    if order == 3:
        return (fun(t + 2 * h) - 2 * fun(t + h) + 2 * fun(t - h) - fun(t - 2 * h)) / (2 * h**3)
    raise ValueError(order)


def wave_residual(field, x: np.ndarray, t: float, c0: float,
                  dx: float = 2e-3, dt: float = 2e-3) -> float:
    """(c0^-2 d2/dt2 - Laplace) of a scalar field(x, t) by 7-point/3-point FD."""
    x = np.asarray(x, dtype=float)
    lap = -6.0 * field(x, t)
    for axis in range(3):
        e = np.zeros(3)
        e[axis] = dx
        lap += field(x + e, t) + field(x - e, t)
    lap /= dx**2
    dtt = (field(x, t + dt) - 2 * field(x, t) + field(x, t - dt)) / dt**2
    return dtt / c0**2 - lap


def brute_inverse_distance_sum(points: np.ndarray, k: float, anchor: int) -> float:
    """Plain-Python pairwise summation (independent of the numpy path)."""
    total = 0.0
    ax, ay, az = points[anchor]
    for j, (x, y, z) in enumerate(points):
        if j == anchor:
            continue
        r = ((x - ax) ** 2 + (y - ay) ** 2 + (z - az) ** 2) ** 0.5
        total += 1.0 / r**k
    return total


def planar_grid(n: int, spacing: float) -> np.ndarray:
    """n x n grid of points in the z=0 plane, centered at the origin."""
    idx = np.arange(n) - (n - 1) / 2.0
    xs, ys = np.meshgrid(idx * spacing, idx * spacing, indexing="ij")
    return np.stack([xs.ravel(), ys.ravel(), np.zeros(n * n)], axis=1)


def sphere_pair_quadrature(radius: float, order: int) -> float:
    """Tensor-product Gauss-Legendre value of the shape constant of a ball,

        A = (1/|dB|) int_{dB x dB} (x - y).nu_x / |x - y| dsigma_x dsigma_y,

    the independent check of the closed form A = 8 pi a^2 / 3.  Uses the sphere
    reduction (x-y).nu_x/|x-y| = |x-y|/(2a), which removes the diagonal
    singularity (the integrand vanishes continuously at x = y); the remaining
    kink limits the tensor rule to algebraic convergence.
    """
    nodes, wts = np.polynomial.legendre.leggauss(order)
    theta = 0.5 * np.pi * (nodes + 1.0)
    w_theta = 0.5 * np.pi * wts
    phi = np.pi * (nodes + 1.0)
    w_phi = np.pi * wts

    a = radius
    th, ph = np.meshgrid(theta, phi, indexing="ij")
    pts = np.stack(
        [a * np.sin(th) * np.cos(ph), a * np.sin(th) * np.sin(ph), a * np.cos(th)],
        axis=-1,
    ).reshape(-1, 3)
    wsurf = (np.outer(w_theta * np.sin(theta), w_phi)).ravel() * a * a

    # |x - y|^2 = 2 a^2 - 2 x.y on the sphere; Gram form keeps this BLAS-bound
    total = 0.0
    chunk = max(1, (1 << 24) // max(len(pts), 1))
    for lo in range(0, len(pts), chunk):
        gram = pts[lo:lo + chunk] @ pts.T
        dist = np.sqrt(np.maximum(2.0 * a * a - 2.0 * gram, 0.0))
        total += float(wsurf[lo:lo + chunk] @ dist @ wsurf)
    return total / (2.0 * a) / (4.0 * np.pi * a * a)


def dense_screen_operator(rule: QuadratureRule, params: PhysicalParams,
                          s: complex) -> np.ndarray:
    """The transformed screen operator (hbar s^2 + 1) I + s^2 Shat_s over the
    quadrature nodes, written from the rule and the materials alone: column
    weight area * density * c_bar over 4 pi r with phase exp(-s r / c0) off
    the diagonal, and the equal-area-disk self term density * c_bar * r_i / 2,
    r_i = sqrt(area_i / pi), on it.  The dense formula the Laplace solver used
    before it took the march's network, kept as that network's reference."""
    nodes = rule.nodes
    dist = np.sqrt(((nodes[:, None, :] - nodes[None, :, :]) ** 2).sum(axis=-1))
    np.fill_diagonal(dist, 1.0)
    colfac = rule.weights * rule.density * params.c_bar
    smat = colfac[None, :] * np.exp(-s * dist / params.c0) / (4.0 * np.pi * dist)
    np.fill_diagonal(smat, rule.density * params.c_bar * np.sqrt(rule.weights / np.pi) / 2.0)
    return (params.omega_m_sq * s * s + 1.0) * np.eye(rule.m) + s * s * smat


def dense_distances(points) -> np.ndarray:
    """(n, n) matrix of |p_i - p_j| in one piece, accumulated one coordinate
    at a time."""
    pts = np.asarray(points, dtype=float)
    d2 = np.subtract.outer(pts[:, 0], pts[:, 0]) ** 2
    for k in range(1, pts.shape[1]):
        d2 += np.subtract.outer(pts[:, k], pts[:, k]) ** 2
    return np.sqrt(d2, out=d2)


def dense_min_distance(points) -> float:
    if len(points) < 2:
        return float("inf")
    dist = dense_distances(points)
    np.fill_diagonal(dist, np.inf)
    return float(dist.min())


def dense_anchor_sums(points, k_list) -> list[float]:
    dist = dense_distances(points)
    np.fill_diagonal(dist, np.inf)
    return [float((dist**-k).sum(axis=1).max()) for k in k_list]


def dense_retarded_matrices(nodes, col_weight, c0):
    """The coupling matrix w_j / (4 pi r_ij) and the delay matrix r_ij / c0,
    both zero on the diagonal, from the one-piece distance matrix."""
    r = dense_distances(nodes)
    off = ~np.eye(len(r), dtype=bool)
    w = np.broadcast_to(np.asarray(col_weight, dtype=float), (len(r),))
    coupling = w / (4.0 * np.pi * np.where(off, r, 1.0))
    return np.where(off, coupling, 0.0), np.where(off, r / c0, 0.0)


def _jitter(draw):
    """One jitter, in sub-cells, from one ``random()`` draw u."""
    return _JITTER * (2.0 * draw() - 1.0)


def loop_subgrid_disk(box, n, draw):
    """Bubbles of a disk cell, box (x0, y0, size, size), one jittered
    sub-grid point at a time, x and then y drawn per point."""
    x0, y0, size, _ = box
    g = int(np.ceil(np.sqrt(n)))
    sub = size / g
    pts = []
    for i in range(n):
        gi, gj = divmod((i * g * g) // n, g)
        jx = _jitter(draw) * sub
        jy = _jitter(draw) * sub
        pts.append([x0 + (gi + 0.5) * sub + jx, y0 + (gj + 0.5) * sub + jy, 0.0])
    return np.array(pts)


def loop_subgrid_sphere(box, n, r, draw):
    """Bubbles of a sphere collar sector, box (z_lo, phi_lo, z span, phi
    span), one jittered sub-grid point at a time, z and then the azimuth
    drawn per point."""
    z_lo, ph_a, z_span, ph_span = box
    g = int(np.ceil(np.sqrt(n)))
    dz = z_span / g
    dph = ph_span / g
    pts = []
    for i in range(n):
        gi, gj = divmod((i * g * g) // n, g)
        z = z_lo + (gi + 0.5) * dz + _jitter(draw) * dz
        ph = ph_a + (gj + 0.5) * dph + _jitter(draw) * dph
        rho = np.sqrt(max(r * r - z * z, 0.0))
        pts.append([rho * np.cos(ph), rho * np.sin(ph), z])
    return np.array(pts)


def loop_cap_ring(theta_cap, sign, n, r, draw):
    """Bubbles of a polar cap: one at the pole of ``sign``, the other n - 1
    on the ring at half the cap angle, evenly spaced from one drawn phase."""
    ring = theta_cap / 2.0
    pts = [np.array([0.0, 0.0, sign * r])]
    phase = 2.0 * np.pi * draw()
    for k in range(n - 1):
        ph = phase + 2.0 * np.pi * k / (n - 1)
        th = ring if sign > 0 else np.pi - ring
        pts.append(r * np.array([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)]))
    return np.array(pts)


def loop_place_bubbles(patchwork, k_func, eps, seed=0):
    """floor(K)+1 bubbles per patch, one patch at a time: a single bubble at
    the patch center, several on the patch's jittered sub-grid or a polar
    cap's ring, drawn from ``random.Random(seed).random()`` in patch order."""
    counts = k_func.counts_at(patchwork.centers)
    draw = random.Random(seed).random
    r, last = patchwork.surface.radius, patchwork.m - 1
    all_pts, pids = [], []
    for pid, (box, n_b) in enumerate(zip(patchwork.bounds.tolist(), counts.tolist())):
        if n_b == 1:
            pts = patchwork.centers[pid][None, :]
        elif patchwork.surface.kind == "disk":
            pts = loop_subgrid_disk(box, n_b, draw)
        elif pid in (0, last):
            pts = loop_cap_ring(abs(box[2]), 1.0 if pid == 0 else -1.0, n_b, r, draw)
        else:
            pts = loop_subgrid_sphere(box, n_b, r, draw)
        all_pts.append(pts)
        pids.extend([pid] * n_b)
    return BubbleCluster(centers=np.vstack(all_pts), patch_ids=np.array(pids, dtype=int),
                         counts=counts.astype(int), eps=float(eps))


def loop_partition_sphere(surface, d):
    """The sphere patchwork built one collar sector at a time: its centroid
    from the sector integrals, pushed out to the sphere, and its box from
    the collar's z range and the sector's azimuth range."""
    r = surface.radius
    total = surface.total_area
    m = int(round(total / d**2))
    v = total / m
    cos_cap = 1.0 - v / (2.0 * np.pi * r * r)
    theta_cap = float(np.arccos(np.clip(cos_cap, -1.0, 1.0)))
    span = np.pi - 2.0 * theta_cap
    n_collars = max(1, int(round(span * r / np.sqrt(v))))
    edges = theta_cap + span * np.arange(n_collars + 1) / n_collars
    ideal = (2.0 * np.pi * r * r * (np.cos(edges[:-1]) - np.cos(edges[1:]))) / v
    centers = [np.array([0.0, 0.0, r])]
    bounds = [(0.0, 0.0, theta_cap, 2.0 * np.pi)]
    used, cos_hi = 1, cos_cap
    for ci, n_i in enumerate(_collar_counts(ideal, m - 2)):
        cos_lo = 1.0 - (used + n_i) * v / (2.0 * np.pi * r * r)
        th_a = float(np.arccos(np.clip(cos_hi, -1.0, 1.0)))
        th_b = float(np.arccos(np.clip(cos_lo, -1.0, 1.0)))
        offset = (ci % 2) * np.pi / n_i
        for k in range(n_i):
            ph_a = offset + 2.0 * np.pi * k / n_i
            ph_b = offset + 2.0 * np.pi * (k + 1) / n_i
            i_th2 = 0.5 * (th_b - th_a) - 0.25 * (np.sin(2 * th_b) - np.sin(2 * th_a))
            i_thz = 0.5 * (np.sin(th_b) ** 2 - np.sin(th_a) ** 2)
            c = np.array([i_th2 * (np.sin(ph_b) - np.sin(ph_a)),
                          i_th2 * (np.cos(ph_a) - np.cos(ph_b)), i_thz * (ph_b - ph_a)])
            nrm = np.linalg.norm(c)
            centers.append(np.array([0.0, 0.0, r]) if nrm == 0.0 else c / nrm * r)
            z_lo, z_hi = r * cos_lo, r * cos_hi
            bounds.append((z_lo, ph_a, z_hi - z_lo, ph_b - ph_a))
        used += n_i
        cos_hi = cos_lo
    centers.append(np.array([0.0, 0.0, -r]))
    bounds.append((np.pi, 0.0, -theta_cap, 2.0 * np.pi))
    return Patchwork(surface, d, np.array(centers), np.full(len(centers), v), np.array(bounds))


def _sqrt_clip(v: float) -> float:
    return float(np.sqrt(max(v, 0.0)))


def _loop_antider(x: float, r: float) -> float:
    # antiderivative of sqrt(r^2 - x^2)
    x = min(max(x, -r), r)
    return 0.5 * (x * _sqrt_clip(r * r - x * x) + r * r * np.arcsin(x / r))


def loop_circle_rect_area(x1: float, x2: float, y1: float, y2: float, r: float) -> float:
    """Exact area of [x1,x2] x [y1,y2] intersected with the disk |p| <= r,
    one rectangle at a time."""
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
        seg += (_loop_antider(b, r) - _loop_antider(a, r)) if upper_is_circle else y2 * (b - a)
        seg -= (-(_loop_antider(b, r) - _loop_antider(a, r))) if lower_is_circle else y1 * (b - a)
        area += seg
    return area


def argsort_partition_disk(surface, d):
    """The disk patchwork with each boundary sliver merged into the first of
    its eight nearest interior patches, by a full stable argsort of the
    distances, that has room for it (else the nearest)."""
    r = surface.radius
    ox, oy = _GRID_SHIFT[0] * d, _GRID_SHIFT[1] * d
    idx_lo = int(np.floor(-r / d)) - 2
    idx_hi = int(np.ceil(r / d)) + 2
    interior, partial = [], []
    for i in range(idx_lo, idx_hi):
        for j in range(idx_lo, idx_hi):
            x0, y0 = i * d + ox, j * d + oy
            cx = min(max(0.0, x0), x0 + d)
            cy = min(max(0.0, y0), y0 + d)
            if cx * cx + cy * cy >= r * r:
                continue
            if all((x0 + a * d) ** 2 + (y0 + b * d) ** 2 <= r * r
                   for a in (0, 1) for b in (0, 1)):
                interior.append((i, j))
            else:
                area = loop_circle_rect_area(x0, x0 + d, y0, y0 + d, r)
                if area > 0.0:
                    partial.append(((i, j), area))
    if len(interior) < 4:
        raise ResolutionError(f"spacing d={d} leaves only {len(interior)} interior cells (< 4)")
    centers = np.array([((i + 0.5) * d + ox, (j + 0.5) * d + oy) for i, j in interior])
    areas = np.full(len(interior), d * d)
    cap = 2.2 * d * d
    for (i, j), area in sorted(partial, key=lambda item: (-item[1], item[0])):
        c = np.array([(i + 0.5) * d + ox, (j + 0.5) * d + oy])
        by_dist = np.argsort(((centers - c) ** 2).sum(axis=1), kind="stable")
        k = next((int(q) for q in by_dist[:8] if areas[q] + area <= cap),
                 int(by_dist[0]))
        areas[k] += area
    return Patchwork(surface, d, np.column_stack([centers, np.zeros(len(areas))]), areas,
                     np.array([(i * d + ox, j * d + oy, d, d) for i, j in interior]))


def stage_pairs(network, grid):
    """Every coupled pair's cells at both stage offsets, as (key, shift, live),
    sorted by first live step.

    The coupled pairs are the nonzero entries e = i*n + j of the coupling
    matrix, row-major; entry (s, e), the pair at t_n + SIGMAS[s]*h, has the
    key s*n*n + e, its flat index in the stage-major (2, n, n) plan, and the
    cell shift sigma - tau/h.  Its first live step is the first whose time
    lies past the read's arrival onset_j + tau and that reads no row before
    the first node, clipped to the grid; the entries are sorted by it
    stably, so in key order within a step, and the first ``live[m]`` are
    live at step m.
    """
    coupling, delay = network.block(0, network.n)
    e = np.flatnonzero(coupling)
    tau, onset = delay.take(e), network.onset[e % network.n]
    shift = (np.array(SIGMAS)[:, None] - tau / grid.h).ravel()
    first = np.concatenate([np.searchsorted(stage_t, onset + tau, side="right")
                            for stage_t in grid.stage_times])
    first = np.maximum(first, -np.floor(shift).astype(np.int64))
    step_type = np.min_scalar_type(grid.steps)
    first = np.minimum(first, grid.steps, out=first).astype(step_type)
    order = np.argsort(first, kind="stable")
    live = np.searchsorted(first[order], np.arange(grid.steps, dtype=step_type), side="right")
    key = (e + np.array([[0], [network.n ** 2]])).ravel()[order]
    return key, shift[order], live


def int64_stage_pairs(network, grid):
    """``stage_pairs`` with the entries sorted on their int64 first live
    steps, unclipped, so entries never live on the grid sort by the step
    at which they would be."""
    coupling, delay = network.block(0, network.n)
    e = np.flatnonzero(coupling)
    tau, onset = delay.take(e), network.onset[e % network.n]
    shift = (np.array(SIGMAS)[:, None] - tau / grid.h).ravel()
    first = np.concatenate([np.searchsorted(stage_t, onset + tau, side="right")
                            for stage_t in grid.stage_times])
    first = np.maximum(first, -np.floor(shift).astype(np.int64))
    order = np.argsort(first, kind="stable")
    live = np.searchsorted(first[order], np.arange(grid.steps), side="right")
    key = (e + np.array([[0], [network.n ** 2]])).ravel()[order]
    return key, shift[order], live


def split_stage_plan(network, grid, lead, clear, chunk=4096):
    """The one-stage history plan built pair by pair on the half-step grid,
    every entry live on the grid activated, as ``(idx, first, weights,
    near)``.

    Each coupled pair (i, j) with x = tau/h has the half-row shift -2x and
    offset o = floor(-2x); its first live query is the first q = 1, ...,
    2 steps, over the stage times t_0 + h/2, t_1, t_1 + h/2, ..., whose
    time lies past the arrival onset_j + tau and with q + o >= 0, found by
    testing every query, else 2 steps + 1.  Its offset is (lead + o)*n + j,
    or ``clear`` for an uncoupled pair or a negative offset, and its weights
    c * w_k(-2x - o) on a half cell of h/2.  The near entries are the
    stage entries with sigma - x > -1, keyed s*n*n + i*n + j, with their
    cell rows 2 sigma + 2 + o, the first half-row of the stage's cell less
    2 step - 2, ordered by their first live step (q - s) // 2 and then by
    key, with their live counts per step.  The pairs are taken ``chunk`` at
    a time."""
    n, h, steps = network.n, grid.h, grid.steps
    never = 2 * steps + 1
    idx = np.full((n, n), clear, dtype=np.int64)
    first = np.full((n, n), never, dtype=np.int64)
    weights = np.zeros((n, n, 4))
    query_t = np.empty(2 * steps)
    query_t[0::2], query_t[1::2] = grid.times[:-1] + 0.5 * h, grid.times[1:]
    q = np.arange(1, 2 * steps + 1)
    coupling, delay = network.block(0, n)
    coupled = np.flatnonzero(coupling)
    for lo in range(0, len(coupled), chunk):
        e = coupled[lo:lo + chunk]
        i, j = np.divmod(e, n)
        x = delay[i, j] / h
        o = np.floor(-2.0 * x).astype(np.int64)
        live = ((query_t > (network.onset[j] + delay[i, j])[:, None])
                & (q + o[:, None] >= 0))
        first[i, j] = np.where(live.any(axis=1), q[live.argmax(axis=1)], never)
        cell = (lead + o) * n + j
        idx[i, j] = np.where(cell < 0, clear, cell)
        w = np.stack(_hermite_weights(-2.0 * x - o, h / 2), axis=1)
        on = first[i, j] <= 2 * steps
        weights[i[on], j[on]] = coupling[i, j][on, None] * w[on]
    i, j = np.divmod(coupled, n)
    entries = []
    for s, sigma in enumerate(SIGMAS):
        x = delay[i, j] / h
        sel = sigma - x > -1.0
        row = 2 * sigma + 2 + np.floor(-2.0 * x[sel]).astype(np.int64)
        entries += [(int(s * n * n + e), int(r), int((first[a, b] - s) // 2))
                    for e, r, a, b in zip(coupled[sel], row, i[sel], j[sel])]
    entries.sort(key=lambda entry: (entry[2], entry[0]))
    key, row, step = (np.array([entry[k] for entry in entries], dtype=np.int64)
                      for k in range(3))
    near = (key, row, np.searchsorted(step, np.arange(steps), side="right"))
    return idx, first, weights, near


def reference_march(network, grid):
    """The per-query RK4 march the history plan replaced, with the new node
    found by fixed-point iteration.

    Every delayed sum interpolates the trace through ``network.accel_all``;
    the first RK4 stage is the stored A[n].  A pair whose delay is below 2h
    reads the final slope S[n] or the new row n + 1, so each step repeats
    the RK4 stages and the new node's acceleration A[n+1], reapplying the
    slope stencils (final S[n], provisional S[n+1]) after each pass, until
    A[n+1] repeats bitwise or 100 passes are made.  Without such pairs the
    second pass repeats the first, and the march is the explicit one.

    Returns a ``Trace`` for comparison with ``network.solve(grid)``.
    """
    n, h, steps = network.n, grid.h, grid.steps
    times = grid.times
    Y, V, A, S = (np.zeros((steps + 1, n)) for _ in range(4))
    trace = Trace(times, Y, V, A, S, network.onset, {})
    A[0] = network.accel_all(0.0, Y[0], trace)
    for ns in range(steps):
        t = times[ns]
        y, v = Y[ns], V[ns]
        mn = ns + 1
        k1v = A[ns]
        k1y = v
        for _ in range(100):
            previous = A[mn].copy()
            k2y = v + 0.5 * h * k1v
            k2v = network.accel_all(t + 0.5 * h, y + 0.5 * h * k1y, trace)
            k3y = v + 0.5 * h * k2v
            k3v = network.accel_all(t + 0.5 * h, y + 0.5 * h * k2y, trace)
            k4y = v + h * k3v
            k4v = network.accel_all(t + h, y + h * k3y, trace)
            Y[mn] = y + h / 6.0 * (k1y + 2 * k2y + 2 * k3y + k4y)
            V[mn] = v + h / 6.0 * (k1v + 2 * k2v + 2 * k3v + k4v)
            A[mn] = network.accel_all(times[mn], Y[mn], trace)
            if mn >= 3:
                S[mn] = (11 * A[mn] - 18 * A[mn - 1] + 9 * A[mn - 2] - 2 * A[mn - 3]) / (6 * h)
                S[mn - 1] = (2 * A[mn] + 3 * A[mn - 1] - 6 * A[mn - 2] + A[mn - 3]) / (6 * h)
            elif mn == 2:
                S[2] = (3 * A[2] - 4 * A[1] + A[0]) / (2 * h)
                S[1] = (A[2] - A[0]) / (2 * h)
            else:
                S[1] = (A[1] - A[0]) / h
                S[0] = S[1]
            if np.array_equal(A[mn], previous):
                break
    return trace


def two_sum_near_pairs(network, grid):
    """The near-pair solve with the coupled weights g of each entry, the
    contraction bound and the sweep count, as ``(solve, contraction,
    sweeps)``; ``solve(ns, r)`` returns the (2, n) share of the new node.

    The near entries come from the split's keys s*n*n + i*n + j, decoded
    into (s, i, j), and their live counts by counting.  Each sweep sums g * a
    into both stages' rows, (2, n), and applies the row factors k3/m^2 and
    -1/m to the two halves afterwards.
    """
    n, h = network.n, grid.h
    key, shift, live_pairs = stage_pairs(network, grid)
    sel = np.flatnonzero(shift > -1.0)
    live = np.count_nonzero(sel < live_pairs[:, None], axis=1)
    stage, i, j = np.unravel_index(key[sel], (2, n, n))
    shift = shift[sel]
    offset = np.floor(shift)
    _, w10, w01, w11 = _hermite_weights(shift - offset, h)
    zero = np.zeros(len(sel))
    w = network.block(0, n)[0][i, j] * np.where(offset == 0, (w10, w01, w11), (w11, zero, zero))
    tgt, cols = stage * n + i, j
    # weights of the new row A[mn] in the final slope S[mn-1] and the
    # provisional S[mn], for mn = 1, 2 and 3 or more
    new_row = ((1 / h, 1 / h), (1 / (2 * h), 3 / (2 * h)), (2 / (6 * h), 11 / (6 * h)))
    g = [w[1] + final * w[0] + new * w[2] for final, new in new_row]
    masses, k3, rows = network.masses, h * h / 3.0, tgt % n
    scale = np.abs(np.where(tgt < n, k3 / masses[rows], 1.0) / masses[rows])
    contraction = float(max(np.bincount(rows, scale * np.abs(gk), minlength=n).max()
                            for gk in g))
    sweeps = (int(np.ceil(np.log(np.finfo(float).eps) / np.log(contraction)))
              if 0.0 < contraction < 1.0 else 0)

    def solve(ns, r):
        gk, to, at = g[min(ns, 2)][:live[ns]], tgt[:live[ns]], cols[:live[ns]]

        def coupled(a):
            return np.bincount(to, gk * a[at], minlength=2 * n).reshape(2, n)

        a = r
        for _ in range(sweeps):
            moved = coupled(a)
            a = r + (k3 * moved[0] / masses - moved[1]) / masses
        return coupled(a)

    return solve, contraction, sweeps


def half_cell_near_weights(network, grid):
    """The near pairs' weights on the plan's half cells, built pair by pair,
    with their contraction bound and sweep count, as ``(weights,
    contraction, sweeps)``: ``weights[k]`` holds, in the order of
    ``stage_pairs``, each near stage entry's weight for new row k + 1 (the
    same from row 3 on), premultiplied by its row's factor, k3/m_i^2 at the
    half stage and -1/m_i at the full one.

    Entry (s, i, j), x = tau/h, reads at step n the half cell of half-rows
    2n + 1 + s + o and the next, o = floor(-2x), with the coupled Hermite
    weights c * w_k(-2x - o) on h/2; row r = 3 + s + o numbers that cell
    from half-row 2n - 2 (node n - 1).  Its g is the sum over the cell's
    four values (A, S of its first half-row, then of the next) of the
    weight times the value's derivative in a = A[n+1], written out from
    the weights f and e of A[n+1] in the final slope S[n] and the
    provisional S[n+1]: node n - 1 gives (0, 0), the mid row of [n-1, n]
    (-h/8 f, -f/4), node n (0, f), the mid row of [n, n+1]
    (1/2 + h/8 f - h/8 e, 1.5/h - f/4 - e/4) and node n + 1 (1, e).  The
    contraction bound sums |weight| per oscillator one pair at a time.
    """
    n, h = network.n, grid.h
    key, shift, _ = stage_pairs(network, grid)
    near = [(int(k), float(sh)) for k, sh in zip(key, shift) if sh > -1.0]
    coupling, delay = network.block(0, n)
    masses = [float(m) for m in network.masses]
    k3 = h * h / 3.0
    weights, contraction = [], 0.0
    for f, e in ((1 / h, 1 / h), (1 / (2 * h), 3 / (2 * h)), (2 / (6 * h), 11 / (6 * h))):
        halves = [0.0, 0.0, -h / 8 * f, -f / 4, 0.0, f,
                  0.5 + h / 8 * f - h / 8 * e, 1.5 / h - f / 4 - e / 4, 1.0, e]
        column, sums = [], [0.0] * n
        for k, _ in near:
            s, i, j = k // (n * n), k // n % n, k % n
            tau, c = float(delay[i, j]), float(coupling[i, j])
            x = tau / h
            o = math.floor(-2.0 * x)
            w = _hermite_weights(-2.0 * x - o, h / 2)
            d = halves[2 * (3 + s + o):2 * (3 + s + o) + 4]
            g = c * w[0] * d[0] + c * w[1] * d[1] + c * w[2] * d[2] + c * w[3] * d[3]
            weight = (k3 / masses[i] / masses[i] if s == 0 else -1.0 / masses[i]) * g
            column.append(weight)
            sums[i] += abs(weight)
        weights.append(np.array(column))
        contraction = max(contraction, max(sums))
    sweeps = (int(np.ceil(np.log(np.finfo(float).eps) / np.log(contraction)))
              if 0.0 < contraction < 1.0 else 0)
    return weights, contraction, sweeps


def _csv_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def csv_rows_text(header, rows) -> str:
    """The CSV text of a header and row tuples, formatted one cell at a time."""
    lines = [",".join(header)]
    lines.extend(",".join(_csv_cell(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Memory kernel
# ---------------------------------------------------------------------------
_D2_END = np.array([45.0, -154.0, 214.0, -156.0, 61.0, -10.0])
_D2_NEAR_END = np.array([10.0, -15.0, -4.0, 14.0, -6.0, 1.0])


def _second_derivative(f: np.ndarray, h: float) -> np.ndarray:
    """Fourth-order finite-difference f'' on a uniform grid.

    Five-point central stencil inside, six-point one-sided stencils at the two
    nodes next to each end; arrays of three to five samples fall back to the
    second-order three-point rule, and shorter ones raise ``UsageError``.
    """
    if len(f) < 3:
        raise UsageError("a second derivative needs at least 3 samples")
    d2 = np.empty_like(f)
    if len(f) >= 6:
        d2[2:-2] = (-f[:-4] + 16 * f[1:-3] - 30 * f[2:-2] + 16 * f[3:-1] - f[4:]) / (12 * h**2)
        d2[0] = _D2_END @ f[:6] / (12 * h**2)
        d2[1] = _D2_NEAR_END @ f[:6] / (12 * h**2)
        d2[-1] = _D2_END @ f[:-7:-1] / (12 * h**2)
        d2[-2] = _D2_NEAR_END @ f[:-7:-1] / (12 * h**2)
        return d2
    d2[1:-1] = (f[2:] - 2 * f[1:-1] + f[:-2]) / h**2
    if len(f) >= 4:
        d2[0] = (2 * f[0] - 5 * f[1] + 4 * f[2] - f[3]) / h**2
        d2[-1] = (2 * f[-1] - 5 * f[-2] + 4 * f[-3] - f[-4]) / h**2
    else:
        d2[0] = d2[1]
        d2[-1] = d2[-2]
    return d2


def _end_slope(g: np.ndarray, h: float, at_start: bool) -> np.ndarray | float:
    """Third-order one-sided derivative of the integrand at an endpoint."""
    if g.shape[0] < 4:
        return 0.0
    if at_start:
        return (-11 * g[0] + 18 * g[1] - 9 * g[2] + 2 * g[3]) / (6 * h)
    return (11 * g[-1] - 18 * g[-2] + 9 * g[-3] - 2 * g[-4]) / (6 * h)


def _volterra_sine(kernel_scale: float, omega_m: float, f: np.ndarray,
                   times: np.ndarray) -> np.ndarray:
    """kernel_scale * int_0^t sin((t - tau)/omega_m) f(tau) dtau on the grid.

    End-corrected trapezoid: the Euler-Maclaurin h^2/12 boundary term is
    removed with one-sided finite-difference endpoint derivatives, which lifts
    the plain second-order rule to ~fourth order for smooth integrands.
    """
    h = times[1] - times[0]
    n = len(times)
    out = np.zeros(n)
    s = np.sin(times / omega_m)
    c = np.cos(times / omega_m)
    fs, fc = f * s, f * c
    cs_s = np.concatenate([[0.0], np.cumsum((fs[1:] + fs[:-1]) * 0.5 * h)])
    cs_c = np.concatenate([[0.0], np.cumsum((fc[1:] + fc[:-1]) * 0.5 * h)])
    # trapezoid value of int sin((t-tau)/om) f dtau = sin(t/om) Ic - cos(t/om) Is
    out = s * cs_c - c * cs_s
    if n >= 5:
        # Euler-Maclaurin end correction -(h^2/12)[g'(t_k) - g'(0)] per output
        # time, with g(tau) = sin((t_k - tau)/om) f(tau):
        #   g'(0)   = -cos(t_k/om) f(0)/om + sin(t_k/om) f'(0)
        #   g'(t_k) = -f(t_k)/om
        f0, fp0 = f[0], _end_slope(f, h, True)
        g_prime_0 = -(1.0 / omega_m) * c * f0 + s * fp0
        g_prime_t = -(1.0 / omega_m) * f
        out = out - (h**2 / 12.0) * (g_prime_t - g_prime_0)
        out[0] = 0.0
    return kernel_scale * out


def memory_convolution(f_trace: np.ndarray, omega_m: float, grid: TimeGrid,
                       f_ddot: np.ndarray | None = None) -> np.ndarray:
    """omega_m^-1 * int_0^t sin((t-tau)/omega_m) f''(tau) dtau on the grid.

    ``f_ddot`` may be supplied (e.g. a stored acceleration trace); otherwise it
    is approximated by fourth-order finite differences of ``f_trace``.
    """
    f = np.asarray(f_trace, dtype=float)
    times = grid.times
    if f.shape != times.shape:
        raise UsageError("trace length does not match the grid")
    dd = _second_derivative(f, grid.h) if f_ddot is None else np.asarray(f_ddot, dtype=float)
    return _volterra_sine(1.0 / omega_m, omega_m, dd, times)


def kernel_identity_residual(f_trace: np.ndarray, omega_m: float, grid: TimeGrid,
                             f_ddot: np.ndarray | None = None) -> float:
    """sup-norm residual of the integration-by-parts identity

        om^-2 f - om^-3 int sin((t-tau)/om) f dtau
            = om^-1 int sin((t-tau)/om) f'' dtau,

    valid for f(0) = f'(0) = 0, with both sides sharing one quadrature.
    """
    f = np.asarray(f_trace, dtype=float)
    times = grid.times
    if f.shape != times.shape:
        raise UsageError("trace length does not match the grid")
    scale = float(np.max(np.abs(f)))
    if scale > 0.0:
        fp0 = abs(_end_slope(f, grid.h, True)) if len(f) >= 4 else 0.0
        if abs(f[0]) > 1e-12 * scale or fp0 * grid.h > 1e-6 * scale:
            raise UsageError("kernel identity requires f(0) = f'(0) = 0")
    lhs = f / omega_m**2 - _volterra_sine(1.0 / omega_m**3, omega_m, f, times)
    rhs = memory_convolution(f, omega_m, grid, f_ddot=f_ddot)
    return float(np.max(np.abs(lhs - rhs)))


# ---------------------------------------------------------------------------
# Transmission-condition diagnostics
# ---------------------------------------------------------------------------
@dataclass
class JumpDiagnostics:
    residual: float          # sup |[dW/dn] - memory term| / jump scale
    continuity: float        # sup |W(x+dn) - W(x-dn)| / field scale
    jump_scale: float


def surface_normal(rule: QuadratureRule, node: int) -> np.ndarray:
    """The unit normal at a node of a rule on the surfaces ``build_surface``
    makes: e_z on the disk (every node in z = 0), x/|x| on the sphere
    centred at the origin."""
    if not np.any(rule.nodes[:, 2]):
        return np.array([0.0, 0.0, 1.0])
    x = rule.nodes[node]
    return x / np.linalg.norm(x)


def jump_residual(rule: QuadratureRule, trace: Trace, params: PhysicalParams,
                  source: PointSource, probe_nodes, delta: float) -> JumpDiagnostics:
    """Check [dW/dn] against the sinusoidal memory convolution of W on Gamma.

    One-sided normal derivatives at the surface are estimated from each side
    with samples at delta, 1.5*delta, 2*delta (quadratic fit differentiated at
    the surface, so no sample comes closer than delta); the on-surface trace
    W = U + om^2 U'' is convolved with the sine kernel.  ``delta`` below 5
    patch spacings triggers a near-singular warning.  Evaluates on the solver
    grid.
    """
    if delta < 5.0 * rule.spacing:
        warnings.warn("jump offset delta below 5 node spacings: near-singular "
                      "normal derivatives", stacklevel=2)
    field = EffectiveField(rule, trace, params, source)
    grid = TimeGrid(T=trace.horizon, h=trace.h, steps=len(trace.times) - 1)
    times = grid.times
    worst = 0.0
    scale = 0.0
    cont = 0.0
    fscale = 0.0
    for node in np.atleast_1d(probe_nodes):
        xc = rule.nodes[node]
        nu = surface_normal(rule, node)
        if np.linalg.norm(trace.acc[:, node]) == 0.0 and np.linalg.norm(trace.value[:, node]) == 0.0:
            continue
        w_vals = {
            (sgn, k): field.total(xc + sgn * k * delta * nu, times, min_dist_factor=0.0)[0]
            for sgn in (1.0, -1.0) for k in (1.0, 1.5, 2.0)
        }
        # d/dn of the quadratic through (delta, 1.5 delta, 2 delta), at 0
        def one_sided(sgn):
            return sgn * (-7.0 * w_vals[(sgn, 1.0)] + 12.0 * w_vals[(sgn, 1.5)]
                          - 5.0 * w_vals[(sgn, 2.0)]) / delta
        jump = one_sided(1.0) - one_sided(-1.0)
        w_on = trace.value[:, node] + params.omega_m_sq * trace.acc[:, node]
        mem = params.c_bar * rule.density[node] * memory_convolution(
            w_on, params.omega_m, grid)
        worst = max(worst, float(np.max(np.abs(jump - mem))))
        scale = max(scale, float(np.max(np.abs(jump))))
        cont = max(cont, float(np.max(np.abs(w_vals[(1.0, 1.0)] - w_vals[(-1.0, 1.0)]))))
        fscale = max(fscale, float(np.max(np.abs(w_vals[(1.0, 1.0)]))))
    if scale == 0.0:
        return JumpDiagnostics(residual=0.0, continuity=0.0, jump_scale=0.0)
    return JumpDiagnostics(residual=worst / scale,
                           continuity=cont / max(fscale, 1e-300),
                           jump_scale=scale)
