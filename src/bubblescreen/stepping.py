"""Method-of-steps time integration for networks of delay-coupled oscillators.

Both the point-scatterer system and the discretized surface equation share the
form

    mass_i * x_i''(t) + x_i(t) + sum_j c_ij * x_j''(t - tau_ij) = f_i(t),
    x(0) = x'(0) = 0,

a neutral system: the delayed terms act on the highest derivative.  The
acceleration history is therefore stored explicitly at the grid nodes and
interpolated with cubic Hermite polynomials whose slopes (third derivatives)
come from third-order finite-difference stencils: the newest node's slope is
provisional (backward) until the next node finalizes it (central).

The delayed sum depends on t and the history only, not on the state, so one
classical RK4 step needs it at two times: t_n + h/2 (shared by the second and
third stages) and t_{n+1} (shared by the fourth stage and the new node's
acceleration, which is also the next step's first stage).  The step is fixed,
so for each of those two stage offsets every coupled pair has a constant cell
offset and constant Hermite weights.  Any step h > 0 is allowed; the step is
not tied to the smallest delay.  A pair is *far* at a stage when its query
cell ends at row n with zero weight on the still-provisional slope S[n]
(delay at least 1.5h at the half stage, 2h at the full one), and *near*
otherwise: its cell weights the final S[n] or the new row n + 1.

A network is its two n x n matrices, the couplings c_ij and the delays
tau_ij; a zero coupling leaves the pair uncoupled.  The stage offset is one
axis of length 2, ``SIGMAS``: ``DelayNetwork.solve`` builds one row-major
history plan per grid, a 2n x n array of gather offsets whose row (s, i)
holds oscillator i's pairs at stage s.  One pass over blocks of plan rows
reads the two matrices and writes the offsets, a 2n x n matrix of each
entry's first live step (one byte an entry up to 255 steps) and the near
entries, the one list of coupled entries it makes; no array holds one
element per coupled pair.  The acceleration and slope histories live in one
array of 32-byte cells: cell (k, j) holds A[k, j], S[k, j], A[k+1, j] and
S[k+1, j], the four values a query in the Hermite cell of rows k and k + 1
reads.  It carries leading zero rows, at least as many as the deepest lag,
so every offset reads a row that exists, and one trailing zero row that
uncoupled entries read.  The plan's 2n x n x 4 weights, the Hermite weights
premultiplied by the coupling, are interleaved the same way.  Each delayed
sum gathers the cells of a block of plan rows at a time into one small
buffer and reduces each row against the weights by one dot over 4n values
straight into the (2, n) sums, so one gather pass over the 2n rows gives both
stages' sums, with no per-step index arithmetic.

The RK4 step of m x'' + x = g, g = f - d the force less the delayed sum, is
linear in x_n, x'_n, x''_n and g at both stage offsets.  ``solve`` builds
that map once per march, (3, 5, n) coefficients found by applying the staged
formula ``_rk4`` to unit inputs, and takes each step as one contraction of it
with the step's five input rows.

The near pairs' values are affine in the new node's acceleration a = A[n+1],
through the Hermite weight of row n + 1 and the slope stencils of S[n] and
S[n+1].  While any near pair is live, a step first writes both slopes with
A[n+1] still zero, so the plans' sum holds every pair's history part, far
and near alike; what is left is the new node's share.  The step is affine
in the delayed sums, so each step is implicit in a: a = r + G a, with r the
new node's acceleration at a = 0 and G a sparse n x n map built from the near
pairs only.  It is solved by fixed-point sweeps over the near pairs, one
``bincount`` on weights premultiplied by G's row factors per sweep, as many
as the map's contraction bound needs to reach rounding level; a bound of 1 or
more is refused.  The solved share enters the step through the same map's
columns of g, so the step is still taken once.  This is the method of steps
with an implicit new node (Bellen & Zennaro, below).  The forcing does not
depend on the state either, so it is tabulated once per block of steps at
both stage offsets: ``forcing`` maps a (2k, 1) column of stage times to
(2k, n) forces, or to anything that broadcasts to (2k, n).

Each oscillator carries an onset time, the first arrival of its forcing; a
query at or before a column's onset returns exactly zero, so neither the march
nor a field evaluated from the trace picks up the interpolant's pre-onset
leakage.  A pair's weights stay zero until the first step at which its query
lies past the source column's onset (and reads no row before the first node);
they are written at that step, by one scan for the entries whose first live
step equals it, and the near pairs are sorted by that step, so a pair
contributes exactly zero before it.  Fixed-step method of steps with
breaking-point tracking follows Bellen & Zennaro, *Numerical Methods for Delay
Differential Equations* (2003).

A network keeps nothing between marches: ``solve`` builds the plan and the
near pairs for its grid and returns, with the ``Trace``, the
march's ``counters`` read from them, which the run manifests record.
Before a ``RetardedNetwork`` is built, ``march_memory`` estimates its march's
peak bytes from n, the grid and a bound on the lag, and refuses one above
``memory_budget``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (ConfigError, DivergenceError, EvaluationPointError,
                     ResolutionError, SolverError, UsageError)
from .geometry import pairwise_distances
from .sources import incident_eval

# The two stage offsets of an RK4 step, in steps past t_n: the half stage
# (second and third stages) and the full one (fourth stage and new node).
SIGMAS = (0.5, 1.0)
# Forcing values tabulated per block of steps: max(1, FORCING_BLOCK // n)
# steps of n oscillators, each at both stage offsets, in one forcing call.
# The incident wave's evaluation peaks at about 8.4 arrays of that many
# values, its input and output included: 0.13 MiB at 2048 steps x oscillators.
FORCING_BLOCK = 2048
# Longest march TimeGrid.fit builds, in steps.
MAX_STEPS = 2**16
# History cells gathered per block of plan rows: min(2n, max(1, GATHER_BLOCK // n))
# rows of n cells, at most 256 KiB.
GATHER_BLOCK = 8192
# Retarded field queries evaluated per block of times: max(1, FIELD_BLOCK // n)
# times of n anchors, so each of the interpolation's ~15 temporaries stays
# near 64 KiB, below glibc's initial 128 KiB mmap threshold: they reuse the
# heap the march freed rather than map fresh pages, and a stage's peak RSS
# does not depend on where the allocator happened to place them.
FIELD_BLOCK = 8192
# Third-order slope stencils per start-up row k = min(mn, 3), as (weights over
# A[mn-k], ..., A[mn], divisor): row 0 the final slope at mn - 1, row 1 the
# provisional one at mn; the slopes are the weights times A over divisor * h.
_STENCILS = {1: (np.array([[-1.0, 1.0], [-1.0, 1.0]]), 1.0),
             2: (np.array([[-1.0, 0.0, 1.0], [1.0, -4.0, 3.0]]), 2.0),
             3: (np.array([[1.0, -6.0, 3.0, 2.0], [-2.0, 9.0, -18.0, 11.0]]), 6.0)}


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [0, T] with steps = ceil(T/h) nodes past zero."""

    T: float
    h: float
    steps: int

    @staticmethod
    def fit(T: float, target_h: float) -> "TimeGrid":
        """The grid of the fewest steps h <= target_h, at most ``MAX_STEPS``
        and at least one (h = T when T is below target_h to rounding)."""
        if not (np.isfinite(T) and np.isfinite(target_h) and T > 0 and target_h > 0):
            raise ConfigError(f"horizon and step must be positive and finite, "
                              f"got T={T}, h_max={target_h}")
        if not T / target_h <= MAX_STEPS:   # an overflow to inf too
            raise ConfigError(f"T={T} at h_max={target_h} needs {T / target_h:.3g} "
                              f"steps, above the limit of {MAX_STEPS}")
        steps = max(1, int(np.ceil(T / target_h - 1e-12)))
        return TimeGrid(T=T, h=T / steps, steps=steps)

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.steps + 1) * self.h

    @property
    def stage_times(self) -> np.ndarray:
        """(2, steps): t_n + sigma*h for each of ``SIGMAS``, the full stage
        taken as the next node t_{n+1} itself."""
        times = self.times
        return np.stack((times[:-1] + SIGMAS[0] * self.h, times[1:]))


def _hermite_weights(theta, h):
    """Cubic Hermite basis at theta: weights of (v0, s0, v1, s1)."""
    t2 = theta * theta
    t3 = t2 * theta
    return (2 * t3 - 3 * t2 + 1, (t3 - 2 * t2 + theta) * h,
            -2 * t3 + 3 * t2, (t3 - t2) * h)


class Trace:
    """Dense solver output: values, rates, accelerations and slope estimates.

    ``value_at``/``accel_at`` interpolate with cubic Hermite polynomials; a
    query at or before its column's ``onset`` (the time the forcing first
    reaches that column) returns exactly zero.  ``counters`` describes the
    march that made the trace, for run manifests (see ``DelayNetwork.solve``).
    """

    def __init__(self, times: np.ndarray, value: np.ndarray, rate: np.ndarray,
                 acc: np.ndarray, acc_slope: np.ndarray, onset: np.ndarray,
                 counters: dict):
        self.times = times
        self.value = value
        self.rate = rate
        self.acc = acc
        self.acc_slope = acc_slope
        self.onset = onset
        self.counters = counters
        self.h = float(times[1] - times[0])
        self.horizon = float(times[-1])

    def _interp(self, tq, cols, base, slope):
        tq = np.asarray(tq, dtype=float)
        cols = np.asarray(cols, dtype=int)
        out = np.zeros(tq.shape)
        # the onsets of cols, broadcast against tq rather than gathered per query
        live = tq > self.onset[cols]
        if not live.any():
            return out
        tql = tq[live]
        if np.any(tql > self.horizon * (1 + 1e-12)):
            raise UsageError("interpolation query beyond the trace horizon")
        k = np.minimum((tql / self.h).astype(int), len(self.times) - 2)
        w00, w10, w01, w11 = _hermite_weights(tql / self.h - k, self.h)
        cl = np.broadcast_to(cols, tq.shape)[live]
        out[live] = (w00 * base[k, cl] + w10 * slope[k, cl]
                     + w01 * base[k + 1, cl] + w11 * slope[k + 1, cl])
        return out

    def value_at(self, tq, cols):
        """Cubic Hermite interpolation of x using (value, rate)."""
        return self._interp(tq, cols, self.value, self.rate)

    def accel_at(self, tq, cols):
        """Cubic Hermite interpolation of x'' using stored slope estimates."""
        return self._interp(tq, cols, self.acc, self.acc_slope)


def _first_live(stage_t: np.ndarray, tau: np.ndarray, onset: np.ndarray) -> np.ndarray:
    """Per pair, the first step n with stage_t[n] - tau > onset (len if none).

    The test is evaluated in floating point exactly as a direct query
    ``tq > onset`` would be, so the plan's live set matches it exactly.
    """
    last = len(stage_t)
    n = np.searchsorted(stage_t, onset + tau, side="right")

    def live(k):
        return stage_t[np.clip(k, 0, last - 1)] - tau > onset

    while True:
        back = (n > 0) & live(n - 1)
        ahead = (n < last) & ~live(n)
        if not (back.any() or ahead.any()):
            return n
        n = n - back + ahead


def _slope_stencils(A: np.ndarray, mn: int, h: float) -> np.ndarray:
    """Third-order slopes from the accelerations up to row mn, as (2, n): the
    final slope at mn - 1 and the provisional one at mn, by one stencil product."""
    k = min(mn, 3)
    weights, divisor = _STENCILS[k]
    return weights @ A[mn - k:mn + 1] / (divisor * h)


def _new_row_weights(mn: int, h: float):
    """Weights of A[mn] in the two slopes ``_slope_stencils(A, mn, h)`` returns."""
    weights, divisor = _STENCILS[min(mn, 3)]
    return tuple(weights[:, -1] / (divisor * h))


def _rk4(y, v, k1v, f, d, h, masses):
    """One classical RK4 step of (x, x') given the forces f and delayed sums d
    at both stage offsets, each (2, n); returns x, x' and x'' at the new node."""
    k2y = v + 0.5 * h * k1v
    k2v = (f[0] - (y + 0.5 * h * v) - d[0]) / masses
    k3y = v + 0.5 * h * k2v
    k3v = (f[0] - (y + 0.5 * h * k2y) - d[0]) / masses
    k4y = v + h * k3v
    k4v = (f[1] - (y + h * k3y) - d[1]) / masses
    y1 = y + h / 6.0 * (v + 2 * k2y + 2 * k3y + k4y)
    v1 = v + h / 6.0 * (k1v + 2 * k2v + 2 * k3v + k4v)
    return y1, v1, (f[1] - y1 - d[1]) / masses


def _rk4_coefficients(h: float, masses: np.ndarray) -> np.ndarray:
    """The RK4 step as a linear map, (3, 5, n): entry (o, k, i) is output o
    (x, x', x'' at the new node) of oscillator i per unit of input k (x_n,
    x'_n, x''_n and g = f - d at the half and the full stage), found by
    applying ``_rk4`` to unit inputs."""
    unit = np.eye(5)[:, :, None]
    return np.stack(_rk4(unit[0], unit[1], unit[2], unit[3:], np.zeros(2), h, masses))


class _StagePlan:
    """Delayed sums over every coupled pair at both stage offsets for every
    step n of one grid, row-major: 2n rows, row s*n + i holding oscillator
    i's pairs at t_n + SIGMAS[s]*h, so the rows are the (2, n) sums in order.

    Entry (r, j) is the pair (i, j) of row r, and its flat index, the key
    s*n*n + i*n + j, orders the entries.  Its cell shift sigma - tau/h puts
    its query in the Hermite cell of rows n + o and n + o + 1, o =
    floor(shift); ``idx[r, j]`` is the offset of that cell from row n.  A
    step gathers the cells of ``len(buf)`` plan rows at a time into the one
    ``buf`` with one unbuffered ``take`` and reduces each row against the
    interleaved weights by one dot over 4n values straight into its output:
    ``weights[r, j, k]`` is the pair's Hermite weight of its cell's k-th value.

    The plan is built in one pass over blocks of rows of one stage, at
    most ``GATHER_BLOCK`` cells each (one row when n exceeds it), that reads
    the network's two matrices and writes ``idx``, ``first`` and the near
    entries.  ``first[r, j]``, of the smallest unsigned type that holds
    ``steps``, is the entry's first live step: the first whose query lies
    past the source column's onset and reads no row before the first node,
    clipped to ``steps``, at which uncoupled entries sit too, so no step
    makes them live.  ``opens[n]`` counts the entries whose first live step
    is n (``opens[steps]`` those never live), and ``live[n]`` those live at
    step n, their running sum.  The weights start at zero; at its first live
    step an entry's weights c * w_k(theta), c and tau read from the
    network's matrices, are written (``activate``, which ``delayed_sum``
    calls at each step that opens entries), so an entry not yet live
    contributes exactly zero, a row with no live entry sums to exactly +0.0,
    and a step with none sums nothing.  Uncoupled entries, the diagonal and
    entries whose cell lies before the leading rows (delays longer than the
    whole grid) point past the end of the history, which ``mode="clip"``
    maps to its trailing zero cell, and are never activated.

    A far pair's cell ends at row n or earlier and gives row n's slope
    weight zero, so it reads final values only.  A near pair, a coupled entry
    whose shift exceeds -1, reads the final S[n] or the new row n + 1; while
    one is live, the step writes the slopes S[n] and S[n+1] with A[n+1]
    still zero first, so the sum holds the near pairs' history part and
    ``_NearPairs`` adds the new node's share.  ``near`` holds the near
    entries' keys and shifts, sorted stably by first live step, so in key
    order within a step, and their live counts per step; the pass that
    collects them is the one place that lists the coupled entries.
    """

    def __init__(self, network: "DelayNetwork", grid: TimeGrid, pad: int):
        n, h, steps = network.n, grid.h, grid.steps
        clear = (pad + steps + 2) * n
        rows = min(n, max(1, GATHER_BLOCK // n))
        blocks = [(s * n + lo, s * n + min(lo + rows, n))
                  for s in range(len(SIGMAS)) for lo in range(0, n, rows)]
        self.idx = np.empty((2 * n, n), dtype=np.int64)
        self.first = np.empty((2 * n, n), dtype=np.min_scalar_type(steps))
        self.opens = np.zeros(steps + 1, dtype=np.int64)
        stage_times, near = grid.stage_times, []
        for lo, hi in blocks:
            s = lo // n
            coupling = network.coupling[lo - s * n:hi - s * n]
            coupled = coupling != 0
            # an uncoupled entry's delay is never read: it counts as zero
            tau = np.where(coupled, network.delay[lo - s * n:hi - s * n], 0.0)
            shift = SIGMAS[s] - tau / h
            offset = np.floor(shift).astype(np.int64)
            first = np.maximum(_first_live(stage_times[s], tau, network.onset), -offset)
            self.first[lo:hi] = np.where(coupled, np.minimum(first, steps), steps)
            self.opens += np.bincount(self.first[lo:hi].ravel(), minlength=steps + 1)
            cell = (pad + offset) * n + np.arange(n)
            # a cell before the leading rows belongs to an entry no step of
            # this grid makes live: it reads the trailing zero cell instead
            cell[~coupled | (cell < 0)] = clear
            self.idx[lo:hi] = cell
            k = np.flatnonzero(coupled & (shift > -1.0))
            near.append((lo * n + k, shift.ravel()[k], self.first[lo:hi].ravel()[k]))
        # the steps fit the smallest unsigned type, whose stable sort is a radix sort
        key, shift, first = (np.concatenate(part) for part in zip(*near))
        order = np.argsort(first, kind="stable")
        self.near = (key[order], shift[order],
                     np.searchsorted(first[order], np.arange(steps), side="right"))
        self.live = np.cumsum(self.opens)[:steps]
        self.weights = np.zeros((2 * n, n, 4))
        self.buf = np.empty((min(2 * n, max(1, GATHER_BLOCK // n)), n, 4))
        self.network, self.h, self.n = network, h, n

    def activate(self, ns: int) -> None:
        """Write the weights of every entry whose first live step is ns.

        One scan of ``first == ns``, 32 buffers of rows at a time, so its
        one-byte mask stays within the buffer's bytes and the keys it finds
        within eight buffers'; they are written at most half a buffer of
        entries at a time, so the weights' temporaries stay within about two
        buffers'."""
        net, n, weights = self.network, self.n, self.weights.reshape(-1, 4)
        rows, most = 32 * len(self.buf), self.buf.size // 8
        for lo in range(0, 2 * n, rows):
            found = lo * n + np.flatnonzero(self.first[lo:lo + rows] == ns)
            for at in range(0, len(found), most):
                key = found[at:at + most]
                stage, e = np.divmod(key, n * n)
                shift = np.take(SIGMAS, stage) - net.delay.take(e) / self.h
                c = net.coupling.take(e)
                for k, w in enumerate(_hermite_weights(shift - np.floor(shift), self.h)):
                    # one weight of every entry, through a strided view
                    weights[:, k][key] = c * w

    def delayed_sum(self, ns: int, cells: np.ndarray) -> np.ndarray:
        """Both stages' sums at step ns, as (2, n), over the (rows * n, 4)
        history ``cells``.  It activates the entries that go live at ns, so
        it must be called once per step, in order, as ``DelayNetwork.solve``
        does."""
        if self.opens[ns]:
            self.activate(ns)
        out = np.zeros((2, self.n))
        if not self.live[ns]:
            return out
        cells = cells[ns * self.n:]
        total = out.reshape(-1)
        for lo in range(0, len(total), len(self.buf)):
            buf = self.buf[:len(total) - lo]
            hi = lo + len(buf)
            cells.take(self.idx[lo:hi], axis=0, out=buf, mode="clip")
            np.einsum("ijk,ijk->i", buf, self.weights[lo:hi], out=total[lo:hi])
        return out


class _NearPairs:
    """The new node's share of both stages' near sums on one grid.

    Built from the plan's ``near`` entries, those whose shift exceeds -1,
    over both stages at once, in the plan's order.  A near entry
    interpolates rows n - 1, n (o = -1) or n, n + 1 (o = 0) with the final
    slope S[n] and, for o = 0, the new node's A[n+1] and its provisional
    slope S[n+1].  Both slopes are affine in a = A[n+1] through
    ``_slope_stencils``, so each near value is a
    history part, summed by the plan with the new row at zero, plus g * a_j,
    g being the entry's coupled Hermite weights of S[n], A[n+1] and S[n+1]
    with the slope stencils of the new row.  Its sum lands in ``tgt[p]``,
    row s*n + i of the stage-major (2, n) sums, and ``rows[p]`` = i.  The
    plan sorts the entries by their first live step (exact onsets, as in its
    weights), so the first ``live[n]`` are live at step n.

    The RK4 step is affine in the delayed sums, and x(t_{n+1}) depends on the
    half stage only, through k3, by -h^2/3 per unit of delayed sum over the
    mass squared.  So a solves a = r + G a, where r is the new node's
    acceleration with a = 0 and G = M^-1 (h^2/3 M^-1 N_half - N_full) holds
    the near pairs' weights.  ``weights[k][p]`` is g premultiplied by its
    row's factor in G, k3/m_i^2 at the half stage and -1/m_i at the full one
    (``factor``, (2, n)), for new row k + 1, the same from row 3 on.  ``solve``
    iterates the map from a = r, one ``bincount`` into n rows per sweep.
    ``contraction`` bounds max_i sum_j |G_ij| over every step's weights;
    below 1 the map contracts, and ``sweeps`` passes bring a to rounding level.
    """

    def __init__(self, network: "DelayNetwork", grid: TimeGrid, near):
        n, h = network.n, grid.h
        key, shift, self.live = near
        self.tgt, self.cols = np.divmod(key, n)
        offset = np.floor(shift)
        # weights of S[n], A[n+1], S[n+1]: a cell n - 1, n (o = -1) ends at S[n]
        _, w10, w01, w11 = _hermite_weights(shift - offset, h)
        zero = np.zeros(len(key))
        w = network.coupling.take(key % (n * n)) * np.where(
            offset == 0, (w10, w01, w11), (w11, zero, zero))
        self.rows = self.tgt % n
        # a pair near at the half stage is near at the full one
        self.pairs = int(np.count_nonzero(self.tgt >= n))
        k3 = h * h / 3.0
        self.factor = np.stack((k3 / network.masses / network.masses, -1.0 / network.masses))
        scale = self.factor.ravel()[self.tgt]
        self.weights = [scale * (w[1] + final * w[0] + new * w[2])
                        for final, new in (_new_row_weights(mn, h) for mn in (1, 2, 3))]
        self.n = n
        # |scale * g| == |scale| * |g| exactly, so the bound is G's own
        self.contraction = float(max(np.bincount(self.rows, np.abs(g), minlength=n).max()
                                     for g in self.weights))
        eps = np.finfo(float).eps
        self.sweeps = (int(np.ceil(np.log(eps) / np.log(self.contraction)))
                       if 0.0 < self.contraction < 1.0 else 0)

    def solve(self, ns: int, r: np.ndarray) -> np.ndarray:
        """The parts of the half and full near sums, as (2, n), that the new
        node a = A[n+1] adds, a solving a = r + G a."""
        live = self.live[ns]
        g, rows, cols = self.weights[min(ns, 2)][:live], self.rows[:live], self.cols[:live]
        a = r
        for _ in range(self.sweeps):
            a = r + np.bincount(rows, g * a[cols], minlength=self.n)
        share = np.bincount(self.tgt[:live], g * a[cols], minlength=2 * self.n)
        return share.reshape(2, self.n) / self.factor


class DelayNetwork:
    """mass_i x_i'' + x_i + sum_j c_ij x_j''(t - tau_ij) = f_i(t).

    ``coupling`` and ``delay`` are n x n matrices: entry (i, j) adds
    coupling[i, j] x_j''(t - delay[i, j]) to row i, and a zero coupling leaves
    the pair uncoupled and its delay unread.  The couplings are finite, with a
    zero diagonal; the delays are finite and non-negative, and positive
    wherever the coupling is not zero.  They are the network's only coupling
    data.

    ``onset`` gives, per oscillator, the finite, non-negative time before
    which its forcing vanishes (zero by default).  The delayed terms then
    cannot wake x_i earlier either, provided onset_i <= onset_j + tau_ij for
    every coupled pair, which is checked here; the marched ``Trace`` returns
    exact zeros up to each onset.

    ``forcing(t)`` returns f(t).  ``solve`` calls it once per block of k
    steps with one (2k, 1) column of stage times, the k half-stage times
    then the k full-stage ones, and expects (2k, n) forces or an array that
    broadcasts to them; ``accel_all`` calls it with a scalar t and expects
    (n,).  A network holds its two matrices, masses, onsets and forcing,
    and from the one mask of coupled entries that its checks build, their
    count ``pairs`` and least and largest delays ``min_delay`` and
    ``max_delay`` (inf and 0 with no pair); each ``solve`` builds what its
    march needs and keeps none of it.
    """

    def __init__(self, masses: np.ndarray, coupling, delay,
                 forcing: Callable[[np.ndarray], np.ndarray], onset=None):
        self.masses = np.asarray(masses, dtype=float)
        self.forcing = forcing
        self.n = n = len(self.masses)
        self.onset = np.zeros(n) if onset is None else np.asarray(onset, dtype=float)
        if not np.all((self.masses > 0) & (self.masses < np.inf)):
            raise ConfigError("all oscillator masses must be positive and finite")
        self.coupling = np.asarray(coupling, dtype=float)
        self.delay = np.asarray(delay, dtype=float)
        if self.coupling.shape != (n, n) or self.delay.shape != (n, n):
            raise ConfigError("coupling and delay must be n x n matrices")
        if np.any(self.coupling.diagonal()) or not np.all(np.isfinite(self.coupling)):
            raise ConfigError("couplings must be finite, with a zero diagonal")
        coupled = self.coupling != 0
        self.pairs = int(np.count_nonzero(coupled))
        self.min_delay = float(np.min(self.delay, where=coupled, initial=np.inf))
        self.max_delay = float(np.max(self.delay, where=coupled, initial=0.0))
        if not (np.min(self.delay, initial=0.0) >= 0 and np.max(self.delay, initial=0.0) < np.inf
                and self.min_delay > 0):
            raise ConfigError("delays must be finite, non-negative, and positive where coupled")
        if self.onset.shape != (n,) or not np.all((self.onset >= 0) & (self.onset < np.inf)):
            raise ConfigError("onsets must be n finite, non-negative times")
        # onset_j + tau_ij, scaled in place: the checks' one n x n float temporary
        reach = np.add(self.onset, self.delay)
        reach *= 1 + 8 * np.finfo(float).eps
        if np.any(self.onset[:, None] > reach, where=coupled):
            raise ConfigError("onsets violate onset_i <= onset_j + tau_ij: a "
                              "delayed term would arrive before the forcing")

    def accel_all(self, t: float, y: np.ndarray, trace: Trace) -> np.ndarray:
        """All accelerations at time t from the state y and the trace's history."""
        delayed = (self.coupling * trace.accel_at(t - self.delay, np.arange(self.n))).sum(1)
        return (self.forcing(t) - y - delayed) / self.masses

    def solve(self, grid: TimeGrid) -> Trace:
        """Classical RK4 on (x, x') with delayed accelerations from the history.

        Any step h > 0 is allowed.  One pass over the 2n rows of the history
        plan, both stage offsets (h/2 and h), reads the coupling and delay
        matrices a block of rows at a time and builds, once per solve, the
        plan's gather offsets, each entry's first live step and the near
        pairs; it lists no other pair, and each entry's weights are written
        at its first live step.  Each step takes both stages' sums, as
        (2, n), from one ``delayed_sum`` call, and the new node
        (x, x', x'') from one contraction of the RK4 map
        (``_rk4_coefficients``) with x_n, x'_n, x''_n and f - d.  While a
        near pair (delay below 1.5h at the half stage, 2h at the full one)
        is live, each step first writes S[n] and S[n+1] with A[n+1] still
        zero, so the plan sums the near pairs' history part; the new node's
        share, solved by fixed-point sweeps (``_NearPairs``) from the step's
        x'', is then taken off through the map's columns of g.  A
        contraction bound of 1 or more raises ``SolverError`` before the
        march starts.  The history of cells has min(``lag_max``, ``steps``)
        + 2 leading zero rows and one trailing zero row; each row written
        lands in two cells, the lower half of its own and the upper half of
        the one before, and the ``Trace`` holds strided views of the lower
        halves over the unpadded rows.  The forcing is tabulated at both stage times a block
        of steps at a time, by one ``forcing`` call per block.

        The returned ``Trace`` carries the march's ``counters``: its size
        (``n``, ``pairs``, ``steps``), step margin (``h``, ``tau_min``,
        ``h_over_tau_min``), ``lag_max``, the deepest history row a delayed
        sum reads in steps behind n, and from the near-pair system
        ``near_pairs`` (pairs with a delay below 2h), ``near_contraction``
        (the bound of their fixed-point map) and ``near_sweeps`` (the sweeps
        per step that bound calls for).
        """
        n, h, steps, times = self.n, grid.h, grid.steps, grid.times
        lag_max = _lag_max(self.max_delay, h)
        # a live entry reads no row before the first node, so no step of this
        # march reads more than ``steps`` rows behind it
        pad = min(lag_max, steps) + 2
        plan = _StagePlan(self, grid, pad)
        near = _NearPairs(self, grid, plan.near)
        if near.contraction >= 1.0:
            raise SolverError(
                f"near pairs at step h={h} do not contract (bound "
                f"{near.contraction:.3g} >= 1): lower h_max")
        Y = np.zeros((steps + 1, n))
        V = np.zeros((steps + 1, n))
        # pad leading zero rows (read by pairs not yet live) and one trailing
        # zero row (read by uncoupled entries) around the steps + 1 nodes
        H = np.zeros((pad + steps + 2, n, 4))
        A, S = H[pad:-1, :, 0], H[pad:-1, :, 1]
        # the same rows as the upper halves of the cells one row earlier
        A_up, S_up = H[pad - 1:-2, :, 2], H[pad - 1:-2, :, 3]
        cells = H.reshape(-1, 4)
        masses = self.masses
        rk4 = _rk4_coefficients(h, masses)
        # the step's inputs (x_n, x'_n, x''_n, g_half, g_full); the next
        # step's first three are this step's outputs
        X, X_next = np.zeros((5, n)), np.zeros((5, n))

        def tabulate(t):
            """Forces at the times ``t``, any shape, with one axis of n added."""
            f = self.forcing(t.reshape(-1, 1))
            return np.broadcast_to(f, (t.size, n)).reshape(t.shape + (n,))

        # every query at t = 0 lies before its column's onset
        X[2] = A[0] = A_up[0] = (tabulate(times[:1])[0] - Y[0]) / masses
        stage_times = grid.stage_times
        block = max(1, FORCING_BLOCK // n)
        for ns in range(steps):
            j = ns % block
            if j == 0:
                forces = tabulate(stage_times[:, ns:ns + block])
            mn = ns + 1
            if near.live[ns]:
                # slopes with A[mn] still zero: the near pairs' history part
                # of S[ns] and S[mn]; far pairs give S[ns] weight zero
                S[ns:mn + 1] = S_up[ns:mn + 1] = _slope_stencils(A, mn, h)
            np.subtract(forces[:, j], plan.delayed_sum(ns, cells), out=X[3:])
            new = X_next[:3]
            np.einsum("okn,kn->on", rk4, X, out=new)
            if near.live[ns]:
                new -= np.einsum("okn,kn->on", rk4[:, 3:], near.solve(ns, new[2]))
            Y[mn], V[mn] = new[:2]
            A[mn] = A_up[mn] = new[2]
            if not np.all(np.isfinite(new[0])):
                raise DivergenceError(mn)
            # the provisional newest-node slope is finalized one step later;
            # far queries reach it only after that
            S[ns:mn + 1] = S_up[ns:mn + 1] = _slope_stencils(A, mn, h)
            X, X_next = X_next, X
        counters = {"n": n, "pairs": self.pairs, "steps": steps, "h": h,
                    "tau_min": self.min_delay, "h_over_tau_min": h / self.min_delay,
                    "lag_max": lag_max, "near_pairs": near.pairs,
                    "near_contraction": near.contraction, "near_sweeps": near.sweeps}
        return Trace(times, Y, V, A, S, self.onset, counters)


def _lag_max(max_delay: float, h: float) -> int:
    """The deepest history row, in steps behind n, that the half-step query
    of the longest delay reads."""
    return int(-np.floor(SIGMAS[0] - max_delay / h))


def memory_budget() -> int:
    """Bytes a march may take: the address-space limit (``RLIMIT_AS``) if one
    is set, else the machine's physical memory.  It reads limits, sets none."""
    import resource   # only the memory check needs it: kept out of start-up
    limit = resource.getrlimit(resource.RLIMIT_AS)[0]
    if limit != resource.RLIM_INFINITY:
        return limit
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def march_memory(nodes: np.ndarray, c0: float, grid: TimeGrid) -> dict:
    """The peak bytes of marching a ``RetardedNetwork`` at ``nodes`` on
    ``grid`` and the ``memory_budget``, as ``memory_estimate_bytes`` and
    ``memory_budget_bytes``; an estimate over the budget raises
    ``ResolutionError`` naming n, both numbers, before any n x n array exists.

    The estimate counts the network's coupling and delay (16 B per n x n
    entry), the plan's gather offsets (16 B) and weights (64 B) at both
    stages, its first live steps (2 entries of the smallest type holding
    ``steps``), the history cells over min(lag, steps) + steps + 4 rows and
    the trace's values and rates.  The lag is taken at the longest distance
    the nodes' bounding box allows, so it is never below the march's
    ``lag_max``.  The near pairs' arrays, a few dozen bytes per pair with a
    delay below 2h, are left out.
    """
    n, steps = len(nodes), grid.steps
    reach = float(np.linalg.norm(np.ptp(nodes, axis=0))) if n else 0.0
    rows = min(_lag_max(reach / c0, grid.h), steps) + steps + 4
    first = np.min_scalar_type(steps).itemsize
    estimate = (96 + 2 * first) * n * n + rows * n * 32 + 2 * (steps + 1) * n * 8
    return check_memory(estimate, f"a march of n = {n} oscillators over {steps} steps")


def check_memory(estimate: int, what: str) -> dict:
    """``estimate`` and the ``memory_budget`` as ``memory_estimate_bytes`` and
    ``memory_budget_bytes``; an estimate over the budget raises
    ``ResolutionError`` naming ``what``, the estimate and the budget."""
    budget = memory_budget()
    if estimate > budget:
        raise ResolutionError(
            f"{what} needs about {estimate / 2**30:.3g} GiB ({estimate} bytes), above "
            f"the memory budget of {budget / 2**30:.3g} GiB ({budget} bytes): "
            f"raise eps or the limit")
    return {"memory_estimate_bytes": estimate, "memory_budget_bytes": budget}


class RetardedNetwork(DelayNetwork):
    """Oscillators at ``nodes`` coupled by retarded monopoles, driven by a source.

    The network of both models: every pair i != j coupled, with coupling
    w_j / (4 pi r_ij) for column weight w_j and delay r_ij / c0; forcing the
    incident wave u_in at the nodes (``incident_eval``), and onset r_i / c0
    at distance r_i from the point source.  Each model marches its unknown U
    on it, and its amplitude Y = U'' is the trace's acceleration.  Each row
    block of ``pairwise_distances``, at most ``DISTANCE_BLOCK`` cells with an
    infinite diagonal, is written straight into both matrices, so every entry
    is bitwise the dense distance matrix's and the coupling's diagonal is
    w_i / inf = 0; the delay's diagonal is then set to zero.
    """

    def __init__(self, nodes: np.ndarray, col_weight, masses: np.ndarray,
                 params, source):
        nodes = np.asarray(nodes, dtype=float)
        n = len(nodes)
        w = np.broadcast_to(np.asarray(col_weight, dtype=float), (n,))
        coupling, delay = np.empty((n, n)), np.empty((n, n))
        for lo, r in pairwise_distances(nodes):
            np.divide(w, 4.0 * np.pi * r, out=coupling[lo:lo + len(r)])
            np.divide(r, params.c0, out=delay[lo:lo + len(r)])
        np.fill_diagonal(delay, 0.0)

        def forcing(t):
            return incident_eval(source, nodes, t)

        onset = np.linalg.norm(nodes - source.x0, axis=1) / source.c0
        super().__init__(masses, coupling, delay, forcing, onset)


def retarded_superposition(trace: Trace, anchors: np.ndarray, coeffs: np.ndarray,
                           c0: float, points: np.ndarray, t,
                           min_dist: float = 0.0) -> np.ndarray:
    """sum_j coeffs_j / (4 pi |x - z_j|) * U_j''(t - |x - z_j| / c0) at each point x.

    The retarded samples of U_j'', anchor j's acceleration, come from
    ``trace.accel_at``.  ``points`` is one point (3,) or (p, 3) points and
    ``t`` a time or a 1-D array of times; returns (p, times).  A point closer
    than ``min_dist`` to an anchor raises ``EvaluationPointError``.  The
    (times x anchors) queries of a point are evaluated
    ``max(1, FIELD_BLOCK // n)`` times at a time, so the temporaries stay
    small whatever the length of ``t``; each time's sum is the same in any
    block.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    t_arr = np.asarray(t, dtype=float).reshape(-1)
    cols = np.arange(len(anchors))
    block = max(1, FIELD_BLOCK // max(1, len(anchors)))
    out = np.empty((len(points), len(t_arr)))
    for x, row in zip(points, out):
        r = np.linalg.norm(anchors - x, axis=1)
        if np.any(r < min_dist):
            raise EvaluationPointError(f"evaluation point {x} within {min_dist:.3g} "
                                       f"of a scatterer")
        delay, weights = r / c0, coeffs / (4.0 * np.pi * r)
        for lo in range(0, len(t_arr), block):
            tq = t_arr[lo:lo + block, None] - delay
            np.einsum("ij,j->i", trace.accel_at(tq, cols), weights, out=row[lo:lo + block])
    return out
