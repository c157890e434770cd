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
acceleration, which is also the next step's first stage).  The march keeps
its history on the half-step grid: half-row 2k is node k, and half-row
2k + 1 holds the value and slope at the midpoint of the cubic of cell
[k, k+1],

    A_m = (A_k + A_{k+1})/2 + h (S_k - S_{k+1})/8,
    S_m = 1.5 (A_{k+1} - A_k)/h - (S_k + S_{k+1})/4,

so the cubic Hermite interpolant on either half cell is the full cell's.
Step n's two stage times are then the consecutive half-rows 2n + 1 and
2n + 2, its queries q = 2n + 1 and q = 2n + 2, and a pair with delay tau
reads at both the half cell at the same offset floor(-2 tau/h) with the same
four weights, at theta = -2 tau/h - floor(-2 tau/h).  Any step h > 0 is
allowed; the step is not tied to the smallest delay.  A pair is *far* at a
stage when its query reads nothing past node n - 1 with a nonzero weight
(delay at least 1.5h at the half stage, 2h at the full one), and *near*
otherwise: its half cell starts at one of the four half-rows 2n - 2 to
2n + 1 and reads the final S[n], the mid row of [n-1, n] built from it, or
the new node n + 1 and the mid row before it.

A network answers one question about its pairs: the couplings c_ij and
delays tau_ij of a block of rows (``block``); a zero coupling leaves the
pair uncoupled.  The matrix ``DelayNetwork`` answers from its two n x n
matrices; ``RetardedNetwork``, the network of both models, from its nodes,
column weights and c0 in closed form, and holds no n x n array.  No other
code reads how a network stores its pairs.  ``DelayNetwork.solve`` builds
one plan per grid for both stages: an n x n array of gather offsets whose
row i holds oscillator i's pairs, their premultiplied Hermite weights,
n x n x 4 and interleaved like the cells, and each entry's first live
query.  One pass over blocks of plan rows reads the network's ``block`` of
each and writes the first live queries (one byte an entry up to 126
steps), the near entries, the one list of coupled entries it makes, and
each entry's coupling c and half-row shift -2 tau/h into its first two
weight slots: the march reads nothing else of a pair, and no array holds
one element per coupled pair.  The half-rows' accelerations and slopes
live in one window of 32-byte cells: cell (r, j) holds A and S of
half-rows r and r + 1 at column j, the four values a query in that half
cell reads.  The window holds the deepest lag's half-rows and a few steps
more, and is shifted back every few steps; its rows start at zero, so
every offset reads a row that exists and rows ahead of the newest node
read zero, and its one trailing zero cell is what every entry reads until
it goes live.  Each stage's sum gathers the cells of a block of plan rows
at a time into one small buffer and reduces each row against the weights
by one dot over 4n values straight into its n sums; the full stage's
gather is the half stage's, one half-row later, with no per-step index
arithmetic.  The ``Trace`` keeps the nodes' accelerations and slopes in
arrays of its own.

The RK4 step of m x'' + x = g, g = f - d the force less the delayed sum, is
linear in x_n, x'_n, x''_n and g at both stage offsets.  ``solve`` builds
that map once per march, (3, 5, n) coefficients found by applying the staged
formula ``_rk4`` to unit inputs, and takes each step as one contraction of it
with the step's five input rows.

The near pairs' values are affine in the new node's acceleration a = A[n+1],
through the slope stencils of S[n] and S[n+1] and the half-rows built from
them.  While any near pair is live, a step first writes S[n], S[n+1], both
mid rows around node n and node n + 1 with A[n+1] still zero, so the plan's
sum holds every pair's history part, far and near alike; what is left is the
new node's share, read from the same half cells with the same weights: each
near pair's weights times the derivatives in a of its cell's four values.
Every delayed read of the march, far or near, thus takes its weights from
one formula (``_entry_weights``) on the plan's half cells.  The step is
affine in the delayed sums, so each step is implicit in a: a = r + G a,
with r the new node's acceleration at a = 0 and G a sparse n x n map built
from the near pairs only.  It is solved by fixed-point sweeps over the near
pairs, one ``bincount`` on weights premultiplied by G's row factors per
sweep, as many as the map's contraction bound needs to reach rounding level;
a bound of 1 or more is refused.  The solved share enters the step through
the same map's columns of g, so the step is still taken once.  This is the
method of steps with an implicit new node (Bellen & Zennaro, below).  The
forcing does not depend on the state either, so it is tabulated once per
block of steps at both stage offsets: ``forcing`` maps a (2k, 1) column of
stage times to (2k, n) forces, or to anything that broadcasts to (2k, n).

Each oscillator carries an onset time, the first arrival of its forcing.
Liveness is one rule by arrival time: a read of column j through delay tau at
time t is live iff t > onset_j + tau, and a read that is not live returns
exactly zero, so neither the march nor a field evaluated from the trace picks
up the interpolant's pre-onset leakage.  An entry gathers the trailing zero
cell until its first live query, the first of the two stages' times
interleaved that lies past onset_j + tau and reads no row before the first
node, so its stashed c and shift multiply zeros; at that query, found by
one scan for the entries whose first live query equals it, before that
stage's gather, its cell and weights are written from the stash, and the
near pairs are sorted by their first live step, so a pair contributes
exactly zero before it.  Fixed-step method of steps with breaking-point
tracking follows Bellen & Zennaro, *Numerical Methods for Delay
Differential Equations* (2003).

A network keeps nothing between marches: ``solve`` builds the plan, the
near pairs and the window for its grid and returns, with the ``Trace``, the
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
from .geometry import distance_rows
from .sources import incident_eval

# Forcing values tabulated per block of steps: max(1, FORCING_BLOCK // n)
# steps of n oscillators, each at both stage offsets, in one forcing call.
# The incident wave's evaluation peaks at about 8.4 arrays of that many
# values, its input and output included: 0.13 MiB at 2048 steps x oscillators.
FORCING_BLOCK = 2048
# Longest march TimeGrid.fit builds, in steps.
MAX_STEPS = 2**16
# History cells gathered per block of plan rows: min(n, max(1, GATHER_BLOCK // n))
# rows of n cells, at most 256 KiB.
GATHER_BLOCK = 8192
# Steps the history window holds past its leading rows: it is shifted back
# once per WINDOW_STEPS + 1 steps, by copying its leading rows in chunks that
# do not overlap, so the shift makes no temporary.
WINDOW_STEPS = 4
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
        """(2, steps): the half stage t_n + h/2 (the second and third RK4
        stages) and the full one, taken as the next node t_{n+1} itself."""
        times = self.times
        return np.stack((times[:-1] + 0.5 * self.h, times[1:]))


def _hermite_weights(theta, h):
    """Cubic Hermite basis at theta: weights of (v0, s0, v1, s1)."""
    t2 = theta * theta
    t3 = t2 * theta
    return (2 * t3 - 3 * t2 + 1, (t3 - 2 * t2 + theta) * h,
            -2 * t3 + 3 * t2, (t3 - t2) * h)


class Trace:
    """Dense solver output: values, rates, accelerations and slope estimates.

    ``value_at``/``accel_at`` interpolate column ``cols`` at t - ``delay``
    with cubic Hermite polynomials; a read at or before its arrival,
    t <= onset + delay with ``onset`` the time the forcing first reaches that
    column, returns exactly zero.  ``counters`` describes the march that made
    the trace, for run manifests (see ``DelayNetwork.solve``).
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

    def _interp(self, t, cols, delay, base, slope):
        cols = np.asarray(cols, dtype=int)
        # live iff t > onset_j + tau, the read's arrival; the onsets of cols
        # are broadcast against t rather than gathered per query
        live = np.greater(t, self.onset[cols] + delay)
        out = np.zeros(live.shape)
        if not live.any():
            return out
        tql = np.broadcast_to(np.subtract(t, delay, dtype=float), live.shape)[live]
        if np.any(tql > self.horizon * (1 + 1e-12)):
            raise UsageError("interpolation query beyond the trace horizon")
        k = np.minimum((tql / self.h).astype(int), len(self.times) - 2)
        w00, w10, w01, w11 = _hermite_weights(tql / self.h - k, self.h)
        cl = np.broadcast_to(cols, live.shape)[live]
        out[live] = (w00 * base[k, cl] + w10 * slope[k, cl]
                     + w01 * base[k + 1, cl] + w11 * slope[k + 1, cl])
        return out

    def value_at(self, t, cols, delay=0.0):
        """Cubic Hermite interpolation of x at t - delay using (value, rate)."""
        return self._interp(t, cols, delay, self.value, self.rate)

    def accel_at(self, t, cols, delay=0.0):
        """Cubic Hermite interpolation of x'' at t - delay using stored slope
        estimates."""
        return self._interp(t, cols, delay, self.acc, self.acc_slope)


def _slope_stencils(A: np.ndarray, mn: int, h: float) -> np.ndarray:
    """Third-order slopes from the accelerations up to row mn, as (2, n): the
    final slope at mn - 1 and the provisional one at mn, by one stencil product."""
    k = min(mn, 3)
    weights, divisor = _STENCILS[k]
    return weights @ A[mn - k:mn + 1] / (divisor * h)


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


def _half_row_map(h: float, nodes: int) -> np.ndarray:
    """The half-rows from node k to node k + nodes - 1 as a linear map,
    (2 (2 nodes - 1), 2 nodes): row 2r + v is value v (A, then S) of the
    r-th half-row per unit of A at the nodes, then S at the nodes.  A mid
    row is its cell's cubic at the midpoint, A_m = (A_k + A_{k+1})/2 +
    h (S_k - S_{k+1})/8 and S_m = 1.5 (A_{k+1} - A_k)/h - (S_k + S_{k+1})/4,
    applied here to unit inputs."""
    a, s = np.split(np.eye(2 * nodes), 2)
    rows = np.empty((2 * nodes - 1, 2, 2 * nodes))
    rows[::2, 0], rows[::2, 1] = a, s
    rows[1::2, 0] = (a[:-1] + a[1:]) / 2 + h * (s[:-1] - s[1:]) / 8
    rows[1::2, 1] = 1.5 * (a[1:] - a[:-1]) / h - (s[:-1] + s[1:]) / 4
    return rows.reshape(-1, 2 * nodes)


def _window_lead(lag_max: int, steps: int) -> int:
    """The history window's leading half-rows: every row a live entry of a
    march with this ``lag_max`` over ``steps`` reads before its query, and
    the half-row before the oldest one a step writes."""
    return 2 * min(lag_max, steps) + 3


class _Window:
    """The march's half-rows in a window of history cells, (rows, n, 4).

    Window row w holds half-row ``base`` + w: cell (w, j) holds A and S of
    that half-row and of the next at column j, and each half-row written
    lands in two cells, the lower half of its own and the upper half of the
    one before.  ``put`` writes the half-rows the step to a node sets, by one
    product of ``_half_row_map`` with the nodes' accelerations and slopes.
    Step ns writes half-rows up to 2ns + 2 and its half stage reads from
    half-row 2ns + 1 - ``lead`` on, so before step ns the window is shifted,
    when the newest half-row would lie past it, to start at that row: its
    first ``lead`` rows are copied back in chunks that do not overlap and the
    rest are zeroed, so the rows ahead of the newest node read zero.  The
    last row is never written: it is the zero cell that ``mode="clip"``
    gives every entry not yet live.  The first ``base`` is 1 - lead, so
    rows before the first node read zero too.
    """

    def __init__(self, n: int, lead: int, h: float):
        self.H = np.zeros((self.rows(lead), n, 4))
        self.cells = self.H.reshape(-1, 4)
        self.lead, self.base, self.n = lead, 1 - lead, n
        # node 0; nodes 0, 1 and their mid row; from node 2 on, the three
        # half-rows past the final node mn - 2
        self.maps = (_half_row_map(h, 1), _half_row_map(h, 2), _half_row_map(h, 3)[2:])

    @staticmethod
    def rows(lead: int) -> int:
        """The window's rows of cells, its trailing zero row included: the
        ``lead`` rows, the two a step writes past them and the zero row,
        with 2 ``WINDOW_STEPS`` rows of slack."""
        return lead + 3 + 2 * WINDOW_STEPS

    def reach(self, ns: int) -> None:
        """Shift the window so that it holds step ns's rows."""
        if 2 * ns + 2 - self.base < len(self.H) - 1:
            return
        start = 2 * ns + 1 - self.lead
        by, H = start - self.base, self.H
        for lo in range(0, self.lead, by):
            hi = min(lo + by, self.lead)
            H[lo:hi] = H[lo + by:hi + by]
        H[self.lead:-1] = 0.0
        self.base = start

    def put(self, A: np.ndarray, S: np.ndarray, mn: int) -> None:
        """Write the half-rows the step to node mn sets from the nodes'
        accelerations A and slopes S: the mid row of [mn - 2, mn - 1] (from
        mn = 2 on), node mn - 1, the mid row of [mn - 1, mn] and node mn
        (node 0 alone for mn = 0)."""
        k = max(mn - 2, 0)
        rows = self.maps[min(mn, 2)] @ np.concatenate((A[k:mn + 1], S[k:mn + 1]))
        rows = rows.reshape(-1, 2, self.n).transpose(0, 2, 1)
        w = 2 * k + (mn > 1) - self.base
        self.H[w:w + len(rows), :, :2] = rows
        self.H[w - 1:w - 1 + len(rows), :, 2:] = rows

    def gathered(self, ns: int) -> np.ndarray:
        """The cells from half-row 2ns + 1 - lead on, the start of step ns's
        half-stage gather, to the window's end."""
        return self.cells[(2 * ns + 1 - self.lead - self.base) * self.n:]


def _entry_weights(c: np.ndarray, shift: np.ndarray, h: float) -> list:
    """The coupled Hermite weights c * w_k(theta), k = 0 to 3, of entries
    with couplings c and half-row shifts -2 tau/h on their half cells of
    h/2, theta being the shift less its floor: the weights of the cell's A
    and S of its first half-row, then A and S of the next."""
    return [c * w for w in _hermite_weights(shift - np.floor(shift), h / 2)]


class _StagePlan:
    """Delayed sums over every coupled pair at both stage offsets for every
    step n of one grid, row-major: n rows, row i holding oscillator i's
    pairs, for the half stage t_n + h/2 and the full stage t_{n+1} alike.

    Entry (i, j) is the pair (i, j), and its flat index, the key i*n + j,
    orders the entries.  Its cell shift -2 tau/h in half-rows puts its query
    at stage s (q = 2n + 1 + s) in the half cell of half-rows q + o and
    q + o + 1, o = floor(shift); once the entry is live, ``idx[i, j]`` is
    that cell's offset (lead + o)*n + j from the row ``lead`` half-rows
    before the query, where the gather's cells start.  A stage's sum
    gathers the cells of ``len(buf)`` plan rows at a time into the one
    ``buf`` with one unbuffered ``take`` and reduces each row against the
    interleaved weights by one dot over 4n values straight into its output:
    ``weights[i, j, k]`` is the live pair's Hermite weight, on the half
    cell, of its cell's k-th value (``_entry_weights``).  The full stage
    gathers the same ``idx`` from the cells one half-row (n cells) on.

    The plan is built in one pass over blocks of rows, at most
    ``GATHER_BLOCK`` cells each (one row when n exceeds it), that reads the
    network's ``block`` of those rows and writes ``first``, the near
    entries and each entry's stash: its coupling c and shift in weight
    slots 0 and 1 (the shift clamped at -``lead`` - 1, past which every
    cell lies before the leading rows, so it stays finite).  Every offset
    starts at the window's end, which ``mode="clip"`` maps to its trailing
    zero cell.  ``first[i, j]``, of the smallest unsigned type that holds
    2 steps + 2, is the entry's first live query: the first q, over the
    half and the full stage times interleaved, whose time lies past the
    read's arrival onset_j + tau and that reads no row before the first
    node, by one ``searchsorted`` on onset_j + tau, clipped to 2 steps + 1,
    at which uncoupled entries and those whose cell lies before the leading
    rows (delays longer than the whole grid) sit too, so no query makes
    them live.  ``opens[q]`` counts the entries whose first live query is q
    (``opens[2 steps + 1]`` those never live), and ``live[q]`` those live at
    query q, their running sum.  At its first live query an entry is
    activated (``activate``, which ``delayed_sum`` calls before each
    stage's gather at a query that opens entries): its cell and its
    weights c * w_k(theta) are written from its stash.  Until then it
    multiplies its finite stash by the zero cell, so each product is +0.0
    or -0.0, even at the half stage of the step whose full stage makes it
    live; a row with no live entry sums to exactly +0.0, since the dot
    accumulates from +0.0, and a stage with none sums nothing.

    A far pair's cell ends at node n - 1 or earlier, or gives the rows past
    it weight zero, so it reads final values only.  A near pair, a coupled
    entry whose shift exceeds -3 - s at stage s, has its cell start at
    half-row 2n - 2 + r, r = 3 + s + o from 0 to 3, and reads the final
    S[n], a mid row built from it or node n + 1; while one is live, the
    step writes those half-rows with A[n+1] still zero first, so the sum
    holds the near pairs' history part and ``_NearPairs`` adds the new
    node's share.  ``near`` holds the near entries' stage keys
    s*n*n + i*n + j and cell rows r, sorted stably by first live step, so
    in key order within a step, and their live counts per step; the pass
    that collects them is the one place that lists the coupled entries.
    """

    def __init__(self, network: "DelayNetwork", grid: TimeGrid, lead: int):
        n, h, steps = network.n, grid.h, grid.steps
        never = 2 * steps + 1
        rows = min(n, max(1, GATHER_BLOCK // n))
        # past the window's end: clipped to its trailing zero cell
        self.idx = np.full((n, n), _Window.rows(lead) * n, dtype=np.int64)
        self.first = np.empty((n, n), dtype=np.min_scalar_type(never + 1))
        self.opens = np.zeros(never + 1, dtype=np.int64)
        self.weights = np.zeros((n, n, 4))
        # the stage times in query order: t_0 + h/2, t_1, t_1 + h/2, t_2, ...
        query_t, near = grid.stage_times.T.ravel(), ([], [])
        for lo in range(0, n, rows):
            hi = min(lo + rows, n)
            coupling, tau = network.block(lo, hi)
            coupled = coupling != 0
            # an uncoupled entry's delay is never read: it counts as zero
            tau = np.where(coupled, tau, 0.0)
            # the half-row shift -2 tau/h, clamped where its cell lies before
            # the leading rows anyway, so the cast stays in range
            shift = np.maximum(-2.0 * (tau / h), -lead - 1.0)
            offset = np.floor(shift).astype(np.int64)
            # query q is live iff its time exceeds the arrival onset_j + tau
            first = np.searchsorted(query_t, network.onset + tau, side="right") + 1
            self.first[lo:hi] = np.where(coupled, np.clip(first, -offset, never), never)
            self.opens += np.bincount(self.first[lo:hi].ravel(), minlength=never + 1)
            # the stash that activation and the near pairs read
            self.weights[lo:hi, :, 0], self.weights[lo:hi, :, 1] = coupling, shift
            for s, part in enumerate(near):
                # near: the stage-s cell, from half-row 2 step + 1 + s + offset,
                # reads past node step - 1 (half-row 2 step - 2) with a nonzero
                # weight; its row 3 + s + offset counts from that node
                k = np.flatnonzero(coupled & (shift > -3.0 - s))
                # the first step whose stage-s query, 2 step + 1 + s, is live
                step = (self.first[lo:hi].ravel()[k] - s) // 2
                part.append((s * n * n + lo * n + k, 3 + s + offset.ravel()[k], step))
        # the steps fit a small unsigned type, whose stable sort is a radix sort
        key, row, step = (np.concatenate(part) for part in zip(*near[0], *near[1]))
        order = np.argsort(step, kind="stable")
        self.near = (key[order], row[order],
                     np.searchsorted(step[order], np.arange(steps), side="right"))
        self.live = np.cumsum(self.opens)
        self.buf = np.empty((rows, n, 4))
        # per block of rows: its sums, the buffer it fills, and the buffer,
        # offsets and weights of its rows flat, 4n values a row
        self.blocks = [(slice(lo, lo + len(buf)), buf, buf.reshape(len(buf), -1),
                        self.idx[lo:lo + len(buf)],
                        self.weights[lo:lo + len(buf)].reshape(len(buf), -1))
                       for lo in range(0, n, rows) for buf in [self.buf[:n - lo]]]
        self.h, self.n, self.lead = h, n, lead

    def activate(self, q: int) -> None:
        """Write the cells and weights of every entry whose first live
        query is q from its stashed coupling and shift.

        One scan of ``first == q``, 32 buffers of rows at a time, so its
        one-byte mask stays within the buffer's bytes and the keys it finds
        within eight buffers'; they are written at most half a buffer of
        entries at a time, so the weights' temporaries stay within about two
        buffers'."""
        n, idx, weights = self.n, self.idx.reshape(-1), self.weights.reshape(-1, 4)
        rows, most = 32 * len(self.buf), self.buf.size // 8
        for lo in range(0, n, rows):
            found = lo * n + np.flatnonzero(self.first[lo:lo + rows] == q)
            for at in range(0, len(found), most):
                key = found[at:at + most]
                # the stash, read before its slots are overwritten
                c, shift = weights[:, 0][key], weights[:, 1][key]
                idx[key] = (self.lead + np.floor(shift).astype(np.int64)) * n + key % n
                for k, w in enumerate(_entry_weights(c, shift, self.h)):
                    # one weight of every entry, through a strided view
                    weights[:, k][key] = w

    def delayed_sum(self, ns: int, cells: np.ndarray) -> np.ndarray:
        """Both stages' sums at step ns, as (2, n), over the (rows * n, 4)
        history ``cells`` that start ``lead`` half-rows before the half
        stage's query.  It activates the entries whose first live query is
        the half stage's before gathering it, then those of the full stage's,
        so it must be called once per step, in order, as
        ``DelayNetwork.solve`` does."""
        out = np.zeros((2, self.n))
        for s, total in enumerate(out):
            q = 2 * ns + 1 + s
            if self.opens[q]:
                self.activate(q)
            if not self.live[q]:
                continue
            at = cells[s * self.n:]
            for rows, buf, flat, idx, weights in self.blocks:
                at.take(idx, axis=0, out=buf, mode="clip")
                np.vecdot(flat, weights, out=total[rows])
        return out


class _NearPairs:
    """The new node's share of both stages' near sums on one grid.

    Built from the plan's ``near`` entries (key, cell row r, live counts),
    over both stages at once, in the plan's order, before the plan
    activates any entry, so each entry's coupling and shift are still the
    stash in its weight slots 0 and 1.  A near entry reads the plan's half
    cell from half-row 2n - 2 + r, with the weights w_k that the plan's
    activation writes (``_entry_weights``) on its four values, which depend
    on the final slope S[n] and, for r >= 2, on the new node's A[n+1] and
    its provisional slope S[n+1], directly or through the mid rows built
    from them.  Both slopes, and the mid rows built from them, are affine in
    a = A[n+1] through ``_slope_stencils`` and ``_half_row_map``, so each
    near value is a history part, summed by the plan with the new row at
    zero, plus g * a_j, g = sum_k w_k d_k with d_k the derivative in a of
    the cell's value k: row r of one (4, 4) table per start-up slope
    stencil, the half-row map of nodes n - 1 to n + 1 applied to the unit
    new row and its slopes.  Its sum lands in ``tgt[p]``, row s*n + i of
    the stage-major (2, n) sums, and ``rows[p]`` = i.  The
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

    def __init__(self, network: "DelayNetwork", grid: TimeGrid, plan: _StagePlan):
        n, h = network.n, grid.h
        key, row, self.live = plan.near
        self.tgt, self.cols = np.divmod(key, n)
        c, shift = plan.weights.reshape(-1, 4)[key % (n * n), :2].T
        w = _entry_weights(c, shift, h)
        self.rows = self.tgt % n
        # a pair near at the half stage is near at the full one
        self.pairs = int(np.count_nonzero(self.tgt >= n))
        k3 = h * h / 3.0
        self.factor = np.stack((k3 / network.masses / network.masses, -1.0 / network.masses))
        scale = self.factor.ravel()[self.tgt]
        # half-rows 2n - 2 to 2n + 2 per unit of A and S at nodes n - 1 to n + 1,
        # and the four values of the cells from half-row 2n - 2 on, (row, k)
        halves, cells = _half_row_map(h, 3), 2 * np.arange(4)[:, None] + np.arange(4)
        self.weights = []
        for mn in (1, 2, 3):
            # the unit new row A[n+1] and its slopes' stencils: the half-rows'
            # derivatives in a, as one (4, 4) table of the cells' values
            final, new = _slope_stencils(np.eye(mn + 1)[mn], mn, h)
            d = (halves[:, 2] + final * halves[:, 4] + new * halves[:, 5])[cells].T[:, row]
            self.weights.append(scale * (w[0] * d[0] + w[1] * d[1] + w[2] * d[2] + w[3] * d[3]))
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

    A network answers for its pairs through one method: ``block(lo, hi)``
    gives the couplings and delays of rows lo to hi, as two (hi - lo, n)
    arrays.  This one answers from its ``coupling`` and ``delay``, two n x n
    matrices: entry (i, j) adds coupling[i, j] x_j''(t - delay[i, j]) to
    row i, and a zero coupling leaves the pair uncoupled and its delay
    unread.  Whatever answers, the couplings are finite, with a zero
    diagonal; the delays are finite and non-negative, and positive wherever
    the coupling is not zero.

    ``onset`` gives, per oscillator, the finite, non-negative time before
    which its forcing vanishes (zero by default).  The delayed terms then
    cannot wake x_i earlier either, provided onset_i <= onset_j + tau_ij for
    every coupled pair; the marched ``Trace`` returns exact zeros up to each
    onset.  One pass over ``block``s of at most ``GATHER_BLOCK`` cells
    checks the masses, onsets, couplings and delays and that order, and
    counts the coupled pairs ``pairs`` and their least and largest delays
    ``min_delay`` and ``max_delay`` (inf and 0 with no pair), with no
    n x n temporary.

    ``forcing(t)`` returns f(t).  ``solve`` calls it once per block of k
    steps with one (2k, 1) column of stage times, the k half-stage times
    then the k full-stage ones, and expects (2k, n) forces or an array that
    broadcasts to them; ``accel_all`` calls it with a scalar t and expects
    (n,).  Each ``solve`` builds what its march needs and keeps none of it.
    """

    def __init__(self, masses: np.ndarray, coupling, delay,
                 forcing: Callable[[np.ndarray], np.ndarray], onset=None):
        self.coupling = np.asarray(coupling, dtype=float)
        self.delay = np.asarray(delay, dtype=float)
        n = len(masses)
        if self.coupling.shape != (n, n) or self.delay.shape != (n, n):
            raise ConfigError("coupling and delay must be n x n matrices")
        self._checked(masses, forcing, onset)

    def block(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """The couplings and delays of rows lo to hi, as (hi - lo, n)."""
        return self.coupling[lo:hi], self.delay[lo:hi]

    def _checked(self, masses, forcing, onset) -> None:
        """Keep the masses, forcing and onsets, and check them and the pairs
        of every ``block`` in one pass."""
        self.masses = np.asarray(masses, dtype=float)
        self.forcing = forcing
        self.n = n = len(self.masses)
        self.onset = np.zeros(n) if onset is None else np.asarray(onset, dtype=float)
        if not np.all((self.masses > 0) & (self.masses < np.inf)):
            raise ConfigError("all oscillator masses must be positive and finite")
        if self.onset.shape != (n,) or not np.all((self.onset >= 0) & (self.onset < np.inf)):
            raise ConfigError("onsets must be n finite, non-negative times")
        self.pairs, self.min_delay, self.max_delay = 0, np.inf, 0.0
        rows = max(1, GATHER_BLOCK // max(n, 1))
        for lo in range(0, n, rows):
            coupling, delay = self.block(lo, lo + rows)
            coupled = coupling != 0
            # entry (r, lo + r) sits at flat index lo + r * (n + 1)
            if not np.all(np.isfinite(coupling)) or np.any(coupling.reshape(-1)[lo::n + 1]):
                raise ConfigError("couplings must be finite, with a zero diagonal")
            least = float(np.min(delay, where=coupled, initial=np.inf))
            if not (np.min(delay) >= 0 and np.max(delay) < np.inf and least > 0):   # NaN fails
                raise ConfigError("delays must be finite, non-negative, and positive where coupled")
            # onset_j + tau_ij with 8 ulp of slack, in place
            reach = np.add(self.onset, delay)
            reach *= 1 + 8 * np.finfo(float).eps
            if np.any(self.onset[lo:lo + rows, None] > reach, where=coupled):
                raise ConfigError("onsets violate onset_i <= onset_j + tau_ij: a "
                                  "delayed term would arrive before the forcing")
            self.pairs += int(np.count_nonzero(coupled))
            self.min_delay = min(self.min_delay, least)
            self.max_delay = max(self.max_delay, float(np.max(delay, where=coupled, initial=0.0)))

    def accel_all(self, t: float, y: np.ndarray, trace: Trace) -> np.ndarray:
        """All accelerations at time t from the state y and the trace's history."""
        coupling, delay = self.block(0, self.n)
        delayed = (coupling * trace.accel_at(t, np.arange(self.n), delay)).sum(1)
        return (self.forcing(t) - y - delayed) / self.masses

    def solve(self, grid: TimeGrid) -> Trace:
        """Classical RK4 on (x, x') with delayed accelerations from the history.

        Any step h > 0 is allowed.  One pass over the n rows of the history
        plan reads the network's couplings and delays a ``block`` of rows at
        a time and builds, once per solve, each entry's first live query,
        its stashed coupling and shift and the near pairs, for both stage
        offsets (h/2 and h) at once; it lists no other pair, and each
        entry's gather offset and weights are written from its stash at its
        first live query, the first stage time past the read's arrival
        onset_j + tau_ij, as ``Trace.accel_at`` tests it.
        Near pairs and far ones read the same half cells with the same
        weights.
        Each step takes both stages' sums, as (2, n), from one
        ``delayed_sum`` call, the full stage's one half-row of history after
        the half stage's, and the new node (x, x', x'') from one contraction
        of the RK4 map
        (``_rk4_coefficients``) with x_n, x'_n, x''_n and f - d.  While a
        near pair (delay below 1.5h at the half stage, 2h at the full one)
        is live, each step first writes S[n], S[n+1] and the half-rows
        2n - 1 to 2n + 2 with A[n+1] still zero, so the plan sums the near
        pairs' history part; the new node's share, the near pairs' weights
        on their half cells times those cells' derivatives in A[n+1], solved
        by fixed-point sweeps (``_NearPairs``) from the step's x'', is then
        taken off through the map's columns of g.  A contraction bound of 1 or more
        raises ``SolverError`` before the march starts.  After each step the
        final S[n], the provisional S[n+1] and the half-rows 2n - 1 to
        2n + 2 are written, the nodes to the ``Trace``'s own arrays and the
        half-rows to a ``_Window`` of history cells that holds
        2 min(``lag_max``, ``steps``) + 3 leading half-rows, the rows the
        deepest gather reads, and 2 ``WINDOW_STEPS`` + 3 more, its trailing
        zero row among them.  The forcing is tabulated at both stage times a
        block of steps at a time, by one ``forcing`` call per block.

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
        lead = _window_lead(lag_max, steps)
        window = _Window(n, lead, h)
        plan = _StagePlan(self, grid, lead)
        near = _NearPairs(self, grid, plan)
        if near.contraction >= 1.0:
            raise SolverError(
                f"near pairs at step h={h} do not contract (bound "
                f"{near.contraction:.3g} >= 1): lower h_max")
        Y, V, A, S = (np.zeros((steps + 1, n)) for _ in range(4))
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
        X[2] = A[0] = (tabulate(times[:1])[0] - Y[0]) / masses
        window.put(A, S, 0)
        stage_times = grid.stage_times
        block = max(1, FORCING_BLOCK // n)
        for ns in range(steps):
            j = ns % block
            if j == 0:
                forces = tabulate(stage_times[:, ns:ns + block])
            mn = ns + 1
            window.reach(ns)
            if near.live[ns]:
                # slopes and half-rows with A[mn] still zero: the near pairs'
                # history part; far pairs give them weight zero
                S[ns:mn + 1] = _slope_stencils(A, mn, h)
                window.put(A, S, mn)
            np.subtract(forces[:, j], plan.delayed_sum(ns, window.gathered(ns)), out=X[3:])
            new = X_next[:3]
            np.einsum("okn,kn->on", rk4, X, out=new)
            if near.live[ns]:
                new -= np.einsum("okn,kn->on", rk4[:, 3:], near.solve(ns, new[2]))
            Y[mn], V[mn], A[mn] = new
            if not np.all(np.isfinite(new[0])):
                raise DivergenceError(mn)
            # the provisional newest-node slope is finalized one step later;
            # far queries reach it only after that
            S[ns:mn + 1] = _slope_stencils(A, mn, h)
            window.put(A, S, mn)
            X, X_next = X_next, X
        counters = {"n": n, "pairs": self.pairs, "steps": steps, "h": h,
                    "tau_min": self.min_delay, "h_over_tau_min": h / self.min_delay,
                    "lag_max": lag_max, "near_pairs": near.pairs,
                    "near_contraction": near.contraction, "near_sweeps": near.sweeps}
        return Trace(times, Y, V, A, S, self.onset, counters)


def _lag_max(max_delay: float, h: float) -> int:
    """The deepest history row, in steps behind n, that the half-step query
    of the longest delay reads."""
    return int(-np.floor(0.5 - max_delay / h))


def _mapped_bytes() -> int:
    """The address space this process maps already (its VmSize), read from
    ``/proc/self/statm``, or 0 where that cannot be read."""
    try:
        with open("/proc/self/statm") as statm:
            return int(statm.read().split()[0]) * os.sysconf("SC_PAGE_SIZE")
    except (OSError, ValueError, IndexError):
        return 0


def memory_budget() -> int:
    """Bytes a march may take: the address-space limit (``RLIMIT_AS``) less
    the address space the process maps already, if a limit is set, else the
    machine's physical memory.  It reads limits, sets none."""
    import resource   # only the memory check needs it: kept out of start-up
    limit = resource.getrlimit(resource.RLIMIT_AS)[0]
    if limit != resource.RLIM_INFINITY:
        return limit - _mapped_bytes()
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def march_memory(nodes: np.ndarray, c0: float, grid: TimeGrid) -> dict:
    """The peak bytes of marching a ``RetardedNetwork`` at ``nodes`` on
    ``grid`` and the ``memory_budget``, as ``memory_estimate_bytes`` and
    ``memory_budget_bytes``; an estimate over the budget raises
    ``ResolutionError`` naming n, both numbers, before any n x n array exists.

    The estimate counts, per n x n entry, the plan's gather offset (8 B),
    weights (32 B) and first live query (the smallest type holding
    2 steps + 2), then the plan's gather buffer, a block of at most
    ``GATHER_BLOCK`` cells of 32 B (one row when n exceeds it), the history
    window's rows of 32 B cells and the trace's values, rates,
    accelerations and slopes; the network itself holds no n x n array.  The
    lag is taken at the longest distance the nodes' bounding box allows, so
    it is never below the march's ``lag_max``.  The near pairs' arrays, a
    few dozen bytes per pair with a delay below 2h, and the temporaries of
    the plan pass and of each activation are left out.
    """
    n, steps = len(nodes), grid.steps
    reach = float(np.linalg.norm(np.ptp(nodes, axis=0))) if n else 0.0
    rows = _Window.rows(_window_lead(_lag_max(reach / c0, grid.h), steps))
    first = np.min_scalar_type(2 * steps + 2).itemsize
    block = min(n, max(1, GATHER_BLOCK // max(n, 1))) * n
    estimate = (40 + first) * n * n + (block + rows * n) * 32 + 4 * (steps + 1) * n * 8
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
    on it, and its amplitude Y = U'' is the trace's acceleration.  It keeps
    its nodes, column weights ``col_weight`` and ``c0`` and holds no n x n
    array: ``block`` computes r by ``distance_rows``, one coordinate at a
    time, and returns w_j / (4 pi r) and r / c0, the delay in r's place, so
    every coupling and delay is bitwise the dense distance matrix's, in any
    block.  r_ii is +inf, so the coupling's diagonal is w_i / inf = +0.0;
    the delay's is set to +0.0.
    """

    def __init__(self, nodes: np.ndarray, col_weight, masses: np.ndarray,
                 params, source):
        self.nodes = nodes = np.asarray(nodes, dtype=float)
        self.col_weight = np.broadcast_to(np.asarray(col_weight, dtype=float), (len(nodes),))
        self.c0 = params.c0

        def forcing(t):
            return incident_eval(source, nodes, t)

        onset = np.linalg.norm(nodes - source.x0, axis=1) / source.c0
        self._checked(masses, forcing, onset)

    def block(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        r = distance_rows(self.nodes, lo, hi)
        coupling = np.divide(self.col_weight, 4.0 * np.pi * r)
        delay = np.divide(r, self.c0, out=r)
        # row k's diagonal entry (k, lo + k) sits at flat index lo + k (n + 1)
        delay.reshape(-1)[lo::self.n + 1] = 0.0
        return coupling, delay


def retarded_superposition(trace: Trace, anchors: np.ndarray, coeffs: np.ndarray,
                           c0: float, points: np.ndarray, t,
                           min_dist: float = 0.0) -> np.ndarray:
    """sum_j coeffs_j / (4 pi |x - z_j|) * U_j''(t - |x - z_j| / c0) at each point x.

    The retarded samples of U_j'', anchor j's acceleration, come from
    ``trace.accel_at`` at t through the delay |x - z_j| / c0, so each is
    exactly zero until t passes its arrival, onset_j + |x - z_j| / c0.
    ``points`` is one point (3,) or (p, 3) points and ``t`` a time or a 1-D
    array of times; returns (p, times).  A point closer
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
            np.einsum("ij,j->i", trace.accel_at(t_arr[lo:lo + block, None], cols, delay),
                      weights, out=row[lo:lo + block])
    return out
