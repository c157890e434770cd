"""Method-of-steps time integration for networks of delay-coupled oscillators.

Both the point-scatterer system and the discretized surface equation share the
form

    mass_i * x_i''(t) + x_i(t) + sum_j c_ij * x_j''(t - tau_ij) = f_i(t),
    x(0) = x'(0) = 0,

a neutral system: the delayed terms act on the highest derivative.  The
acceleration history is therefore stored explicitly at the grid nodes and
interpolated with cubic Hermite polynomials whose slopes (third derivatives)
come from third-order finite-difference stencils.  With all delays bounded
below by tau_min > 0 and h <= 0.5 * tau_min, every delayed query -- including
ones issued from internal Runge-Kutta stage times -- lands strictly inside the
already-computed past.

The delayed sum depends on t and the history only, not on the state, so one
classical RK4 step needs it at two times: t_n + h/2 (shared by the second and
third stages) and t_{n+1} (shared by the fourth stage and the new node's
acceleration, which is also the next step's first stage).  The step is fixed,
so for each of those two stage offsets every coupled pair has a constant cell
offset and constant Hermite weights.  ``DelayNetwork.solve`` therefore builds
a history plan once per grid -- flat gather indices and the Hermite weights
premultiplied by the coupling -- and each delayed sum is four gathers from the
acceleration and slope arrays plus one ``np.bincount``.  That the history has
no gap (every query reads rows already computed) is checked once, when the
plan is built.

Each oscillator carries an onset time, the first arrival of its forcing; a
query at or before a column's onset returns exactly zero, so neither the march
nor a field evaluated from the trace picks up the interpolant's pre-onset
leakage.  In the plan, pairs are sorted by the first step at which their query
lies past the source column's onset, so the live pairs of each step form a
prefix.  Fixed-step method of steps with breaking-point tracking follows
Bellen & Zennaro, *Numerical Methods for Delay Differential Equations* (2003).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, DivergenceError, SolverError, UsageError
from .geometry import pairwise_distances
from .sources import pulse_eval


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [0, T] with steps = ceil(T/h) nodes past zero."""

    T: float
    h: float
    steps: int

    @staticmethod
    def fit(T: float, target_h: float) -> "TimeGrid":
        if T <= 0 or target_h <= 0:
            raise ConfigError("horizon and step must be positive")
        steps = int(np.ceil(T / target_h - 1e-12))
        return TimeGrid(T=T, h=T / steps, steps=steps)

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.steps + 1) * self.h


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
    reaches that column, zero by default) returns exactly zero.
    """

    def __init__(self, times: np.ndarray, value: np.ndarray, rate: np.ndarray,
                 acc: np.ndarray, acc_slope: np.ndarray, onset=None):
        self.times = times
        self.value = value
        self.rate = rate
        self.acc = acc
        self.acc_slope = acc_slope
        self.onset = (np.zeros(value.shape[1]) if onset is None
                      else np.asarray(onset, dtype=float))
        self.h = float(times[1] - times[0])
        self.horizon = float(times[-1])

    @property
    def n_nodes(self) -> int:
        return self.value.shape[1]

    def _interp(self, tq, cols, base, slope):
        tq = np.asarray(tq, dtype=float)
        cols = np.broadcast_to(np.asarray(cols, dtype=int), tq.shape)
        out = np.zeros(tq.shape)
        live = tq > self.onset[cols]
        if not live.any():
            return out
        tql = tq[live]
        if np.any(tql > self.horizon * (1 + 1e-12)):
            raise UsageError("interpolation query beyond the trace horizon")
        k = np.minimum((tql / self.h).astype(int), len(self.times) - 2)
        w00, w10, w01, w11 = _hermite_weights(tql / self.h - k, self.h)
        cl = cols[live]
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


@dataclass(frozen=True)
class _StagePlan:
    """Delayed sum at t_n + sigma*h for every step n of one grid.

    Pair p reads rows n + o_p and n + o_p + 1 of the acceleration and slope
    histories, at flat offsets ``n * width + base_p`` and ``... + width``;
    ``weights`` are its four Hermite weights times c_p.  Pairs are sorted by
    their first live step, and ``live[n]`` pairs are live at step n.
    """

    rows: np.ndarray
    base: np.ndarray
    weights: tuple
    live: np.ndarray
    width: int

    def delayed_sum(self, ns: int, acc: np.ndarray, slope: np.ndarray) -> np.ndarray:
        m = self.live[ns]
        if not m:
            return np.zeros(self.width)
        k0 = self.base[:m] + ns * self.width
        k1 = k0 + self.width
        w00, w10, w01, w11 = (w[:m] for w in self.weights)
        vals = w00 * acc[k0] + w10 * slope[k0] + w01 * acc[k1] + w11 * slope[k1]
        return np.bincount(self.rows[:m], weights=vals, minlength=self.width)


class DelayNetwork:
    """mass_i x_i'' + x_i + sum_j c_ij x_j''(t - tau_ij) = f_i(t).

    ``onset`` gives, per oscillator, the time before which its forcing
    vanishes (zero by default).  The delayed terms then cannot wake x_i
    earlier either, provided onset_i <= onset_j + tau_ij for every coupled
    pair, which is checked here; the marched ``Trace`` returns exact zeros up
    to each onset.
    """

    def __init__(self, masses: np.ndarray, coupling: np.ndarray,
                 delays: np.ndarray, forcing: Callable[[float], np.ndarray],
                 onset=None):
        self.masses = np.asarray(masses, dtype=float)
        self.coupling = np.asarray(coupling, dtype=float)
        self.delays = np.asarray(delays, dtype=float)
        self.forcing = forcing
        self.n = len(self.masses)
        self.onset = (np.zeros(self.n) if onset is None
                      else np.asarray(onset, dtype=float))
        if np.any(self.masses <= 0):
            raise ConfigError("all oscillator masses must be positive")
        if self.coupling.shape != (self.n, self.n) or self.delays.shape != (self.n, self.n):
            raise ConfigError("coupling/delay matrices must be n x n")
        if np.any(np.abs(np.diag(self.coupling)) > 0):
            raise ConfigError("coupling diagonal must vanish")
        self._iu, self._ju = np.nonzero(self.coupling)
        self._cpair = self.coupling[self._iu, self._ju]
        self._tpair = self.delays[self._iu, self._ju]
        if len(self._tpair) and np.any(self._tpair <= 0):
            raise ConfigError("off-diagonal delays must be strictly positive")
        if self.onset.shape != (self.n,) or np.any(self.onset < 0):
            raise ConfigError("onsets must be n non-negative times")
        reach = self.onset[self._ju] + self._tpair
        if np.any(self.onset[self._iu] > reach * (1 + 8 * np.finfo(float).eps)):
            raise ConfigError("onsets violate onset_i <= onset_j + tau_ij: a "
                              "delayed term would arrive before the forcing")

    @property
    def min_delay(self) -> float:
        return float(self._tpair.min()) if len(self._tpair) else np.inf

    def accel_all(self, t: float, y: np.ndarray, trace: Trace) -> np.ndarray:
        """All accelerations at time t from the state y and the trace's history."""
        delayed = np.zeros(self.n)
        if len(self._iu):
            vals = trace.accel_at(t - self._tpair, self._ju)
            delayed = np.bincount(self._iu, weights=vals * self._cpair,
                                  minlength=self.n)
        return (self.forcing(t) - y - delayed) / self.masses

    def _stage_plan(self, grid: TimeGrid, sigma: float) -> _StagePlan:
        """History plan for the delayed sum at t_n + sigma*h, n < steps."""
        n, h = self.n, grid.h
        times = grid.times
        stage_t = times[1:] if sigma == 1.0 else times[:-1] + sigma * h
        shift = sigma - self._tpair / h
        offset = np.floor(shift).astype(np.int64)
        if np.any(offset + 1 > 0):
            raise SolverError("history gap: delayed query ahead of computed nodes")
        # a live query lies past its column's onset and reads no negative row
        first = np.maximum(_first_live(stage_t, self._tpair, self.onset[self._ju]),
                           -offset)
        order = np.argsort(first, kind="stable")
        weights = tuple(self._cpair[order] * w
                        for w in _hermite_weights((shift - offset)[order], h))
        return _StagePlan(
            rows=self._iu[order],
            base=(offset * n + self._ju)[order],
            weights=weights,
            live=np.searchsorted(first[order], np.arange(grid.steps), side="right"),
            width=n,
        )

    def solve(self, grid: TimeGrid) -> Trace:
        """Classical RK4 on (x, x') with delayed accelerations from the history.

        The history plan for the two stage offsets (h/2 and h) is built here,
        once per grid: a step above tau_min/2 raises ``ConfigError`` and a
        plan that would read a row not yet computed raises ``SolverError``.
        Each step then evaluates the forcing and the delayed sum twice.
        """
        if len(self._tpair) and grid.h > 0.5 * self.min_delay * (1 + 1e-12):
            raise ConfigError(
                f"step h={grid.h} exceeds half the minimum delay {self.min_delay}"
            )
        n, h = self.n, grid.h
        steps = grid.steps
        times = grid.times
        half = self._stage_plan(grid, 0.5)
        full = self._stage_plan(grid, 1.0)
        Y = np.zeros((steps + 1, n))
        V = np.zeros((steps + 1, n))
        A = np.zeros((steps + 1, n))
        S = np.zeros((steps + 1, n))
        acc, slope = A.reshape(-1), S.reshape(-1)
        masses, forcing = self.masses, self.forcing
        # every query at t = 0 lies before its column's onset
        A[0] = (forcing(0.0) - Y[0]) / masses
        for ns in range(steps):
            y, v, k1v = Y[ns], V[ns], A[ns]
            f_half = forcing(times[ns] + 0.5 * h)
            d_half = half.delayed_sum(ns, acc, slope)
            k2y = v + 0.5 * h * k1v
            k2v = (f_half - (y + 0.5 * h * v) - d_half) / masses
            k3y = v + 0.5 * h * k2v
            k3v = (f_half - (y + 0.5 * h * k2y) - d_half) / masses
            k4y = v + h * k3v
            mn = ns + 1
            f_full = forcing(times[mn])
            d_full = full.delayed_sum(ns, acc, slope)
            k4v = (f_full - (y + h * k3y) - d_full) / masses
            Y[mn] = y + h / 6.0 * (v + 2 * k2y + 2 * k3y + k4y)
            V[mn] = v + h / 6.0 * (k1v + 2 * k2v + 2 * k3v + k4v)
            if not np.all(np.isfinite(Y[mn])):
                raise DivergenceError(mn)
            A[mn] = (f_full - Y[mn] - d_full) / masses
            # third-order slope stencils; the provisional newest-node slope is
            # finalized one step later, before any delayed query can reach it
            if mn >= 3:
                S[mn] = (11 * A[mn] - 18 * A[mn - 1] + 9 * A[mn - 2] - 2 * A[mn - 3]) / (6 * h)
                S[mn - 1] = (2 * A[mn] + 3 * A[mn - 1] - 6 * A[mn - 2] + A[mn - 3]) / (6 * h)
            elif mn == 2:
                S[2] = (3 * A[2] - 4 * A[1] + A[0]) / (2 * h)
                S[1] = (A[2] - A[0]) / (2 * h)
            else:
                S[1] = (A[1] - A[0]) / h
                S[0] = S[1]
        return Trace(times, Y, V, A, S, self.onset)

    def march_counters(self, grid: TimeGrid) -> dict:
        """Size and step margin of a march on ``grid``, for run manifests."""
        return {"n": self.n, "pairs": len(self._tpair), "steps": grid.steps,
                "h": grid.h, "h_over_tau_min": grid.h / self.min_delay}


class RetardedNetwork(DelayNetwork):
    """Oscillators at ``nodes`` coupled by retarded monopoles, driven by a source.

    The network of both models: coupling w_j / (4 pi r_ij) with column weight
    w_j, delay r_ij / c0, forcing rho_c / r_i * lambda^(order)(t - r_i / c0)
    at distance r_i from the point source, and onset r_i / c0.
    """

    def __init__(self, nodes: np.ndarray, col_weight, masses: np.ndarray,
                 params, source, order: int):
        nodes = np.asarray(nodes, dtype=float)
        dist = pairwise_distances(nodes)
        delays = dist / params.c0
        np.fill_diagonal(dist, np.inf)  # w_j / inf: an exact zero self-coupling
        coupling = np.asarray(col_weight, dtype=float) / (4.0 * np.pi * dist)

        r_src = np.linalg.norm(nodes - source.x0, axis=1)
        amp = params.raw.rho_c / r_src
        shift = r_src / params.c0
        pulse = source.pulse

        def forcing(t: float) -> np.ndarray:
            return amp * pulse_eval(pulse, t - shift, order)

        super().__init__(masses, coupling, delays, forcing, shift)
        self.params = params
        self.source = source


def retarded_superposition(eval_fn, anchors: np.ndarray, coeffs: np.ndarray,
                           c0: float, x: np.ndarray, t) -> np.ndarray:
    """sum_j coeffs_j / (4 pi |x - z_j|) * g_j(t - |x - z_j| / c0).

    ``eval_fn(tq, cols)`` supplies the retarded samples (a Trace method).
    Returns an array shaped like ``t``.
    """
    x = np.asarray(x, dtype=float).reshape(3)
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    r = np.linalg.norm(anchors - x, axis=1)
    tq = t_arr[:, None] - (r / c0)[None, :]
    cols = np.broadcast_to(np.arange(len(anchors)), tq.shape)
    g = eval_fn(tq, cols)
    return g @ (coeffs / (4.0 * np.pi * r))
