"""Independent reference computations used as test oracles.

These deliberately avoid the package's solver code paths: the Duhamel
solution is built from cumulative Simpson quadrature of the sine-kernel
convolution, derivative checks use plain finite differences, and the shape
constant of the ball is a tensor Gauss-Legendre double surface integral.  The
exceptions are ``reference_march``, the per-query march that the history plan
of ``DelayNetwork.solve`` replaced, and ``csv_rows_text``, the per-cell CSV
formatter that the column-wise writer replaced, each kept as its reference.
"""

import numpy as np


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


def reference_march(network, grid):
    """The per-query RK4 march the history plan replaced: five delayed sums
    per step, each interpolating the trace through ``network.accel_all``.

    Returns a ``Trace`` for comparison with ``network.solve(grid)``.
    """
    from bubblescreen.stepping import Trace

    n, h, steps = network.n, grid.h, grid.steps
    times = grid.times
    Y, V, A, S = (np.zeros((steps + 1, n)) for _ in range(4))
    trace = Trace(times, Y, V, A, S, network.onset)
    A[0] = network.accel_all(0.0, Y[0], trace)
    for ns in range(steps):
        t = times[ns]
        y, v = Y[ns], V[ns]
        k1v = network.accel_all(t, y, trace)
        k1y = v
        k2y = v + 0.5 * h * k1v
        k2v = network.accel_all(t + 0.5 * h, y + 0.5 * h * k1y, trace)
        k3y = v + 0.5 * h * k2v
        k3v = network.accel_all(t + 0.5 * h, y + 0.5 * h * k2y, trace)
        k4y = v + h * k3v
        k4v = network.accel_all(t + h, y + h * k3y, trace)
        Y[ns + 1] = y + h / 6.0 * (k1y + 2 * k2y + 2 * k3y + k4y)
        V[ns + 1] = v + h / 6.0 * (k1v + 2 * k2v + 2 * k3v + k4v)
        mn = ns + 1
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
    return trace


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
