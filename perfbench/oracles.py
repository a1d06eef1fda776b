"""Reference computations that share no code with the package.

Each function reaches its answer by a different route than the program:
bisection instead of closed-form cubic roots, the fold-gap closed form instead
of a grid test, dense scans instead of golden-section search, companion-matrix
eigenvalues instead of a discriminant, and scipy's DOP853 instead of the
package's RK4/DP45 steppers.
"""
import math

import numpy as np


def gain(A, B, c):
    """Effective gain r(c) = 1 - A^2/2 - B^2/2 - c*A*B (array-friendly)."""
    return 1.0 - A * A / 2.0 - B * B / 2.0 - c * A * B


def leftmost_root_bisect(p, q, iters=200):
    """Leftmost real root of t^3 + p*t + q = 0 by bisection, elementwise.

    Left of the leftmost root the cubic is negative. The bracket's right end is
    the local maximum when it is nonnegative, so the bisection isolates the
    leftmost root even when three roots exist.
    """
    p, q = np.broadcast_arrays(np.asarray(p, float), np.asarray(q, float))
    lo = -(1.0 + np.maximum(np.abs(p), np.abs(q)))
    tmax = -np.sqrt(np.maximum(-p / 3.0, 0.0))
    hi = np.where((p < 0.0) & (tmax ** 3 + p * tmax + q >= 0.0), tmax,
                  1.0 + np.maximum(np.abs(p), np.abs(q)))
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        neg = mid ** 3 + p * mid + q < 0.0
        lo = np.where(neg, mid, lo)
        hi = np.where(neg, hi, mid)
    return 0.5 * (lo + hi)


def equilibrium_v(A, B, beta, gamma, c):
    """Leftmost equilibrium v_e(c) by bisection on v^3 - 3(r - 1/gamma)v + 3beta/gamma."""
    r = gain(A, B, c)
    return leftmost_root_bisect(-3.0 * (r - 1.0 / gamma), 3.0 * beta / gamma)


def real_root_counts(p, q):
    """Number of real roots of t^3 + p*t + q for each pair, via eigenvalues."""
    p = np.atleast_1d(np.asarray(p, float))
    q = np.broadcast_to(np.asarray(q, float), p.shape)
    comp = np.zeros((p.size, 3, 3))
    comp[:, 1, 0] = 1.0
    comp[:, 2, 1] = 1.0
    comp[:, 0, 2] = -q.ravel()
    comp[:, 1, 2] = -p.ravel()
    lam = np.linalg.eigvals(comp)
    return np.sum(np.abs(lam.imag) < 1e-7 * (1.0 + np.abs(lam.real)), axis=1)


def unique_by_enumeration(A, B, beta, gamma, n_c=101):
    """One equilibrium for every envelope value on a c-grid that holds both ends."""
    cs = np.linspace(-1.0, 1.0, n_c)
    r = gain(A, B, cs)
    return bool(np.all(real_root_counts(-3.0 * (r - 1.0 / gamma), 3.0 * beta / gamma) == 1))


def region_reference(A, B, beta, gamma):
    """Region flags from closed forms, with the margins to each boundary.

    With x = sqrt(r(c)), the equilibrium lies left of the fold at c iff
    g(x) = (beta - x)/gamma + (2/3)x^3 > 0; over [sqrt r(1), sqrt r(-1)] the
    minimum of g sits at an end or at x* = 1/sqrt(2 gamma).

    Returns (unique, folds, left_of_folds, unique_margin, g_min); g_min is None
    when the fold does not exist everywhere.
    """
    unique_margin = (A - B) ** 2 - 2.0 * (
        1.0 - 1.0 / gamma - (9.0 * beta ** 2 / (4.0 * gamma ** 2)) ** (1.0 / 3.0))
    unique = unique_margin > 0.0
    folds = A + B < math.sqrt(2.0)
    g_min = None
    if folds:
        x_lo, x_hi = math.sqrt(gain(A, B, 1.0)), math.sqrt(gain(A, B, -1.0))
        xs = [x_lo, x_hi]
        x_star = 1.0 / math.sqrt(2.0 * gamma)
        if x_lo < x_star < x_hi:
            xs.append(x_star)
        g_min = min((beta - x) / gamma + (2.0 / 3.0) * x ** 3 for x in xs)
    left = bool(unique and folds and g_min > 0.0)
    return unique, folds, left, unique_margin, g_min


def drift_over_pull(A, B, beta, gamma, cs):
    """kappa at which the escape inequality turns true at the fold of C_c."""
    r = gain(A, B, cs)
    x = np.sqrt(r)
    drift = -x + (2.0 / 3.0) * gamma * x ** 3 + beta
    return drift / (x * A * B * np.sqrt(1.0 - cs * cs))


def kappa_star_scan(A, B, beta, gamma, points=200001):
    """Dense-grid minimum of drift/pull over the open envelope band."""
    cs = np.linspace(-1.0, 1.0, points)[1:-1]
    return float(np.min(drift_over_pull(A, B, beta, gamma, cs)))


def escapes_at(A, B, beta, gamma, kappa, c):
    """Escape inequality at the fold of C_c: pull exceeds drift."""
    return bool(kappa > drift_over_pull(A, B, beta, gamma, np.array([c]))[0])


def hysteresis_indices(v, fire, arm):
    """Samples where a spike is counted: an armed v >= fire; re-arm once v < arm."""
    out = []
    armed = True
    for i, x in enumerate(v):
        if armed and x >= fire:
            out.append(i)
            armed = False
        elif not armed and x < arm:
            armed = True
    return out


def near_level(v, levels, tol):
    """True when a sample after the first lies within tol of a detector level.

    The first sample is the start, which both integrators share exactly.
    """
    v = np.asarray(v)[1:]
    return any(bool(np.any(np.abs(v - lv) < tol)) for lv in levels)


def _envelope(kind, args, t_final):
    """(f, breaks, hold) for a drive given as plain data, written apart from model.envelope.

    breaks are the times where f jumps or has a kink; hold means f is constant
    between breaks.
    """
    if kind == "averaged_cosine":
        eta, = args
        return (lambda t: math.cos(eta * t)), [], False
    if kind == "sign_cosine":
        eta, = args
        half = math.pi / eta
        switches = [(k + 0.5) * half for k in range(int(t_final / half + 0.5) + 1)]
        return (lambda t: 1.0 if math.cos(eta * t) >= 0.0 else -1.0), switches, True
    if kind == "frozen_constant":
        c, = args
        return (lambda t: c), [], True
    if kind == "custom_sampled":
        values, dt = args
        knots = dt * np.arange(len(values))
        vals = np.asarray(values, float)
        return (lambda t: float(np.interp(t, knots, vals))), list(knots), False
    raise ValueError(f"no reference envelope for drive kind {kind!r}")


def reference_v(A, B, beta, gamma, eps, kind, args, v0, w0, t_eval):
    """v at the times t_eval for the envelope-driven system, by scipy's DOP853.

    The solve restarts at every jump or kink of the envelope, so no step
    straddles one.
    """
    from scipy.integrate import solve_ivp

    t_eval = np.asarray(t_eval, float)
    f, breaks, hold = _envelope(kind, args, float(t_eval[-1]))
    edges = ([t_eval[0]] + [b for b in breaks if t_eval[0] < b < t_eval[-1]]
             + [t_eval[-1]])
    out = np.empty_like(t_eval)
    y = np.array([v0, w0], float)
    for a, b in zip(edges[:-1], edges[1:]):
        # a held envelope is read inside the leg, so a jump at its end is not seen
        fc = f(0.5 * (a + b)) if hold else None

        def rhs(t, y):
            v, w = y
            r = gain(A, B, fc if hold else f(t))
            return (r * v - v ** 3 / 3.0 - w, eps * (v - gamma * w + beta))

        sol = solve_ivp(rhs, (a, b), y, method="DOP853", rtol=1e-11, atol=1e-12,
                        dense_output=True)
        if not sol.success:
            raise RuntimeError(f"reference solve failed: {sol.message}")
        sel = (t_eval >= a) & (t_eval <= b)
        if sel.any():
            out[sel] = sol.sol(t_eval[sel])[0]
        y = sol.y[:, -1]
    return out
