"""Independent reference implementations used to check the library.

Everything here is deliberately written with a different algorithm than the
package: bisection instead of closed-form root selection, sign-change scans
instead of discriminants, dense grid scans instead of golden-section search,
scipy's adaptive DOP853 with event location instead of fixed-step RK4 arcs.
"""
import math

import numpy as np


def cubic(t, p, q):
    return t ** 3 + p * t + q


def bisect_leftmost_root(p, q, iters=200):
    """Leftmost real root of t**3 + p*t + q by bracketing plus bisection.

    The leftmost root r1 is the unique root with f < 0 for all t < r1. When
    three real roots exist the local maximum separates r1 from the rest, so
    bisecting between a point left of every root (Cauchy bound) and the local
    max isolates r1.
    """
    lo = -(1.0 + max(abs(p), abs(q)))
    if p < 0.0 and cubic(-math.sqrt(-p / 3.0), p, q) >= 0.0:
        hi = -math.sqrt(-p / 3.0)
    else:
        hi = 1.0
        while cubic(hi, p, q) < 0.0:
            hi *= 2.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if cubic(mid, p, q) < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-16 * max(1.0, abs(lo)):
            break
    return 0.5 * (lo + hi)


def reference_arc(A, B, beta, gamma, kappa, phi0, w0, horizon, tol_denom=1e-6):
    """Slow-limit arc by scipy's DOP853 (rtol 1e-11) with an event at the fold.

    Integrates dw/ds = v - gamma*w + beta, with v the leftmost root of the
    cubic at envelope value cos(phi0 + kappa*s) found by bisection, up to the
    first of: the fold event r - v**2 = -tol_denom, the envelope top (the
    phase reaching 2*pi; phi0 must lie in [0, 2*pi)), or the horizon.
    Returns (kind, s_end, w_of_s): kind is "fold", "top" or "horizon", and
    w_of_s evaluates the dense output on [0, s_end].
    """
    from scipy.integrate import solve_ivp

    rho = 1.0 - A * A / 2.0 - B * B / 2.0

    def gain(s):
        return rho - A * B * math.cos(phi0 + kappa * s)

    def v_at(s, w):
        return bisect_leftmost_root(-3.0 * gain(s), 3.0 * w)

    def slow(s, y):
        return [v_at(s, y[0]) - gamma * y[0] + beta]

    def fold(s, y):
        v = v_at(s, y[0])
        return gain(s) - v * v + tol_denom

    fold.terminal = True
    fold.direction = 1
    s_top = (2.0 * math.pi - phi0) / kappa
    s_stop = min(s_top, horizon)
    sol = solve_ivp(slow, (0.0, s_stop), [w0], method="DOP853", rtol=1e-11,
                    atol=1e-12, events=fold, dense_output=True)
    if sol.status == 1:
        kind, s_stop = "fold", float(sol.t_events[0][0])
    else:
        kind = "top" if s_top <= horizon else "horizon"
    return kind, s_stop, lambda s: sol.sol(s)[0]


def equilibrium_v_bisect(A, B, beta, gamma, c):
    """v_e via the bisection oracle on the equilibrium cubic."""
    r = 1.0 - A * A / 2.0 - B * B / 2.0 - c * A * B
    return bisect_leftmost_root(-3.0 * (r - 1.0 / gamma), 3.0 * beta / gamma)


def left_of_folds_closed_form(A, B, beta, gamma):
    """Every leftmost equilibrium strictly left of its fold, in closed form.

    Assumes one equilibrium and a fold for every envelope value. With
    x = sqrt(r(c)), the equilibrium cubic is negative at the fold v = -x iff
    g(x) = (beta - x)/gamma + (2/3)*x**3 > 0; over [sqrt r(1), sqrt r(-1)] the
    minimum of g sits at an end or at x* = 1/sqrt(2*gamma).
    """
    x_lo = math.sqrt(1.0 - A * A / 2.0 - B * B / 2.0 - A * B)
    x_hi = math.sqrt(1.0 - A * A / 2.0 - B * B / 2.0 + A * B)
    xs = [x_lo, x_hi]
    x_star = 1.0 / math.sqrt(2.0 * gamma)
    if x_lo < x_star < x_hi:
        xs.append(x_star)
    return min((beta - x) / gamma + (2.0 / 3.0) * x ** 3 for x in xs) > 0.0


def count_real_roots(p, q, grid=4001):
    """Real-root count of t**3 + p*t + q by sign changes on a wide grid."""
    bound = 1.0 + max(abs(p), abs(q))
    ts = np.linspace(-bound, bound, grid)
    vals = ts ** 3 + p * ts + q
    signs = np.sign(vals)
    # walk past exact zeros so a grazing sample is not double counted
    nz = signs[signs != 0]
    return int(np.sum(nz[1:] != nz[:-1]))


def count_equilibria(A, B, beta, gamma, c, grid=4001):
    r = 1.0 - A * A / 2.0 - B * B / 2.0 - c * A * B
    return count_real_roots(-3.0 * (r - 1.0 / gamma), 3.0 * beta / gamma, grid)


def kappa_star_scan(A, B, beta, gamma, points=200001):
    """Dense-grid minimum of drift/pull over the open envelope band."""
    cs = np.linspace(-1.0, 1.0, points)[1:-1]
    r = 1.0 - A * A / 2.0 - B * B / 2.0 - cs * A * B
    v_m = -np.sqrt(r)
    w_m = -(2.0 / 3.0) * r ** 1.5
    num = v_m - gamma * w_m + beta
    den = np.abs(v_m) * A * B * np.sqrt(1.0 - cs * cs)
    g = num / den
    i = int(np.argmin(g))
    return float(g[i]), float(cs[i])


def box_distance(v, w, L, S):
    """Euclidean distance from a point to the box [-L, L] x [-S, S]."""
    dv = max(abs(v) - L, 0.0)
    dw = max(abs(w) - S, 0.0)
    return math.hypot(dv, dw)
