"""Independent reference implementations used to check the library.

Everything here is deliberately written with a different algorithm than the
package: bisection instead of closed-form root selection, sign-change scans
instead of discriminants, dense grid scans instead of golden-section search,
scipy's adaptive DOP853 with event location instead of fixed-step RK4 arcs.
The fixed-step reference steppers are the exception: they keep the kernel's
arithmetic order, so the two can be compared bit for bit, but evaluate their
own right-hand side at every stage. So is the stage-wise arc-transport step,
which checks each stage in its own call and takes its roots from the
package's closed-form cubic root.
"""
import math

import numpy as np

from fhn_tis._kernels import leftmost_cubic_root


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


def hysteresis_indices(v, fire, arm):
    """Spike sample indices by alternating searches.

    The first sample at or above fire is a spike; after it, the first sample
    below arm re-arms the detector, and the search for the next spike starts
    there. A NaN sample satisfies neither comparison.
    """
    v = np.asarray(v, dtype=float)
    out = []
    start = 0
    while True:
        hits = np.flatnonzero(v[start:] >= fire)
        if hits.size == 0:
            return out
        spike = start + int(hits[0])
        out.append(spike)
        rearm = np.flatnonzero(v[spike + 1:] < arm)
        if rearm.size == 0:
            return out
        start = spike + 1 + int(rearm[0])


def _reference_rhs(kind, args, A, B, beta, gamma, eps):
    """The right-hand side f(t, v, w) -> (dv, dw) under one drive.

    kind is "frozen" (args (c,)), "cosine" (eta,), "raw" (omega1, omega2) or
    "custom" (values, spacing; linear interpolation, clamped outside the
    samples). Arithmetic follows the kernel's order, so results can match
    bit for bit.
    """
    rho = 1.0 - A * A / 2.0 - B * B / 2.0

    def envelope(t):
        if kind == "frozen":
            return args[0]
        if kind == "cosine":
            return math.cos(args[0] * t)
        values, spacing = args
        x = t / spacing
        if x <= 0.0:
            return values[0]
        if x >= len(values) - 1:
            return values[-1]
        k = math.floor(x)
        frac = x - k
        return values[k] * (1.0 - frac) + values[k + 1] * frac

    def rhs(t, v, w):
        cubic = v * v * v / 3.0
        if kind == "raw":
            w1, w2 = args
            dv = v - cubic - w + A * w1 * math.cos(w1 * t) + B * w2 * math.cos(w2 * t)
        else:
            dv = (rho - A * B * envelope(t)) * v - cubic - w
        return dv, eps * (v - gamma * w + beta)

    return rhs


def reference_rk4(kind, args, A, B, beta, gamma, eps, v0, w0, t0, t_final, dt, stride):
    """Fixed-step RK4 with the right-hand side evaluated anew at every stage.

    kind and args name the drive as in _reference_rhs. Step i starts at
    t0 + i*dt and lasts min(dt, t_final - t), with stages at t, t + h/2 and
    t + h; a sample is kept every stride steps and at the end. Arithmetic
    follows the kernel's order, so results can match bit for bit. Returns
    (t, v, w, n, ok), the arrays of length n; ok = 0 when the state went
    non-finite, with the samples ending before it.
    """
    rhs = _reference_rhs(kind, args, A, B, beta, gamma, eps)
    steps = math.ceil((t_final - t0) / dt - 1e-12) if t_final > t0 else 0
    t, v, w = t0, v0, w0
    ts, vs, ws = [t], [v], [w]
    ok = 1
    for i in range(steps):
        h = min(dt, t_final - t)
        k1 = rhs(t, v, w)
        k2 = rhs(t + h / 2.0, v + h / 2.0 * k1[0], w + h / 2.0 * k1[1])
        k3 = rhs(t + h / 2.0, v + h / 2.0 * k2[0], w + h / 2.0 * k2[1])
        k4 = rhs(t + h, v + h * k3[0], w + h * k3[1])
        v = v + h / 6.0 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
        w = w + h / 6.0 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
        t = t0 + (i + 1) * dt if i + 1 < steps else t_final
        if not (math.isfinite(v) and math.isfinite(w)):
            ok = 0
            break
        if (i + 1) % stride == 0 or i + 1 == steps:
            ts.append(t)
            vs.append(v)
            ws.append(w)
    return np.array(ts), np.array(vs), np.array(ws), len(ts), ok


def reference_dp45(kind, args, A, B, beta, gamma, eps, v0, w0, t0, t_final,
                   rel_tol, abs_tol, max_dt, stride):
    """Adaptive Dormand-Prince 5(4) with all seven stages evaluated every attempt.

    kind and args name the drive as in _reference_rhs. The step is capped at
    max_dt and clipped to land on t_final; the error norm, the step factor
    (0.9*err**-0.2 within [0.2, 5]) and the sampling of every stride-th
    accepted step and of the last follow the kernel's arithmetic, so the two
    can match bit for bit. Returns (t, v, w, n, ok) with the arrays of
    length n; ok = 0 when the state went non-finite, 2 when the step fell
    below 1e-14.
    """
    rhs = _reference_rhs(kind, args, A, B, beta, gamma, eps)
    t, v, w = t0, v0, w0
    ts, vs, ws = [t], [v], [w]
    ok = 1
    h = max_dt
    accepted = 0
    end = t_final - 1e-12 * max(1.0, abs(t_final))
    while t < end:
        h = min(h, max_dt, t_final - t)
        k1 = rhs(t, v, w)
        k2 = rhs(t + h / 5.0, v + h * (k1[0] / 5.0), w + h * (k1[1] / 5.0))
        k3 = rhs(t + 3.0 * h / 10.0, *(
            x + h * (3.0 / 40.0 * a + 9.0 / 40.0 * b)
            for x, a, b in zip((v, w), k1, k2)))
        k4 = rhs(t + 4.0 * h / 5.0, *(
            x + h * (44.0 / 45.0 * a - 56.0 / 15.0 * b + 32.0 / 9.0 * c)
            for x, a, b, c in zip((v, w), k1, k2, k3)))
        k5 = rhs(t + 8.0 * h / 9.0, *(
            x + h * (19372.0 / 6561.0 * a - 25360.0 / 2187.0 * b
                     + 64448.0 / 6561.0 * c - 212.0 / 729.0 * d)
            for x, a, b, c, d in zip((v, w), k1, k2, k3, k4)))
        k6 = rhs(t + h, *(
            x + h * (9017.0 / 3168.0 * a - 355.0 / 33.0 * b + 46732.0 / 5247.0 * c
                     + 49.0 / 176.0 * d - 5103.0 / 18656.0 * e)
            for x, a, b, c, d, e in zip((v, w), k1, k2, k3, k4, k5)))
        v5, w5 = (x + h * (35.0 / 384.0 * a + 500.0 / 1113.0 * c + 125.0 / 192.0 * d
                           - 2187.0 / 6784.0 * e + 11.0 / 84.0 * f)
                  for x, a, c, d, e, f in zip((v, w), k1, k3, k4, k5, k6))
        k7 = rhs(t + h, v5, w5)
        errv, errw = (h * (71.0 / 57600.0 * a - 71.0 / 16695.0 * c + 71.0 / 1920.0 * d
                           - 17253.0 / 339200.0 * e + 22.0 / 525.0 * f - 1.0 / 40.0 * g)
                      for a, c, d, e, f, g in zip(k1, k3, k4, k5, k6, k7))
        scv = abs_tol + rel_tol * max(abs(v), abs(v5))
        scw = abs_tol + rel_tol * max(abs(w), abs(w5))
        try:
            errn = math.sqrt(((errv / scv) ** 2 + (errw / scw) ** 2) / 2.0)
        except OverflowError:
            errn = math.inf
        if errn <= 1.0:
            t, v, w = t + h, v5, w5
            if not (math.isfinite(v) and math.isfinite(w)):
                ok = 0
                break
            accepted += 1
            if accepted % stride == 0 or t >= end:
                ts.append(t)
                vs.append(v)
                ws.append(w)
        if errn == 0.0:
            fac = 5.0
        else:
            fac = 0.9 * errn ** -0.2
            fac = 0.2 if not fac >= 0.2 else min(fac, 5.0)
        h = h * fac
        if h < 1e-14:
            ok = 2
            break
    return np.array(ts), np.array(vs), np.array(ws), len(ts), ok


# the arc transport's origin tolerance and warm-root settings (_kernels)
_ORIGIN_TOL = 1e-9
_WARM_ITERS = 8
_WARM_STEP_TOL = 1e-13


def newton_leftmost(p, q, t0):
    """Newton on t**3 + p*t + q = 0 from t0; returns (certified, t).

    certified means the iteration converged to a t < 0 with 3*t**2 + p > 0,
    that is left of the local maximum at -sqrt(-p/3) (or anywhere if p >= 0).
    The cubic rises strictly there and has exactly one root, which is
    therefore the leftmost root.
    """
    t = t0
    for _ in range(_WARM_ITERS):
        tt = t * t
        fp = 3.0 * tt + p
        if fp == 0.0:
            break
        step = ((tt + p) * t + q) / fp
        t -= step
        if -_WARM_STEP_TOL < step < _WARM_STEP_TOL:
            return t < 0.0 and 3.0 * t * t + p > 0.0, t
    return False, t


def leftmost_root_near(p, q, t0):
    """leftmost_cubic_root(p, q), by certified Newton from t0 where it converges."""
    certified, t = newton_leftmost(p, q, t0)
    if certified:
        return t
    return leftmost_cubic_root(p, q)


def stage_status(rc, v, tol_denom):
    """Check of one transport stage with gain rc and recovered v.

    1: v lies on the left branch with rc - v**2 <= -tol_denom; -1: v collapsed
    onto the origin; 0: the left branch was lost (fold contact).
    """
    if not math.isfinite(v):
        return 0
    if abs(v) < _ORIGIN_TOL:
        return -1
    if v > 0.0 or rc - v * v > -tol_denom:
        return 0
    return 1


def reference_transport_rk4(rho, AB, beta, gamma, kappa, phi0, s, w, v, rc, h, tol_denom):
    """One arc-transport RK4 step, each stage checked by its own stage_status call.

    Takes the arguments of _kernels._transport_rk4 and returns what it
    returns: (status, w_new, v_new, rc_new), the end state with its root and
    gain, or the first failing status with the start state. The inner stages'
    roots are warm-started from the stage before (leftmost_root_near), the
    end root is leftmost_cubic_root.
    """
    st = stage_status(rc, v, tol_denom)
    if st != 1:
        return st, w, v, rc
    k1 = v - gamma * w + beta
    rc_mid = rho - AB * math.cos(phi0 + kappa * (s + h / 2.0))
    w2 = w + h / 2.0 * k1
    v2 = leftmost_root_near(-3.0 * rc_mid, 3.0 * w2, v)
    st = stage_status(rc_mid, v2, tol_denom)
    if st != 1:
        return st, w, v, rc
    k2 = v2 - gamma * w2 + beta
    w3 = w + h / 2.0 * k2
    v3 = leftmost_root_near(-3.0 * rc_mid, 3.0 * w3, v2)
    st = stage_status(rc_mid, v3, tol_denom)
    if st != 1:
        return st, w, v, rc
    k3 = v3 - gamma * w3 + beta
    rc_end = rho - AB * math.cos(phi0 + kappa * (s + h))
    w4 = w + h * k3
    v4 = leftmost_root_near(-3.0 * rc_end, 3.0 * w4, v3)
    st = stage_status(rc_end, v4, tol_denom)
    if st != 1:
        return st, w, v, rc
    k4 = v4 - gamma * w4 + beta
    w_new = w + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    v_new = leftmost_cubic_root(-3.0 * rc_end, 3.0 * w_new)
    st = stage_status(rc_end, v_new, tol_denom)
    if st != 1:
        return st, w, v, rc
    return 1, w_new, v_new, rc_end
