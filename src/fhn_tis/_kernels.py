"""Inner loops in plain Python and numpy: steppers, spike counting, slow-arc transport.

The scalar kernels keep to Python floats, because arithmetic on numpy scalars
is several times slower; a sampled envelope therefore comes in as a list.
rk4_trajectory is the one scalar RK4 loop: simulate's fixed-step path and the
scalar sweep cell cosine_cell_spikes both run on it. Its stage times are known
in advance, so it takes the drive from tables built with numpy for blocks of
1024 steps (the gain r at the three stage times of each step, and the raw
drive's two carrier terms) and runs one inlined RK4 body over them; the
samples are bit-identical to those of stage-wise _rhs calls, which only the
adaptive dp45_trajectory still makes, six per attempt (first same as last).

cosine_ensemble_spikes steps many sweep cells at once on numpy arrays, on the
same time rule. A step writes into buffers allocated once per call, the state
laid out [r*v | v | w | -beta], n values a block, so its cost at a few cells
is the count of numpy calls: 45 a step for the RK4 stages and the stored v
row, against about 80 on fresh arrays, and two for the spike count. Its
scalar operands are 0-d float64 arrays, which numpy does not convert anew
on every call as it does a Python float. Spikes are not counted step by
step: the v row of a block of steps is stored, and the hysteresis is
evaluated over the block afterwards, with the detector state carried from
block to block. Every elementwise operation is the scalar kernel's, in its
order, and the block count gives each step the detector state of a per-step
update, so the counts equal cosine_cell_spikes' cell by cell. A non-finite
RK4 state stays non-finite, so divergence is checked once, on the final
state, and a diverged cell counts -1. spike_scan makes one pass over the
samples as Python floats.

transport_arc carries a slow-limit arc on a fixed s-grid, one RK4 step at a
time. A step makes four cubic roots: its three inner stages are one loop
that runs a warm-started Newton root inline, and the closed-form end root is
reused by the next step as its first stage. Each of the five stage roots is
checked with one chained comparison, and the step calls no other function
unless Newton's root is not certified (then leftmost_cubic_root) or a check
fails. leftmost_cubic_roots is the closed-form root over an array of p at
one q, bit for bit the scalar's, for the frozen band's equilibria.

rk4_trajectory, dp45_trajectory and transport_arc append their samples to
Python lists and return them as float64 arrays of exactly the samples taken;
an arc's terminal point is its last sample.
"""
import math

import numpy as np

from .errors import DomainError

# no compiled backend; the sweep manifests record this under their "numba" key
NUMBA_ENABLED = False

# drive codes shared with sim.py
DRIVE_FROZEN = 0   # par1 = envelope constant c
DRIVE_COSINE = 1   # par1 = beat frequency eta
DRIVE_RAW = 2      # par1, par2 = carrier frequencies omega1, omega2
DRIVE_CUSTOM = 3   # sampled envelope in cs (spacing cs_dt), linear interpolation

# dp45_trajectory's ok flag when the step size fell below 1e-14
STEP_COLLAPSED = 2

# terminal codes shared with singular.py
TERM_HORIZON = 0
TERM_FOLD = 1
TERM_TOP = 2
TERM_ORIGIN = 3

_ORIGIN_TOL = 1e-9

_FOUR_PI = 4.0 * math.pi
# leftmost_cubic_root's Newton polish: at most three steps
_POLISH = range(3)


def _arrays(*samples):
    """The sample lists as a tuple of float64 arrays, each of its list's length."""
    return tuple(np.array(x, dtype=np.float64) for x in samples)


def leftmost_cubic_root(p, q):
    """Leftmost real root of t**3 + p*t + q = 0, polished with Newton steps.

    Uses the single-root Cardano branch when the discriminant is positive and
    the three-root trigonometric form otherwise.
    """
    disc = (q / 2.0) ** 2 + (p / 3.0) ** 3
    if disc > 0.0:
        sq = math.sqrt(disc)
        # Python floats: the sum stays quiet where the roots are inf and -inf,
        # and numpy scalars would slow every caller's arithmetic
        root = float(np.cbrt(-q / 2.0 + sq)) + float(np.cbrt(-q / 2.0 - sq))
    else:
        m = 2.0 * math.sqrt(-p / 3.0)
        if m == 0.0:
            # disc <= 0 with p = 0 forces q = 0: triple root at the origin
            return 0.0
        pm = p * m
        if pm == 0.0:
            # p*m underflows, and so may disc: solve the cubic scaled exactly
            # by a power of two, t = 2**e * u, with |p|/4**e < 2 and, unless q
            # is 0 or NaN, |q|/8**e < 4
            e = math.frexp(p)[1] // 2
            if abs(q) > 0.0:
                e = max(e, math.frexp(q)[1] // 3)
            return math.ldexp(leftmost_cubic_root(math.ldexp(p, -2 * e),
                                                  math.ldexp(q, -3 * e)), e)
        arg = 3.0 * q / pm
        if arg > 1.0:
            arg = 1.0
        elif arg < -1.0:
            arg = -1.0
        # of the roots m*cos((th - 2*pi*k)/3), k = 0, 1, 2, the leftmost is k = 2
        root = m * math.cos((math.acos(arg) - _FOUR_PI) / 3.0)
    for _ in _POLISH:
        f = root * root * root + p * root + q
        fp = 3.0 * root * root + p
        if fp == 0.0:
            break
        step = f / fp
        root -= step
        # |step| < 1e-15 * max(1.0, |root|), with max's 1.0 for a NaN root
        b = 1e-15 * root
        if -1e-15 < step < 1e-15 or -b < step < b or b < step < -b:
            break
    return root


def leftmost_cubic_roots(p, q):
    """leftmost_cubic_root(x, q) for every x of the array p, bit for bit.

    The Cardano elements (positive discriminant) are computed as arrays: numpy's
    elementwise arithmetic, sqrt and cbrt round as the scalar's Python floats,
    math.sqrt and np.cbrt on a scalar do. The cube of p/3 is Python's float **,
    which numpy's power does not match in every last bit, and the Newton polish
    stops each element where the scalar loop stops it. The other elements go
    through leftmost_cubic_root, since np.arccos does not round as math.acos
    does. Returns a new float64 array.
    """
    shape = np.shape(p)
    p = np.asarray(p, dtype=np.float64).ravel()
    root = np.empty_like(p)
    disc = (q / 2.0) ** 2 + np.array([x ** 3 for x in (p / 3.0).tolist()])
    cardano = disc > 0.0
    idx = np.flatnonzero(~cardano)
    root[idx] = [leftmost_cubic_root(x, q) for x in p[idx].tolist()]
    idx = np.flatnonzero(cardano)
    pc = p[idx]
    with np.errstate(all="ignore"):
        sq = np.sqrt(disc[idx])
        t = np.cbrt(-q / 2.0 + sq) + np.cbrt(-q / 2.0 - sq)
        for _ in _POLISH:
            f = t * t * t + pc * t + q
            fp = 3.0 * t * t + pc
            go = fp != 0.0
            step = f[go] / fp[go]
            t[go] -= step
            root[idx] = t
            # the elements whose loop goes on: a step, and not yet a small one
            go[go] = ~(np.abs(step) < 1e-15 * np.fmax(1.0, np.abs(t[go])))
            idx, pc, t = idx[go], pc[go], t[go]
    return root.reshape(shape)


def _envelope_value(code, par1, cs, cs_dt, t):
    if code == DRIVE_FROZEN:
        return par1
    if code == DRIVE_COSINE:
        return math.cos(par1 * t)
    # DRIVE_CUSTOM: clamp to the sampled range, interpolate linearly inside it
    x = t / cs_dt
    if x <= 0.0:
        return cs[0]
    n = len(cs)
    if x >= n - 1:
        return cs[n - 1]
    i = int(x)
    frac = x - i
    return cs[i] * (1.0 - frac) + cs[i + 1] * frac


def _rhs(code, par1, par2, cs, cs_dt, A, B, beta, gamma, eps, t, v, w):
    """Right-hand side (dv/dt, dw/dt) at one time and state.

    Only dp45_trajectory calls it: its stage times depend on the accepted
    step sizes, so they are not known in advance. rk4_trajectory evaluates
    the same terms from _stage_tables instead.
    """
    if code == DRIVE_RAW:
        dv = v - v * v * v / 3.0 - w \
            + A * par1 * math.cos(par1 * t) + B * par2 * math.cos(par2 * t)
    else:
        f = _envelope_value(code, par1, cs, cs_dt, t)
        r = 1.0 - A * A / 2.0 - B * B / 2.0 - A * B * f
        dv = r * v - v * v * v / 3.0 - w
    dw = eps * (v - gamma * w + beta)
    return dv, dw


# steps per block of rk4_trajectory's stage tables: the tables of one block
# hold about ten thousand floats, so memory stays flat at any horizon
_RK4_BLOCK = 1024


def _stage_tables(code, par1, par2, cs, cs_dt, A, B, times):
    """The drive terms of _rhs at an array of times, as nested lists.

    dv = r*v - v**3/3 - w + a + b, with the gain r = rho - AB*f(t) and the raw
    drive's two carrier terms a = A*omega1*cos(omega1*t) and
    b = B*omega2*cos(omega2*t). The raw drive has r = 1.0 and the envelope
    drives a = b = 0.0, which leave dv bit for bit as _rhs computes it.
    Returns (r, a, b), each times.tolist() in shape.
    """
    if code == DRIVE_RAW:
        return (np.ones_like(times).tolist(),
                (A * par1 * np.cos(par1 * times)).tolist(),
                (B * par2 * np.cos(par2 * times)).tolist())
    zeros = np.zeros_like(times).tolist()
    rho = 1.0 - A * A / 2.0 - B * B / 2.0
    AB = A * B
    if code == DRIVE_COSINE:
        return (rho - AB * np.cos(par1 * times)).tolist(), zeros, zeros
    if code == DRIVE_FROZEN:
        return np.full_like(times, rho - AB * par1).tolist(), zeros, zeros
    return (rho - AB * _sampled_envelope(cs, cs_dt, times)).tolist(), zeros, zeros


def _sampled_envelope(cs, cs_dt, times):
    """_envelope_value's sampled envelope at an array of times, bit for bit.

    Clamped to cs[0] where t/cs_dt <= 0 and to cs[-1] where it reaches the last
    sample, and interpolated linearly inside, with the scalar's operations:
    i = floor(x) equals int(x) for x > 0, and frac = x - i.
    """
    cs = np.asarray(cs, dtype=np.float64)
    last = len(cs) - 1
    x = times / cs_dt
    # indices clipped into range; the clamped entries are replaced below
    i = np.clip(np.floor(x), 0.0, max(last - 1, 0))
    frac = x - i
    i = i.astype(np.intp)
    inner = cs[i] * (1.0 - frac) + cs[np.minimum(i + 1, last)] * frac
    return np.where(x <= 0.0, cs[0], np.where(x >= last, cs[last], inner))


def rk4_trajectory(code, par1, par2, cs, cs_dt, A, B, beta, gamma, eps,
                   v0, w0, t0, t_final, dt, stride):
    """Fixed-step RK4 over [t0, t_final]; the last step is clipped to land exactly.

    Step i starts at t_i = t0 + i*dt and lasts h_i = min(dt, t_final - t_i),
    with its stages at t_i, t_i + h_i/2 and t_i + h_i; the last step ends on
    t_final itself. The drive comes from tables: for each block of
    _RK4_BLOCK (1024) steps, the stage times are numpy arrays and
    _stage_tables evaluates the gain r and the raw drive's two carrier terms
    at them, as lists; one RK4 body then steps through the lists on Python
    floats. Every stage time and drive term is computed with the operations
    and in the order of a per-stage _rhs call, and numpy's elementwise
    arithmetic and cos round as Python's float arithmetic and math.cos do,
    so the outputs are bit-identical to a loop calling _rhs four times a
    step (tests/test_kernel_parity.py checks this against such a loop). The
    end stage is at t_i + h_i, which can differ from t_{i+1} in the last bit.

    Returns (t, v, w, n_samples, ok): float64 arrays of the n_samples samples,
    the start and every stride-th step and the last. ok = 0 means the state
    went non-finite; the samples then end at the last finite state.
    """
    span = t_final - t0
    nst = int(math.ceil(span / dt - 1e-12)) if span > 0.0 else 0
    v = v0
    w = w0
    ts = [t0]
    vs = [v]
    ws = [w]
    ok = 1
    isfinite = math.isfinite
    for start in range(0, nst, _RK4_BLOCK):
        t = t0 + np.arange(start, min(start + _RK4_BLOCK, nst)) * dt
        hs = np.minimum(dt, t_final - t)
        r, a, b = _stage_tables(code, par1, par2, cs, cs_dt, A, B,
                                np.stack((t, t + hs / 2.0, t + hs)))
        i = start
        for h, r1, r2, r4, a1, a2, a4, b1, b2, b4 in zip(hs.tolist(), *r, *a, *b):
            k1v = r1 * v - v * v * v / 3.0 - w + a1 + b1
            k1w = eps * (v - gamma * w + beta)
            hh = h / 2.0
            av = v + hh * k1v
            aw = w + hh * k1w
            k2v = r2 * av - av * av * av / 3.0 - aw + a2 + b2
            k2w = eps * (av - gamma * aw + beta)
            av = v + hh * k2v
            aw = w + hh * k2w
            k3v = r2 * av - av * av * av / 3.0 - aw + a2 + b2
            k3w = eps * (av - gamma * aw + beta)
            av = v + h * k3v
            aw = w + h * k3w
            k4v = r4 * av - av * av * av / 3.0 - aw + a4 + b4
            k4w = eps * (av - gamma * aw + beta)
            h6 = h / 6.0
            v = v + h6 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
            w = w + h6 * (k1w + 2.0 * k2w + 2.0 * k3w + k4w)
            i += 1
            if not (isfinite(v) and isfinite(w)):
                ok = 0
                break
            if i % stride == 0 or i == nst:
                ts.append(t0 + i * dt if i < nst else t_final)
                vs.append(v)
                ws.append(w)
        if not ok:
            break
    return _arrays(ts, vs, ws) + (len(ts), ok)


def dp45_trajectory(code, par1, par2, cs, cs_dt, A, B, beta, gamma, eps,
                    v0, w0, t0, t_final, rel_tol, abs_tol, max_dt, stride):
    """Adaptive Dormand-Prince 5(4) over [t0, t_final], step capped at max_dt.

    The right-hand side at the end of an accepted step, (t + h, v5, w5), is
    the next step's first stage (first same as last), and a rejected step
    keeps its first stage, so an attempt makes six _rhs calls; each stage is
    evaluated at the arguments it would get anew.

    Returns (t, v, w, n_samples, ok) as rk4_trajectory does, sampling every
    stride-th accepted step and the last; ok is STEP_COLLAPSED when the step
    size fell below 1e-14.
    """
    t = t0
    v = v0
    w = w0
    ts = [t]
    vs = [v]
    ws = [w]
    ok = 1
    h = max_dt
    accepted = 0
    k1v, k1w = _rhs(code, par1, par2, cs, cs_dt, A, B, beta, gamma, eps, t, v, w)
    while t < t_final - 1e-12 * max(1.0, abs(t_final)):
        if h > max_dt:
            h = max_dt
        if h > t_final - t:
            h = t_final - t
        k2v, k2w = _rhs(code, par1, par2, cs, cs_dt, A, B, beta, gamma, eps,
                        t + h / 5.0, v + h * (k1v / 5.0), w + h * (k1w / 5.0))
        k3v, k3w = _rhs(code, par1, par2, cs, cs_dt, A, B, beta, gamma, eps,
                        t + 3.0 * h / 10.0,
                        v + h * (3.0 / 40.0 * k1v + 9.0 / 40.0 * k2v),
                        w + h * (3.0 / 40.0 * k1w + 9.0 / 40.0 * k2w))
        k4v, k4w = _rhs(code, par1, par2, cs, cs_dt, A, B, beta, gamma, eps,
                        t + 4.0 * h / 5.0,
                        v + h * (44.0 / 45.0 * k1v - 56.0 / 15.0 * k2v + 32.0 / 9.0 * k3v),
                        w + h * (44.0 / 45.0 * k1w - 56.0 / 15.0 * k2w + 32.0 / 9.0 * k3w))
        k5v, k5w = _rhs(code, par1, par2, cs, cs_dt, A, B, beta, gamma, eps,
                        t + 8.0 * h / 9.0,
                        v + h * (19372.0 / 6561.0 * k1v - 25360.0 / 2187.0 * k2v
                                 + 64448.0 / 6561.0 * k3v - 212.0 / 729.0 * k4v),
                        w + h * (19372.0 / 6561.0 * k1w - 25360.0 / 2187.0 * k2w
                                 + 64448.0 / 6561.0 * k3w - 212.0 / 729.0 * k4w))
        k6v, k6w = _rhs(code, par1, par2, cs, cs_dt, A, B, beta, gamma, eps,
                        t + h,
                        v + h * (9017.0 / 3168.0 * k1v - 355.0 / 33.0 * k2v
                                 + 46732.0 / 5247.0 * k3v + 49.0 / 176.0 * k4v
                                 - 5103.0 / 18656.0 * k5v),
                        w + h * (9017.0 / 3168.0 * k1w - 355.0 / 33.0 * k2w
                                 + 46732.0 / 5247.0 * k3w + 49.0 / 176.0 * k4w
                                 - 5103.0 / 18656.0 * k5w))
        v5 = v + h * (35.0 / 384.0 * k1v + 500.0 / 1113.0 * k3v + 125.0 / 192.0 * k4v
                      - 2187.0 / 6784.0 * k5v + 11.0 / 84.0 * k6v)
        w5 = w + h * (35.0 / 384.0 * k1w + 500.0 / 1113.0 * k3w + 125.0 / 192.0 * k4w
                      - 2187.0 / 6784.0 * k5w + 11.0 / 84.0 * k6w)
        k7v, k7w = _rhs(code, par1, par2, cs, cs_dt, A, B, beta, gamma, eps, t + h, v5, w5)
        errv = h * (71.0 / 57600.0 * k1v - 71.0 / 16695.0 * k3v + 71.0 / 1920.0 * k4v
                    - 17253.0 / 339200.0 * k5v + 22.0 / 525.0 * k6v - 1.0 / 40.0 * k7v)
        errw = h * (71.0 / 57600.0 * k1w - 71.0 / 16695.0 * k3w + 71.0 / 1920.0 * k4w
                    - 17253.0 / 339200.0 * k5w + 22.0 / 525.0 * k6w - 1.0 / 40.0 * k7w)
        scv = abs_tol + rel_tol * max(abs(v), abs(v5))
        scw = abs_tol + rel_tol * max(abs(w), abs(w5))
        try:
            errn = math.sqrt(((errv / scv) ** 2 + (errw / scw) ** 2) / 2.0)
        except OverflowError:  # ** overflows on a huge error
            errn = math.inf
        if errn <= 1.0:
            t = t + h
            v = v5
            w = w5
            k1v = k7v
            k1w = k7w
            if not (math.isfinite(v) and math.isfinite(w)):
                ok = 0
                break
            accepted += 1
            if accepted % stride == 0 or t >= t_final - 1e-12 * max(1.0, abs(t_final)):
                ts.append(t)
                vs.append(v)
                ws.append(w)
        if errn == 0.0:
            fac = 5.0
        else:
            fac = 0.9 * errn ** -0.2
            # an infinite or NaN error norm gives 0 or NaN here: shrink by 0.2
            if not fac >= 0.2:
                fac = 0.2
            elif fac > 5.0:
                fac = 5.0
        h = h * fac
        if h < 1e-14:
            ok = STEP_COLLAPSED
            break
    return _arrays(ts, vs, ws) + (len(ts), ok)


def cosine_cell_spikes(A, B, beta, gamma, eps, eta, v0, w0, t_final, dt, fire, arm):
    """One sweep cell, the scalar oracle of cosine_ensemble_spikes.

    rk4_trajectory under the cosine envelope of beat eta from t = 0, every step
    kept, then spike_scan over the samples: the detector starts armed, fires
    on v >= fire and re-arms once v < arm. Returns (count, ok).
    """
    _, vs, _, _, ok = rk4_trajectory(DRIVE_COSINE, eta, 0.0, (), 1.0, A, B, beta, gamma, eps,
                                     v0, w0, 0.0, t_final, dt, 1)
    return len(spike_scan(vs, fire, arm)), ok


# a block of cosine_ensemble_spikes stores the v of about this many
# (step, cell) pairs, and of at least _ENSEMBLE_MIN_STEPS steps, before it
# counts their spikes: the block's gain tables and stored values stay small
# at any horizon, and the count's per-block calls are spread over several
# steps even at the paper sweep's 19 680 cells
_ENSEMBLE_BLOCK = 16384
_ENSEMBLE_MIN_STEPS = 8


def _count_block(v, fire, arm, counts, armed):
    """Count the spikes of one block of stored ensemble v values, in place.

    v[j] holds every cell's v after step j of the block; counts and armed
    hold each cell's count and detector state before the block, and leave
    holding them after it. The detector fires on v >= fire when armed and
    re-arms on v < arm, and a NaN does neither; with arm <= fire no value
    does both, so a spike is a step that takes the detector from armed to
    disarmed. The comparisons run over the whole block at once; the
    detector state takes two calls per stored step.
    """
    up = v >= fire
    down = v < arm
    s = np.empty((len(v) + 1, len(armed)), dtype=bool)
    s[0] = armed
    lor, gt = np.logical_or, np.greater
    for before, after, down_j, up_j in zip(s, s[1:], down, up):
        # armed after step j: (armed before it or v < arm) and not v >= fire
        lor(before, down_j, out=after)
        gt(after, up_j, out=after)
    counts += np.count_nonzero(s[:-1] > s[1:], axis=0)
    armed[:] = s[-1]


def cosine_ensemble_spikes(A, B, beta, gamma, eps, eta, v0, w0, arm, t_final, dt, fire):
    """Many sweep cells at once: cosine_cell_spikes stepped in lockstep on arrays.

    The per-cell arguments A..arm broadcast to one shape; t_final, dt and fire
    are shared, so every cell takes the same steps, on rk4_trajectory's time
    rule. The state X and the stage state S are laid out [r*v | v | w | -beta]
    and the four stage arrays [kv | kw], n values a block, all allocated once
    per call; a stage's right-hand side is 8 ufunc calls on them, and the
    stage states, stage sums and final update take one call each on [v | w],
    so with the stored v row a step makes 45 numpy calls. The four stages are
    written out on views sliced once per call, and the scalar operands (3.0,
    2.0 and the step's h/2, h and h/6) are 0-d float64 arrays, made once per
    call and again for a clipped last step: numpy converts a Python float
    operand anew on every call, which at a few cells costs about as much as
    the arithmetic. A 0-d float64 operand runs the float64 loop the converted
    float runs, and every elementwise operation is the scalar kernel's, on
    its operands and in its order, so it rounds as the scalar kernel does.
    The v row of each block of steps is stored and counted after the block by
    _count_block, which carries the detector state into the next block, so
    the counts are those of a per-step update and equal cosine_cell_spikes'
    cell by cell. A non-finite RK4 state stays non-finite, so a cell whose
    final state is not finite is one where the scalar loop reports ok = 0
    (or, with no step to take, one that starts non-finite); its count is -1.
    Every arm must lie at or below fire. Returns the counts, an int64 array
    of the broadcast shape.
    """
    cells = np.broadcast_arrays(*(np.asarray(x, dtype=np.float64)
                                  for x in (A, B, beta, gamma, eps, eta, v0, w0, arm)))
    shape = cells[0].shape
    A, B, beta, gamma, eps, eta, v, w, arm = (c.ravel() for c in cells)
    if np.any(arm > fire):
        raise DomainError(f"arm levels must not exceed the fire level {fire}")
    n = v.size
    rho = 1.0 - A * A / 2.0 - B * B / 2.0
    AB = A * B
    counts = (v >= fire).astype(np.int64)
    armed = counts == 0
    nst = int(math.ceil(t_final / dt - 1e-12)) if n else 0
    block = max(_ENSEMBLE_MIN_STEPS, _ENSEMBLE_BLOCK // max(1, n))
    X = np.concatenate((v, v, w, -beta))
    S = X.copy()
    K = np.empty((4, 2 * n))
    stored = np.empty((min(block, nst), n))
    mul, add, sub, div, copyto = np.multiply, np.add, np.subtract, np.divide, np.copyto
    K1, K2, K3, K4 = K
    (K1v, K2v, K3v, K4v), (K1w, K2w, K3w, K4w) = K[:, :n], K[:, n:]
    K23 = K[1:3]
    Xr, Xv, Xw, Xvw, Xrv, Xwb = (X[:n], X[n:2 * n], X[2 * n:3 * n], X[n:3 * n],
                                 X[:2 * n], X[2 * n:])
    Sr, Sv, Sw, Svw, Srv, Swb = (S[:n], S[n:2 * n], S[2 * n:3 * n], S[n:3 * n],
                                 S[:2 * n], S[2 * n:])
    three, two = np.array(3.0), np.array(2.0)
    h_now = None
    # each stage: k = [r*v - v*v*v/3.0 - w | eps*(v - gamma*w + beta)] at the
    # state; k holds [v*v*v/3.0 | gamma*w] first, and x - (-beta) is x + beta
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, nst, block):
            t = np.arange(start, min(start + block, nst)) * dt
            hs = np.minimum(dt, t_final - t)
            r_start, r_mid, r_end = (rho - AB * np.cos(eta * ts[:, None])
                                     for ts in (t, t + hs / 2.0, t + hs))
            vs = stored[:len(t)]
            for h, r1, r2, r4, v_after in zip(hs.tolist(), r_start, r_mid, r_end, vs):
                if h != h_now:
                    h_now = h
                    hh, hv, h6 = np.array(h / 2.0), np.array(h), np.array(h / 6.0)
                mul(Xv, Xv, K1v)
                mul(K1v, Xv, K1v)
                div(K1v, three, K1v)
                mul(gamma, Xw, K1w)
                mul(r1, Xv, Xr)
                sub(Xrv, K1, K1)
                sub(K1, Xwb, K1)
                mul(eps, K1w, K1w)
                mul(K1, hh, Svw)
                add(Xvw, Svw, Svw)
                mul(Sv, Sv, K2v)
                mul(K2v, Sv, K2v)
                div(K2v, three, K2v)
                mul(gamma, Sw, K2w)
                mul(r2, Sv, Sr)
                sub(Srv, K2, K2)
                sub(K2, Swb, K2)
                mul(eps, K2w, K2w)
                mul(K2, hh, Svw)
                add(Xvw, Svw, Svw)
                mul(Sv, Sv, K3v)
                mul(K3v, Sv, K3v)
                div(K3v, three, K3v)
                mul(gamma, Sw, K3w)
                mul(r2, Sv, Sr)
                sub(Srv, K3, K3)
                sub(K3, Swb, K3)
                mul(eps, K3w, K3w)
                mul(K3, hv, Svw)
                add(Xvw, Svw, Svw)
                mul(Sv, Sv, K4v)
                mul(K4v, Sv, K4v)
                div(K4v, three, K4v)
                mul(gamma, Sw, K4w)
                mul(r4, Sv, Sr)
                sub(Srv, K4, K4)
                sub(K4, Swb, K4)
                mul(eps, K4w, K4w)
                # X + h/6*(((K1 + 2*K2) + 2*K3) + K4), as the scalar kernel sums
                mul(K23, two, K23)
                add(K1, K2, K1)
                add(K1, K3, K1)
                add(K1, K4, K1)
                mul(K1, h6, K1)
                add(Xvw, K1, Xvw)
                copyto(v_after, Xv)
            _count_block(vs, fire, arm, counts, armed)
    counts[~np.isfinite(Xvw.reshape(2, n)).all(axis=0)] = -1
    return counts.reshape(shape)


def spike_scan(v, fire, arm):
    """Hysteresis spike detection over a sampled v trace; returns sample indices.

    The detector starts armed, fires on v >= fire and re-arms once v < arm; a
    NaN sample does neither. One pass over v.tolist(), so every comparison
    is between Python floats. Returns an int64 array.
    """
    fire = float(fire)
    arm = float(arm)
    idx = []
    armed = True
    for i, x in enumerate(v.tolist()):
        if armed:
            if x >= fire:
                idx.append(i)
                armed = False
        elif x < arm:
            armed = True
    return np.array(idx, dtype=np.int64)


# a warm-started Newton root is tried for these 8 iterations, and counts as
# converged once its step falls below this size; convergence is quadratic
# there, so the root is then correct to rounding
_WARM = range(8)
_WARM_STEP_TOL = 1e-13
_NEG_INF = -math.inf
_cos = math.cos


def _failed_stage(v, w0, v0, rc0):
    # _transport_rk4's return for a stage whose root v failed its check:
    # -1 where v collapsed onto the origin, else 0 (the left branch was lost
    # at the fold, or v is not finite), with the step's start state
    return (-1 if abs(v) < _ORIGIN_TOL else 0), w0, v0, rc0


def _transport_rk4(rho, AB, beta, gamma, kappa, phi0, s, w, v, rc, h, tol_denom):
    """One RK4 step of dw/ds = v - gamma*w + beta from the root v at (s, w).

    rc is the gain at s. The three inner stages are one loop over (stage
    coefficient, gain, sum weight): each recovers its v as the leftmost root
    of its cubic t**3 + p*t + q, p = -3*gain, by Newton warm-started from the
    stage before. Newton's root is kept when it converges to a t < 0 with
    3*t**2 + p > 0, that is left of the local maximum at -sqrt(-p/3) (or
    anywhere if p >= 0): the cubic rises strictly there and has exactly one
    root, which is therefore the leftmost root. Otherwise, when it stalls,
    fails to converge or converges to another root, leftmost_cubic_root
    computes the root. The root at the step's end always comes from
    leftmost_cubic_root. Every stage's v and that root must pass one chained
    check: finite, at or below -_ORIGIN_TOL, and with gain - v**2 not above
    -tol_denom (a NaN gain or tolerance passes this last test). The stage
    slopes are summed as ((k1 + 2*k2) + 2*k3) + k4. Returns (status, w_new,
    v_new, rc_new): status 1 with the end state, its root and gain; or, at
    the first failing v, status -1 where |v| < _ORIGIN_TOL (origin collapse)
    and 0 otherwise (fold contact), with the start state.
    """
    if not (_NEG_INF < v <= -_ORIGIN_TOL and not rc - v * v > -tol_denom):
        return _failed_stage(v, w, v, rc)
    k = v - gamma * w + beta
    ksum = k
    t = v
    hh = h / 2.0
    rc_mid = rho - AB * _cos(phi0 + kappa * (s + hh))
    rc_end = rho - AB * _cos(phi0 + kappa * (s + h))
    for coef, gain, weight in ((hh, rc_mid, 2.0), (hh, rc_mid, 2.0), (h, rc_end, 1.0)):
        p = -3.0 * gain
        ws = w + coef * k
        q = 3.0 * ws
        # no converged step yet: -inf stays if fp == 0.0 stops the first iteration
        step = _NEG_INF
        for _ in _WARM:
            tt = t * t
            fp = 3.0 * tt + p
            if fp == 0.0:
                break
            step = ((tt + p) * t + q) / fp
            t -= step
            if -_WARM_STEP_TOL < step < _WARM_STEP_TOL:
                break
        if not (-_WARM_STEP_TOL < step < _WARM_STEP_TOL and t < 0.0
                and 3.0 * t * t + p > 0.0):
            t = leftmost_cubic_root(p, q)
        if not (_NEG_INF < t <= -_ORIGIN_TOL and not gain - t * t > -tol_denom):
            return _failed_stage(t, w, v, rc)
        k = t - gamma * ws + beta
        ksum += weight * k
    w_new = w + h / 6.0 * ksum
    v_new = leftmost_cubic_root(p, 3.0 * w_new)
    if not (_NEG_INF < v_new <= -_ORIGIN_TOL and not rc_end - v_new * v_new > -tol_denom):
        return _failed_stage(v_new, w, v, rc)
    return 1, w_new, v_new, rc_end


def transport_arc(A, B, beta, gamma, kappa, phi0, w0, horizon, ds, tol_denom, stride):
    """Transport a left-branch point along the moving nullcline family.

    Integrates dw/ds = v - gamma*w + beta for s in [0, horizon] by RK4 on a
    fixed grid of step ds, with v recovered from w on the left branch of the
    nullcline at envelope value cos(phi0 + kappa*s). Stops at the first of:
    fold contact (a stage's denominator within tol_denom, located by bisecting
    the step length), completion of a rising half-cycle at envelope value +1,
    origin collapse, or the horizon.

    Each step (_transport_rk4) makes four cubic roots in two Python-function
    calls: the step and the closed-form end root. The three inner stages are
    one loop, each stage's root by Newton warm-started from the stage before
    and written inline, kept only when certified as the leftmost root;
    otherwise leftmost_cubic_root computes it. The root at the step's end is
    always leftmost_cubic_root, so a step depends on (s, w) alone and arcs
    that meet on the grid stay together; it is reused as the next step's
    first stage and as the stored sample's v. Each stage's check is one
    chained comparison; tests/oracles.py keeps the stage-wise step as the
    reference the arcs are compared with bit for bit.

    Returns (s, v, w, c, term_code): float64 arrays of the samples (the
    start, every stride-th grid point, each leg boundary, where the envelope
    value is exactly +1 or -1, and the terminal point, which is the last
    sample), then the TERM_* code.
    """
    rho = 1.0 - A * A / 2.0 - B * B / 2.0
    AB = A * B
    s = 0.0
    w = w0
    rc = rho - AB * math.cos(phi0)
    v = leftmost_cubic_root(-3.0 * rc, 3.0 * w)
    # one (s, v, w, c) tuple per sample
    samples = [(0.0, v, w, math.cos(phi0))]
    nsteps = 0
    while s < horizon - 1e-13:
        theta = phi0 + kappa * s
        k = int(math.floor(theta / math.pi + 1e-9)) + 1
        s_leg = (k * math.pi - phi0) / kappa
        s_end = s_leg if s_leg < horizon else horizon
        while s < s_end - 1e-13:
            h = s_end - s
            if h > ds:
                h = ds
            st, w_try, v_try, rc_try = _transport_rk4(rho, AB, beta, gamma, kappa, phi0,
                                                      s, w, v, rc, h, tol_denom)
            if st != 1:
                # the longest step every stage survives, by bisection on its length
                lo = 0.0
                hi = h
                w_ev = w
                v_ev = v
                for _ in range(80):
                    mid = (lo + hi) / 2.0
                    stm, w_mid, v_mid, _ = _transport_rk4(rho, AB, beta, gamma, kappa, phi0,
                                                          s, w, v, rc, mid, tol_denom)
                    if stm == 1:
                        lo = mid
                        w_ev = w_mid
                        v_ev = v_mid
                    else:
                        hi = mid
                    if hi - lo < 1e-15:
                        break
                s_ev = s + lo
                samples.append((s_ev, v_ev, w_ev, math.cos(phi0 + kappa * s_ev)))
                return _arrays(*zip(*samples)) + (TERM_ORIGIN if st == -1 else TERM_FOLD,)
            s_step = s + h
            s = s_end if s_end - s_step < 1e-13 else s_step
            w = w_try
            if s == s_step:
                v = v_try
                rc = rc_try
            else:
                rc = rho - AB * math.cos(phi0 + kappa * s)
                v = leftmost_cubic_root(-3.0 * rc, 3.0 * w)
            nsteps += 1
            if nsteps % stride == 0:
                samples.append((s, v, w, math.cos(phi0 + kappa * s)))
        if s != s_end:
            s = s_end
            rc = rho - AB * math.cos(phi0 + kappa * s)
            v = leftmost_cubic_root(-3.0 * rc, 3.0 * w)
        if s_leg > horizon + 1e-13:
            break
        # landed on a leg boundary: envelope value is exactly +/-1 by parity
        c_b = 1.0 if k % 2 == 0 else -1.0
        samples.append((s, leftmost_cubic_root(-3.0 * (rho - AB * c_b), 3.0 * w), w, c_b))
        if c_b == 1.0:
            return _arrays(*zip(*samples)) + (TERM_TOP,)
        if abs(s - horizon) < 1e-13:
            return _arrays(*zip(*samples)) + (TERM_HORIZON,)
    samples.append((s, v, w, math.cos(phi0 + kappa * s)))
    return _arrays(*zip(*samples)) + (TERM_HORIZON,)
