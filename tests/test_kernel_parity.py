"""Kernel paths that must compute the same numbers: the closed-form cubic
root against bisection, the array cubic root against the scalar one, the
numpy ensemble cell counter against the scalar one, the arc-transport step,
whose stage loop runs the certified warm Newton inline, against a stage-wise
reference (off-root guesses included, and arcs from start to end), the
table-driven RK4 stepper against a stage-wise reference, the DP45 stepper
against a seven-stage one, and the spike scan against alternating
searches."""
import collections
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fhn_tis._kernels as fast
from fhn_tis.errors import DomainError

import oracles


def test_cubic_root_parity_and_correctness():
    rng = np.random.default_rng(71)
    cases = [(0.0, 0.0), (-3.0, 0.0), (-3.0, 2.0), (-3.0, -2.0), (1.0, 1.0)]
    cases += [(float(p), float(q))
              for p, q in rng.uniform(-5, 5, size=(500, 2))]
    for p, q in cases:
        a = fast.leftmost_cubic_root(p, q)
        assert abs(a ** 3 + p * a + q) < 1e-9
        assert a == pytest.approx(oracles.bisect_leftmost_root(p, q), abs=1e-8)


def test_cubic_root_of_underflowing_cubics():
    # p*m underflows to zero in the trigonometric branch: the roots of
    # t**3 + p*t are 0 and +-sqrt(-p), and with q = -p the leftmost root is
    # about -cbrt(q); bisection places the roots only to about 1e-16
    for p, q, root in ((-1e-300, 0.0, -1e-150), (-1e-320, 0.0, -math.sqrt(1e-320)),
                       (-1e-320, 1e-320, -1e-320 ** (1.0 / 3.0))):
        t = fast.leftmost_cubic_root(p, q)
        assert t == pytest.approx(root, rel=1e-12)
        assert t == pytest.approx(oracles.bisect_leftmost_root(p, q), abs=1e-15)


def test_cubic_roots_are_quiet_where_the_closed_form_is_nan():
    # the Cardano branch sums cube roots of inf and -inf at (inf, 1) and of
    # NaN and -inf at (-3, inf); the sum is NaN, with no numpy warning
    inf = math.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert math.isnan(fast.leftmost_cubic_root(-3.0, inf))
        assert math.isnan(fast.leftmost_cubic_root(inf, 1.0))
        assert np.isnan(fast.leftmost_cubic_roots(np.array([inf, -3.0]), inf)).all()
        assert np.isnan(fast.leftmost_cubic_roots(np.array([inf]), 1.0)).all()


def _root_bits(p, q):
    got = fast.leftmost_cubic_roots(p, q)
    assert got.shape == np.shape(p) and got.dtype == np.float64
    return got.view(np.int64).tolist()


def _scalar_root_bits(p, q):
    return np.array([fast.leftmost_cubic_root(x, q) for x in np.ravel(p).tolist()]
                    ).reshape(np.shape(p)).view(np.int64).tolist()


def test_array_cubic_roots_match_scalar_roots():
    # one q per call: arrays that mix the Cardano branch (one real root) with
    # the trigonometric one (three, from p < -3*(q/2)**(2/3)), double roots
    # and the triple root at the origin, and p that are NaN, infinite or zero
    rng = np.random.default_rng(131)
    inf, nan = math.inf, math.nan
    special = np.array([nan, inf, -inf, 0.0, -0.0, -3.0, -1e-300, 1e-3])
    for q in (0.0, -0.0, 2.0, -2.0, 0.75, -1e-3, 4.8):
        edge = -3.0 * (abs(q) / 2.0) ** (2.0 / 3.0)
        mixed = edge + rng.uniform(-3.0, 3.0, 4000)
        assert (mixed < edge).any() and (mixed > edge).any()
        for p in (mixed, np.concatenate((special, mixed[:50])), special,
                  mixed[:24].reshape(2, 3, 4), np.array([edge]), np.empty(0)):
            assert _root_bits(p, q) == _scalar_root_bits(p, q), q
    # the double root of t**3 - 3*t + 2 and the triple root at the origin
    assert _root_bits(np.array([-3.0, 0.0]), 2.0) == _scalar_root_bits([-3.0, 0.0], 2.0)
    assert _root_bits(np.array([0.0]), 0.0) == [0]


def _newton_outcome(p, q, t0):
    # where the warm Newton of a transport stage goes from the guess t0:
    # kept (certified as the leftmost root), or to the middle or right root
    certified, t = oracles.newton_leftmost(p, q, t0)
    if certified:
        return "kept"
    if not math.isfinite(t):
        return "none"
    return "right" if t * t > -p / 3.0 else "middle"


def test_transport_step_matches_reference_from_off_root_guesses():
    # the step's input v is only the first stage's root and the second
    # stage's Newton guess, so an off-root v on either side of the second
    # stage's local maximum at -sqrt(gain) sends Newton to the middle root,
    # to the right one, or to the leftmost one, which is kept; with a NaN
    # tolerance the first check passes right of the fold as well. The step
    # must give the reference's result bit for bit in every case
    outcomes = collections.Counter()

    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(rho=st.floats(0.4, 1.5), AB=st.floats(0.0, 0.3), phi0=st.floats(0.0, 6.3),
           kappa=st.floats(0.1, 5.0), h=st.sampled_from((5e-4, 2e-3, 1e-2)),
           fw=st.floats(-0.95, 0.95), offset=st.floats(-0.8, 0.8),
           tol=st.sampled_from((1e-6, math.nan)))
    def check(rho, AB, phi0, kappa, h, fw, offset, tol):
        beta, gamma, s = 0.7, 0.6, 0.4
        rc = rho - AB * math.cos(phi0 + kappa * s)
        # w is within the band where the cubic has three roots, and the guess
        # v is off the root on either side of the local maximum
        w = fw * (2.0 / 3.0) * rc ** 1.5
        v = -math.sqrt(rc) * (1.0 + offset)
        args = (rho, AB, beta, gamma, kappa, phi0, s, w, v, rc, h, tol)
        got = fast._transport_rk4(*args)
        assert repr(got) == repr(oracles.reference_transport_rk4(*args))
        if oracles.stage_status(rc, v, tol) == 1:
            rc_mid = rho - AB * math.cos(phi0 + kappa * (s + h / 2.0))
            q = 3.0 * (w + h / 2.0 * (v - gamma * w + beta))
            outcomes[_newton_outcome(-3.0 * rc_mid, q, v)] += 1

    check()
    assert min(outcomes[k] for k in ("kept", "middle", "right")) >= 20, outcomes


def test_transport_step_replaces_other_roots_by_the_closed_form(monkeypatch):
    # t**3 - 3*t has roots -sqrt(3), 0 and sqrt(3), and with A = B = 0 and
    # w = 0 every stage solves it: Newton from -0.1 converges to the middle
    # root and from -0.9 to the right one, so the closed form replaces the
    # second stage's root; from -1.7 Newton's root is kept and the closed form
    # gives only the end root. A NaN tolerance lets the first two guesses,
    # right of the local maximum, pass the first stage's check
    closed = []
    closed_form = fast.leftmost_cubic_root

    def counted(p, q):
        closed.append((p, q))
        return closed_form(p, q)

    # the reference step calls the closed form it imported, not the counted one
    monkeypatch.setattr(fast, "leftmost_cubic_root", counted)
    for guess, outcome, calls in ((-0.1, "middle", 2), (-0.9, "right", 2), (-1.7, "kept", 1)):
        assert _newton_outcome(-3.0, 0.0, guess) == outcome
        args = (1.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0, guess, 1.0, 1e-3, math.nan)
        closed.clear()
        got = fast._transport_rk4(*args)
        assert len(closed) == calls and closed[0][0] == -3.0, guess
        assert repr(got) == repr(oracles.reference_transport_rk4(*args))
        assert got[0] == 1


def _arc_bits(arc):
    s, v, w, c, code = arc
    assert len(s) == len(v) == len(w) == len(c)
    return [a.view(np.int64).tolist() for a in (s, v, w, c)], code


def _seeded_arcs(seed, n):
    # transport_arc arguments: parameters from the analysis box, a start on
    # the left branch from just off the fold to well inside it at a phase
    # drawn from [0, 2*pi) (never a leg boundary), and a horizon of at most
    # 1500 steps, so arcs end at the fold, at the envelope top and at the
    # horizon, many after crossing a leg boundary at envelope value -1
    rng = np.random.default_rng(seed)
    arcs = []
    while len(arcs) < n:
        A, B, beta, gamma, kappa, phi0 = (float(x) for x in rng.uniform(
            (0.05, 0.05, 0.1, 0.2, 0.3, 0.0), (0.7, 0.7, 1.5, 2.0, 5.0, 2.0 * math.pi)))
        r0 = 1.0 - A * A / 2.0 - B * B / 2.0 - A * B * math.cos(phi0)
        if r0 <= 0.05:
            continue
        v0 = -math.sqrt(r0) * (1.0 + float(rng.uniform(0.02, 1.0)) ** 2)
        ds = float(rng.choice((5e-4, 2e-3, 1e-2)))
        horizon = float(rng.uniform(0.1, 1.0)) * 1500 * ds
        arcs.append((A, B, beta, gamma, kappa, phi0, r0 * v0 - v0 ** 3 / 3.0,
                     horizon, ds, 1e-6, int(rng.integers(1, 12))))
    return arcs


def test_transport_arc_matches_stagewise_reference(monkeypatch):
    # the step's stage loop (chained stage checks, the warm Newton inline) must
    # give every arc of the stage-wise reference step bit for bit: samples,
    # bisected fold landings and terminal codes
    arcs = _seeded_arcs(113, 360)
    got = [fast.transport_arc(*a) for a in arcs]
    monkeypatch.setattr(fast, "_transport_rk4", oracles.reference_transport_rk4)
    for a, arc in zip(arcs, got):
        assert _arc_bits(arc) == _arc_bits(fast.transport_arc(*a)), a
    codes = [arc[4] for arc in got]
    for term in (fast.TERM_FOLD, fast.TERM_TOP, fast.TERM_HORIZON):
        assert codes.count(term) >= 50, (term, codes.count(term))
    assert {a[8] for a in arcs} == {5e-4, 2e-3, 1e-2}
    assert {a[10] for a in arcs} == set(range(1, 12))
    # arcs that step on past a leg boundary, sampled at envelope value -1
    assert sum(-1.0 in arc[3][1:-1] for arc in got) >= 50


def test_transport_step_statuses_match_reference():
    # the failing status is worked out only when a check fails: -1 where the
    # root collapsed onto the origin, 0 for a lost branch or a non-finite
    # root; a NaN gain or tolerance passes the gain test, as in the reference
    inf, nan = math.inf, math.nan
    roots = (-inf, -2.0, -1e-9, -5e-10, -0.0, 0.0, 5e-10, 1e-3, 2.0, inf, nan)
    for v in roots:
        for rc in (0.5, -0.5, 3.99, nan):
            for tol in (1e-6, nan):
                args = (0.91, 0.09, 0.8, 0.5, 0.7, 0.3, 0.2, 1.3, v, rc, 1e-3, tol)
                got = fast._transport_rk4(*args)
                ref = oracles.reference_transport_rk4(*args)
                assert repr(got) == repr(ref), (v, rc, tol)
    assert fast._transport_rk4(0.91, 0.09, 0.8, 0.5, 0.7, 0.3, 0.2, 1.3, -5e-10,
                               0.5, 1e-3, 1e-6)[0] == -1


def test_ensemble_matches_scalar_cell_kernel():
    # the lockstep ensemble must give the scalar kernel's counts exactly, cell
    # by cell, and -1 where the scalar kernel's ok flag is 0
    rng = np.random.default_rng(79)
    n = 40
    A, B = rng.uniform(0.1, 0.6, (2, n))
    beta = rng.uniform(0.5, 0.9, n)
    gamma = rng.uniform(0.3, 0.8, n)
    eps = rng.uniform(0.01, 0.2, n)
    eta = eps * rng.uniform(0.5, 4.0, n)
    v0 = rng.uniform(-2.0, 2.0, n)
    w0 = rng.uniform(-2.0, 2.0, n)
    arm = rng.uniform(-0.6, -0.3, n)
    v0[0] = 0.5                 # starts above the fire level: the count starts at 1
    v0[1] = 40.0                # diverges under a coarse step
    v0[2], w0[2] = -3.0, 1e18   # armed when v overflows to +inf: no spike there
    diverged = set()
    # the second horizon is no multiple of dt, so the last step is clipped
    for t_final, dt in ((60.0, 0.01), (37.123, 0.05), (20.0, 0.5)):
        counts = fast.cosine_ensemble_spikes(A, B, beta, gamma, eps, eta,
                                             v0, w0, arm, t_final, dt, 0.0)
        ref = [fast.cosine_cell_spikes(
                   *(float(x[i]) for x in (A, B, beta, gamma, eps, eta, v0, w0)),
                   t_final, dt, 0.0, float(arm[i])) for i in range(n)]
        assert counts.tolist() == [c if ok else -1 for c, ok in ref]
        assert counts[0] >= 1
        diverged |= set(np.flatnonzero(counts < 0).tolist())
    assert {1, 2} <= diverged


def test_ensemble_remakes_step_constants_for_each_step_length():
    # 18 cells, the experiments benchmark's grid size, over t_final = 10 + dt/3:
    # the last step lasts a third of dt, so its h/2, h and h/6 are made anew;
    # the second call's dt is below the first call's last step, so constants
    # kept from the first call would also show. Cell 0 is on its first
    # upstroke at the end, and the fire level sits a quarter of the way from
    # its final v to the v after one more full step: a last step of full
    # length, or a first step of the previous call's length, carries it past
    # the fire level and adds a spike
    A, B, beta, gamma, eps, eta = 0.3, 0.3, 0.8, 0.5, 0.1, 0.02
    rng = np.random.default_rng(227)
    v0 = rng.uniform(-2.0, 2.0, 18)
    w0 = rng.uniform(-1.5, 0.5, 18)
    v0[0], w0[0] = -1.7, -0.6
    for dt in (0.01, 0.002):
        t_final = 10.0 + dt / 3.0

        def v_samples(t_end):
            return fast.rk4_trajectory(fast.DRIVE_COSINE, eta, 0.0, (), 1.0, A, B, beta,
                                       gamma, eps, v0[0], w0[0], 0.0, t_end, dt, 1)[1]

        v = v_samples(t_final)
        gap = v_samples(10.0 + dt)[-1] - v[-1]
        assert gap > 0.0 and v[:-1].max() < v[-1]
        fire = float(v[-1] + gap / 4.0)
        arm = np.full(18, fire - 1.0)
        counts = fast.cosine_ensemble_spikes(A, B, beta, gamma, eps, eta, v0, w0, arm,
                                             t_final, dt, fire)
        ref = [fast.cosine_cell_spikes(A, B, beta, gamma, eps, eta, float(v0[i]),
                                       float(w0[i]), t_final, dt, fire, fire - 1.0)
               for i in range(18)]
        assert counts.tolist() == [c if ok else -1 for c, ok in ref]
        assert counts[0] == 0 and counts.max() >= 1


def test_ensemble_step_makes_45_numpy_calls(monkeypatch):
    # at a few cells a step costs what its numpy calls cost; the kernel binds
    # these five functions at call time, so counting wrappers see every call.
    # Per-call and per-block calls cancel in the difference of two runs that
    # take one block each
    calls = []
    for name in ("multiply", "add", "subtract", "divide", "copyto"):
        def counted(*args, _f=getattr(np, name), **kwargs):
            calls.append(1)
            return _f(*args, **kwargs)
        monkeypatch.setattr(np, name, counted)

    def run(steps):
        calls.clear()
        fast.cosine_ensemble_spikes(0.3, 0.3, 0.8, 0.5, 0.1, 0.02, np.linspace(-2.0, 2.0, 18),
                                    -0.6, -0.5, steps * 0.25, 0.25, 0.0)
        return len(calls)

    k = 64
    assert 2 * k * 18 <= fast._ENSEMBLE_BLOCK
    assert (run(2 * k) - run(k)) / k == 45


@pytest.mark.parametrize("block", [1, 7])
def test_ensemble_counts_across_block_boundaries(monkeypatch, block):
    # the ensemble counts each block of stored steps at once, carrying the
    # detector state from block to block; with blocks of 1 and 7 steps, the
    # cells below put their events on block boundaries
    monkeypatch.setattr(fast, "_ENSEMBLE_BLOCK", 1)
    monkeypatch.setattr(fast, "_ENSEMBLE_MIN_STEPS", block)
    A, B, beta, gamma, eps, eta = 0.3, 0.3, 0.8, 0.5, 0.1, 0.2
    # from (-2, -1) at dt = 0.25, v peaks first at sample 21, the state after
    # step 20, the last of a 7-step block: with the fire and arm levels at
    # that peak, the cell fires there and re-arms on the next block's first
    # step
    v = fast.rk4_trajectory(fast.DRIVE_COSINE, eta, 0.0, (), 1.0, A, B, beta, gamma, eps,
                            -2.0, -1.0, 0.0, 6.0, 0.25, 1)[1]
    peak = float(v[21])
    assert v[:21].max() < peak and v[22] < peak
    # (fire, dt, [(v0, w0, arm)]): the start (-1, -10) at dt = 0.5 fires on
    # its first step and goes non-finite on its fourth, inside a 7-step block;
    # (-3, 1e18) is armed when v overflows to +inf on its first step; the
    # second start of each case lies above the fire level
    cases = [(peak, 0.25, [(-2.0, -1.0, peak), (2.5, 0.0, 1.0), (-3.0, 1e18, 1.0)]),
             (0.0, 0.5, [(-1.0, -10.0, -0.5), (0.5, 0.0, -0.5), (-3.0, 1e18, -0.5)])]
    rng = np.random.default_rng(103)
    for fire, dt, special in cases:
        starts = np.vstack((special, rng.uniform((-2.0, -1.5, fire - 1.0),
                                                 (2.0, 1.5, fire), (12, 3))))
        v0, w0, arm = starts.T
        counts = fast.cosine_ensemble_spikes(A, B, beta, gamma, eps, eta,
                                             v0, w0, arm, 30.0, dt, fire)
        ref = [fast.cosine_cell_spikes(A, B, beta, gamma, eps, eta, float(v0[i]),
                                       float(w0[i]), 30.0, dt, fire, float(arm[i]))
               for i in range(len(starts))]
        assert counts.tolist() == [c if ok else -1 for c, ok in ref]
        assert counts[1] >= 1 and ref[2] == (0, 0) and counts[2] == -1
    # the start (-1, -10) fires once before going non-finite; the ensemble
    # reads the cell as diverged all the same
    assert ref[0] == (1, 0) and counts[0] == -1


def test_ensemble_counts_do_not_depend_on_grouping():
    # the ensemble's buffers and its block length are sized by the cell
    # count; per-cell beta, gamma and eps differ, so a block of the state
    # buffer read at the wrong offset changes some count, and the horizon is
    # no multiple of dt, so the last step is clipped
    rng = np.random.default_rng(211)
    n = 40
    cells = np.vstack((rng.uniform(0.1, 0.6, (2, n)), rng.uniform(0.5, 0.9, n),
                       rng.uniform(0.3, 0.8, n), rng.uniform(0.01, 0.2, n),
                       rng.uniform(0.005, 0.4, n), rng.uniform(-2.0, 2.0, (2, n)),
                       rng.uniform(-0.6, -0.3, n)))

    def run(part):
        return fast.cosine_ensemble_spikes(*cells[:, part], 37.123, 0.05, 0.0)

    counts = run(slice(None))
    assert counts.min() >= 0 and counts.max() > counts.min()
    for parts in ([slice(i, i + 1) for i in range(n)],
                  [slice(0, 1), slice(1, 19), slice(19, n)]):
        groups = [run(part) for part in parts]
        assert np.concatenate(groups).tolist() == counts.tolist()
    counts = run(slice(0, 0))
    assert counts.shape == (0,) and counts.dtype == np.int64


def test_count_block_counts_hysteresis_only():
    # v[j] holds every cell's v after step j; fire = 0, arm = -0.5. Cell 0
    # fires twice in the block; cell 1 enters disarmed, and -0.2 lies above
    # the arm level, so it re-arms only on its last step; a NaN neither fires
    # nor re-arms (cells 2 and 3), while +inf fires and -inf re-arms (cell 3)
    nan, inf = math.nan, math.inf
    v = np.array([[-1.0, 1.0, nan, inf], [1.0, -0.2, 1.0, nan],
                  [-1.0, 1.0, nan, -inf], [1.0, -1.0, -1.0, 0.0]])
    counts = np.array([3, 0, 0, 5])
    armed = np.array([True, False, True, True])
    fast._count_block(v, 0.0, -0.5, counts, armed)
    assert counts.tolist() == [5, 0, 1, 7]
    assert armed.tolist() == [False, True, True, False]


def test_ensemble_rejects_arm_above_fire():
    with pytest.raises(DomainError, match="arm"):
        fast.cosine_ensemble_spikes(0.3, 0.3, 0.8, 0.5, 0.1, 0.2, 0.0, 0.0,
                                    [-0.5, 0.1], 1.0, 0.01, 0.0)


def _rk4_bits(out):
    # the whole returned arrays, which hold exactly the n samples
    t, v, w, n, ok = out
    assert len(t) == len(v) == len(w) == n
    return [a.view(np.int64).tolist() for a in (t, v, w)], n, ok


def test_rk4_trajectory_matches_stagewise_reference():
    # the stage tables must give, bit for bit, the samples of a loop that
    # evaluates the right-hand side at every stage
    rng = np.random.default_rng(83)
    values = rng.uniform(-1.0, 1.0, 9).tolist()
    # (kind, code, par1, par2, cs, cs_dt, reference args)
    drives = [("frozen", fast.DRIVE_FROZEN, 0.4, 0.0, (), 1.0, (0.4,)),
              ("cosine", fast.DRIVE_COSINE, 0.07, 0.0, (), 1.0, (0.07,)),
              ("raw", fast.DRIVE_RAW, 6.0, 6.07, (), 1.0, (6.0, 6.07)),
              # samples cover [0, 4]: every run below also steps where the
              # envelope clamps to the first or last value
              ("custom", fast.DRIVE_CUSTOM, 0.0, 0.0, values, 0.5, (values, 0.5)),
              # one sample: the envelope is that value at every time
              ("custom", fast.DRIVE_CUSTOM, 0.0, 0.0, [0.3], 0.5, ([0.3], 0.5))]
    # (v0, w0, t0, t_final, dt, stride); the last step of the second and the
    # third run is clipped, and the third run takes 3 blocks of steps, so its
    # clipped step is the last of a block; every stage time of the fourth run
    # is a multiple of 1/16, so the sampled envelopes are read at t = 0, at
    # t <= 0, exactly on samples (the last one included) and past the end
    steps = 3 * fast._RK4_BLOCK
    runs = [(-1.0, -0.5, 0.0, 9.0, 0.01, 1),
            (0.7, 0.2, -1.3, 5.123, 0.013, 3),
            (1.9, -1.1, 2.5, 2.5 + (steps - 0.5) * 0.01, 0.01, 7),
            (0.3, -0.4, -0.5, 5.0, 0.125, 2)]
    assert math.ceil((runs[2][3] - 2.5) / 0.01 - 1e-12) == steps
    for kind, code, par1, par2, cs, cs_dt, args in drives:
        A, B, beta, gamma, eps = (float(x) for x in rng.uniform((0.1, 0.1, 0.5, 0.3, 0.02),
                                                                 (0.6, 0.6, 0.9, 0.8, 0.2)))
        for v0, w0, t0, t_final, dt, stride in runs:
            got = fast.rk4_trajectory(code, par1, par2, cs, cs_dt, A, B, beta, gamma, eps,
                                      v0, w0, t0, t_final, dt, stride)
            ref = oracles.reference_rk4(kind, args, A, B, beta, gamma, eps,
                                        v0, w0, t0, t_final, dt, stride)
            assert _rk4_bits(got) == _rk4_bits(ref), (kind, cs, t0, t_final, stride)
            assert got[0][-1] == t_final
    # a diverging start stops both at the same sample with ok = 0
    for kind, code, par1, par2, cs, cs_dt, args in drives:
        got = fast.rk4_trajectory(code, par1, par2, cs, cs_dt, 0.3, 0.3, 0.8, 0.5, 0.1,
                                  40.0, 0.0, 0.0, 20.0, 0.5, 1)
        ref = oracles.reference_rk4(kind, args, 0.3, 0.3, 0.8, 0.5, 0.1,
                                    40.0, 0.0, 0.0, 20.0, 0.5, 1)
        assert got[4] == 0
        assert _rk4_bits(got) == _rk4_bits(ref), (kind, cs)


def test_dp45_trajectory_matches_seven_stage_reference(monkeypatch):
    # reusing the last stage of an accepted step as the next first stage must
    # leave every sample as a loop that evaluates all seven stages gives it
    rng = np.random.default_rng(101)
    values = rng.uniform(-1.0, 1.0, 9).tolist()
    drives = {"frozen": (fast.DRIVE_FROZEN, 0.4, 0.0, (), 1.0, (0.4,)),
              "cosine": (fast.DRIVE_COSINE, 0.07, 0.0, (), 1.0, (0.07,)),
              "raw": (fast.DRIVE_RAW, 6.0, 6.07, (), 1.0, (6.0, 6.07)),
              "custom": (fast.DRIVE_CUSTOM, 0.0, 0.0, values, 0.5, (values, 0.5))}
    # (v0, w0, t0, t_final, rel_tol, abs_tol, max_dt, stride); the last start
    # overflows every trial step's error norm until the step collapses
    runs = [(-1.0, -0.5, 0.0, 9.0, 1e-6, 1e-9, 0.5, 1),
            (0.7, 0.2, -1.3, 5.123, 1e-8, 1e-10, 0.2, 3),
            (1e150, 0.0, 0.0, 10.0, 1e-6, 1e-9, 0.5, 1)]
    for name, (code, par1, par2, cs, cs_dt, args) in drives.items():
        A, B, beta, gamma, eps = (float(x) for x in rng.uniform((0.1, 0.1, 0.5, 0.3, 0.02),
                                                                 (0.6, 0.6, 0.9, 0.8, 0.2)))
        for run in runs:
            got = fast.dp45_trajectory(code, par1, par2, cs, cs_dt, A, B, beta, gamma, eps,
                                       *run)
            ref = oracles.reference_dp45(name, args, A, B, beta, gamma, eps, *run)
            assert _rk4_bits(got) == _rk4_bits(ref), (name, run)
        assert got[4] == fast.STEP_COLLAPSED
    # a raw-drive run that rejects steps, sampled at every accepted step
    times = []
    rhs = fast._rhs

    def counted(*a):
        times.append(a[-3])
        return rhs(*a)

    monkeypatch.setattr(fast, "_rhs", counted)
    run = (0.7, 0.2, 0.0, 10.0, 1e-6, 1e-9, 0.5, 1)
    got = fast.dp45_trajectory(fast.DRIVE_RAW, 6.0, 6.07, (), 1.0, 0.3, 0.4, 0.8, 0.5, 0.1,
                               *run)
    ref = oracles.reference_dp45("raw", (6.0, 6.07), 0.3, 0.4, 0.8, 0.5, 0.1, *run)
    assert _rk4_bits(got) == _rk4_bits(ref)
    # the sixth and seventh stages of an attempt share the time t + h, and no
    # other two calls in a row do: one right-hand side before the first
    # attempt, then six per attempt, more attempts than accepted steps
    attempts = sum(a == b for a, b in zip(times, times[1:]))
    assert len(times) == 1 + 6 * attempts
    assert got[4] == 1 and attempts > got[3] - 1


def test_spike_scan_matches_alternating_searches():
    rng = np.random.default_rng(89)
    fire, arm = 0.0, -0.5
    traces = [np.cumsum(rng.normal(0.0, 0.4, n)) % 3.0 - 2.0 for n in (0, 1, 50, 4000)]
    # starts at the fire level; samples exactly at the fire and arm levels;
    # a NaN sample while armed and while disarmed
    traces.append(np.array([0.0, 0.5, -0.5, 0.0, -0.6, 0.0, 1.0, -0.7]))
    traces.append(np.array([0.3, 0.1, -0.5, -0.5, -0.50001, math.nan, 0.0, math.nan,
                            -1.0, 0.0]))
    traces.append(rng.choice([fire, arm, -1.0, 1.0, math.nan], 500))
    for v in traces:
        idx = fast.spike_scan(v, fire, arm)
        assert idx.dtype == np.int64
        assert idx.tolist() == oracles.hysteresis_indices(v, fire, arm)
    # a sample at the arm level does not re-arm: 3 is no spike
    assert fast.spike_scan(traces[4], fire, arm).tolist() == [0, 5]
