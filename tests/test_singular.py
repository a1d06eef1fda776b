import math

import numpy as np
import pytest

import fhn_tis as ft
from fhn_tis import singular
from fhn_tis.errors import (BandEdgeError, DomainError, InvalidStartError,
                            NearFoldError, RegionPreconditionError,
                            UndefinedCoordinateError)
from fhn_tis.singular import CubicPoint

import oracles


def std(A=0.3, B=0.3, beta=0.8, gamma=0.5, epsilon=0.1):
    return ft.Params(A=A, B=B, beta=beta, gamma=gamma, epsilon=epsilon)


def on_cubic(p, c, v):
    r = ft.effective_gain(p, c)
    return CubicPoint(v=v, w=r * v - v ** 3 / 3.0, c=c)


def test_envelope_coordinate_round_trip():
    rng = np.random.default_rng(53)
    p = std()
    for _ in range(500):
        c = float(rng.uniform(-1, 1))
        v = float(rng.uniform(0.2, 3.0) * rng.choice([-1.0, 1.0]))
        pt = on_cubic(p, c, v)
        coord = ft.envelope_coordinate(p, pt.v, pt.w)
        assert abs(coord.c - c) < 1e-9
        assert coord.in_band


def test_envelope_coordinate_special_points():
    p = std()
    for c in (-1.0, -0.4, 0.9):
        f = ft.fold_point(p, c)
        assert abs(ft.envelope_coordinate(p, f.v_m, f.w_m).c - c) < 1e-12
        eq = ft.equilibrium(p, c)
        assert abs(ft.envelope_coordinate(p, eq.v_e, eq.w_e).c - c) < 1e-9


def test_envelope_coordinate_errors_and_band_flag():
    p = std()
    with pytest.raises(UndefinedCoordinateError):
        ft.envelope_coordinate(p, 0.0, 0.5)
    # far off every admissible cubic
    coord = ft.envelope_coordinate(p, -1.0, 5.0)
    assert not coord.in_band


def test_fields_signs_on_slow_nullcline():
    # on the w-nullcline the slow drift vanishes, leaving only the cross term,
    # whose sign is fixed by the half-cycle
    p = std()
    v = ft.equilibrium(p, 0.0).v_e
    w = (v + p.beta) / p.gamma
    c = ft.envelope_coordinate(p, v, w).c
    assert abs(c) < 1.0
    dv_up, dw_up = ft.rising_field(p, 2.0, v, w)
    dv_dn, dw_dn = ft.falling_field(p, 2.0, v, w)
    assert abs(dw_up) < 1e-12 and abs(dw_dn) < 1e-12
    # cross term kappa*A*B*v*sqrt(1-c^2) is negative on the left branch and the
    # denominator is negative there too
    assert dv_up > 0.0
    assert dv_dn < 0.0


def test_fields_share_slow_component():
    rng = np.random.default_rng(59)
    p = std()
    for _ in range(100):
        c = float(rng.uniform(-0.95, 0.95))
        r = ft.effective_gain(p, c)
        v = float(-math.sqrt(r) - rng.uniform(0.05, 1.0))
        pt = on_cubic(p, c, v)
        dv_up, dw_up = ft.rising_field(p, 1.7, pt.v, pt.w)
        dv_dn, dw_dn = ft.falling_field(p, 1.7, pt.v, pt.w)
        assert dw_up == dw_dn
        assert dw_up == pytest.approx(v - p.gamma * pt.w + p.beta, abs=1e-12)
        # below the slow nullcline w must grow
        if pt.w < (v + p.beta) / p.gamma:
            assert dw_up > 0.0


def test_fields_coincide_at_band_edges():
    p = std()
    pt = on_cubic(p, -1.0, -1.4)
    dv_up, _ = ft.rising_field(p, 3.0, pt.v, pt.w)
    dv_dn, _ = ft.falling_field(p, 3.0, pt.v, pt.w)
    assert dv_up == pytest.approx(dv_dn, abs=1e-6)


def test_fields_near_fold_error_carries_location():
    p = std()
    c = -0.5
    f = ft.fold_point(p, c)
    pt = on_cubic(p, c, f.v_m - 1e-7)
    with pytest.raises(NearFoldError) as exc:
        ft.rising_field(p, 2.0, pt.v, pt.w)
    err = exc.value
    assert err.v == pytest.approx(pt.v)
    assert err.c == pytest.approx(c, abs=1e-6)


def test_fields_reject_points_off_every_cubic():
    p = std()
    with pytest.raises(DomainError):
        ft.rising_field(p, 2.0, -1.0, 5.0)


def test_rising_direction_near_fold_matches_escape_verdict():
    # just left of the fold the rising field points toward the fold exactly
    # when the escape inequality holds there
    p = std()
    for kappa in (0.5, 1.0, 2.0, 3.0):
        for c in (-0.8, -0.5, -0.2, 0.0, 0.3):
            f = ft.fold_point(p, c)
            pt = on_cubic(p, c, f.v_m - 1e-4)
            dv, _ = ft.rising_field(p, kappa, pt.v, pt.w)
            assert (dv > 0.0) == ft.escaping_at_c(p, kappa, c)


def test_escaping_at_c_argument_checks():
    p = std()
    with pytest.raises(BandEdgeError):
        ft.escaping_at_c(p, 2.0, 1.0)
    with pytest.raises(BandEdgeError):
        ft.escaping_at_c(p, 2.0, -1.0)
    with pytest.raises(DomainError):
        ft.escaping_at_c(p, 2.0, 1.5)
    with pytest.raises(DomainError):
        ft.escaping_at_c(p, 0.0, 0.5)
    for kappa in (math.nan, math.inf, True):
        # a NaN kappa once answered False
        with pytest.raises(DomainError, match="kappa"):
            ft.escaping_at_c(p, kappa, 0.5)


def test_arc_checks_refuse_non_positive_kappa():
    # kappa = 0 once raised a bare ZeroDivisionError from the half-cycle pi/kappa
    p = std()
    for kappa in (0.0, -1.0, math.nan, True, "2.0"):
        for check in (ft.escape_cycle_check, ft.predicts_no_tonic, ft.evaluate_prediction):
            with pytest.raises(DomainError, match="kappa"):
                check(p, kappa)


def test_escaping_at_c_kappa_limits():
    p = std()
    cs = np.linspace(-1, 1, 10001)[1:-1]
    assert not any(ft.escaping_at_c(p, 1e-6, float(c)) for c in cs[::100])
    assert not any(ft.escaping_at_c(p, 0.5, float(c)) for c in cs)
    assert any(ft.escaping_at_c(p, 3.0, float(c)) for c in cs)


def test_escaping_at_c_is_kappa_above_drift_over_pull():
    # random kappas, and kappas at the computed ratio and one ulp above it,
    # where a differently rounded form of the inequality can disagree
    rng = np.random.default_rng(61)
    for _ in range(500):
        p = std(A=float(rng.uniform(0.05, 0.6)), B=float(rng.uniform(0.05, 0.6)),
                beta=float(rng.uniform(0.3, 1.2)), gamma=float(rng.uniform(0.2, 1.5)))
        c = float(rng.uniform(-0.999, 0.999))
        ratio = float(singular._drift_over_pull(p, c))
        for kappa in (float(np.exp(rng.uniform(math.log(0.05), math.log(10.0)))),
                      ratio, float(np.nextafter(ratio, np.inf))):
            if kappa > 0.0:
                assert ft.escaping_at_c(p, kappa, c) is (kappa > ratio)


def test_kappa_threshold_reference_value():
    ks = ft.kappa_threshold(std())
    assert ks == pytest.approx(1.5724024463827118, abs=1e-9)
    assert isinstance(ks, float)


def test_kappa_threshold_against_scan_oracle():
    for a in (0.2, 0.3, 0.45):
        p = std(A=a, B=a)
        ref, _ = oracles.kappa_star_scan(a, a, 0.8, 0.5)
        assert ft.kappa_threshold(p) == pytest.approx(ref, abs=1e-4)


def test_kappa_threshold_is_a_threshold():
    p = std()
    ks = ft.kappa_threshold(p)
    cs = np.linspace(-1, 1, 20001)[1:-1]
    # just below: no envelope value escapes
    assert not any(ft.escaping_at_c(p, ks * 0.99, float(c)) for c in cs)
    # just above: some value escapes
    assert any(ft.escaping_at_c(p, ks * 1.01, float(c)) for c in cs)


def test_kappa_threshold_decreasing_in_amplitude():
    vals = [ft.kappa_threshold(std(A=a, B=a))
            for a in (0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5)]
    assert all(x > y for x, y in zip(vals, vals[1:]))
    assert 0.5 < vals[-1] < vals[0] < 6.0


def test_kappa_threshold_requires_region():
    with pytest.raises(RegionPreconditionError):
        ft.kappa_threshold(std(A=1.0, B=1.0))
    with pytest.raises(RegionPreconditionError):
        singular._escape_floor(std(A=1.0, B=1.0))
    with pytest.raises(DomainError):
        ft.kappa_threshold(std(), tol=0.0)
    # a NaN tol skipped the refinement and changed kappa* in the 9th digit
    for tol in (math.nan, math.inf, True, "1e-6"):
        with pytest.raises(DomainError, match="tol"):
            ft.kappa_threshold(std(), tol=tol)


def in_region_draws(seed, n):
    """Seeded in-region points over the benchmark's parameter box."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        A, B, beta, gamma = (float(x) for x in rng.uniform((0.05, 0.05, 0.1, 0.2),
                                                           (0.7, 0.7, 1.5, 2.0)))
        p = std(A=A, B=B, beta=beta, gamma=gamma)
        if ft.classify_region(p).equilibria_left_of_folds:
            out.append(p)
    return out


def vanishing_drift_draws(seed, n):
    """In-region points whose drift beta - x + (2*gamma/3)*x**3, x = sqrt(r),
    has its minimum over the band within 1e-5 to 1e-3 of 0 (classify_region's
    grid margin refuses almost every point closer to 0): at
    x* = 1/sqrt(2*gamma) inside the band for every other point, at an end of
    the band for the rest."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        A, B, gamma = (float(x) for x in rng.uniform((0.05, 0.05, 0.2), (0.7, 0.7, 2.0)))
        x_lo, x_hi = math.sqrt(1 - (A + B) ** 2 / 2), math.sqrt(1 - (A - B) ** 2 / 2)
        if len(out) % 2:
            x = float(rng.uniform(max(x_lo, 0.5), x_hi))
            gamma = 1 / (2 * x * x)
        else:
            x = min(max(1 / math.sqrt(2 * gamma), x_lo), x_hi)
        beta = x - (2 * gamma / 3) * x ** 3 + 10 ** float(rng.uniform(-5, -3))
        if beta <= 0.0:
            continue
        p = std(A=A, B=B, beta=beta, gamma=gamma)
        if ft.classify_region(p).equilibria_left_of_folds:
            out.append(p)
    return out


def test_escape_floor_is_a_lower_bound():
    cs = np.linspace(-1, 1, singular.KAPPA_SCAN_POINTS)[1:-1]
    for p in in_region_draws(71, 20) + vanishing_drift_draws(73, 20):
        floor = singular._escape_floor(p)
        dense, _ = oracles.kappa_star_scan(p.A, p.B, p.beta, p.gamma)
        assert 0.0 <= floor <= dense
        assert np.all(floor <= singular._drift_over_pull(p, cs))
        # so no envelope value escapes at the floor
        if floor > 0.0:
            assert not any(ft.escaping_at_c(p, floor, float(c)) for c in cs[::16])


def test_escape_floor_is_close_below_kappa_threshold():
    # close enough that the kappas below kappa* skip the escape cycle; where
    # the drift nearly vanishes at an end of the band, the pull changes fast
    # across a cell and the floor falls to about 0.975*kappa*, so those points
    # are checked as a lower bound only
    for p in in_region_draws(79, 40) + [std(), std(beta=0.7, gamma=0.6)]:
        ks = ft.kappa_threshold(p)
        if ks > 0.0:
            assert 0.99 * ks <= singular._escape_floor(p) <= ks


def test_integrate_singular_start_validation():
    p = std()
    good = ft.equilibrium(p, -1.0)
    with pytest.raises(InvalidStartError):
        # coordinate does not match the phase
        ft.integrate_singular(p, 1.0, 0.0,
                              CubicPoint(v=good.v_e, w=good.w_e, c=-1.0),
                              horizon=1.0)
    with pytest.raises(InvalidStartError):
        # off-cubic start
        ft.integrate_singular(p, 1.0, math.pi,
                              CubicPoint(v=good.v_e, w=good.w_e + 1e-3, c=-1.0),
                              horizon=1.0)
    with pytest.raises(InvalidStartError):
        # right-branch start
        pt = on_cubic(p, -1.0, 0.5)
        ft.integrate_singular(p, 1.0, math.pi, pt, horizon=1.0)
    with pytest.raises(InvalidStartError):
        # start placed exactly at the fold
        f = ft.fold_point(p, -1.0)
        ft.integrate_singular(p, 1.0, math.pi,
                              CubicPoint(v=f.v_m, w=f.w_m, c=-1.0), horizon=1.0)
    pt = on_cubic(p, -1.0, -1.3)
    with pytest.raises(DomainError):
        ft.integrate_singular(p, 0.0, math.pi, pt, horizon=1.0)
    with pytest.raises(DomainError):
        ft.integrate_singular(p, 1.0, math.pi, pt, horizon=-1.0)
    with pytest.raises(DomainError):
        ft.integrate_singular(p, 1.0, math.pi, pt, horizon=1.0, ds=0.0)
    for bad in (math.nan, math.inf, True, "1.0"):
        with pytest.raises(DomainError, match="kappa"):
            ft.integrate_singular(p, bad, math.pi, pt, horizon=1.0)
        with pytest.raises(DomainError, match="horizon"):
            ft.integrate_singular(p, 1.0, math.pi, pt, horizon=bad)
        with pytest.raises(DomainError, match="ds"):
            ft.integrate_singular(p, 1.0, math.pi, pt, horizon=1.0, ds=bad)
        # refused by name, before math.cos or the kernel meets it
        with pytest.raises(DomainError, match="start_phase"):
            ft.integrate_singular(p, 1.0, bad, pt, horizon=1.0)
    # a stride of 2.5 would sample every 5th step
    for bad in (0, 2.5, True):
        with pytest.raises(DomainError, match="sample_stride"):
            ft.integrate_singular(p, 1.0, math.pi, pt, horizon=1.0, sample_stride=bad)
    # every comparison with NaN is False, so a start check written as `>`
    # would pass most of these; the transport reads only w, so a NaN v would
    # not show in the arc
    for start in (CubicPoint(v=math.nan, w=math.nan, c=-1.0),
                  CubicPoint(v=pt.v, w=math.nan, c=-1.0),
                  CubicPoint(v=math.nan, w=pt.w, c=-1.0),
                  CubicPoint(v=pt.v, w=pt.w, c=math.nan),
                  CubicPoint(v=-math.inf, w=pt.w, c=-1.0),
                  CubicPoint(v=-math.inf, w=-math.inf, c=-1.0),
                  CubicPoint(v=pt.v, w=math.inf, c=-1.0)):
        with pytest.raises(InvalidStartError):
            ft.integrate_singular(p, 1.0, math.pi, start, horizon=1.0)


def test_integrate_singular_horizon_terminal():
    p = std()
    pt = on_cubic(p, -1.0, -1.3)
    arc = ft.integrate_singular(p, 1.0, math.pi, pt, horizon=0.25)
    assert isinstance(arc.terminal, ft.ReachedHorizon)
    assert arc.terminal.s == pytest.approx(0.25, abs=1e-12)
    assert arc.s[0] == 0.0
    assert np.all(np.diff(arc.s) > 0)
    assert arc.s[-1] == pytest.approx(0.25, abs=1e-12)


def test_integrate_singular_tracks_moving_cubic():
    p = std()
    arc = ft.integrate_singular(p, 1.0, math.pi,
                                on_cubic(p, -1.0, ft.equilibrium(p, -1.0).v_e),
                                horizon=math.pi)
    assert isinstance(arc.terminal, ft.ReachedEnvelopeMax)
    assert arc.terminal.s == pytest.approx(math.pi, abs=1e-9)
    # the arc genuinely moves
    assert arc.w.max() - arc.w.min() > 1e-3
    # sampled phase bookkeeping is exact
    assert np.allclose(arc.c, np.cos(arc.kappa * arc.s + arc.start_phase),
                       atol=1e-12)
    # every sample stays on its cubic and on the left branch
    rho = 1.0 - p.A ** 2 / 2.0 - p.B ** 2 / 2.0
    r = rho - arc.c * p.A * p.B
    resid = np.abs(r * arc.v - arc.v ** 3 / 3.0 - arc.w)
    assert resid.max() < 1e-9
    assert np.all(arc.v < -np.sqrt(r))


def test_integrate_singular_matches_dop853_reference():
    # fixed-step RK4 transport against scipy's adaptive DOP853 with an event
    # at the fold (oracles.reference_arc) on 12 seeded arcs, rising and falling
    # half-cycles with kappa in [0.2, 3]. None of them grazes the fold: the two
    # fold contacts cross it with w - w_m(c) falling at 0.011 and 0.049 per
    # unit s, and the other arcs keep v**2 - r >= 0.16.
    rng = np.random.default_rng(811)
    names = {"fold": ft.ReachedFold, "top": ft.ReachedEnvelopeMax,
             "horizon": ft.ReachedHorizon}
    kinds = set()
    for i in range(1, 13):
        p = std(A=float(rng.uniform(0.15, 0.45)), B=float(rng.uniform(0.15, 0.45)),
                beta=float(rng.uniform(0.7, 0.9)), gamma=float(rng.uniform(0.45, 0.6)))
        kappa = float(rng.uniform(0.2, 3.0))
        phase, c0 = (math.pi, -1.0) if i % 2 else (0.0, 1.0)
        start = on_cubic(p, c0, ft.fold_point(p, c0).v_m - float(rng.uniform(0.05, 0.6)))
        horizon = float(rng.uniform(0.5, 1.0) if i % 3 == 0 else 1.0) * math.pi / kappa
        kind, s_end, w_of = oracles.reference_arc(p.A, p.B, p.beta, p.gamma, kappa, phase,
                                                  start.w, horizon)
        arc = ft.integrate_singular(p, kappa, phase, start, horizon)
        assert isinstance(arc.terminal, names[kind])
        # every grid sample; the last one is the terminal sample
        assert np.max(np.abs(arc.w[:-1] - w_of(arc.s[:-1]))) < 1e-8
        assert arc.terminal.s == arc.s[-1]
        if kind == "fold":
            assert arc.terminal.c == arc.c[-1]
            assert abs(arc.terminal.s - s_end) < singular.DEFAULT_DS
        else:
            assert arc.terminal.s == pytest.approx(s_end, abs=1e-12)
        kinds.add(kind)
    assert kinds == set(names)


def test_transport_preserves_vertical_order():
    p = std()
    # left branch: dw/dv = r - v^2 < 0, so the point further left starts higher
    hi = on_cubic(p, 1.0, -1.30)
    lo = on_cubic(p, 1.0, -1.15)
    assert hi.w > lo.w
    horizon = 0.3 * math.pi / 2.0
    a_lo = ft.integrate_singular(p, 2.0, 0.0, lo, horizon=horizon)
    a_hi = ft.integrate_singular(p, 2.0, 0.0, hi, horizon=horizon)
    assert isinstance(a_lo.terminal, ft.ReachedHorizon)
    assert isinstance(a_hi.terminal, ft.ReachedHorizon)
    assert a_hi.w[-1] > a_lo.w[-1]
    common = min(a_lo.s.size, a_hi.s.size)
    assert np.all(a_hi.w[:common] > a_lo.w[:common])


def test_predicts_no_tonic_reference_verdicts():
    p = std()
    for kappa in (0.5, 1.0):
        assert ft.predicts_no_tonic(p, kappa) is True
    for kappa in (2.0, 2.5, 3.0):
        assert ft.predicts_no_tonic(p, kappa) is False
    # at 1.58 the rising arc grazes the fold near the top of the window, so
    # the quiescence construction already fails just above the threshold
    assert ft.predicts_no_tonic(p, 1.58) is False


def test_predicts_no_tonic_requires_region():
    with pytest.raises(RegionPreconditionError):
        ft.predicts_no_tonic(std(A=1.0, B=1.0), 1.0)


def test_escape_cycle_reference_verdicts():
    p = std()
    for kappa in (0.5, 1.0):
        chk = ft.escape_cycle_check(p, kappa)
        assert not chk.holds
        assert "did not meet the fold" in chk.note
    for kappa in (2.0, 2.5, 3.0):
        chk = ft.escape_cycle_check(p, kappa)
        assert chk.holds
        assert chk.handoff is not None and chk.handoff.c == -1.0
        s_land, c_land = chk.landing
        assert 0.0 < s_land < math.pi / kappa
        assert -1.0 < c_land < 1.0
        assert ft.escaping_at_c(p, kappa, c_land)


def test_escape_cycle_fold_graze_just_above_threshold():
    chk = ft.escape_cycle_check(std(), 1.58)
    assert not chk.holds
    assert chk.landing is not None
    assert "outside the escape window" in chk.note
    _, c_land = chk.landing
    assert not ft.escaping_at_c(std(), 1.58, c_land)


def test_escape_cycle_alternate_parameter_row():
    p = std(beta=0.7, gamma=0.6)
    assert ft.escape_cycle_check(p, 1.0).holds is False
    assert ft.escape_cycle_check(p, 2.0).holds is True
    assert ft.escape_cycle_check(p, 2.5).holds is True


def test_event_location_stable_under_step_refinement():
    # v(w, c) has a square-root singularity at the fold, so the step order
    # degrades right before contact; 1e-4 is what a 4x refinement buys there
    p = std()
    coarse = ft.escape_cycle_check(p, 2.0, ds=1e-3)
    fine = ft.escape_cycle_check(p, 2.0, ds=2.5e-4)
    assert coarse.holds and fine.holds
    assert coarse.landing[0] == pytest.approx(fine.landing[0], abs=1e-4)
    assert coarse.landing[1] == pytest.approx(fine.landing[1], abs=1e-4)
