import math

import numpy as np
import pytest

import fhn_tis as ft
from fhn_tis.errors import DomainError, FoldUndefinedError, RegionPreconditionError

import oracles


def std(A=0.3, B=0.3, beta=0.8, gamma=0.5, epsilon=0.1):
    return ft.Params(A=A, B=B, beta=beta, gamma=gamma, epsilon=epsilon)


def random_params(rng):
    return ft.Params(A=float(rng.uniform(0.05, 0.6)),
                     B=float(rng.uniform(0.05, 0.6)),
                     beta=float(rng.uniform(0.1, 1.5)),
                     gamma=float(rng.uniform(0.2, 2.0)),
                     epsilon=float(rng.uniform(0.001, 0.5)))


def test_effective_gain_hand_values():
    p = std()
    assert ft.effective_gain(p, 1.0) == pytest.approx(0.82, abs=1e-15)
    assert ft.effective_gain(p, -1.0) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(DomainError):
        ft.effective_gain(p, 1.2)
    with pytest.raises(DomainError):
        ft.effective_gain(p, -1.2)


def test_effective_gain_decreasing_in_c():
    rng = np.random.default_rng(5)
    for _ in range(200):
        p = random_params(rng)
        c = np.sort(rng.uniform(-1, 1, size=8))
        gains = [ft.effective_gain(p, float(x)) for x in c]
        assert all(a >= b for a, b in zip(gains, gains[1:]))


def test_fold_point_hand_values():
    p = std()
    f = ft.fold_point(p, -1.0)
    assert f.v_m == pytest.approx(-1.0, abs=1e-15)
    assert f.w_m == pytest.approx(-2.0 / 3.0, abs=1e-15)
    f1 = ft.fold_point(p, 1.0)
    assert f1.v_m == pytest.approx(-math.sqrt(0.82), rel=1e-15)
    assert f1.w_m == pytest.approx(-(2.0 / 3.0) * 0.82 ** 1.5, rel=1e-14)


def test_fold_point_undefined_when_gain_nonpositive():
    p = std(A=1.0, B=1.0)
    # r(1) = 1 - 1/2 - 1/2 - 1 = -1
    with pytest.raises(FoldUndefinedError):
        ft.fold_point(p, 1.0)
    # r(-1) = 1 at the other end of the band
    assert ft.fold_point(p, -1.0).v_m == pytest.approx(-1.0)


def test_fold_point_on_cubic_and_monotone():
    rng = np.random.default_rng(17)
    for _ in range(200):
        p = random_params(rng)
        cs = np.sort(rng.uniform(-1, 1, size=6))
        vs, ws = [], []
        for c in cs:
            f = ft.fold_point(p, float(c))
            r = ft.effective_gain(p, float(c))
            assert abs(r * f.v_m - f.v_m ** 3 / 3.0 - f.w_m) < 1e-12
            vs.append(f.v_m)
            ws.append(f.w_m)
        # higher c, lower gain, fold closer to the origin
        assert all(a <= b + 1e-15 for a, b in zip(vs, vs[1:]))
        assert all(a <= b + 1e-15 for a, b in zip(ws, ws[1:]))


def test_equilibrium_hand_value():
    p = std()
    eq = ft.equilibrium(p, -1.0)
    assert eq.v_e == pytest.approx(oracles.equilibrium_v_bisect(0.3, 0.3, 0.8, 0.5, -1.0),
                                   abs=1e-12)
    assert eq.v_e == pytest.approx(-1.1251723990341238, abs=1e-12)
    assert eq.w_e == pytest.approx((eq.v_e + 0.8) / 0.5, rel=1e-14)
    assert eq.w_e == pytest.approx(-0.6503447980682475, abs=1e-12)


def test_equilibrium_against_bisection_oracle():
    rng = np.random.default_rng(23)
    for _ in range(500):
        p = random_params(rng)
        c = float(rng.uniform(-1, 1))
        eq = ft.equilibrium(p, c)
        ref = oracles.equilibrium_v_bisect(p.A, p.B, p.beta, p.gamma, c)
        assert abs(eq.v_e - ref) < 1e-9
        r = ft.effective_gain(p, c)
        resid = r * eq.v_e - eq.v_e ** 3 / 3.0 - eq.w_e
        assert abs(resid) < 1e-10


def test_equilibrium_moves_left_with_offset():
    p_lo = std(beta=0.5)
    p_hi = std(beta=1.2)
    assert ft.equilibrium(p_hi, 0.0).v_e < ft.equilibrium(p_lo, 0.0).v_e


def test_is_unique_hand_and_trivial_cases():
    assert ft.is_unique(std(), -1.0)
    # gain below 1/gamma makes the reduced cubic monotone, so uniqueness is automatic
    p = std(gamma=0.4)
    for c in (-1.0, 0.0, 1.0):
        assert ft.effective_gain(p, c) <= 1.0 / p.gamma
        assert ft.is_unique(p, c)


def test_is_unique_matches_root_count_oracle():
    rng = np.random.default_rng(29)
    for _ in range(500):
        p = random_params(rng)
        c = float(rng.uniform(-1, 1))
        n = oracles.count_equilibria(p.A, p.B, p.beta, p.gamma, c)
        if n == 1:
            # near-degenerate discriminants can fool a sign-change count, so
            # only insist in the unambiguous direction
            r = ft.effective_gain(p, c)
            disc = (r - 1.0 / p.gamma) ** 3 - 2.25 * p.beta ** 2 / p.gamma ** 2
            if abs(disc) > 1e-6:
                assert ft.is_unique(p, c)
        else:
            assert not ft.is_unique(p, c)


def test_is_les_trivial_and_eigenvalue_equivalence():
    p = std(A=1.0, B=1.0)
    # gain negative at c=1 puts the slow nullcline intersection on a branch
    # with negative slope, stability is immediate
    assert ft.is_les(p, 1.0)
    rng = np.random.default_rng(31)
    for _ in range(300):
        q = random_params(rng)
        c = float(rng.uniform(-1, 1))
        eq = ft.equilibrium(q, c)
        r = ft.effective_gain(q, c)
        jac = np.array([[r - eq.v_e ** 2, -1.0],
                        [q.epsilon, -q.epsilon * q.gamma]])
        eig_stable = bool(np.all(np.linalg.eigvals(jac).real < 0))
        assert ft.is_les(q, c) == eig_stable


def test_classify_region_reference_point():
    rc = ft.classify_region(std())
    assert rc.unique and rc.les_sufficient
    assert rc.equilibria_left_of_folds and rc.ges_small_eps


def test_classify_region_uniqueness_closed_form():
    rng = np.random.default_rng(37)
    for _ in range(300):
        a = float(rng.uniform(0.05, 0.7))
        beta = float(rng.uniform(0.3, 1.5))
        gamma = float(rng.uniform(0.3, 1.8))
        p = std(A=a, B=a, beta=beta, gamma=gamma)
        rhs = 2.0 * (1.0 - 1.0 / gamma - (2.25 * beta ** 2 / gamma ** 2) ** (1.0 / 3.0))
        if rhs < 0.0:
            # equal amplitudes satisfy the worst-case criterion trivially
            assert ft.classify_region(p).unique


def test_classify_region_grid_matches_pointwise():
    rng = np.random.default_rng(41)
    for _ in range(50):
        p = random_params(rng)
        rc = ft.classify_region(p, c_grid_size=401)
        cs = np.linspace(-1, 1, 401)
        assert rc.unique == all(ft.is_unique(p, float(c)) for c in cs)
        # the stability flag pairs the largest gain with the smallest
        # equilibrium magnitude, so it implies the pointwise property but may
        # be stricter
        if rc.les_sufficient:
            assert all(ft.is_les(p, float(c)) for c in cs)
        expected = (ft.effective_gain(p, -1.0)
                    < ft.equilibrium(p, 1.0).v_e ** 2
                    + min(p.epsilon * p.gamma, 1.0 / p.gamma))
        assert rc.les_sufficient == expected


def test_c_grid_size_validation():
    # np.linspace takes only an integer count, so the grid size is checked
    # where it is given
    p = std()
    for bad in (2, 11.5, 1001.0, "11", None, True):
        with pytest.raises(DomainError, match="c_grid_size"):
            ft.classify_region(p, bad)
        with pytest.raises(DomainError, match="c_grid_size"):
            ft.no_spiking_condition(p, c_grid_size=bad)
    for bad in (1, 11.5, 1001.0):
        with pytest.raises(DomainError, match="c_grid_size"):
            ft.frozen_table(p, c_grid_size=bad)
    assert ft.classify_region(p, np.int64(401)) == ft.classify_region(p, 401)
    assert ft.frozen_table(p, c_grid_size=2)["c"].tolist() == [-1.0, 1.0]


def test_classify_region_and_frozen_table_share_one_band():
    # one band of cubic roots per (Params, grid size): every region
    # check of a verdict chain, however the grid size is passed, reads the
    # band the first grid test computed, and the table copies it; the shared
    # arrays are read-only, and writing to the table leaves them as they are
    from fhn_tis import frozen
    p = std(A=0.27, B=0.33)
    frozen._band.cache_clear()
    assert ft.classify_region(p).equilibria_left_of_folds
    ft.classify_region(p, 1001)
    ft.classify_region(p, c_grid_size=1001)
    ft.kappa_threshold(p)
    ft.escape_cycle_check(p, 2.0)
    ft.predicts_no_tonic(p, 2.0)
    ft.no_spiking_condition(p)
    tab = ft.frozen_table(p)
    info = frozen._band.cache_info()
    assert (info.misses, info.hits) == (1, 7)
    frozen._band.cache_clear()
    fresh = ft.frozen_table(p)
    assert frozen._band.cache_info().misses == 1
    for key, col in fresh.items():
        assert col.tobytes() == tab[key].tobytes(), key
    band = frozen._band(p, 1001)
    for a in band:
        with pytest.raises(ValueError):
            a[0] = 0.0
    for key, a in zip(("c", "r", "v_e"), band):
        tab[key][0] = 7.0
        assert a[0] == fresh[key][0] != 7.0


def test_frozen_table_values_and_nan_folds():
    p = std()
    tab = ft.frozen_table(p, c_grid_size=101)
    assert tab["c"].shape == (101,)
    mid = 50
    assert tab["c"][mid] == pytest.approx(0.0)
    eq = ft.equilibrium(p, 0.0)
    assert tab["v_e"][mid] == pytest.approx(eq.v_e, abs=1e-12)
    assert tab["w_e"][mid] == pytest.approx(eq.w_e, abs=1e-12)
    # monotone in c across the whole band
    for key in ("v_e", "w_e", "v_m", "w_m"):
        vals = tab[key]
        vals = vals[np.isfinite(vals)]
        assert np.all(np.diff(vals) >= -1e-12)
    wide = ft.frozen_table(std(A=0.9, B=0.9), c_grid_size=101)
    assert np.isnan(wide["v_m"][-1]) and np.isfinite(wide["v_m"][0])


def test_frozen_table_rows_match_pointwise():
    # the table's array columns against the scalar fold and equilibrium at
    # each c; w_m may differ in the last bit, since numpy's array power and
    # libm's pow round r**1.5 differently
    rng = np.random.default_rng(47)
    cases = [random_params(rng) for _ in range(20)] + [std(A=0.9, B=0.9)]
    for p in cases:
        tab = ft.frozen_table(p, c_grid_size=101)
        for i, c in enumerate(tab["c"].tolist()):
            assert tab["r"][i] == ft.effective_gain(p, c)
            eq = ft.equilibrium(p, c)
            assert (tab["v_e"][i], tab["w_e"][i]) == (eq.v_e, eq.w_e)
            assert (tab["unique"][i], tab["les"][i]) == (eq.unique, eq.les)
            if tab["r"][i] > 0.0:
                fp = ft.fold_point(p, c)
                assert tab["v_m"][i] == fp.v_m
                assert abs(tab["w_m"][i] - fp.w_m) <= 4e-16 * abs(fp.w_m)
            else:
                assert np.isnan(tab["v_m"][i]) and np.isnan(tab["w_m"][i])
    # the wide-amplitude case loses its fold at the top of the band
    assert np.isnan(tab["v_m"][-1])


# Draws 1493, 1991 and 2100 of default_rng(12345) over the benchmark's
# parameter box (A, B, beta, gamma), as pinned in perfbench/workloads.py: a
# dense scan gives them a positive fold gap of 3e-4 to 9e-4, yet the grid
# test's slope margin rejects them.
PINNED_FALSE_NEGATIVES = (
    (0.5035310711120072, 0.40861068700218606, 0.44155660834752697, 1.0886737383172678),
    (0.6360138144273241, 0.6295173665042134, 0.6618246680727838, 0.5112990935888833),
    (0.6050245785773143, 0.6788683483458902, 0.5238472974341889, 0.8285191618218088),
)


def test_band_roots_match_scalar_equilibria():
    # the band's one array call against equilibrium's scalar root at every c,
    # bit for bit: seeded draws over the benchmark's parameter box, a few of
    # whose bands hold three equilibria at some c (the trigonometric branch),
    # the three pinned points, and a point with three equilibria at every c
    from fhn_tis import frozen
    rng = np.random.default_rng(149)
    draws = [tuple(float(x) for x in rng.uniform((0.05, 0.05, 0.1, 0.2), (0.7, 0.7, 1.5, 2.0)))
             for _ in range(120)]
    mixed = 0
    for A, B, beta, gamma in draws + list(PINNED_FALSE_NEGATIVES) + [(0.3, 0.3, 0.1, 2.0)]:
        p = std(A=A, B=B, beta=beta, gamma=gamma, epsilon=0.05)
        cs, r, v_e = frozen._band(p, 1001)
        ref = np.array([ft.equilibrium(p, c).v_e for c in cs.tolist()])
        assert v_e.view(np.int64).tolist() == ref.view(np.int64).tolist(), (A, B, beta, gamma)
        unique = frozen._unique_at(p, r)
        mixed += bool(unique.any() and not unique.all())
    assert mixed >= 3 and not unique.any()


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the c-grid test rejects these points; the closed-form "
                          "fold gap accepts them")
@pytest.mark.parametrize("A, B, beta, gamma", PINNED_FALSE_NEGATIVES)
def test_classify_region_matches_closed_form_on_pinned_points(A, B, beta, gamma):
    p = std(A=A, B=B, beta=beta, gamma=gamma, epsilon=0.05)
    rc = ft.classify_region(p)
    assert rc.unique and p.folds_everywhere
    assert rc.equilibria_left_of_folds == oracles.left_of_folds_closed_form(A, B, beta, gamma)


def test_no_spiking_condition_reference_points():
    # sub-threshold pair: the rest point at full gain still sits below the
    # highest fold, so the sufficient rest condition fails even here
    p_quiet = std(A=0.15, B=0.15)
    eq = ft.equilibrium(p_quiet, -1.0)
    fold = ft.fold_point(p_quiet, 1.0)
    assert eq.w_e < fold.w_m
    assert ft.no_spiking_condition(p_quiet) is False
    assert ft.no_spiking_condition(std()) is False


def test_no_spiking_condition_requires_region():
    with pytest.raises(RegionPreconditionError):
        ft.no_spiking_condition(std(A=1.0, B=1.0))


def test_no_spiking_condition_attainable_elsewhere():
    # large offset pushes the rest point far up the left branch
    p = std(A=0.05, B=0.05, beta=1.0, gamma=2.0)
    assert ft.classify_region(p).equilibria_left_of_folds
    assert ft.no_spiking_condition(p) is True


def test_piecewise_spiking_condition():
    assert ft.piecewise_spiking_condition(std()) is True
    assert ft.piecewise_spiking_condition(std(A=0.15, B=0.15)) is True
    assert ft.piecewise_spiking_condition(std(A=1.0, B=1.0)) is False


def test_ges_convergence_small_epsilon():
    # every trajectory from the trapping box should settle onto the frozen
    # equilibrium when the slow gain is small
    p = std(epsilon=1e-3)
    assert ft.classify_region(p).ges_small_eps
    L, S = ft.invariant_box(p)
    rng = np.random.default_rng(43)
    cfg = ft.IntegratorConfig(method=ft.FixedRK4(dt=0.02), sample_stride=1000)
    for c in (-1.0, 0.0, 1.0):
        eq = ft.equilibrium(p, c)
        for _ in range(7):
            v0 = float(rng.uniform(-L, L))
            w0 = float(rng.uniform(-S, S))
            # crossing the box takes O(1/eps) time before contraction starts,
            # so the horizon leaves several thousand units for settling
            traj = ft.simulate(p, ft.FrozenConstant(c=c), ft.State(v0, w0),
                               t_final=14000.0, cfg=cfg)
            assert abs(traj.v[-1] - eq.v_e) < 1e-6
            assert abs(traj.w[-1] - eq.w_e) < 1e-6
