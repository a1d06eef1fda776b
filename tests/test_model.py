import dataclasses
import math
import re

import numpy as np
import pytest

import fhn_tis as ft
from fhn_tis import _kernels
from fhn_tis.errors import ConfigError, UnsupportedDriveError


def test_params_positivity_enforced():
    for field in ("A", "B", "beta", "gamma", "epsilon"):
        kwargs = dict(A=0.3, B=0.3, beta=0.8, gamma=0.5, epsilon=0.1)
        kwargs[field] = 0.0
        with pytest.raises(ConfigError) as exc:
            ft.Params(**kwargs)
        assert exc.value.key == field
        kwargs[field] = -1.0
        with pytest.raises(ConfigError):
            ft.Params(**kwargs)


def test_params_records_fold_condition():
    assert ft.Params(A=0.3, B=0.3, beta=0.8, gamma=0.5, epsilon=0.1).folds_everywhere
    # A + B above sqrt(2) is recorded, not rejected
    big = ft.Params(A=1.0, B=1.0, beta=0.8, gamma=0.5, epsilon=0.1)
    assert not big.folds_everywhere


def test_params_immutable():
    p = ft.Params(A=0.3, B=0.3, beta=0.8, gamma=0.5, epsilon=0.1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.A = 0.4


def test_envelope_cosine_values():
    assert ft.envelope(ft.AveragedCosine(eta=1.0), 0.0) == 1.0
    assert ft.envelope(ft.AveragedCosine(eta=2.0), math.pi / 4.0) == pytest.approx(0.0, abs=1e-12)
    assert ft.envelope(ft.SignCosine(eta=1.0), math.pi) == -1.0
    # tie at the switch resolves to +1
    assert ft.envelope(ft.SignCosine(eta=1.0), math.pi / 2.0) == 1.0
    assert ft.envelope(ft.FrozenConstant(c=-0.25), 123.4) == -0.25


def test_envelope_periodicity():
    rng = np.random.default_rng(7)
    for _ in range(100):
        eta = float(rng.uniform(0.05, 5.0))
        t = float(rng.uniform(0.0, 50.0))
        period = 2.0 * math.pi / eta
        cos_drive = ft.AveragedCosine(eta=eta)
        assert abs(ft.envelope(cos_drive, t + period) - ft.envelope(cos_drive, t)) < 1e-9
        # keep clear of the square-wave switches, where a 1-ulp argument shift flips the sign
        sgn = ft.SignCosine(eta=eta)
        if abs(math.cos(eta * t)) > 1e-6:
            assert ft.envelope(sgn, t + period) == ft.envelope(sgn, t)


def test_envelope_rejects_raw_drive():
    with pytest.raises(UnsupportedDriveError):
        ft.envelope(ft.RawInterference(omega1=100.0, omega2=101.0), 0.0)


def test_custom_sampled_interpolates_and_clamps():
    drive = ft.CustomSampled(values=np.array([-1.0, 1.0]), dt=1.0)
    assert ft.envelope(drive, 0.5) == 0.0
    assert ft.envelope(drive, -3.0) == -1.0
    assert ft.envelope(drive, 99.0) == 1.0


def test_custom_sampled_validation():
    with pytest.raises(ConfigError):
        ft.CustomSampled(values=np.array([0.0, 1.5]), dt=1.0)
    # refused before conversion, which read these as [1, 0, 1] and [0.5, -0.5]
    for values in ([True, False, True], ["0.5", "-0.5"], [0.5, None]):
        with pytest.raises(ConfigError, match="values") as exc:
            ft.CustomSampled(values=values, dt=1.0)
        assert exc.value.key == "values"
    for values in ([0, 1], np.array([0, -1], dtype=np.int8), np.array([0.5, 1.0])):
        assert ft.CustomSampled(values=values, dt=1.0).values.dtype == np.float64
    with pytest.raises(ConfigError):
        ft.CustomSampled(values=np.array([0.0]), dt=1.0)
    with pytest.raises(ConfigError):
        ft.CustomSampled(values=np.array([0.0, 0.5]), dt=0.0)


def test_drive_validation():
    with pytest.raises(ConfigError):
        ft.AveragedCosine(eta=0.0)
    with pytest.raises(ConfigError):
        ft.SignCosine(eta=-1.0)
    with pytest.raises(ConfigError):
        ft.FrozenConstant(c=1.5)
    with pytest.raises(ConfigError):
        ft.RawInterference(omega1=101.0, omega2=100.0)


def test_sign_cosine_switch_times():
    drive = ft.SignCosine(eta=1.0)
    times = drive.switch_times(0.0, 10.0)
    assert np.allclose(times, [math.pi / 2, 3 * math.pi / 2, 5 * math.pi / 2])
    assert drive.switch_times(0.0, 1.0).size == 0


def test_rhs_averaged_hand_value():
    p = ft.Params(A=0.3, B=0.3, beta=0.8, gamma=0.5, epsilon=0.1)
    dv, dw = ft.rhs_averaged(p, ft.FrozenConstant(c=1.0), 0.0, ft.State(1.0, 0.0))
    assert dv == pytest.approx(0.82 - 1.0 / 3.0, abs=1e-15)
    assert dw == pytest.approx(0.18, abs=1e-15)


def test_rhs_averaged_vanishing_amplitude_limit():
    # with both amplitudes tiny only the offset term drives w
    p = ft.Params(A=1e-9, B=1e-9, beta=0.8, gamma=0.5, epsilon=0.1)
    dv, dw = ft.rhs_averaged(p, ft.AveragedCosine(eta=1.0), 0.3, ft.State(0.0, 0.0))
    assert dv == pytest.approx(0.0, abs=1e-12)
    assert dw == pytest.approx(0.08, abs=1e-15)


def test_rhs_averaged_zero_at_equilibrium():
    p = ft.Params(A=0.3, B=0.3, beta=0.8, gamma=0.5, epsilon=0.1)
    for c in (-1.0, -0.3, 0.6, 1.0):
        eq = ft.equilibrium(p, c)
        dv, dw = ft.rhs_averaged(p, ft.FrozenConstant(c=c), 5.0,
                                 ft.State(eq.v_e, eq.w_e))
        assert abs(dv) < 1e-12
        assert abs(dw) < 1e-12


def test_rhs_averaged_frozen_time_invariant():
    p = ft.Params(A=0.4, B=0.2, beta=0.7, gamma=0.6, epsilon=0.05)
    s = ft.State(-0.8, 0.1)
    assert (ft.rhs_averaged(p, ft.FrozenConstant(c=0.3), 0.0, s)
            == ft.rhs_averaged(p, ft.FrozenConstant(c=0.3), 17.3, s))


def test_rhs_dw_component_exact():
    rng = np.random.default_rng(11)
    for _ in range(200):
        p = ft.Params(A=float(rng.uniform(0.05, 0.6)), B=float(rng.uniform(0.05, 0.6)),
                      beta=float(rng.uniform(0.1, 1.5)), gamma=float(rng.uniform(0.2, 2.0)),
                      epsilon=float(rng.uniform(0.001, 0.5)))
        v, w = rng.uniform(-3, 3, size=2)
        t = float(rng.uniform(0, 20))
        _, dw = ft.rhs_averaged(p, ft.AveragedCosine(eta=0.7), t, ft.State(v, w))
        assert dw == p.epsilon * (v - p.gamma * w + p.beta)


def test_rhs_is_the_kernel_right_hand_side():
    # the model's vector fields are the kernels' _rhs, whose dv (v*v*v, and
    # the carrier terms added one at a time) rounds apart from the textbook form
    rng = np.random.default_rng(12)
    for _ in range(200):
        A, B, beta, gamma, eps = (float(x) for x in rng.uniform(0.05, 1.0, size=5))
        p = ft.Params(A=A, B=B, beta=beta, gamma=gamma, epsilon=eps)
        v, w, t = (float(x) for x in rng.uniform(-3, 3, size=3))
        c = float(rng.uniform(-1, 1))
        w1 = float(rng.uniform(5, 10))
        w2 = w1 + float(rng.uniform(0.01, 3))
        args = (A, B, beta, gamma, eps, t, v, w)
        avg = ft.rhs_averaged(p, ft.FrozenConstant(c=c), t, ft.State(v, w))
        full = ft.rhs_full(p, w1, w2, t, ft.State(v, w))
        assert avg == _kernels._rhs(_kernels.DRIVE_FROZEN, c, 0.0, (), 1.0, *args)
        assert full == _kernels._rhs(_kernels.DRIVE_RAW, w1, w2, (), 1.0, *args)
        r = 1.0 - A * A / 2.0 - B * B / 2.0 - A * B * c
        forcing = A * w1 * math.cos(w1 * t) + B * w2 * math.cos(w2 * t)
        assert avg[0] == pytest.approx(r * v - v ** 3 / 3.0 - w, abs=1e-14)
        assert full[0] == pytest.approx(v - v ** 3 / 3.0 - w + forcing, abs=1e-14)


def test_rhs_full_hand_value():
    p = ft.Params(A=0.3, B=0.3, beta=0.8, gamma=0.5, epsilon=0.1)
    dv, dw = ft.rhs_full(p, 100.0, 101.0, 0.0, ft.State(0.0, 0.0))
    assert dv == pytest.approx(60.3, abs=1e-12)
    assert dw == pytest.approx(0.08, abs=1e-15)


def test_effective_amplitudes_norm_preserved():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        A, B = rng.uniform(0.01, 1.5, size=2)
        at, bt = ft.effective_amplitudes(float(A), float(B))
        assert at * at + bt * bt == pytest.approx(A * A + B * B, rel=1e-14)


def test_effective_amplitudes_product_convention():
    # the rotation as defined yields a cross product of (pi/16)*A*B; the
    # (pi/4)*A*B convention differs by a factor of 4 and is reported alongside
    conv = ft.effective_amplitude_conventions(0.3, 0.3)
    assert conv["product"] == pytest.approx(conv["pi_over_16_AB"], rel=1e-12)
    assert conv["product"] * 4.0 == pytest.approx(conv["pi_over_4_AB"], rel=1e-12)
    at, bt = ft.effective_amplitudes(0.3, 0.3)
    assert math.hypot(at, bt) == pytest.approx(0.3 * math.sqrt(2.0), rel=1e-14)
    theta = 0.5 * math.asin(math.pi / 16.0)
    assert bt / at == pytest.approx(math.tan(theta), rel=1e-12)


def test_params_from_dict_strict():
    d = {"A": 0.3, "B": 0.3, "beta": 0.8, "gamma": 0.5, "epsilon": 0.1}
    p = ft.params_from_dict(d)
    assert p == ft.Params(**d)
    with pytest.raises(ConfigError) as exc:
        ft.params_from_dict({**d, "extra": 1.0})
    assert exc.value.key == "extra"
    missing = dict(d)
    del missing["gamma"]
    with pytest.raises(ConfigError) as exc:
        ft.params_from_dict(missing)
    assert "gamma" in str(exc.value)


def test_drive_from_dict_round_trip():
    cases = [
        ({"kind": "averaged_cosine", "eta": 0.5}, ft.AveragedCosine),
        ({"kind": "sign_cosine", "eta": 0.5}, ft.SignCosine),
        ({"kind": "frozen_constant", "c": -0.5}, ft.FrozenConstant),
        ({"kind": "raw_interference", "omega1": 100.0, "omega2": 101.0},
         ft.RawInterference),
    ]
    for d, cls in cases:
        drive = ft.drive_from_dict(d)
        assert isinstance(drive, cls)
    custom = ft.drive_from_dict(
        {"kind": "custom_sampled", "values": [0.0, 0.5, -0.5], "dt": 2.0})
    assert isinstance(custom, ft.CustomSampled)


def test_drive_from_dict_rejects_bad_keys():
    with pytest.raises(ConfigError) as exc:
        ft.drive_from_dict({"kind": "averaged_cosine", "eta": 0.5, "c": 1.0})
    assert exc.value.key == "c"
    with pytest.raises(ConfigError):
        ft.drive_from_dict({"kind": "mystery"})
    with pytest.raises(ConfigError):
        ft.drive_from_dict({"eta": 0.5})


_STD = dict(A=0.3, B=0.3, beta=0.8, gamma=0.5, epsilon=0.1)
_P = ft.Params(**_STD)
_EQ_TOP = ft.equilibrium(_P, 1.0)
_TOP = ft.CubicPoint(v=_EQ_TOP.v_e, w=_EQ_TOP.w_e, c=1.0)
# each range holds any of the good values (1, 3, 1) at its place
_SWEEP = dict(amplitude_list=((0.3, 0.3),), kappa_range=(0.5, 4.0, 0.5),
              epsilon_range=(0.02, 4.0, 0.02), t_final=10.0, beta=0.8, gamma=0.5)
_GRID = dict(A=0.3, B=0.3, beta=0.8, gamma=0.5, kappa=1.0, epsilon=0.02)


def _arc(**kw):
    args = dict(kappa=2.0, start_phase=0.0, start=_TOP, horizon=1.0)
    return ft.integrate_singular(_P, **{**args, **kw})


def _ranged(name, i):
    # a SweepSpec whose range `name` holds x at position i
    def make(x):
        rng = list(_SWEEP[name])
        rng[i] = x
        return ft.SweepSpec(**{**_SWEEP, name: tuple(rng)})
    return make


# (name in the message, builder of the setting x, an integer-valued good value,
# whether x must also be > 0)
_REAL_SETTINGS = [
    *[(k, lambda x, k=k: ft.Params(**{**_STD, k: x}), 1, True) for k in _STD],
    ("eta", lambda x: ft.AveragedCosine(eta=x), 1, True),
    ("eta", lambda x: ft.SignCosine(eta=x), 1, True),
    ("omega1", lambda x: ft.RawInterference(omega1=x, omega2=100.0), 1, True),
    ("omega2", lambda x: ft.RawInterference(omega1=0.5, omega2=x), 1, True),
    ("dt", lambda x: ft.CustomSampled(values=[0.0, 0.5], dt=x), 1, True),
    ("c", lambda x: ft.FrozenConstant(c=x), 0, False),
    ("A", lambda x: ft.effective_amplitudes(x, 0.3), 1, True),
    ("B", lambda x: ft.effective_amplitudes(0.3, x), 1, True),
    ("dt", lambda x: ft.FixedRK4(dt=x), 1, True),
    *[(k, lambda x, k=k: ft.AdaptiveRK45(**{k: x}), 1, True)
      for k in ("rel_tol", "abs_tol", "max_dt")],
    *[(k, _ranged(k, i), g, True)
      for k in ("kappa_range", "epsilon_range") for i, g in enumerate((1, 3, 1))],
    *[(k, lambda x, k=k: ft.SweepSpec(**{**_SWEEP, k: x}), 1, True)
      for k in ("t_final", "beta", "gamma")],
    *[(k, lambda x, k=k: ft.GridSpec(**{**_GRID, k: x}), 1, True)
      for k in ("A", "B", "beta", "gamma", "kappa", "epsilon", "t_final", "extent")],
    ("state.v", lambda x: ft.ExplicitIC(ft.State(x, 0.0)), 0, False),
    ("state.w", lambda x: ft.ExplicitIC(ft.State(0.0, x)), 0, False),
    ("t0", lambda x: ft.simulate(_P, ft.FrozenConstant(0.0), ft.State(0, 0), 1.0, t0=x),
     0, False),
    # t_final need only exceed t0, and that check names it as well
    ("t_final", lambda x: ft.simulate(_P, ft.FrozenConstant(0.0), ft.State(0, 0), x),
     1, True),
    ("ic.v", lambda x: ft.simulate(_P, ft.FrozenConstant(0.0), ft.State(x, 0), 1.0),
     0, False),
    ("ic.w", lambda x: ft.simulate(_P, ft.FrozenConstant(0.0), ft.State(0, x), 1.0),
     0, False),
    ("kappa", lambda x: _arc(kappa=x), 2, True),
    ("start_phase", lambda x: _arc(start_phase=x), 0, False),
    ("horizon", lambda x: _arc(horizon=x), 1, True),
    ("ds", lambda x: _arc(ds=x), 1, True),
    ("tol", lambda x: ft.kappa_threshold(_P, tol=x), 1, True),
]

_COUNT_SETTINGS = [
    ("sample_stride", lambda x: ft.IntegratorConfig(sample_stride=x)),
    ("grid_points", lambda x: ft.GridSpec(**_GRID, grid_points=x)),
    ("sample_stride", lambda x: _arc(sample_stride=x)),
    ("c_grid_size", lambda x: ft.classify_region(_P, c_grid_size=x)),
]


@pytest.mark.parametrize("name, make, good, positive", _REAL_SETTINGS,
                         ids=[f"{k}-{i}" for i, (k, *_) in enumerate(_REAL_SETTINGS)])
def test_every_numeric_setting_takes_only_finite_numbers(name, make, good, positive):
    # a bool was once read as 1 or 0, and a string was read as its number or
    # failed with a bare TypeError
    bad = [True, False, "0.3", math.nan, math.inf, -math.inf, np.float64(math.nan)]
    if positive:
        bad += [0, -1, 0.0]
    for x in bad:
        with pytest.raises(ft.DomainError, match=re.escape(name)):
            make(x)
    for x in (good, np.int64(good), np.float64(good)):
        make(x)


@pytest.mark.parametrize("name, make", _COUNT_SETTINGS,
                         ids=[f"{k}-{i}" for i, (k, _) in enumerate(_COUNT_SETTINGS)])
def test_every_count_setting_takes_only_integers(name, make):
    for x in (True, "3", 2.5, np.float64(3.0), 0, -1, None):
        with pytest.raises(ft.DomainError, match=name):
            make(x)
    for x in (3, np.int64(3)):
        make(x)
