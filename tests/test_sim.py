import math

import numpy as np
import pytest

import fhn_tis as ft
from fhn_tis.errors import ConfigError, DivergenceError, DomainError, EmptyTrajectoryError

import oracles


def std(A=0.3, B=0.3, beta=0.8, gamma=0.5, epsilon=0.1):
    return ft.Params(A=A, B=B, beta=beta, gamma=gamma, epsilon=epsilon)


def synthetic(v, t=None):
    v = np.asarray(v, dtype=float)
    if t is None:
        t = np.arange(v.size, dtype=float)
    return ft.Trajectory(t=t, v=v, w=np.zeros_like(v),
                         drive=ft.FrozenConstant(c=0.0), params=std())


def test_simulate_argument_checks():
    p = std()
    with pytest.raises(DomainError):
        ft.simulate(p, ft.FrozenConstant(c=0.0), ft.State(0, 0), t_final=0.0)
    with pytest.raises(DomainError):
        ft.simulate(p, ft.FrozenConstant(c=0.0), ft.State(0, 0),
                    t_final=1.0, t0=2.0)
    with pytest.raises(DomainError):
        ft.simulate(p, ft.FrozenConstant(c=0.0), ft.State(math.nan, 0.0),
                    t_final=1.0)
    for t0, t_final in ((0.0, math.inf), (0.0, math.nan), (-math.inf, 1.0), (math.nan, 1.0),
                        (True, 2.0), (0.0, "1.0")):
        with pytest.raises(DomainError, match="finite"):
            ft.simulate(p, ft.FrozenConstant(c=0.0), ft.State(0, 0), t_final, t0=t0)


def test_integrator_config_refuses_a_stride_that_is_no_integer():
    # a stride of 2.5 once sampled where step % 2.5 == 0, every 5th step
    for stride in (2.5, 2.0, "3", 0, -1, True):
        with pytest.raises(DomainError, match="sample_stride"):
            ft.IntegratorConfig(sample_stride=stride)
    for stride in (1, 7, np.int64(3)):
        assert ft.IntegratorConfig(sample_stride=stride).sample_stride == stride


def test_equilibrium_is_stationary():
    # negligible amplitudes: the rest point of the undriven cubic should not move
    p = std(A=1e-7, B=1e-7)
    eq = ft.equilibrium(p, 1.0)
    traj = ft.simulate(p, ft.AveragedCosine(eta=0.1), ft.State(eq.v_e, eq.w_e),
                       t_final=100.0)
    assert np.max(np.abs(traj.v - eq.v_e)) < 1e-8
    assert np.max(np.abs(traj.w - eq.w_e)) < 1e-8


def test_frozen_drive_converges_to_equilibrium():
    p = std(epsilon=0.01)
    L, S = ft.invariant_box(p)
    rng = np.random.default_rng(61)
    for c in (-1.0, 0.3, 1.0):
        eq = ft.equilibrium(p, c)
        for _ in range(4):
            ic = ft.State(float(rng.uniform(-L, L)), float(rng.uniform(-S, S)))
            traj = ft.simulate(p, ft.FrozenConstant(c=c), ic, t_final=1500.0)
            assert abs(traj.v[-1] - eq.v_e) < 1e-6
            assert abs(traj.w[-1] - eq.w_e) < 1e-6


def test_cosine_drive_tonic_example():
    p = std(epsilon=0.02)
    eq1 = ft.equilibrium(p, 1.0)
    traj = ft.simulate(p, ft.AveragedCosine(eta=0.04), ft.State(0.0, eq1.w_e),
                       t_final=2000.0)
    report = ft.count_spikes(traj)
    assert report.tonic
    assert report.count >= 2
    assert report.spike_times == tuple(sorted(report.spike_times))


def test_time_grid_and_t0():
    p = std()
    traj = ft.simulate(p, ft.FrozenConstant(c=0.5), ft.State(0.0, 0.0),
                       t_final=15.0, t0=5.0)
    assert traj.t[0] == 5.0
    assert traj.t[-1] == pytest.approx(15.0, abs=1e-12)
    assert np.all(np.diff(traj.t) > 0)


def test_sign_drive_segments_join_cleanly():
    p = std()
    traj = ft.simulate(p, ft.SignCosine(eta=0.05), ft.State(0.0, 0.0),
                       t_final=100.0)
    assert np.all(np.diff(traj.t) > 0)
    assert traj.t[0] == 0.0
    assert traj.t[-1] == pytest.approx(100.0, abs=1e-9)
    # switch instants appear exactly once in the grid
    for cut in ft.SignCosine(eta=0.05).switch_times(0.0, 100.0):
        assert np.sum(np.isclose(traj.t, cut, atol=1e-12)) == 1


def test_sign_drive_span_below_segment_floor():
    # a span of at most 1e-14 with no switch inside still makes one leg, and
    # the square wave returns the start sample as the other drives do
    p = std()
    for drive in (ft.SignCosine(eta=1.0), ft.AveragedCosine(eta=1.0),
                  ft.FrozenConstant(c=1.0)):
        traj = ft.simulate(p, drive, ft.State(-1.0, -0.5), 1e-15)
        assert traj.t.tolist() == [0.0]
        assert (traj.v.tolist(), traj.w.tolist()) == ([-1.0], [-0.5])


def test_sign_drive_spikes_follow_upward_switches():
    p = std(epsilon=0.01)
    eq1 = ft.equilibrium(p, 1.0)
    traj = ft.simulate(p, ft.SignCosine(eta=0.01), ft.State(0.0, eq1.w_e),
                       t_final=2000.0)
    report = ft.count_spikes(traj)
    assert report.count == 4
    # first spike is the armed start at v = 0; the rest trail a -1 -> +1
    # switch, where the envelope jump re-excites the neuron
    eta = 0.01
    up_switches = np.array([(2 * k + 1.5) * math.pi / eta for k in range(4)])
    for t_spike in report.spike_times[1:]:
        lag = t_spike - up_switches[up_switches <= t_spike].max()
        assert 0.0 < lag < 15.0


def test_raw_and_averaged_agree_on_verdict():
    p = std(epsilon=0.02)
    eq1 = ft.equilibrium(p, 1.0)
    ic = ft.State(0.0, eq1.w_e)
    avg = ft.simulate(p, ft.AveragedCosine(eta=0.04), ic, t_final=200.0)
    raw = ft.simulate(p, ft.RawInterference(omega1=2000.0, omega2=2000.04), ic,
                      t_final=200.0)
    n_avg = ft.count_spikes(avg).count
    n_raw = ft.count_spikes(raw).count
    assert n_avg >= 1
    assert n_raw == n_avg


def test_custom_sampled_matches_frozen_for_constant_table():
    p = std()
    ic = ft.State(-0.5, 0.2)
    values = np.full(64, 0.4)
    a = ft.simulate(p, ft.CustomSampled(values=values, dt=1.0), ic, t_final=50.0)
    b = ft.simulate(p, ft.FrozenConstant(c=0.4), ic, t_final=50.0)
    assert np.allclose(a.v, b.v, atol=1e-12)
    assert np.allclose(a.w, b.w, atol=1e-12)


def test_quasi_static_drive_tracks_frozen_equilibria():
    # envelope much slower than the relaxation: the state pins to the moving
    # rest point and never fires
    p = std()
    eq1 = ft.equilibrium(p, 1.0)
    traj = ft.simulate(p, ft.AveragedCosine(eta=1e-4),
                       ft.State(eq1.v_e, eq1.w_e), t_final=5000.0)
    assert ft.count_spikes(traj).count == 0
    late = traj.t > 100.0
    c_inst = np.cos(1e-4 * traj.t[late])
    v_eq = np.array([ft.equilibrium(p, float(c)).v_e for c in c_inst[::50]])
    assert np.max(np.abs(traj.v[late][::50] - v_eq)) < 0.05


def test_fast_drive_averages_out():
    # envelope much faster than the neuron: the state hugs the rest point of
    # the mean gain (c averages to zero)
    p = std()
    eq0 = ft.equilibrium(p, 0.0)
    cfg = ft.IntegratorConfig(method=ft.FixedRK4(dt=0.001), sample_stride=100)
    traj = ft.simulate(p, ft.AveragedCosine(eta=100.0),
                       ft.State(eq0.v_e, eq0.w_e), t_final=50.0, cfg=cfg)
    late = traj.t > 5.0
    assert np.max(np.abs(traj.v[late] - eq0.v_e)) < 0.05
    assert np.max(np.abs(traj.w[late] - eq0.w_e)) < 0.05


def test_rk4_order_of_accuracy():
    p = std(epsilon=0.02)
    eq1 = ft.equilibrium(p, 1.0)
    ic = ft.State(0.0, eq1.w_e)
    drive = ft.AveragedCosine(eta=0.04)

    def run(dt, stride):
        cfg = ft.IntegratorConfig(method=ft.FixedRK4(dt=dt), sample_stride=stride)
        return ft.simulate(p, drive, ic, t_final=50.0, cfg=cfg)

    ref = run(0.0025, 40)
    e1 = np.max(np.abs(run(0.02, 5).v - ref.v))
    e2 = np.max(np.abs(run(0.01, 10).v - ref.v))
    assert e2 < e1
    order = math.log2(e1 / e2)
    assert order > 3.5


def test_adaptive_matches_fixed():
    p = std(epsilon=0.02)
    eq1 = ft.equilibrium(p, 1.0)
    ic = ft.State(0.0, eq1.w_e)
    drive = ft.AveragedCosine(eta=0.04)
    fixed = ft.simulate(p, drive, ic, t_final=100.0,
                        cfg=ft.IntegratorConfig(method=ft.FixedRK4(dt=0.002),
                                                sample_stride=50))
    adaptive = ft.simulate(p, drive, ic, t_final=100.0,
                           cfg=ft.IntegratorConfig(
                               method=ft.AdaptiveRK45(rel_tol=1e-10, abs_tol=1e-10),
                               sample_stride=1))
    assert abs(adaptive.v[-1] - fixed.v[-1]) < 1e-6
    assert abs(adaptive.w[-1] - fixed.w[-1]) < 1e-6


def test_divergence_reported_with_location():
    p = std()
    cfg = ft.IntegratorConfig(method=ft.FixedRK4(dt=10.0), sample_stride=1)
    with pytest.raises(DivergenceError) as exc:
        ft.simulate(p, ft.FrozenConstant(c=1.0), ft.State(2.0, 0.0),
                    t_final=100.0, cfg=cfg)
    err = exc.value
    assert err.t is not None
    assert isinstance(err.state, tuple) and len(err.state) == 2


def test_adaptive_rejects_overflowing_trial_step():
    # from this start inside the box the first trial step at max_dt overflows
    # the error norm; the step is rejected and shrunk instead of raising
    p = std(gamma=0.2)
    L, S = ft.invariant_box(p)
    cfg = ft.IntegratorConfig(method=ft.AdaptiveRK45())
    traj = ft.simulate(p, ft.AveragedCosine(eta=0.1), ft.State(7.2, 40.5), 50.0, cfg)
    assert traj.t[-1] == pytest.approx(50.0)
    assert np.max(np.abs(traj.v)) <= L and np.max(np.abs(traj.w)) <= S
    # a NaN error norm on every trial step shrinks the step until it gives up,
    # rather than turning the step into NaN and looping forever; no state went
    # non-finite, so the error names the collapsed step
    with pytest.raises(DivergenceError, match="step size collapsed") as exc:
        ft.simulate(p, ft.AveragedCosine(eta=0.1), ft.State(1e150, 0.0), 10.0, cfg)
    assert exc.value.t == 0.0 and exc.value.state == (1e150, 0.0)


def test_count_spikes_synthetic_wave():
    t = np.linspace(0.0, 4.0 * math.pi, 4001)
    report = ft.count_spikes(synthetic(np.sin(t), t), arm_level=-0.5)
    # armed start fires at t=0; rearmed in the first trough, fires again at
    # 2*pi; sin(4*pi) lands fractionally below zero in floating point, so the
    # endpoint does not fire
    assert report.count == 2
    assert report.spike_times[0] == 0.0
    assert report.spike_times[1] == pytest.approx(2.0 * math.pi, abs=0.01)
    assert report.tonic


def test_count_spikes_edge_cases():
    assert ft.count_spikes(synthetic(-np.ones(100)), arm_level=-0.5).count == 0
    # armed start: first sample already above the fire level
    r = ft.count_spikes(synthetic(np.full(10, 0.5)), arm_level=-0.5)
    assert r.count == 1 and r.spike_times == (0.0,)
    # no re-arm, no second spike
    v = np.concatenate([np.full(5, 0.5), np.full(5, -0.1), np.full(5, 0.5)])
    assert ft.count_spikes(synthetic(v), arm_level=-0.5).count == 1
    with pytest.raises(EmptyTrajectoryError):
        ft.count_spikes(synthetic(np.empty(0)))
    with pytest.raises(DomainError):
        ft.count_spikes(synthetic(np.zeros(5)), arm_level=0.5, fire_level=0.0)
    with pytest.raises(DomainError):
        ft.count_spikes(synthetic(np.zeros(5)), arm_level=0.0, fire_level=0.0)


@pytest.mark.parametrize("key", ["arm_level", "fire_level"])
@pytest.mark.parametrize("bad", [True, False, "0", math.nan, math.inf])
def test_count_spikes_refuses_levels_that_are_no_finite_numbers(key, bad):
    # a bool once ran as 1.0 or 0.0, and "0" failed with a bare TypeError
    levels = dict(arm_level=-0.5, fire_level=0.0)
    levels[key] = bad
    with pytest.raises(ConfigError, match=key) as exc:
        ft.count_spikes(synthetic(np.zeros(5)), **levels)
    assert exc.value.key == key


def test_count_spikes_default_arm_level():
    p = std()
    eq = ft.equilibrium(p, -1.0)
    traj = ft.simulate(p, ft.FrozenConstant(c=-1.0), ft.State(0.5, eq.w_e),
                       t_final=50.0)
    report = ft.count_spikes(traj)
    assert report.count >= 1
    assert report.spike_times[0] == traj.t[0]


def test_invariant_box_reference_value():
    p = std()
    L, S = ft.invariant_box(p)
    assert (L, S) == (4.0, 10.6)
    # the edge-flux inequality actually holds with margin
    worst = 1.0 - p.A ** 2 / 2.0 - p.B ** 2 / 2.0 + p.A * p.B
    assert L * worst - L ** 3 / 3.0 + S < 0.0
    assert S == (L + p.beta) / p.gamma + 1.0


def test_invariant_box_traps_and_attracts():
    p = std()
    L, S = ft.invariant_box(p)
    rng = np.random.default_rng(67)
    drive = ft.AveragedCosine(eta=0.04)
    for _ in range(5):
        ic = ft.State(float(rng.uniform(-L, L)), float(rng.uniform(-S, S)))
        traj = ft.simulate(p, drive, ic, t_final=200.0)
        assert np.max(np.abs(traj.v)) <= L + 1e-12
        assert np.max(np.abs(traj.w)) <= S + 1e-12
    # an exterior start moves toward the box
    far = ft.simulate(p, drive, ft.State(2.0 * L, 2.0 * S), t_final=50.0)
    d0 = oracles.box_distance(far.v[0], far.w[0], L, S)
    d1 = oracles.box_distance(far.v[-1], far.w[-1], L, S)
    assert d1 < d0
