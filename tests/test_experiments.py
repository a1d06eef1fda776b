import json
import math

import numpy as np
import pytest

import fhn_tis as ft
from fhn_tis import _kernels, experiments
from fhn_tis.errors import ConfigError, DomainError, RegionPreconditionError
from fhn_tis.experiments import _axis
from fhn_tis.singular import _escape_floor, escape_cycle_check, predicts_no_tonic
from test_singular import in_region_draws


def tiny_spec(t_final=300.0, **overrides):
    kw = dict(amplitude_list=((0.3, 0.3),),
              kappa_range=(1.0, 3.0, 1.0),
              epsilon_range=(0.02, 0.04, 0.02),
              t_final=t_final,
              beta=0.8, gamma=0.5)
    kw.update(overrides)
    return ft.SweepSpec(**kw)


def test_axis_construction():
    assert np.allclose(_axis((1.0, 3.0, 1.0)), [1.0, 2.0, 3.0])
    assert _axis((0.2, 12.0, 0.2)).size == 60
    assert _axis((0.005, 0.205, 0.005)).size == 41
    assert _axis((0.1, 0.1, 0.1)).size == 1
    a = _axis((0.005, 0.205, 0.005))
    assert a[0] == pytest.approx(0.005) and a[-1] == pytest.approx(0.205)


def test_spec_validation():
    with pytest.raises(DomainError):
        tiny_spec(amplitude_list=())
    # every pair is checked at construction, not when the run reaches its panel
    for pairs, key in ((((0.3, 0.3), (True, 0.3)), "A"), (((0.3, 0.3), (0.3, "0.3")), "B"),
                       (((0.3, 0.3), (0.3, math.nan)), "B"), (((0.3, -0.3),), "B"),
                       (((0.3, 0.3, 0.3),), "amplitude_list"), (((0.3,),), "amplitude_list"),
                       ((0.3, 0.3), "amplitude_list"), (0.3, "amplitude_list")):
        with pytest.raises(ConfigError) as exc:
            tiny_spec(amplitude_list=pairs)
        assert exc.value.key == key, pairs
    # the pairs are kept as a tuple, so an iterator is not used up by the check
    spec = tiny_spec(amplitude_list=((a, a) for a in (0.3,)))
    assert spec.amplitude_list == ((0.3, 0.3),)
    with pytest.raises(DomainError):
        tiny_spec(kappa_range=(1.0, 3.0, 0.0))
    with pytest.raises(DomainError):
        tiny_spec(epsilon_range=(0.2, 0.1, 0.05))
    with pytest.raises(DomainError):
        tiny_spec(t_final=0.0)
    with pytest.raises(DomainError):
        ft.GridSpec(A=0.3, B=0.3, beta=0.8, gamma=0.5, kappa=0.0, epsilon=0.02)
    # np.linspace takes only an integer count, so the spec checks it up front
    for bad in (1, 2.5, 21.0, "21", True):
        with pytest.raises(DomainError, match="grid_points"):
            ft.GridSpec(A=0.3, B=0.3, beta=0.8, gamma=0.5, kappa=1.0, epsilon=0.02,
                        grid_points=bad)
    # NaN and inf pass a `<= 0.0` test; the specs refuse them
    grid = dict(A=0.3, B=0.3, beta=0.8, gamma=0.5, kappa=1.0, epsilon=0.02)
    for bad in (math.nan, math.inf):
        for kw in (dict(t_final=bad), dict(kappa_range=(1.0, bad, 1.0)),
                   dict(kappa_range=(bad, 3.0, 1.0)), dict(epsilon_range=(0.02, 0.04, bad))):
            with pytest.raises(DomainError):
                tiny_spec(**kw)
        for kw in (dict(t_final=bad), dict(extent=bad), dict(kappa=bad), dict(epsilon=bad)):
            with pytest.raises(DomainError):
                ft.GridSpec(**{**grid, **kw})


def test_specs_reject_adaptive_integrator():
    # sweep cells run fixed-step RK4 only; an adaptive config is refused
    # rather than run at its max_dt
    adaptive = ft.IntegratorConfig(method=ft.AdaptiveRK45())
    with pytest.raises(DomainError, match="FixedRK4"):
        tiny_spec(integrator=adaptive)
    with pytest.raises(DomainError, match="FixedRK4"):
        ft.GridSpec(A=0.3, B=0.3, beta=0.8, gamma=0.5, kappa=1.0, epsilon=0.02,
                    integrator=adaptive)


def test_runs_match_scalar_kernel_cell_by_cell():
    # one ensemble spans both panels; the grids form two ensembles, split by
    # horizon, with unequal grid sizes inside one of them
    spec = tiny_spec(t_final=50.0, amplitude_list=((0.15, 0.15), (0.3, 0.3)))
    for res in ft.run_experiment1(spec):
        arm, (v0, w0) = res.manifest["arm_level"], res.manifest["ic"]
        for i, kap in enumerate(res.kappa_values):
            for j, eps in enumerate(res.epsilon_values):
                c, ok = _kernels.cosine_cell_spikes(
                    res.A, res.B, 0.8, 0.5, float(eps), float(kap * eps), v0, w0,
                    50.0, 0.01, 0.0, arm)
                assert res.counts[i, j] == (c if ok else -1)
    grids = [ft.GridSpec(A=0.3, B=0.3, beta=0.8, gamma=0.5, kappa=2.0, epsilon=0.02,
                         t_final=40.0, grid_points=3),
             ft.GridSpec(A=0.2, B=0.25, beta=0.7, gamma=0.6, kappa=1.0, epsilon=0.1,
                         t_final=25.0, grid_points=2, extent=3.0),
             ft.GridSpec(A=0.3, B=0.3, beta=0.8, gamma=0.5, kappa=1.0, epsilon=0.05,
                         t_final=40.0, grid_points=4)]
    for gs, res in zip(grids, ft.run_experiment2(grids)):
        assert res.counts.shape == (gs.grid_points, gs.grid_points)
        for i, v0 in enumerate(res.v0_values):
            for j, w0 in enumerate(res.w0_values):
                c, ok = _kernels.cosine_cell_spikes(
                    gs.A, gs.B, gs.beta, gs.gamma, gs.epsilon, gs.kappa * gs.epsilon,
                    float(v0), float(w0), gs.t_final, 0.01, 0.0,
                    res.manifest["arm_level"])
                assert res.counts[i, j] == (c if ok else -1)


def scalar_cell(A, B, beta, gamma, eps, eta, v0, w0, t_final, dt, arm):
    """The scalar cell kernel's count, or -1 where its state went non-finite."""
    c, ok = _kernels.cosine_cell_spikes(A, B, beta, gamma, eps, eta, float(v0), float(w0),
                                        t_final, dt, 0.0, arm)
    return c if ok else -1


def coarse(dt):
    return ft.IntegratorConfig(method=ft.FixedRK4(dt=dt))


def test_grid_marks_diverged_cells_minus_one(tmp_path):
    # of the 3x3 starts of extent 40 at dt 0.25, only the centre (0, 0)
    # stays finite
    gs = ft.GridSpec(A=0.3, B=0.3, beta=0.8, gamma=0.5, kappa=2.0, epsilon=0.02,
                     t_final=50.0, grid_points=3, extent=40.0, integrator=coarse(0.25))
    res, = ft.run_experiment2([gs])
    expected = [[-1, -1, -1], [-1, 1, -1], [-1, -1, -1]]
    assert res.counts.tolist() == expected
    assert res.diverged.tolist() == (res.counts < 0).tolist()
    arm = res.manifest["arm_level"]
    assert [[scalar_cell(0.3, 0.3, 0.8, 0.5, 0.02, 0.04, v0, w0, 50.0, 0.25, arm)
             for w0 in res.w0_values] for v0 in res.v0_values] == expected
    ft.save_grid_results([res], tmp_path)
    lines = (tmp_path / "grid_0.3_0.3_kappa2_eps0.02.csv").read_text().splitlines()
    rows = [ln.split(",") for ln in lines if not ln.startswith("#")][1:]
    assert [int(r[2]) for r in rows] == sum(expected, [])


def test_panel_marks_diverged_cells_minus_one(tmp_path):
    # every cell diverges from (40, 0) at dt 0.5
    spec = tiny_spec(t_final=50.0, ic_policy=ft.ExplicitIC(ft.State(40.0, 0.0)),
                     integrator=coarse(0.5))
    res, = ft.run_experiment1(spec)
    assert res.counts.tolist() == [[-1, -1]] * 3
    assert res.diverged.all()
    arm = res.manifest["arm_level"]
    assert all(scalar_cell(0.3, 0.3, 0.8, 0.5, eps, kap * eps, 40.0, 0.0, 50.0, 0.5, arm) == -1
               for kap in res.kappa_values.tolist() for eps in res.epsilon_values.tolist())
    ft.save_sweep_results([res], tmp_path)
    lines = (tmp_path / "panel_0.3_0.3.csv").read_text().splitlines()
    rows = [ln.split(",") for ln in lines if not ln.startswith("#")][1:]
    assert [(int(c), int(t)) for _, _, c, t in rows] == [(-1, 0)] * 6
    mat = (tmp_path / "panel_0.3_0.3_matrix.txt").read_text().splitlines()[1:]
    assert mat == ["-1 -1 -1"] * 2


def test_explicit_ic_refuses_non_finite_start():
    # a non-finite start once ran and marked every cell diverged
    for v, w in ((math.nan, 0.0), (0.0, math.inf), (-math.inf, 1.0),
                 (True, 0.0), (0.0, "1")):
        with pytest.raises(DomainError, match="finite"):
            ft.ExplicitIC(ft.State(v, w))


def test_evaluate_prediction_reference_points():
    p = ft.Params(A=0.3, B=0.3, beta=0.8, gamma=0.5, epsilon=0.02)
    assert ft.evaluate_prediction(p, 2.0) is ft.Prediction.TONIC_HEURISTIC
    assert ft.evaluate_prediction(p, 1.0) is ft.Prediction.NO_TONIC
    wide = ft.Params(A=1.0, B=1.0, beta=0.8, gamma=0.5, epsilon=0.02)
    assert ft.evaluate_prediction(wide, 2.0) is ft.Prediction.INDETERMINATE


def unshortcut_prediction(p, kappa):
    """The verdict chain with the escape cycle run at every kappa."""
    try:
        if escape_cycle_check(p, kappa).holds:
            return ft.Prediction.TONIC_HEURISTIC
        if predicts_no_tonic(p, kappa):
            return ft.Prediction.NO_TONIC
    except RegionPreconditionError:
        return ft.Prediction.INDETERMINATE
    return ft.Prediction.INDETERMINATE


def test_evaluate_prediction_equals_unshortcut_chain():
    # seeded points with kappa* in [1, 4], so that an arc at half of kappa*
    # stays short (its cost grows as 1/kappa)
    seeded = [p for p in in_region_draws(83, 12) if 1.0 <= ft.kappa_threshold(p) <= 4.0]
    for p in [ft.Params(A=0.3, B=0.3, beta=0.8, gamma=0.5, epsilon=0.02)] + seeded[:2]:
        ks = ft.kappa_threshold(p)
        floor = _escape_floor(p)
        for kappa in (0.5 * ks, 0.9 * ks, ks, 1.5 * ks, floor,
                      float(np.nextafter(floor, np.inf))):
            assert ft.evaluate_prediction(p, kappa) is unshortcut_prediction(p, kappa)


def test_evaluate_prediction_skips_escape_cycle_below_floor(monkeypatch):
    p = ft.Params(A=0.3, B=0.3, beta=0.8, gamma=0.5, epsilon=0.02)
    floor = _escape_floor(p)
    below = {k: ft.evaluate_prediction(p, k) for k in (0.9 * floor, floor)}

    class Reached(Exception):
        pass

    def refuse(*args, **kwargs):
        raise Reached

    monkeypatch.setattr(experiments, "escape_cycle_check", refuse)
    for kappa, verdict in below.items():
        assert ft.evaluate_prediction(p, kappa) is verdict
    with pytest.raises(Reached):
        ft.evaluate_prediction(p, float(np.nextafter(floor, np.inf)))
    # the region check still comes first
    wide = ft.Params(A=1.0, B=1.0, beta=0.8, gamma=0.5, epsilon=0.02)
    assert ft.evaluate_prediction(wide, 2.0) is ft.Prediction.INDETERMINATE


def test_sweep_sanity_and_manifest():
    res, = ft.run_experiment1(tiny_spec())
    assert res.counts.shape == (3, 2)
    # the standard start is at the fire level with the detector armed, so
    # every cell records at least one spike
    assert np.all(res.counts >= 1)
    assert not res.diverged.any()
    assert res.kappa_star == pytest.approx(1.5724024463827118, abs=1e-6)
    for key in ("A", "B", "beta", "gamma", "t_final", "dt", "ic", "arm_level",
                "kappa_star", "grid_shape", "tool_version", "numba",
                "wall_time_s"):
        assert key in res.manifest
    assert res.manifest["grid_shape"] == [3, 2]


def test_sweep_deterministic_across_reruns():
    a, = ft.run_experiment1(tiny_spec())
    b, = ft.run_experiment1(tiny_spec())
    assert np.array_equal(a.counts, b.counts)
    assert a.kappa_star == b.kappa_star


def test_sweep_counts_monotone_in_horizon():
    short, = ft.run_experiment1(tiny_spec(t_final=300.0))
    long, = ft.run_experiment1(tiny_spec(t_final=600.0))
    assert np.all(long.counts >= short.counts)


def test_sweep_explicit_ic_honored():
    quiet = dict(amplitude_list=((0.15, 0.15),),
                 kappa_range=(1.0, 2.0, 1.0),
                 epsilon_range=(0.1, 0.1, 0.1),
                 t_final=300.0, beta=0.8, gamma=0.5)
    armed, = ft.run_experiment1(ft.SweepSpec(**quiet))
    assert np.all(armed.counts == 1)
    p = ft.Params(A=0.15, B=0.15, beta=0.8, gamma=0.5, epsilon=0.1)
    eq = ft.equilibrium(p, -1.0)
    rest, = ft.run_experiment1(ft.SweepSpec(
        **quiet, ic_policy=ft.ExplicitIC(ft.State(eq.v_e, eq.w_e))))
    assert np.all(rest.counts == 0)
    assert rest.manifest["ic"] == [eq.v_e, eq.w_e]


def test_ic_grids_match_predictions():
    quiescent, tonic = ft.run_experiment2(ft.desk_grid_specs())
    assert quiescent.prediction is ft.Prediction.NO_TONIC
    assert quiescent.counts.max() <= 1
    assert not (quiescent.counts >= 2).any()
    assert tonic.prediction is ft.Prediction.TONIC_HEURISTIC
    frac = np.mean(tonic.counts >= 2)
    assert frac >= 0.95


def test_save_sweep_results_layout(tmp_path):
    res = ft.run_experiment1(tiny_spec())
    written = ft.save_sweep_results(res, tmp_path)
    names = {p.name for p in written}
    assert {"panel_0.3_0.3.csv", "panel_0.3_0.3_matrix.txt",
            "redline.txt", "manifest.json"} <= names
    csv_lines = (tmp_path / "panel_0.3_0.3.csv").read_text().splitlines()
    header = [ln for ln in csv_lines if ln.startswith("#")]
    body = [ln for ln in csv_lines if not ln.startswith("#")]
    assert body[0] == "kappa,epsilon,count,tonic"
    assert len(body) == 1 + 3 * 2
    assert len(header) >= 10
    first = body[1].split(",")
    assert float(first[0]) == 1.0 and float(first[1]) == 0.02
    assert int(first[2]) == res[0].counts[0, 0]
    tonic = [int(ln.split(",")[3]) for ln in body[1:]]
    assert tonic == (res[0].counts >= 2).astype(int).ravel().tolist()
    mat = (tmp_path / "panel_0.3_0.3_matrix.txt").read_text().splitlines()
    assert len(mat) == 1 + 2            # comment + one row per epsilon
    assert len(mat[1].split()) == 3     # one column per kappa
    red = (tmp_path / "redline.txt").read_text().split()
    assert len(red) == 3
    assert float(red[2]) == pytest.approx(res[0].kappa_star)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert len(manifest["panels"]) == 1
    assert manifest["panels"][0]["A"] == 0.3


def test_sweep_csv_rows_parse_back_exactly(tmp_path):
    # axes whose values need all 17 digits, such as 2.4000000000000004
    res = ft.run_experiment1(tiny_spec(t_final=50.0, kappa_range=(0.8, 2.4, 0.8),
                                       epsilon_range=(0.1, 0.3, 0.1)))[0]
    ft.save_sweep_results([res], tmp_path)
    lines = (tmp_path / "panel_0.3_0.3.csv").read_text().splitlines()
    rows = [ln.split(",") for ln in lines if not ln.startswith("#")][1:]
    cells = [(k, e, int(res.counts[i, j]))
             for i, k in enumerate(res.kappa_values.tolist())
             for j, e in enumerate(res.epsilon_values.tolist())]
    assert 2.4000000000000004 in res.kappa_values.tolist()
    assert [(float(k), float(e), int(c)) for k, e, c, _ in rows] == cells


def test_save_grid_results_layout(tmp_path):
    spec = ft.GridSpec(A=0.3, B=0.3, beta=0.8, gamma=0.5, kappa=2.0,
                       epsilon=0.02, t_final=100.0, grid_points=3)
    res = ft.run_experiment2([spec])
    written = ft.save_grid_results(res, tmp_path)
    names = {p.name for p in written}
    assert "grid_0.3_0.3_kappa2_eps0.02.csv" in names
    assert "manifest.json" in names
    lines = (tmp_path / "grid_0.3_0.3_kappa2_eps0.02.csv").read_text().splitlines()
    body = [ln for ln in lines if not ln.startswith("#")]
    assert body[0] == "v0,w0,count"
    assert len(body) == 1 + 9
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["grids"][0]["prediction"] == "tonic_heuristic"
