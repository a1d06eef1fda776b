import json

import numpy as np
import pytest

import fhn_tis as ft
from fhn_tis.cli import main

STD = ["--A", "0.3", "--B", "0.3", "--beta", "0.8", "--gamma", "0.5",
       "--epsilon", "0.1"]


def test_classify_verdict_line(capsys):
    assert main(["classify"] + STD) == 0
    out = capsys.readouterr().out
    assert "unique=yes" in out
    assert "les_sufficient=yes" in out
    assert "eq_left_of_folds=yes" in out
    assert "ges_small_eps=yes" in out
    assert "no_spiking=no" in out
    assert "piecewise_tonic=yes" in out


def test_classify_not_applicable_case(capsys):
    argv = ["classify", "--A", "1.0", "--B", "1.0", "--beta", "0.8",
            "--gamma", "0.5", "--epsilon", "0.1"]
    assert main(argv) == 0
    assert "no_spiking=n/a" in capsys.readouterr().out


def test_classify_table_output(tmp_path, capsys):
    path = tmp_path / "table.csv"
    assert main(["classify"] + STD + ["--c-grid-size", "11",
                                      "--table", str(path)]) == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "c,r,v_m,w_m,v_e,w_e,unique,les"
    assert len(lines) == 12
    assert float(lines[1].split(",")[0]) == -1.0
    # at A = B = 0.9 the gain is <= 0 for c > 0.23: no fold, so v_m and w_m
    # are nan there; floats parse back exactly and flags are 0/1
    assert main(["classify"] + STD + ["--A", "0.9", "--B", "0.9", "--c-grid-size", "11",
                                      "--table", str(path)]) == 0
    table = ft.frozen_table(ft.Params(0.9, 0.9, 0.8, 0.5, 0.1), c_grid_size=11)
    rows = [ln.split(",") for ln in path.read_text().splitlines()[1:]]
    assert [row[2] for row in rows].count("nan") == 4
    for i, row in enumerate(rows):
        assert np.array_equal([float(x) for x in row[:6]],
                              [table[k][i] for k in ("c", "r", "v_m", "w_m", "v_e", "w_e")],
                              equal_nan=True)
        assert row[6:] == [str(int(table[k][i])) for k in ("unique", "les")]


def test_missing_parameter_is_named(capsys):
    argv = ["classify", "--A", "0.3", "--B", "0.3", "--beta", "0.8",
            "--epsilon", "0.1"]
    assert main(argv) == 2
    assert "gamma" in capsys.readouterr().err


def test_invalid_parameter_value(capsys):
    argv = ["classify"] + STD[:-2] + ["--epsilon", "-0.1"]
    assert main(argv) == 2
    assert "epsilon" in capsys.readouterr().err


def test_argparse_usage_error():
    # missing required --t-final
    with pytest.raises(SystemExit) as exc:
        main(["simulate"] + STD + ["--drive", "frozen_constant", "--c", "0.5"])
    assert exc.value.code == 2


def test_simulate_outputs(tmp_path, capsys):
    csv = tmp_path / "traj.csv"
    spikes = tmp_path / "spikes.json"
    argv = (["simulate"] + STD
            + ["--epsilon", "0.02", "--drive", "averaged_cosine", "--eta", "0.04",
               "--ic", "0", "-0.478", "--t-final", "500",
               "--out-csv", str(csv), "--decimate", "10",
               "--spikes-json", str(spikes)])
    assert main(argv) == 0
    out = capsys.readouterr().out
    lines = csv.read_text().splitlines()
    assert lines[0] == "t,v,w"
    report = json.loads(spikes.read_text())
    assert f"spikes={report['count']}" in out
    assert report["count"] >= 1
    assert report["tonic"] == (report["count"] >= 2)


def test_simulate_adaptive_method(capsys):
    argv = (["simulate"] + STD
            + ["--drive", "frozen_constant", "--c", "1.0", "--t-final", "50",
               "--method", "adaptive", "--rel-tol", "1e-9", "--stride", "1"])
    assert main(argv) == 0
    assert "samples=" in capsys.readouterr().out


def test_simulate_rejects_bad_drive_value(capsys):
    argv = (["simulate"] + STD
            + ["--drive", "frozen_constant", "--c", "2.0", "--t-final", "10"])
    assert main(argv) == 2
    assert "c" in capsys.readouterr().err


@pytest.mark.parametrize("flags, key", [
    (["--dt", "0"], "dt"),
    (["--stride", "0"], "sample_stride"),
    (["--method", "adaptive", "--max-dt", "0"], "max_dt"),
    (["--decimate", "0"], "decimate"),
])
def test_simulate_rejects_zero_step_settings(flags, key, capsys):
    # an explicit 0 must not fall back to the default value
    argv = (["simulate"] + STD
            + ["--drive", "frozen_constant", "--c", "0.5", "--t-final", "5"] + flags)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert key in captured.err
    assert "samples=" not in captured.out


@pytest.mark.parametrize("argv, key", [
    # a NaN step once ended the falling arc at a "fold" and said escape_cycle=no
    (["singular-check"] + STD + ["--kappa", "2", "--ds", "nan"], "ds"),
    (["singular-check"] + STD + ["--kappa", "inf"], "kappa"),
    # a NaN tol once skipped the refinement and printed another kappa*
    (["kappa-threshold"] + STD + ["--tol", "nan"], "tol"),
    (["sweep-exp1", "--t-final", "nan"], "t_final"),
    (["sweep-exp1", "--t-final", "inf"], "t_final"),
    (["simulate"] + STD + ["--drive", "frozen_constant", "--c", "0.5", "--t-final", "inf"],
     "t_final"),
    (["simulate"] + STD + ["--drive", "frozen_constant", "--c", "0.5", "--t-final", "5",
                           "--t0=-inf"], "t0"),
])
def test_non_finite_settings_are_refused(argv, key, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert key in captured.err and "finite" in captured.err
    assert captured.out == ""


def test_simulate_divergence_exit_code(capsys):
    argv = (["simulate"] + STD
            + ["--drive", "frozen_constant", "--c", "1.0", "--ic", "2", "0",
               "--t-final", "100", "--dt", "10"])
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "t=" in err and "state=" in err


def test_config_file_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "params": {"A": 0.3, "B": 0.3, "beta": 0.8, "gamma": 0.5,
                   "epsilon": 0.1},
        "drive": {"kind": "frozen_constant", "c": 0.5},
        "integrator": {"method": "fixed", "dt": 0.02, "stride": 5},
    }))
    assert main(["simulate", "--config", str(cfg), "--t-final", "20"]) == 0
    capsys.readouterr()
    # explicit flags beat the file, including into an invalid value
    assert main(["simulate", "--config", str(cfg), "--t-final", "20",
                 "--A", "-1"]) == 2
    assert "A" in capsys.readouterr().err


def test_config_refuses_a_stride_that_is_no_integer(tmp_path, capsys):
    # the file's stride once went through int(), so 2.5 ran as 2
    cfg = tmp_path / "stride.json"
    cfg.write_text(json.dumps({
        "params": {"A": 0.3, "B": 0.3, "beta": 0.8, "gamma": 0.5, "epsilon": 0.1},
        "drive": {"kind": "frozen_constant", "c": 0.5},
        "integrator": {"method": "fixed", "dt": 0.05, "stride": 2.5},
    }))
    assert main(["simulate", "--config", str(cfg), "--t-final", "5"]) == 2
    captured = capsys.readouterr()
    assert "sample_stride" in captured.err and "2.5" in captured.err
    assert "samples=" not in captured.out
    # the flag is an integer and overrides the file
    assert main(["simulate", "--config", str(cfg), "--t-final", "5", "--stride", "2"]) == 0
    assert "samples=51" in capsys.readouterr().out


@pytest.mark.parametrize("section, entry, key", [
    # a string step once exited 1 with a bare TypeError
    ("integrator", {"dt": "0.01"}, "dt"),
    # booleans once ran as 1: a stride of 1, and epsilon = 1
    ("integrator", {"stride": True}, "stride"),
    ("params", {"epsilon": True}, "epsilon"),
    ("params", {"A": "0.3"}, "A"),
    ("drive", {"values": [True, False, True]}, "values"),
])
def test_config_refuses_values_that_are_no_numbers(tmp_path, capsys, section, entry, key):
    cfg = {"params": {"A": 0.3, "B": 0.3, "beta": 0.8, "gamma": 0.5, "epsilon": 0.1},
           "drive": {"kind": "custom_sampled", "values": [0.0, 0.5], "dt": 1.0},
           "integrator": {"method": "fixed", "dt": 0.05, "stride": 2}}
    cfg[section].update(entry)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    assert main(["simulate", "--config", str(path), "--t-final", "5"]) == 2
    captured = capsys.readouterr()
    assert f"{key} must" in captured.err
    assert "samples=" not in captured.out


def test_config_drive_keys_take_flags_one_by_one(tmp_path, capsys):
    cfg = tmp_path / "drive.json"
    cfg.write_text(json.dumps({
        "params": {"A": 0.3, "B": 0.3, "beta": 0.8, "gamma": 0.5, "epsilon": 0.02},
        "drive": {"kind": "averaged_cosine", "eta": 0.04},
    }))

    def spikes(*flags):
        assert main(["simulate", "--config", str(cfg), "--t-final", "500", *flags]) == 0
        return dict(kv.split("=") for kv in capsys.readouterr().out.split())["spikes"]

    # a flag overrides the file's key; --drive naming the file's kind keeps its keys
    assert spikes() == spikes("--drive", "averaged_cosine") == "4"
    assert spikes("--eta", "0.4") == spikes("--drive", "averaged_cosine", "--eta", "0.4")
    assert spikes("--eta", "0.4") == "1"
    # another kind starts from the flags alone
    assert spikes("--drive", "frozen_constant", "--c", "0.5") == "1"
    # a flag the file's kind has no key for is rejected, not dropped
    assert main(["simulate", "--config", str(cfg), "--t-final", "500", "--c", "0.5"]) == 2
    assert "'c'" in capsys.readouterr().err


def test_config_rejects_unknown_section(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"params": {}, "solver": {}}))
    assert main(["classify", "--config", str(cfg)] + STD) == 2
    assert "solver" in capsys.readouterr().err
    # a section that is not an object is named too
    cfg.write_text(json.dumps({"drive": "sign_cosine"}))
    assert main(["simulate", "--config", str(cfg), "--t-final", "5"] + STD) == 2
    assert "section 'drive'" in capsys.readouterr().err


def test_config_rejects_unknown_integrator_key(tmp_path, capsys):
    cfg = tmp_path / "bad2.json"
    cfg.write_text(json.dumps({
        "drive": {"kind": "frozen_constant", "c": 0.0},
        "integrator": {"step": 0.01},
    }))
    assert main(["simulate", "--config", str(cfg)] + STD + ["--t-final", "5"]) == 2
    assert "step" in capsys.readouterr().err


def test_config_missing_file(capsys):
    assert main(["classify", "--config", "/nonexistent/cfg.json"] + STD) == 2
    assert "config" in capsys.readouterr().err


def test_singular_check_tonic_side(capsys):
    assert main(["singular-check"] + STD + ["--kappa", "2.0"]) == 0
    out = capsys.readouterr().out
    assert "rising_arc_completes=no" in out
    assert "escape_cycle=yes" in out
    assert "landing_s=" in out and "landing_c=" in out


def test_singular_check_quiescent_side_with_arcs(tmp_path, capsys):
    out_dir = tmp_path / "arcs"
    assert main(["singular-check"] + STD
                + ["--kappa", "1.0", "--dump-arcs", str(out_dir)]) == 0
    out = capsys.readouterr().out
    assert "rising_arc_completes=yes" in out
    assert "escape_cycle=no" in out
    for name in ("arc_rising_from_rest.csv", "arc_falling.csv",
                 "arc_rising_from_handoff.csv"):
        lines = (out_dir / name).read_text().splitlines()
        assert lines[0] == "s,v,w,c"
        assert len(lines) > 10


def test_kappa_threshold_command(capsys):
    assert main(["kappa-threshold"] + STD) == 0
    out = capsys.readouterr().out
    value = float(out.strip().split("=")[1])
    assert value == pytest.approx(1.5724024463827118, abs=1e-6)


def test_kappa_threshold_region_failure(capsys):
    argv = ["kappa-threshold", "--A", "1.0", "--B", "1.0", "--beta", "0.8",
            "--gamma", "0.5", "--epsilon", "0.1"]
    assert main(argv) == 2
    assert "equilibria_left_of_folds" in capsys.readouterr().err


def test_sweep_exp1_desk(tmp_path, capsys):
    out_dir = tmp_path / "exp1"
    assert main(["sweep-exp1", "--preset", "desk", "--t-final", "200",
                 "--out", str(out_dir)]) == 0
    out = capsys.readouterr().out
    assert "panel A=0.15" in out and "panel A=0.3" in out
    for name in ("panel_0.15_0.15.csv", "panel_0.3_0.3.csv",
                 "redline.txt", "manifest.json"):
        assert (out_dir / name).exists()
    assert len((out_dir / "redline.txt").read_text().splitlines()) == 2
    man = json.loads((out_dir / "manifest.json").read_text())
    assert len(man["panels"]) == 2
    assert man["panels"][0]["t_final"] == 200.0


def test_grid_exp2_desk(tmp_path, capsys):
    out_dir = tmp_path / "exp2"
    assert main(["grid-exp2", "--preset", "desk", "--out", str(out_dir)]) == 0
    out = capsys.readouterr().out
    assert "prediction=no_tonic" in out
    assert "prediction=tonic_heuristic" in out
    man = json.loads((out_dir / "manifest.json").read_text())
    assert len(man["grids"]) == 2
    csvs = list(out_dir.glob("grid_*.csv"))
    assert len(csvs) == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "fhn-tis" in capsys.readouterr().out


def test_help_mentions_units(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--help"])
    assert exc.value.code == 0
    help_text = capsys.readouterr().out
    assert "time units" in help_text
    assert "dimensionless" in help_text
