"""Command-line interface: analysis verdicts, simulations, and sweep experiments.

Exit codes: 0 success, 2 validation error (the message names the offending
key), 1 runtime error. All numeric output uses full round-trip decimal
formatting so results are diffable across runs and platforms.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

from ._version import __version__
from .errors import ConfigError, DivergenceError, DomainError, RegionPreconditionError
from .model import Params, State, _check_int, drive_from_dict, params_from_dict
from .frozen import (_C_GRID_SIZE, classify_region, equilibrium, frozen_table,
                     no_spiking_condition, piecewise_spiking_condition)
from .singular import (DEFAULT_DS, _KAPPA_TOL, CubicPoint, escape_cycle_check,
                       integrate_singular, kappa_threshold, predicts_no_tonic)
from .sim import (DEFAULT_CONFIG, _FIRE_LEVEL, AdaptiveRK45, FixedRK4, IntegratorConfig,
                  _is_tonic, count_spikes, simulate)
from .experiments import (_write_csv, desk_grid_specs, desk_sweep_spec, paper_grid_specs,
                          paper_sweep_spec, run_experiment1, run_experiment2,
                          save_grid_results, save_sweep_results)

_PARAM_FLAGS = ("A", "B", "beta", "gamma", "epsilon")
_DRIVE_FLAGS = ("eta", "c", "omega1", "omega2")
_INTEGRATOR_DEFAULTS = {"method": "fixed", "dt": DEFAULT_CONFIG.method.dt,
                        "stride": DEFAULT_CONFIG.sample_stride,
                        **dataclasses.asdict(AdaptiveRK45())}


def _load_config(path):
    if path is None:
        return {}
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path!r}", key="config")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}", key="config")
    if not isinstance(cfg, dict):
        raise ConfigError("config file must hold a JSON object", key="config")
    for k, section in cfg.items():
        if k not in ("params", "drive", "integrator"):
            raise ConfigError(f"unknown config section: {k!r}", key=k)
        if not isinstance(section, dict):
            raise ConfigError(f"config section {k!r} must be a JSON object", key=k)
    return cfg


def _with_flags(section, args, keys) -> dict:
    """A copy of a config-file section in which each given flag named in keys
    sets its key. An explicit 0 is kept, so that validation rejects it.
    """
    d = dict(section)
    for key in keys:
        val = getattr(args, key, None)
        if val is not None:
            d[key] = val
    return d


def _build_params(args, cfg) -> Params:
    return params_from_dict(_with_flags(cfg.get("params", {}), args, _PARAM_FLAGS))


def _build_drive(args, cfg):
    d = cfg.get("drive", {})
    kind = getattr(args, "drive", None)
    if kind is not None and kind != d.get("kind"):
        # a kind other than the file's takes none of the file's keys
        d = {"kind": kind}
    if not d:
        raise ConfigError("no drive given: pass --drive or a config 'drive' section",
                          key="drive")
    return drive_from_dict(_with_flags(d, args, _DRIVE_FLAGS))


def _build_integrator(args, cfg) -> IntegratorConfig:
    d = cfg.get("integrator", {})
    for k in d:
        if k not in _INTEGRATOR_DEFAULTS:
            raise ConfigError(f"unknown integrator key: {k!r}", key=k)
    d = _with_flags({**_INTEGRATOR_DEFAULTS, **d}, args, _INTEGRATOR_DEFAULTS)
    if d["method"] == "fixed":
        method = FixedRK4(dt=d["dt"])
    elif d["method"] == "adaptive":
        method = AdaptiveRK45(rel_tol=d["rel_tol"], abs_tol=d["abs_tol"],
                              max_dt=d["max_dt"])
    else:
        raise ConfigError(f"unknown integrator method: {d['method']!r}", key="method")
    return IntegratorConfig(method=method, sample_stride=d["stride"])


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


def _add_param_flags(sp):
    g = sp.add_argument_group("model parameters (dimensionless)")
    g.add_argument("--A", type=float, help="first carrier amplitude (> 0)")
    g.add_argument("--B", type=float, help="second carrier amplitude (> 0)")
    g.add_argument("--beta", type=float, help="recovery offset (> 0)")
    g.add_argument("--gamma", type=float, help="recovery gain (> 0)")
    g.add_argument("--epsilon", type=float,
                   help="timescale ratio of recovery to voltage (> 0)")
    sp.add_argument("--config", metavar="FILE",
                    help="JSON config with params/drive/integrator sections; "
                         "explicit flags override it")


def _cmd_classify(args) -> int:
    cfg = _load_config(args.config)
    p = _build_params(args, cfg)
    region = classify_region(p, c_grid_size=args.c_grid_size)
    try:
        quiet = _yesno(no_spiking_condition(p, c_grid_size=args.c_grid_size))
    except RegionPreconditionError:
        quiet = "n/a"
    print(f"unique={_yesno(region.unique)} "
          f"les_sufficient={_yesno(region.les_sufficient)} "
          f"eq_left_of_folds={_yesno(region.equilibria_left_of_folds)} "
          f"ges_small_eps={_yesno(region.ges_small_eps)} "
          f"no_spiking={quiet} "
          f"piecewise_tonic={_yesno(piecewise_spiking_condition(p))}")
    if args.table:
        _write_csv(args.table, frozen_table(p, c_grid_size=args.c_grid_size))
        print(f"wrote {args.table}")
    return 0


def _cmd_simulate(args) -> int:
    _check_int("decimate", args.decimate, 1)
    cfg = _load_config(args.config)
    p = _build_params(args, cfg)
    drive = _build_drive(args, cfg)
    icfg = _build_integrator(args, cfg)
    ic = State(v=args.ic[0], w=args.ic[1])
    traj = simulate(p, drive, ic, args.t_final, icfg, t0=args.t0)
    report = count_spikes(traj, arm_level=args.arm_level, fire_level=args.fire_level)
    print(f"samples={traj.t.size} t_final={args.t_final!r} "
          f"spikes={report.count} tonic={_yesno(report.tonic)}")
    if args.out_csv:
        _write_csv(args.out_csv, {x: getattr(traj, x)[::args.decimate] for x in "tvw"})
        print(f"wrote {args.out_csv}")
    if args.spikes_json:
        with open(args.spikes_json, "w") as fh:
            json.dump({"spike_times": list(report.spike_times),
                       "count": report.count, "tonic": report.tonic}, fh, indent=2)
        print(f"wrote {args.spikes_json}")
    return 0


def _cmd_singular_check(args) -> int:
    cfg = _load_config(args.config)
    p = _build_params(args, cfg)
    kstar = kappa_threshold(p)
    no_tonic = predicts_no_tonic(p, args.kappa, ds=args.ds)
    cycle = escape_cycle_check(p, args.kappa, ds=args.ds)
    line = (f"kappa={args.kappa!r} kappa_star={kstar!r} "
            f"rising_arc_completes={_yesno(no_tonic)} "
            f"escape_cycle={_yesno(cycle.holds)}")
    if cycle.landing is not None:
        line += f" landing_s={cycle.landing[0]!r} landing_c={cycle.landing[1]!r}"
    if cycle.note:
        line += f" note={cycle.note!r}"
    print(line)
    if args.dump_arcs:
        out = Path(args.dump_arcs)
        out.mkdir(parents=True, exist_ok=True)
        bot, top = equilibrium(p, -1.0), equilibrium(p, 1.0)
        # (file name, start phase, start point); there is no handoff when the
        # falling arc ended early
        arcs = [("arc_rising_from_rest.csv", math.pi, CubicPoint(bot.v_e, bot.w_e, -1.0)),
                ("arc_falling.csv", 0.0, CubicPoint(top.v_e, top.w_e, 1.0)),
                ("arc_rising_from_handoff.csv", math.pi, cycle.handoff)]
        for name, phase, start in arcs:
            if start is not None:
                arc = integrate_singular(p, args.kappa, phase, start,
                                         math.pi / args.kappa, ds=args.ds)
                _write_csv(out / name, {x: getattr(arc, x) for x in "svwc"})
        print(f"wrote arcs to {out}")
    return 0


def _cmd_kappa_threshold(args) -> int:
    cfg = _load_config(args.config)
    p = _build_params(args, cfg)
    kstar = kappa_threshold(p, tol=args.tol)
    print(f"kappa_star={kstar!r}")
    return 0


def _cmd_sweep_exp1(args) -> int:
    preset = paper_sweep_spec if args.preset == "paper" else desk_sweep_spec
    # the presets own the beta and gamma defaults
    spec = preset(**{k: getattr(args, k) for k in ("beta", "gamma")
                     if getattr(args, k) is not None})
    if args.t_final is not None:
        spec = dataclasses.replace(spec, t_final=args.t_final)
    results = run_experiment1(spec)
    for res in results:
        frac = float(_is_tonic(res.counts).mean())
        print(f"panel A={res.A!r} B={res.B!r}: kappa_star={res.kappa_star!r} "
              f"tonic_fraction={frac!r} "
              f"wall_s={res.manifest['wall_time_s']:.1f}")
    paths = save_sweep_results(results, args.out)
    print(f"wrote {len(paths)} files to {args.out}")
    return 0


def _cmd_grid_exp2(args) -> int:
    specs = paper_grid_specs() if args.preset == "paper" else desk_grid_specs()
    results = run_experiment2(specs)
    for res in results:
        gs = res.settings
        tonic_frac = float(_is_tonic(res.counts).mean())
        print(f"grid A={gs.A!r} B={gs.B!r} kappa={gs.kappa!r} "
              f"epsilon={gs.epsilon!r}: prediction={res.prediction.value} "
              f"tonic_fraction={tonic_frac!r} max_count={int(res.counts.max())}")
    paths = save_grid_results(results, args.out)
    print(f"wrote {len(paths)} files to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fhn-tis",
        description="Relaxation-neuron analysis and simulation under "
                    "interference envelopes. Time is in units of the fast "
                    "(voltage) timescale; all state and parameters are "
                    "dimensionless.")
    ap.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("classify",
                        help="evaluate region membership and spiking conditions")
    _add_param_flags(sp)
    sp.add_argument("--c-grid-size", type=int, default=_C_GRID_SIZE,
                    help="points of the envelope-value grid on which "
                         "eq_left_of_folds is checked, and the rows of --table "
                         "(default %(default)s)")
    sp.add_argument("--table", metavar="CSV",
                    help="also write a per-c table (c, r, v_m, w_m, v_e, w_e, "
                         "unique, les)")
    sp.set_defaults(func=_cmd_classify)

    sp = sub.add_parser("simulate", help="integrate one trajectory and count spikes")
    _add_param_flags(sp)
    sp.add_argument("--drive", choices=["averaged_cosine", "sign_cosine",
                                        "frozen_constant", "raw_interference"],
                    help="drive kind (custom_sampled is config-file only)")
    sp.add_argument("--eta", type=float,
                    help="envelope beat frequency, rad per time unit (> 0)")
    sp.add_argument("--c", type=float, help="frozen envelope value in [-1, 1]")
    sp.add_argument("--omega1", type=float,
                    help="first carrier frequency, rad per time unit (> 0)")
    sp.add_argument("--omega2", type=float,
                    help="second carrier frequency, rad per time unit (> omega1)")
    sp.add_argument("--ic", type=float, nargs=2, metavar=("V", "W"),
                    default=(0.0, 0.0), help="initial state (default 0 0)")
    sp.add_argument("--t-final", type=float, required=True,
                    help="end time in fast time units (> t0)")
    sp.add_argument("--t0", type=float, default=0.0,
                    help="start time in fast time units (default 0)")
    sp.add_argument("--method", choices=["fixed", "adaptive"],
                    help="integrator: fixed RK4 or adaptive RK45 (default fixed)")
    sp.add_argument("--dt", type=float, help="fixed step in time units "
                    f"(default {_INTEGRATOR_DEFAULTS['dt']})")
    sp.add_argument("--rel-tol", type=float, help="adaptive relative tolerance")
    sp.add_argument("--abs-tol", type=float, help="adaptive absolute tolerance")
    sp.add_argument("--max-dt", type=float, help="adaptive step cap in time units")
    sp.add_argument("--stride", type=int, help="record every Nth step "
                    f"(default {_INTEGRATOR_DEFAULTS['stride']})")
    sp.add_argument("--arm-level", type=float,
                    help="re-arm threshold for spike detection "
                         "(default v_e(-1)/2, dimensionless)")
    sp.add_argument("--fire-level", type=float, default=_FIRE_LEVEL,
                    help="spike threshold on v (default %(default)s)")
    sp.add_argument("--out-csv", metavar="CSV", help="write trajectory t,v,w")
    sp.add_argument("--decimate", type=int, default=1,
                    help="keep every Nth sample in the CSV (default 1)")
    sp.add_argument("--spikes-json", metavar="JSON",
                    help="write spike report {spike_times, count, tonic}")
    sp.set_defaults(func=_cmd_simulate)

    sp = sub.add_parser("singular-check",
                        help="slow-limit arc verdicts and threshold at one kappa")
    _add_param_flags(sp)
    sp.add_argument("--kappa", type=float, required=True,
                    help="beat-to-timescale ratio (> 0, dimensionless)")
    sp.add_argument("--ds", type=float, default=DEFAULT_DS,
                    help="slow-time integration step (default %(default)s)")
    sp.add_argument("--dump-arcs", metavar="DIR",
                    help="write arc CSVs (s, v, w, c) to this directory")
    sp.set_defaults(func=_cmd_singular_check)

    sp = sub.add_parser("kappa-threshold",
                        help="critical kappa where an escape window opens")
    _add_param_flags(sp)
    sp.add_argument("--tol", type=float, default=_KAPPA_TOL,
                    help="refinement tolerance on kappa (default %(default)s)")
    sp.set_defaults(func=_cmd_kappa_threshold)

    sp = sub.add_parser("sweep-exp1",
                        help="kappa-epsilon tonic-spiking heatmap per amplitude pair")
    sp.add_argument("--preset", choices=["desk", "paper"], default="desk",
                    help="desk: 2 panels, coarse grid; paper: 8 panels, 60x41")
    sp.add_argument("--out", metavar="DIR", default="exp1_out",
                    help="output directory (default exp1_out)")
    sp.add_argument("--beta", type=float, help="recovery offset (default 0.8)")
    sp.add_argument("--gamma", type=float, help="recovery gain (default 0.5)")
    sp.add_argument("--t-final", type=float,
                    help="override simulation horizon per cell, time units")
    sp.set_defaults(func=_cmd_sweep_exp1)

    sp = sub.add_parser("grid-exp2",
                        help="initial-condition grids vs slow-limit predictions")
    sp.add_argument("--preset", choices=["desk", "paper"], default="desk",
                    help="desk: 11x11 grids, T=500; paper: 21x21 grids, T=1000")
    sp.add_argument("--out", metavar="DIR", default="exp2_out",
                    help="output directory (default exp2_out)")
    sp.set_defaults(func=_cmd_grid_exp2)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (DomainError, RegionPreconditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(f"error: {exc} (t={exc.t!r}, state={exc.state!r})", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failures map to exit 1
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
