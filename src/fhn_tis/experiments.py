"""Sweep experiments: tonic-spiking heatmaps and initial-condition grids.

Experiment 1 sweeps (kappa, epsilon) panels per amplitude pair, driving the
averaged system with a cosine envelope of beat kappa*epsilon from the standard
start (0, w_e(1)) and counting spikes per cell; the slow-limit threshold
kappa* is attached to each panel as the analytic overlay. Experiment 2 fixes
one (kappa, epsilon) cell and sweeps a square of initial conditions, comparing
the observed counts against the arc-based prediction.

The cells of one call are integrated together in lockstep as one numpy
ensemble (``_kernels.cosine_ensemble_spikes``), on the time rule of the
fixed-step simulator. Its counts equal the scalar cell kernel's cell by cell,
a diverged cell counts -1, and reruns are bit-identical.
"""
from __future__ import annotations

import dataclasses
import enum
import json
import math
import time
from pathlib import Path
from typing import Union

import numpy as np

from . import _kernels
from ._version import __version__
from .errors import ConfigError, DomainError, RegionPreconditionError
from .frozen import classify_region, equilibrium
from .model import Params, State, _check_int, _finite, _positive
from .sim import (DEFAULT_CONFIG, _FIRE_LEVEL, FixedRK4, IntegratorConfig, _is_tonic,
                  default_arm_level)
from .singular import _escape_floor, escape_cycle_check, kappa_threshold, predicts_no_tonic


class Prediction(enum.Enum):
    """Slow-limit verdict for one parameter point."""

    NO_TONIC = "no_tonic"
    TONIC_HEURISTIC = "tonic_heuristic"
    INDETERMINATE = "indeterminate"


@dataclasses.dataclass(frozen=True)
class AtZeroWe1:
    """Start every cell at (0, w_e(1)), which always fires at least once."""


@dataclasses.dataclass(frozen=True)
class ExplicitIC:
    """Start every cell at one given state, which must be finite."""

    state: State

    def __post_init__(self):
        v, w = self.state
        _finite("state.v", v)
        _finite("state.w", w)


def _require_fixed_step(cfg: IntegratorConfig):
    # sweep cells run on the fixed-step counting kernel only
    if not isinstance(cfg.method, FixedRK4):
        raise DomainError("sweeps and grids integrate with FixedRK4 only, "
                          f"got {type(cfg.method).__name__}")


@dataclasses.dataclass(frozen=True)
class SweepSpec:
    """Settings for one heatmap run; ranges are (min, max, step), inclusive."""

    amplitude_list: tuple
    kappa_range: tuple
    epsilon_range: tuple
    t_final: float
    beta: float
    gamma: float
    ic_policy: Union[AtZeroWe1, ExplicitIC] = AtZeroWe1()
    integrator: IntegratorConfig = DEFAULT_CONFIG

    def __post_init__(self):
        # kept as a tuple, so that checking the pairs does not use up an
        # iterator; what is not iterable is refused below as no pair
        try:
            pairs = tuple(self.amplitude_list)
        except TypeError:
            pairs = (self.amplitude_list,)
        object.__setattr__(self, "amplitude_list", pairs)
        if not pairs:
            raise DomainError("amplitude_list must be nonempty")
        for pair in pairs:
            try:
                A, B = pair
            except (TypeError, ValueError):
                raise ConfigError(f"amplitude_list must hold (A, B) pairs, got {pair!r}",
                                  key="amplitude_list") from None
            _positive("A", A)
            _positive("B", B)
        for name in ("kappa_range", "epsilon_range"):
            lo, hi, step = (_positive(name, x) for x in getattr(self, name))
            if not lo <= hi:
                raise DomainError(f"{name} must have min <= max, got {lo} > {hi}")
        for name in ("t_final", "beta", "gamma"):
            _positive(name, getattr(self, name))
        _require_fixed_step(self.integrator)


@dataclasses.dataclass(frozen=True, eq=False)
class SweepResult:
    """One heatmap panel: spike counts over the (kappa, epsilon) grid."""

    A: float
    B: float
    kappa_values: np.ndarray
    epsilon_values: np.ndarray
    counts: np.ndarray          # [i_kappa, j_epsilon]; -1 marks a diverged cell
    diverged: np.ndarray
    kappa_star: float           # NaN when the region precondition fails
    manifest: dict


@dataclasses.dataclass(frozen=True)
class GridSpec:
    """Settings for one initial-condition grid."""

    A: float
    B: float
    beta: float
    gamma: float
    kappa: float
    epsilon: float
    t_final: float = 1000.0
    grid_points: int = 21
    extent: float = 2.0
    integrator: IntegratorConfig = DEFAULT_CONFIG

    def __post_init__(self):
        for name in ("A", "B", "beta", "gamma", "kappa", "epsilon", "t_final", "extent"):
            _positive(name, getattr(self, name))
        _check_int("grid_points", self.grid_points, 2)
        _require_fixed_step(self.integrator)


@dataclasses.dataclass(frozen=True, eq=False)
class ICGridResult:
    """Spike counts over a square of starts, with the slow-limit prediction."""

    settings: GridSpec
    v0_values: np.ndarray
    w0_values: np.ndarray
    counts: np.ndarray          # [i_v0, j_w0]; -1 marks a diverged cell
    diverged: np.ndarray
    prediction: Prediction
    manifest: dict


def _axis(rng: tuple) -> np.ndarray:
    lo, hi, step = rng
    n = int(math.floor((hi - lo) / step + 1e-9)) + 1
    return lo + step * np.arange(n)


def evaluate_prediction(p: Params, kappa: float) -> Prediction:
    """Combined slow-limit verdict; the escape construction takes precedence.

    Outside the region the verdict is indeterminate. At or below the
    certified escape floor (``singular._escape_floor``, just under kappa*) no
    fold contact escapes, so the escape cycle cannot hold and is not run; the
    verdict is unchanged. ``escape_cycle_check`` and ``singular-check`` still
    report the handoff and landing at any kappa.
    """
    _positive("kappa", kappa)
    try:
        if kappa > _escape_floor(p) and escape_cycle_check(p, kappa).holds:
            return Prediction.TONIC_HEURISTIC
        if predicts_no_tonic(p, kappa):
            return Prediction.NO_TONIC
    except RegionPreconditionError:
        return Prediction.INDETERMINATE
    return Prediction.INDETERMINATE


def run_experiment1(spec: SweepSpec) -> list:
    """Run one heatmap panel per amplitude pair in the spec.

    The cells of all panels are integrated together as one ensemble, so each
    panel's manifest ``wall_time_s`` is its own set-up time plus the whole
    shared ensemble run.
    """
    kappas = _axis(spec.kappa_range)
    epsilons = _axis(spec.epsilon_range)
    dt = spec.integrator.method.dt
    panels = []
    for (A, B) in spec.amplitude_list:
        t_start = time.perf_counter()
        p_geom = Params(A=A, B=B, beta=spec.beta, gamma=spec.gamma, epsilon=1.0)
        region_ok = classify_region(p_geom).equilibria_left_of_folds
        try:
            kstar = kappa_threshold(p_geom)
        except RegionPreconditionError:
            kstar = math.nan
        if isinstance(spec.ic_policy, ExplicitIC):
            v0, w0 = spec.ic_policy.state
        else:
            v0, w0 = 0.0, equilibrium(p_geom, 1.0).w_e
        arm = default_arm_level(p_geom)
        panels.append((A, B, v0, w0, arm, kstar, region_ok,
                       time.perf_counter() - t_start))
    t_start = time.perf_counter()
    # per-panel columns of shape (panels, 1, 1) against the (kappa, epsilon) grid
    A, B, v0, w0, arm = np.array([pn[:5] for pn in panels]).T[:, :, None, None]
    counts = _kernels.cosine_ensemble_spikes(
        A, B, spec.beta, spec.gamma, epsilons, kappas[:, None] * epsilons,
        v0, w0, arm, spec.t_final, dt, _FIRE_LEVEL)
    ensemble_s = time.perf_counter() - t_start
    results = []
    for k, (A, B, v0, w0, arm, kstar, region_ok, setup_s) in enumerate(panels):
        manifest = {
            "A": A, "B": B, "beta": spec.beta, "gamma": spec.gamma,
            "t_final": spec.t_final, "dt": dt,
            "ic": [float(v0), float(w0)], "arm_level": arm, "fire_level": _FIRE_LEVEL,
            "kappa_range": list(spec.kappa_range),
            "epsilon_range": list(spec.epsilon_range),
            "grid_shape": [int(kappas.size), int(epsilons.size)],
            "kappa_star": kstar,
            "region_ok": bool(region_ok),
            "tool_version": __version__,
            "numba": _kernels.NUMBA_ENABLED,
            "wall_time_s": setup_s + ensemble_s,
        }
        results.append(SweepResult(
            A=A, B=B, kappa_values=kappas.copy(), epsilon_values=epsilons.copy(),
            counts=counts[k], diverged=counts[k] < 0,
            kappa_star=kstar, manifest=manifest))
    return results


def run_experiment2(settings_list) -> list:
    """Run one initial-condition grid per settings entry.

    The cells of all grids that share ``(t_final, dt)`` are integrated together
    as one ensemble, so each grid's manifest ``wall_time_s`` is its own set-up
    time plus the whole shared ensemble run.
    """
    settings_list = list(settings_list)
    setups = []
    groups = {}
    for k, gs in enumerate(settings_list):
        t_start = time.perf_counter()
        p = Params(A=gs.A, B=gs.B, beta=gs.beta, gamma=gs.gamma, epsilon=gs.epsilon)
        prediction = evaluate_prediction(p, gs.kappa)
        arm = default_arm_level(p)
        axis = np.linspace(-gs.extent, gs.extent, gs.grid_points)
        setups.append((prediction, arm, axis, time.perf_counter() - t_start))
        groups.setdefault((gs.t_final, gs.integrator.method.dt), []).append(k)
    cells = [None] * len(settings_list)
    for (t_final, dt), members in groups.items():
        t_start = time.perf_counter()
        grids = [settings_list[k] for k in members]
        sizes = [gs.grid_points ** 2 for gs in grids]
        per_grid = [(gs.A, gs.B, gs.beta, gs.gamma, gs.epsilon, gs.kappa * gs.epsilon,
                     setups[k][1]) for k, gs in zip(members, grids)]
        A, B, beta, gamma, eps, eta, arm = np.repeat(np.array(per_grid), sizes, axis=0).T
        # cell (i, j) of a grid starts at (axis[i], axis[j])
        axes = [setups[k][2] for k in members]
        v0 = np.concatenate([np.repeat(ax, ax.size) for ax in axes])
        w0 = np.concatenate([np.tile(ax, ax.size) for ax in axes])
        counts = _kernels.cosine_ensemble_spikes(
            A, B, beta, gamma, eps, eta, v0, w0, arm, t_final, dt, _FIRE_LEVEL)
        ensemble_s = time.perf_counter() - t_start
        bounds = np.cumsum(sizes)[:-1]
        for k, gs, c in zip(members, grids, np.split(counts, bounds)):
            c = c.reshape(gs.grid_points, gs.grid_points)
            cells[k] = c, c < 0, ensemble_s
    results = []
    for gs, (prediction, arm, axis, setup_s), (counts, diverged, ensemble_s) in zip(
            settings_list, setups, cells):
        manifest = {
            "A": gs.A, "B": gs.B, "beta": gs.beta, "gamma": gs.gamma,
            "kappa": gs.kappa, "epsilon": gs.epsilon, "eta": gs.kappa * gs.epsilon,
            "t_final": gs.t_final, "dt": gs.integrator.method.dt,
            "grid_points": gs.grid_points, "extent": gs.extent,
            "arm_level": arm, "fire_level": _FIRE_LEVEL,
            "prediction": prediction.value,
            "tool_version": __version__,
            "numba": _kernels.NUMBA_ENABLED,
            "wall_time_s": setup_s + ensemble_s,
        }
        results.append(ICGridResult(
            settings=gs, v0_values=axis.copy(), w0_values=axis.copy(),
            counts=counts, diverged=diverged, prediction=prediction,
            manifest=manifest))
    return results


def desk_sweep_spec(beta: float = 0.8, gamma: float = 0.5) -> SweepSpec:
    """Reduced grid for quick runs: 2 panels, 4x coarser axes, half horizon."""
    return SweepSpec(
        amplitude_list=((0.15, 0.15), (0.3, 0.3)),
        kappa_range=(0.8, 12.0, 0.8),
        epsilon_range=(0.02, 0.2, 0.02),
        t_final=1000.0,
        beta=beta, gamma=gamma)


def paper_sweep_spec(beta: float = 0.8, gamma: float = 0.5) -> SweepSpec:
    """Full-scale sweep: 8 amplitude panels, 60 x 41 cells each, T=2000."""
    amps = tuple((round(0.15 + 0.05 * k, 2),) * 2 for k in range(8))
    return SweepSpec(
        amplitude_list=amps,
        kappa_range=(0.2, 12.0, 0.2),
        epsilon_range=(0.005, 0.205, 0.005),
        t_final=2000.0,
        beta=beta, gamma=gamma)


def desk_grid_specs() -> list:
    """Reduced initial-condition grids for the two headline cells."""
    return [
        GridSpec(A=0.3, B=0.3, beta=0.8, gamma=0.5, kappa=1.0, epsilon=0.02,
                 t_final=500.0, grid_points=11),
        GridSpec(A=0.3, B=0.3, beta=0.8, gamma=0.5, kappa=2.0, epsilon=0.02,
                 t_final=500.0, grid_points=11),
    ]


def paper_grid_specs() -> list:
    """Full-scale grid cells: two parameter rows by three kappa columns."""
    out = []
    for kappa in (1.0, 2.0, 2.5):
        out.append(GridSpec(A=0.3, B=0.3, beta=0.8, gamma=0.5,
                            kappa=kappa, epsilon=0.02, t_final=1000.0))
    for kappa in (1.0, 2.0, 2.5):
        out.append(GridSpec(A=0.3, B=0.3, beta=0.7, gamma=0.6,
                            kappa=kappa, epsilon=0.1, t_final=1000.0))
    return out


def _write_csv(path, columns, comments=()) -> None:
    """Write equal-length columns, in order, under ``# key=value`` lines.

    columns maps each header name to a 1-D array. Floats are written in
    round-trip repr, flags (bool columns) as 0/1 and integers in decimal.
    comments holds (key, value) pairs; a float value is written in
    round-trip repr and any other value as str gives it.
    """
    cells = []
    for col in columns.values():
        arr = np.asarray(col)
        if arr.dtype == bool:
            arr = arr.astype(np.int64)
        cells.append(map(repr, arr.tolist()))
    with open(path, "w") as fh:
        for k, v in comments:
            fh.write(f"# {k}={float(v)!r}\n" if isinstance(v, float) else f"# {k}={v}\n")
        fh.write(",".join(columns) + "\n")
        fh.writelines(",".join(row) + "\n" for row in zip(*cells))


def save_sweep_results(results, out_dir) -> list:
    """Write per-panel CSVs, a gnuplot matrix per panel, redline.txt, manifest.json.

    Returns the list of written paths.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    redline_lines = []
    manifests = []
    for res in results:
        stem = f"panel_{res.A:g}_{res.B:g}"
        csv_path = out / f"{stem}.csv"
        # one row per cell, kappa outer
        n_kappa, n_eps = res.counts.shape
        _write_csv(csv_path, {"kappa": np.repeat(res.kappa_values, n_eps),
                              "epsilon": np.tile(res.epsilon_values, n_kappa),
                              "count": res.counts.ravel(),
                              "tonic": _is_tonic(res.counts.ravel())},
                   res.manifest.items())
        written.append(csv_path)
        mat_path = out / f"{stem}_matrix.txt"
        with open(mat_path, "w") as fh:
            fh.write("# rows: epsilon (ascending); cols: kappa (ascending); "
                     "values: spike count\n")
            for j in range(res.epsilon_values.size):
                fh.write(" ".join(str(int(c)) for c in res.counts[:, j]))
                fh.write("\n")
        written.append(mat_path)
        redline_lines.append(f"{res.A!r} {res.B!r} {res.kappa_star!r}\n")
        manifests.append(res.manifest)
    red_path = out / "redline.txt"
    with open(red_path, "w") as fh:
        fh.writelines(redline_lines)
    written.append(red_path)
    man_path = out / "manifest.json"
    with open(man_path, "w") as fh:
        json.dump({"panels": manifests}, fh, indent=2)
    written.append(man_path)
    return written


def save_grid_results(results, out_dir) -> list:
    """Write one CSV per initial-condition grid plus manifest.json."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    manifests = []
    for res in results:
        gs = res.settings
        stem = f"grid_{gs.A:g}_{gs.B:g}_kappa{gs.kappa:g}_eps{gs.epsilon:g}"
        csv_path = out / f"{stem}.csv"
        # one row per cell, v0 outer
        _write_csv(csv_path, {"v0": np.repeat(res.v0_values, res.w0_values.size),
                              "w0": np.tile(res.w0_values, res.v0_values.size),
                              "count": res.counts.ravel()},
                   res.manifest.items())
        written.append(csv_path)
        manifests.append(res.manifest)
    man_path = out / "manifest.json"
    with open(man_path, "w") as fh:
        json.dump({"grids": manifests}, fh, indent=2)
    written.append(man_path)
    return written
