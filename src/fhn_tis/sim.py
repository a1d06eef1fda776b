"""Time-domain integration of the driven neuron with spike detection.

Fixed-step RK4 and adaptive Dormand-Prince 5(4) steppers over every drive
variant. Square-wave drives are integrated segment by segment so no step
straddles a sign switch; the raw two-carrier drive caps the step to resolve
the faster carrier. Spikes are counted with hysteresis: fire on an armed
upcrossing of the fire level, re-arm when v falls below the arm level.
"""
from __future__ import annotations

import dataclasses
import math
from typing import Optional, Union

import numpy as np

from . import _kernels
from .errors import (DivergenceError, DomainError, EmptyTrajectoryError)
from .frozen import equilibrium
from .model import (AveragedCosine, CustomSampled, Drive, FrozenConstant, Params,
                    RawInterference, SignCosine, State)

# carrier resolution: at least this many steps per fast period of the raw drive
_RAW_STEPS_PER_PERIOD = 20


@dataclasses.dataclass(frozen=True)
class FixedRK4:
    dt: float

    def __post_init__(self):
        if not (self.dt > 0.0 and math.isfinite(self.dt)):
            raise DomainError(f"dt must be finite and > 0, got {self.dt}")


@dataclasses.dataclass(frozen=True)
class AdaptiveRK45:
    rel_tol: float = 1e-8
    abs_tol: float = 1e-8
    max_dt: float = 1.0

    def __post_init__(self):
        for name in ("rel_tol", "abs_tol", "max_dt"):
            x = getattr(self, name)
            if not (x > 0.0 and math.isfinite(x)):
                raise DomainError(f"{name} must be finite and > 0, got {x}")


@dataclasses.dataclass(frozen=True)
class IntegratorConfig:
    method: Union[FixedRK4, AdaptiveRK45] = FixedRK4(dt=0.01)
    sample_stride: int = 10

    def __post_init__(self):
        if self.sample_stride < 1:
            raise DomainError(f"sample_stride must be >= 1, got {self.sample_stride}")


DEFAULT_CONFIG = IntegratorConfig()


@dataclasses.dataclass(frozen=True, eq=False)
class Trajectory:
    """Sampled solution; t is strictly increasing and arrays are aligned."""

    t: np.ndarray
    v: np.ndarray
    w: np.ndarray
    drive: Drive
    params: Params


@dataclasses.dataclass(frozen=True)
class SpikeReport:
    spike_times: tuple
    count: int
    tonic: bool


def _drive_code(drive: Drive):
    if isinstance(drive, FrozenConstant):
        return _kernels.DRIVE_FROZEN, drive.c, 0.0, np.empty(0), 1.0
    if isinstance(drive, AveragedCosine):
        return _kernels.DRIVE_COSINE, drive.eta, 0.0, np.empty(0), 1.0
    if isinstance(drive, RawInterference):
        return _kernels.DRIVE_RAW, drive.omega1, drive.omega2, np.empty(0), 1.0
    if isinstance(drive, CustomSampled):
        # a list, so the kernels' arithmetic stays on Python floats
        return _kernels.DRIVE_CUSTOM, 0.0, 0.0, drive.values.tolist(), drive.dt
    raise DomainError(f"unsupported drive type {type(drive).__name__}")


def _run_leg(p: Params, code, par1, par2, cs, cs_dt, v0, w0, t0, t1, cfg):
    m = cfg.method
    if isinstance(m, FixedRK4):
        dt = m.dt
        if code == _kernels.DRIVE_RAW:
            dt = min(dt, (2.0 * math.pi / par2) / _RAW_STEPS_PER_PERIOD)
        return _kernels.rk4_trajectory(code, par1, par2, cs, cs_dt,
                                       p.A, p.B, p.beta, p.gamma, p.epsilon,
                                       v0, w0, t0, t1, dt, cfg.sample_stride)
    max_dt = m.max_dt
    if code == _kernels.DRIVE_RAW:
        max_dt = min(max_dt, (2.0 * math.pi / par2) / _RAW_STEPS_PER_PERIOD)
    return _kernels.dp45_trajectory(code, par1, par2, cs, cs_dt,
                                    p.A, p.B, p.beta, p.gamma, p.epsilon,
                                    v0, w0, t0, t1, m.rel_tol, m.abs_tol,
                                    max_dt, cfg.sample_stride)


def _check_leg(ok, ts, vs, ws, n) -> None:
    # raise at the last recorded sample when a stepper gave up
    if ok == 1:
        return
    if ok == _kernels.STEP_COLLAPSED:
        msg = "adaptive step size collapsed below 1e-14 without meeting the tolerances"
    else:
        msg = "state went non-finite; reduce dt or tighten tolerances"
    raise DivergenceError(msg, t=float(ts[n - 1]),
                          state=(float(vs[n - 1]), float(ws[n - 1])))


def simulate(p: Params, drive: Drive, ic: State, t_final: float,
             cfg: IntegratorConfig = DEFAULT_CONFIG, t0: float = 0.0) -> Trajectory:
    """Integrate the system selected by the drive from ic over [t0, t_final].

    Raises DivergenceError if the state goes non-finite or the adaptive step
    size collapses; the dynamics are provably bounded, so divergence always
    means the integrator needs a smaller step or tighter tolerances.
    """
    if not (t_final > t0):
        raise DomainError(f"t_final must exceed t0, got {t_final} <= {t0}")
    v0, w0 = float(ic[0]), float(ic[1])
    if not (math.isfinite(v0) and math.isfinite(w0)):
        raise DomainError(f"initial state must be finite, got ({v0}, {w0})")
    if isinstance(drive, SignCosine):
        # integrate each constant-sign segment separately: a step never
        # straddles a switch, preserving the integrator's order
        cuts = drive.switch_times(t0, t_final)
        edges = np.concatenate(([t0], cuts, [t_final]))
        ts_all = []
        vs_all = []
        ws_all = []
        v, w = v0, w0
        for a, b in zip(edges[:-1], edges[1:]):
            if b - a <= 1e-14:
                continue
            mid = 0.5 * (a + b)
            c_seg = 1.0 if math.cos(drive.eta * mid) >= 0.0 else -1.0
            ts, vs, ws, n, ok, _, _ = _run_leg(p, _kernels.DRIVE_FROZEN, c_seg, 0.0,
                                               np.empty(0), 1.0, v, w, a, b, cfg)
            _check_leg(ok, ts, vs, ws, n)
            start = 1 if ts_all else 0
            ts_all.append(ts[start:n])
            vs_all.append(vs[start:n])
            ws_all.append(ws[start:n])
            v, w = float(vs[n - 1]), float(ws[n - 1])
        t_arr = np.concatenate(ts_all)
        v_arr = np.concatenate(vs_all)
        w_arr = np.concatenate(ws_all)
    else:
        code, par1, par2, cs, cs_dt = _drive_code(drive)
        ts, vs, ws, n, ok, _, _ = _run_leg(p, code, par1, par2, cs, cs_dt,
                                           v0, w0, t0, t_final, cfg)
        _check_leg(ok, ts, vs, ws, n)
        t_arr = ts[:n].copy()
        v_arr = vs[:n].copy()
        w_arr = ws[:n].copy()
    return Trajectory(t=t_arr, v=v_arr, w=w_arr, drive=drive, params=p)


def count_spikes(traj: Trajectory, arm_level: Optional[float] = None,
                 fire_level: float = 0.0) -> SpikeReport:
    """Hysteresis spike count over a trajectory.

    The detector starts armed, so a start with v already at or above the fire
    level counts as a spike at the first sample. Default arm level is half the
    resting depth, v_e(-1)/2, computed from the trajectory's parameters.
    """
    if traj.v.size == 0:
        raise EmptyTrajectoryError("cannot count spikes on an empty trajectory")
    if arm_level is None:
        arm_level = equilibrium(traj.params, -1.0).v_e / 2.0
    if not (arm_level < fire_level):
        raise DomainError(
            f"arm_level must be below fire_level, got {arm_level} >= {fire_level}")
    idx = _kernels.spike_scan(traj.v, fire_level, arm_level)
    times = tuple(float(traj.t[i]) for i in idx)
    return SpikeReport(spike_times=times, count=len(times), tonic=len(times) >= 2)


def invariant_box(p: Params) -> tuple[float, float]:
    """Forward-invariant, globally attracting box [-L, L] x [-S, S].

    L is the smallest power-of-two reach of a doubling search making the
    outward flux on the box edge nonpositive; S follows from L.
    """
    worst_gain = 1.0 - p.A * p.A / 2.0 - p.B * p.B / 2.0 + p.A * p.B
    L = 1.0
    while True:
        S = (L + p.beta) / p.gamma + 1.0
        if L * worst_gain - L ** 3 / 3.0 + S <= 0.0:
            return L, S
        L *= 2.0
        if L > 1e8:  # cubic damping guarantees termination long before this
            raise DomainError("invariant box search failed to close")
