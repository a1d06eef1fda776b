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
from .frozen import _gain, equilibrium
from .model import (AveragedCosine, CustomSampled, Drive, FrozenConstant, Params,
                    RawInterference, SignCosine, State, _check_int, _finite, _positive,
                    envelope)

# carrier resolution: at least this many steps per fast period of the raw drive
_RAW_STEPS_PER_PERIOD = 20
# spike threshold on v, for the detector here and the sweeps' ensemble counts
_FIRE_LEVEL = 0.0


@dataclasses.dataclass(frozen=True)
class FixedRK4:
    dt: float

    def __post_init__(self):
        _positive("dt", self.dt)


@dataclasses.dataclass(frozen=True)
class AdaptiveRK45:
    rel_tol: float = 1e-8
    abs_tol: float = 1e-8
    max_dt: float = 1.0

    def __post_init__(self):
        for name in ("rel_tol", "abs_tol", "max_dt"):
            _positive(name, getattr(self, name))


@dataclasses.dataclass(frozen=True)
class IntegratorConfig:
    method: Union[FixedRK4, AdaptiveRK45] = FixedRK4(dt=0.01)
    sample_stride: int = 10

    def __post_init__(self):
        _check_int("sample_stride", self.sample_stride, 1)


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
        return _kernels.DRIVE_FROZEN, drive.c, 0.0, (), 1.0
    if isinstance(drive, AveragedCosine):
        return _kernels.DRIVE_COSINE, drive.eta, 0.0, (), 1.0
    if isinstance(drive, RawInterference):
        return _kernels.DRIVE_RAW, drive.omega1, drive.omega2, (), 1.0
    if isinstance(drive, CustomSampled):
        # a list, so the kernels' arithmetic stays on Python floats
        return _kernels.DRIVE_CUSTOM, 0.0, 0.0, drive.values.tolist(), drive.dt
    raise DomainError(f"unsupported drive type {type(drive).__name__}")


def _legs(drive: Drive, t0: float, t_final: float):
    """(drive code, leg start, leg end) for each leg of a run.

    One leg, except for a square wave: each constant-sign segment is its own
    leg under a frozen drive, so a step never straddles a switch and the
    integrator keeps its order.
    """
    if not isinstance(drive, SignCosine):
        return [(_drive_code(drive), t0, t_final)]
    edges = np.concatenate(([t0], drive.switch_times(t0, t_final), [t_final]))
    # a segment of at most 1e-14 is skipped, unless no other is left
    spans = [(a, b) for a, b in zip(edges[:-1], edges[1:]) if b - a > 1e-14]
    return [(_drive_code(FrozenConstant(envelope(drive, 0.5 * (a + b)))), a, b)
            for a, b in spans or [(t0, t_final)]]


def _run_leg(p: Params, drive_code, v0, w0, t0, t1, cfg):
    code, _, omega2, _, _ = drive_code
    # the raw drive resolves its faster carrier with at least
    # _RAW_STEPS_PER_PERIOD steps a period
    cap = (2.0 * math.pi / omega2) / _RAW_STEPS_PER_PERIOD if code == _kernels.DRIVE_RAW \
        else math.inf
    args = (*drive_code, p.A, p.B, p.beta, p.gamma, p.epsilon, v0, w0, t0, t1)
    m = cfg.method
    if isinstance(m, FixedRK4):
        return _kernels.rk4_trajectory(*args, min(m.dt, cap), cfg.sample_stride)
    return _kernels.dp45_trajectory(*args, m.rel_tol, m.abs_tol, min(m.max_dt, cap),
                                    cfg.sample_stride)


def simulate(p: Params, drive: Drive, ic: State, t_final: float,
             cfg: IntegratorConfig = DEFAULT_CONFIG, t0: float = 0.0) -> Trajectory:
    """Integrate the system selected by the drive from ic over [t0, t_final].

    Raises DivergenceError if the state goes non-finite or the adaptive step
    size collapses; the dynamics are provably bounded, so divergence always
    means the integrator needs a smaller step or tighter tolerances.
    """
    t0, t_final = _finite("t0", t0), _finite("t_final", t_final)
    if not (t_final > t0):
        raise DomainError(f"t_final must exceed t0, got {t_final} <= {t0}")
    v, w = _finite("ic.v", ic[0]), _finite("ic.w", ic[1])
    parts = []
    for drive_code, a, b in _legs(drive, t0, t_final):
        ts, vs, ws, _, ok = _run_leg(p, drive_code, v, w, a, b, cfg)
        if ok != 1:
            # raise at the last recorded sample when a stepper gave up
            if ok == _kernels.STEP_COLLAPSED:
                msg = "adaptive step size collapsed below 1e-14 without meeting the tolerances"
            else:
                msg = "state went non-finite; reduce dt or tighten tolerances"
            raise DivergenceError(msg, t=float(ts[-1]), state=(float(vs[-1]), float(ws[-1])))
        # a later leg's first sample is the end of the leg before it
        start = 1 if parts else 0
        parts.append((ts[start:], vs[start:], ws[start:]))
        v, w = float(vs[-1]), float(ws[-1])
    t_arr, v_arr, w_arr = (np.concatenate(x) for x in zip(*parts))
    return Trajectory(t=t_arr, v=v_arr, w=w_arr, drive=drive, params=p)


def default_arm_level(p: Params) -> float:
    """The detector's default re-arm level: half the resting depth, v_e(-1)/2."""
    return equilibrium(p, -1.0).v_e / 2.0


def _is_tonic(count):
    # the tonic rule, for a spike count or an array of counts
    return count >= 2


def count_spikes(traj: Trajectory, arm_level: Optional[float] = None,
                 fire_level: float = _FIRE_LEVEL) -> SpikeReport:
    """Hysteresis spike count over a trajectory.

    The detector starts armed, so a start with v already at or above the fire
    level counts as a spike at the first sample. Default arm level is half the
    resting depth, v_e(-1)/2, computed from the trajectory's parameters. Both
    levels must be finite numbers (ConfigError naming the level otherwise),
    the arm level below the fire level.
    """
    if traj.v.size == 0:
        raise EmptyTrajectoryError("cannot count spikes on an empty trajectory")
    fire_level = _finite("fire_level", fire_level)
    arm_level = (default_arm_level(traj.params) if arm_level is None
                 else _finite("arm_level", arm_level))
    if not (arm_level < fire_level):
        raise DomainError(
            f"arm_level must be below fire_level, got {arm_level} >= {fire_level}")
    idx = _kernels.spike_scan(traj.v, fire_level, arm_level)
    times = tuple(float(traj.t[i]) for i in idx)
    return SpikeReport(spike_times=times, count=len(times), tonic=_is_tonic(len(times)))


def invariant_box(p: Params) -> tuple[float, float]:
    """Forward-invariant, globally attracting box [-L, L] x [-S, S].

    L is the smallest power-of-two reach of a doubling search making the
    outward flux on the box edge nonpositive; S follows from L.
    """
    worst_gain = _gain(p, -1.0)
    L = 1.0
    while True:
        S = (L + p.beta) / p.gamma + 1.0
        if L * worst_gain - L ** 3 / 3.0 + S <= 0.0:
            return L, S
        L *= 2.0
        if L > 1e8:  # cubic damping guarantees termination long before this
            raise DomainError("invariant box search failed to close")
