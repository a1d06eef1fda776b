"""Parameter set, drive family, and right-hand sides of the three systems.

The package studies a planar relaxation neuron driven through a slowly varying
envelope. Three views of the dynamics share one parameter set:

* the full system, forced by two fast carriers whose beat creates the envelope,
* the averaged system, forced by the envelope f(t) in [-1, 1] directly,
* the frozen system, where the envelope is held at a constant c.

Everything here is an immutable value; all operations are pure functions.
"""
from __future__ import annotations

import dataclasses
import math
import numbers
from typing import NamedTuple, Union

import numpy as np

from . import _kernels
from .errors import ConfigError, UnsupportedDriveError


def _finite(name: str, value) -> float:
    """A setting as a float: a real number that is not a bool, and finite.

    Ints, floats and numpy's numeric scalars pass. NaN, inf, a bool (an int to
    Python) and a string (even "0.3") raise ConfigError(key=name).
    """
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        x = float(value)
        if math.isfinite(x):
            return x
    raise ConfigError(f"{name} must be a finite number, got {value!r}", key=name)


def _positive(name: str, value) -> float:
    """A setting as a float: _finite's rule, and also > 0."""
    x = _finite(name, value)
    if x <= 0.0:
        raise ConfigError(f"{name} must be finite and > 0, got {value!r}", key=name)
    return x


def _check_int(name: str, value, least: int) -> None:
    """Refuse a count (a stride, a grid size) that is not an integer >= least.

    A float stride would sample wherever step % stride == 0 (2.5: every 5th
    step), so only integers, numpy's included, are taken; a bool is not one.
    Raises ConfigError(key=name).
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ConfigError(f"{name} must be an integer >= {least}, got {value!r}", key=name)


@dataclasses.dataclass(frozen=True)
class Params:
    """Dimensionless model parameters; all five must be strictly positive.

    ``folds_everywhere`` records (without rejecting) whether A + B < sqrt(2),
    i.e. whether the cubic nullcline keeps its fold for every envelope value.
    """

    A: float
    B: float
    beta: float
    gamma: float
    epsilon: float

    def __post_init__(self):
        for name in ("A", "B", "beta", "gamma", "epsilon"):
            object.__setattr__(self, name, _positive(name, getattr(self, name)))

    @property
    def folds_everywhere(self) -> bool:
        return self.A + self.B < math.sqrt(2.0)


class State(NamedTuple):
    v: float
    w: float


@dataclasses.dataclass(frozen=True)
class AveragedCosine:
    """Smooth envelope f(t) = cos(eta * t)."""

    eta: float

    def __post_init__(self):
        object.__setattr__(self, "eta", _positive("eta", self.eta))


@dataclasses.dataclass(frozen=True)
class SignCosine:
    """Square-wave envelope f(t) = sign(cos(eta * t)), with sign(0) := +1."""

    eta: float

    def __post_init__(self):
        object.__setattr__(self, "eta", _positive("eta", self.eta))

    def switch_times(self, t0: float, t_final: float) -> np.ndarray:
        """Discontinuity instants t_k = (k + 1/2) * pi / eta inside (t0, t_final)."""
        half = math.pi / self.eta
        k0 = math.ceil(t0 / half - 0.5 + 1e-12)
        k1 = math.floor(t_final / half - 0.5 - 1e-12)
        if k1 < k0:
            return np.empty(0)
        return (np.arange(k0, k1 + 1) + 0.5) * half


@dataclasses.dataclass(frozen=True)
class FrozenConstant:
    """Envelope held at the constant value c in [-1, 1]."""

    c: float

    def __post_init__(self):
        c = _finite("c", self.c)
        if abs(c) > 1.0:
            raise ConfigError(f"c must lie in [-1, 1], got {c}", key="c")
        object.__setattr__(self, "c", c)


@dataclasses.dataclass(frozen=True)
class RawInterference:
    """Two-carrier forcing A*w1*cos(w1 t) + B*w2*cos(w2 t); beat = omega2 - omega1."""

    omega1: float
    omega2: float

    def __post_init__(self):
        object.__setattr__(self, "omega1", _positive("omega1", self.omega1))
        object.__setattr__(self, "omega2", _positive("omega2", self.omega2))
        if self.omega2 <= self.omega1:
            raise ConfigError(
                f"omega2 must exceed omega1 (positive beat), got {self.omega1}, {self.omega2}",
                key="omega2",
            )

    @property
    def eta(self) -> float:
        return self.omega2 - self.omega1


@dataclasses.dataclass(frozen=True, eq=False)
class CustomSampled:
    """Uniformly sampled envelope with linear interpolation, clamped at the ends.

    An extension hook for arbitrary bounded envelopes; the analytical checkers
    in `frozen` and `singular` do not accept it.
    """

    values: np.ndarray
    dt: float

    def __post_init__(self):
        arr = np.asarray(self.values)
        if arr.dtype.kind not in "iuf":  # astype would read True as 1.0, "0.5" as 0.5
            raise ConfigError(f"values must be numbers, got dtype {arr.dtype}", key="values")
        arr = arr.astype(np.float64)
        if arr.ndim != 1 or arr.size < 2:
            raise ConfigError("values must be a 1-D array with at least 2 samples",
                              key="values")
        if not np.all(np.isfinite(arr)) or np.any(np.abs(arr) > 1.0):
            raise ConfigError("sampled envelope values must be finite and within [-1, 1]",
                              key="values")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "dt", _positive("dt", self.dt))


Drive = Union[AveragedCosine, SignCosine, FrozenConstant, RawInterference, CustomSampled]


def envelope(drive: Drive, t: float) -> float:
    """Envelope value f(t) in [-1, 1]; undefined for the raw two-carrier drive."""
    if isinstance(drive, AveragedCosine):
        return math.cos(drive.eta * t)
    if isinstance(drive, SignCosine):
        return 1.0 if math.cos(drive.eta * t) >= 0.0 else -1.0
    if isinstance(drive, FrozenConstant):
        return drive.c
    if isinstance(drive, CustomSampled):
        return float(_kernels._envelope_value(_kernels.DRIVE_CUSTOM, 0.0, drive.values,
                                              drive.dt, t))
    if isinstance(drive, RawInterference):
        raise UnsupportedDriveError(
            "the raw two-carrier drive has no bounded envelope; use rhs_full")
    raise UnsupportedDriveError(f"unknown drive type {type(drive).__name__}")


def rhs_averaged(p: Params, drive: Drive, t: float, s: State) -> tuple[float, float]:
    """Vector field of the envelope-driven system at time t and state s."""
    v, w = s
    return _kernels._rhs(_kernels.DRIVE_FROZEN, envelope(drive, t), 0.0, (), 1.0,
                         p.A, p.B, p.beta, p.gamma, p.epsilon, t, v, w)


def rhs_full(p: Params, omega1: float, omega2: float, t: float,
             s: State) -> tuple[float, float]:
    """Vector field of the two-carrier system at time t and state s."""
    v, w = s
    return _kernels._rhs(_kernels.DRIVE_RAW, omega1, omega2, (), 1.0,
                         p.A, p.B, p.beta, p.gamma, p.epsilon, t, v, w)


def effective_amplitudes(A: float, B: float) -> tuple[float, float]:
    """Amplitude pair of the smooth-envelope system matching a square-wave drive.

    Returns (R*cos(theta), R*sin(theta)) with R = sqrt(A**2 + B**2) and
    theta = arcsin((pi/8) * A * B / (A**2 + B**2)) / 2. By the double-angle
    identity the product of the pair is (pi/16) * A * B; see
    effective_amplitude_conventions for a side-by-side numeric comparison with
    the (pi/4) * A * B convention.
    """
    A, B = _positive("A", A), _positive("B", B)
    R = math.hypot(A, B)
    theta = 0.5 * math.asin((math.pi / 8.0) * A * B / (A * A + B * B))
    return R * math.cos(theta), R * math.sin(theta)


def effective_amplitude_conventions(A: float, B: float) -> dict:
    """Numeric comparison of the two candidate cross-term conventions.

    The rotation formula above gives a pair whose product is (pi/16)*A*B,
    while matching the first Fourier mode of a square wave would call for
    (pi/4)*A*B. Both reference values are returned so callers and tests can
    document the gap rather than silently pick one.
    """
    at, bt = effective_amplitudes(A, B)
    return {
        "A_eff": at,
        "B_eff": bt,
        "product": at * bt,
        "pi_over_16_AB": (math.pi / 16.0) * A * B,
        "pi_over_4_AB": (math.pi / 4.0) * A * B,
        "norm_preserved": abs(at * at + bt * bt - (A * A + B * B)),
    }


_PARAM_KEYS = ("A", "B", "beta", "gamma", "epsilon")

_DRIVE_KINDS = {
    "averaged_cosine": AveragedCosine,
    "sign_cosine": SignCosine,
    "frozen_constant": FrozenConstant,
    "raw_interference": RawInterference,
    "custom_sampled": CustomSampled,
}


def params_from_dict(d: dict) -> Params:
    """Build Params from a JSON-style mapping; unknown or missing keys are rejected."""
    for k in d:
        if k not in _PARAM_KEYS:
            raise ConfigError(f"unknown parameter key: {k!r}", key=k)
    for k in _PARAM_KEYS:
        if k not in d:
            raise ConfigError(f"missing parameter key: {k!r}", key=k)
    return Params(**{k: d[k] for k in _PARAM_KEYS})


def drive_from_dict(d: dict) -> Drive:
    """Build a Drive from a mapping with a ``kind`` tag; strict about keys."""
    if "kind" not in d:
        raise ConfigError("missing drive key: 'kind'", key="kind")
    kind = d["kind"]
    if kind not in _DRIVE_KINDS:
        raise ConfigError(
            f"unknown drive kind {kind!r}; expected one of {sorted(_DRIVE_KINDS)}",
            key="kind")
    cls = _DRIVE_KINDS[kind]
    fields = [f.name for f in dataclasses.fields(cls)]
    for k in d:
        if k != "kind" and k not in fields:
            raise ConfigError(f"unknown drive key for {kind}: {k!r}", key=k)
    for k in fields:
        if k not in d:
            raise ConfigError(f"missing drive key for {kind}: {k!r}", key=k)
    return cls(**{k: d[k] for k in fields})
