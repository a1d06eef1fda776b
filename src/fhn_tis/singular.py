"""Slow-limit machinery: transport along the moving cubic family and escape tests.

In the limit of vanishing timescale ratio with beat = kappa * (timescale ratio),
trajectories of the envelope-driven system collapse onto concatenations of arcs
that slide along the family of cubic nullclines C_c, c = cos(kappa*s + phase),
in slow time s. An arc ends where the cubic's left branch loses the point (fold
contact); whether the neuron then fires is decided by the escape inequality at
the contact point. This module integrates such arcs with event detection, tests
the escape inequality, computes the critical kappa above which an escape window
opens, and evaluates the two arc-based spiking predictions.
"""
from __future__ import annotations

import dataclasses
import math
from typing import NamedTuple, Optional, Union

import numpy as np

from . import _kernels
from .errors import (BandEdgeError, DomainError, InvalidStartError, NearFoldError,
                     RegionPreconditionError, UndefinedCoordinateError)
from .frozen import _gain, classify_region, equilibrium, fold_point
from .model import Params, _check_int, _finite, _positive

# fold-event tolerance on the denominator r(c) - v**2
TOL_DENOM = 1e-6
# residual bound for accepting a start point as lying on its cubic
ON_CUBIC_TOL = 1e-9
# default slow-time step of the transport integrator
DEFAULT_DS = 5e-4
# points of the coarse c-scan behind kappa_threshold, band ends included
KAPPA_SCAN_POINTS = 2049
# kappa_threshold's default refinement tolerance on kappa
_KAPPA_TOL = 1e-6


class EnvelopeCoordinate(NamedTuple):
    c: float
    in_band: bool


@dataclasses.dataclass(frozen=True)
class CubicPoint:
    """A point tagged with the envelope value whose cubic it lies on."""

    v: float
    w: float
    c: float


@dataclasses.dataclass(frozen=True)
class ReachedFold:
    """Arc ended by contact with the moving fold; escaping per the inequality."""

    s: float
    c: float
    escaping: bool


@dataclasses.dataclass(frozen=True)
class ReachedEnvelopeMax:
    """A rising half-cycle completed with the envelope back at +1."""

    s: float


@dataclasses.dataclass(frozen=True)
class ReachedHorizon:
    s: float


@dataclasses.dataclass(frozen=True)
class LeftDomain:
    """The transported point collapsed onto the origin, where c is undefined."""

    s: float


ArcTerminal = Union[ReachedFold, ReachedEnvelopeMax, ReachedHorizon, LeftDomain]


@dataclasses.dataclass(frozen=True)
class SingularArc:
    """Sampled slow-limit arc: aligned arrays over slow time plus a terminal tag."""

    s: np.ndarray
    v: np.ndarray
    w: np.ndarray
    c: np.ndarray
    terminal: ArcTerminal
    start_phase: float
    kappa: float


@dataclasses.dataclass(frozen=True)
class EscapeCycleCheck:
    """Outcome of the falling-then-rising arc construction.

    holds: the rising arc from the handoff point meets the fold inside the
    escape window (predicts tonic firing for almost every start).
    handoff: endpoint of the falling arc on the envelope-minimum cubic, or
    None if the falling arc already hit the fold.
    landing: (s, c) of the rising arc's fold contact when one occurred.
    note: human-readable diagnostic for the non-holding cases.
    """

    holds: bool
    handoff: Optional[CubicPoint]
    landing: Optional[tuple]
    note: str = ""


def envelope_coordinate(p: Params, v: float, w: float) -> EnvelopeCoordinate:
    """The unique c whose cubic passes through (v, w), with an in-band flag.

    Inverts w = r(c)*v - v**3/3, with r(c) = r(0) - c*A*B, for c; undefined
    on the axis v = 0.
    """
    if v == 0.0:
        raise UndefinedCoordinateError("envelope coordinate is undefined at v = 0")
    c = (-w + v * _gain(p, 0.0) - v ** 3 / 3.0) / (v * p.A * p.B)
    return EnvelopeCoordinate(c=c, in_band=abs(c) <= 1.0)


def _field(p: Params, kappa: float, v: float, w: float, sign: float) -> tuple[float, float]:
    coord = envelope_coordinate(p, v, w)
    c = coord.c
    if not coord.in_band:
        if abs(c) <= 1.0 + 1e-9:
            c = math.copysign(1.0, c)
        else:
            raise DomainError(
                f"point (v={v}, w={w}) lies on no admissible cubic (c={c})")
    r = _gain(p, c)
    denom = r - v * v
    if abs(denom) <= TOL_DENOM:
        raise NearFoldError("vector field evaluated within fold-event tolerance",
                            v=v, w=w, c=c)
    dw = v - p.gamma * w + p.beta
    dv = (dw + sign * kappa * p.A * p.B * v * math.sqrt(max(0.0, 1.0 - c * c))) / denom
    return dv, dw


def rising_field(p: Params, kappa: float, v: float, w: float) -> tuple[float, float]:
    """Arc generator on rising half-cycles of the envelope (+kappa cross term)."""
    return _field(p, kappa, v, w, +1.0)


def falling_field(p: Params, kappa: float, v: float, w: float) -> tuple[float, float]:
    """Arc generator on falling half-cycles of the envelope (-kappa cross term)."""
    return _field(p, kappa, v, w, -1.0)


def escaping_at_c(p: Params, kappa: float, c: float) -> bool:
    """Escape inequality at the fold of C_c, on a rising envelope half-cycle.

    True iff |v_m(c)| * A * B * kappa * sqrt(1 - c**2) exceeds the slow drift
    v_m(c) - gamma*w_m(c) + beta, i.e. iff kappa exceeds their ratio
    _drift_over_pull(p, c), in which case a fold contact at c throws the
    trajectory off the slow manifold (a spike).
    """
    _positive("kappa", kappa)
    if c == -1.0 or c == 1.0:
        raise BandEdgeError(
            "escape test is undefined at the envelope extremes (the cross term "
            "vanishes and the inequality is vacuously false)")
    fold_point(p, c)  # refuses c outside [-1, 1], and raises where C_c has no fold
    return bool(kappa > _drift_over_pull(p, c))


def _drift_over_pull(p: Params, c):
    # kappa at which the escape inequality turns true at c (a float or an array)
    r = _gain(p, c)
    v_m = -np.sqrt(r)
    w_m = -(2.0 / 3.0) * r ** 1.5
    return (v_m - p.gamma * w_m + p.beta) / (np.abs(v_m) * p.A * p.B * np.sqrt(1.0 - c * c))


def _require_region(p: Params, name: str) -> None:
    if not classify_region(p).equilibria_left_of_folds:
        raise RegionPreconditionError(f"{name} requires equilibria_left_of_folds")


def kappa_threshold(p: Params, tol: float = _KAPPA_TOL) -> float:
    """Critical kappa above which the escape inequality holds for some c.

    Minimizes drift/pull over c in (-1, 1) by a coarse scan plus golden-section
    refinement. Returns 0.0 (degenerate) if the drift is nonpositive anywhere,
    since then any kappa escapes.
    """
    _positive("tol", tol)
    _require_region(p, "kappa_threshold")
    cs = np.linspace(-1.0, 1.0, KAPPA_SCAN_POINTS)[1:-1]
    g = _drift_over_pull(p, cs)
    if np.any(g <= 0.0):
        return 0.0
    best_i = int(np.argmin(g))
    best = g[best_i]
    lo = cs[best_i - 1] if best_i > 0 else -1.0 + 1e-12
    hi = cs[best_i + 1] if best_i < cs.size - 1 else 1.0 - 1e-12
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1 = _drift_over_pull(p, x1)
    f2 = _drift_over_pull(p, x2)
    while b - a > 1e-12 and abs(f1 - f2) > tol * 1e-3:
        if f1 < f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = _drift_over_pull(p, x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = _drift_over_pull(p, x2)
    return float(min(best, f1, f2))


# _escape_floor's allowances for rounding: absolute on the gain r and on the
# drift (which cancels near kappa* = 0), relative on the ratio; each is many
# times the few ulps by which this bound and _drift_over_pull can round apart
_ROUND_ABS = 1e-14
_ROUND_REL = 1e-12


def _escape_floor(p: Params) -> float:
    """A certified lower bound on drift/pull over c in (-1, 1), clipped at 0.

    For every kappa at most this floor, escaping_at_c is False at every c, so
    no arc can meet the fold inside an escape window and escape_cycle_check
    cannot hold. On each cell of the kappa_threshold scan grid, x = sqrt(r(c))
    runs between its values at the cell's ends; the drift
    beta - x + (2*gamma/3)*x**3 is convex in x, so its minimum lies at an end
    or at x* = 1/sqrt(2*gamma), and the pull x*A*B*sqrt(1 - c**2) is at most
    its value at the largest x and the smallest c**2. The floor is the
    smallest ratio of the two bounds over the cells. It is 0.0 where a cell's
    drift bound is not positive, as kappa_threshold is where the drift is.
    """
    _require_region(p, "_escape_floor")
    cs = np.linspace(-1.0, 1.0, KAPPA_SCAN_POINTS)
    r = _gain(p, cs)  # decreasing in c
    x_hi = np.sqrt(r[:-1] + _ROUND_ABS)
    x_lo = np.sqrt(np.maximum(r[1:] - _ROUND_ABS, 0.0))
    x = np.clip(1.0 / math.sqrt(2.0 * p.gamma), x_lo, x_hi)
    drift = (p.beta - x + (2.0 * p.gamma / 3.0) * x ** 3
             - _ROUND_ABS * (1.0 + p.beta + x_hi + p.gamma * x_hi ** 3))
    if np.any(drift <= 0.0):
        return 0.0
    c2 = np.where(cs[:-1] * cs[1:] <= 0.0, 0.0, np.minimum(cs[:-1] ** 2, cs[1:] ** 2))
    pull = x_hi * (p.A * p.B) * np.sqrt(1.0 - c2 + _ROUND_ABS)
    return float(np.min(drift / pull)) * (1.0 - _ROUND_REL)


def integrate_singular(p: Params, kappa: float, start_phase: float,
                       start: CubicPoint, horizon: float,
                       ds: float = DEFAULT_DS, sample_stride: int = 8) -> SingularArc:
    """Transport a left-branch point along C_{cos(kappa*s + start_phase)}.

    Integrates the slow equation dw/ds = v - gamma*w + beta by RK4 on a fixed
    grid of step ds, with v recovered at every stage as the leftmost cubic
    root, which keeps the arc on the moving cubic exactly. Each step's end
    root is computed in closed form and reused as the next step's first
    stage; the inner stages' roots are Newton warm-started from the stage
    before and kept only where certified as the leftmost root
    (_kernels.transport_arc). Terminates at the first of: fold contact
    (denominator within TOL_DENOM, located by bisection), completion of a
    rising half-cycle at envelope +1, collapse onto the origin, or the horizon.

    The start must lie on its cubic within ON_CUBIC_TOL and strictly on the
    left branch, clear of the fold. Each start check is written so that a NaN
    fails it.
    """
    for name, x in (("kappa", kappa), ("horizon", horizon), ("ds", ds)):
        _positive(name, x)
    _finite("start_phase", start_phase)
    _check_int("sample_stride", sample_stride, 1)
    c0 = math.cos(start_phase)
    if not abs(start.c - c0) <= 1e-9:
        raise InvalidStartError(
            f"start.c={start.c} does not match cos(start_phase)={c0}")
    r0 = _gain(p, c0)
    resid = abs(r0 * start.v - start.v ** 3 / 3.0 - start.w)
    if not resid <= ON_CUBIC_TOL:
        raise InvalidStartError(
            f"start point is off its cubic (residual {resid:.3e})")
    if not (start.v < 0.0 and r0 - start.v * start.v <= -TOL_DENOM):
        raise InvalidStartError(
            "start point must lie strictly on the left branch, clear of the fold")
    ss, vs, ws, cc, code = _kernels.transport_arc(
        p.A, p.B, p.beta, p.gamma, kappa, start_phase, start.w,
        horizon, ds, TOL_DENOM, sample_stride)
    # the last sample is the terminal point
    term_s = float(ss[-1])
    term_c = float(cc[-1])
    if code == _kernels.TERM_FOLD:
        if -1.0 < term_c < 1.0:
            esc = escaping_at_c(p, kappa, term_c)
        else:
            esc = False
        terminal: ArcTerminal = ReachedFold(s=term_s, c=term_c, escaping=esc)
    elif code == _kernels.TERM_TOP:
        terminal = ReachedEnvelopeMax(s=term_s)
    elif code == _kernels.TERM_ORIGIN:
        terminal = LeftDomain(s=term_s)
    else:
        terminal = ReachedHorizon(s=term_s)
    return SingularArc(s=ss, v=vs, w=ws, c=cc, terminal=terminal,
                       start_phase=start_phase, kappa=kappa)


def _equilibrium_start(p: Params, c: float) -> CubicPoint:
    eq = equilibrium(p, c)
    return CubicPoint(v=eq.v_e, w=eq.w_e, c=c)


def predicts_no_tonic(p: Params, kappa: float, ds: float = DEFAULT_DS) -> bool:
    """Rising-arc quiescence test from the lowest equilibrium.

    Transports the equilibrium of the envelope-minimum cubic through one rising
    half-cycle. If the arc completes (reaches envelope +1) the slow limit
    predicts no tonic spiking at this kappa for small timescale ratio; a fold
    contact refutes the prediction.
    """
    _positive("kappa", kappa)
    _require_region(p, "predicts_no_tonic")
    arc = integrate_singular(p, kappa, math.pi, _equilibrium_start(p, -1.0),
                             horizon=math.pi / kappa, ds=ds)
    return isinstance(arc.terminal, ReachedEnvelopeMax)


def escape_cycle_check(p: Params, kappa: float,
                       ds: float = DEFAULT_DS) -> EscapeCycleCheck:
    """Falling-then-rising arc construction behind the tonic-spiking heuristic.

    Transports the equilibrium of the envelope-maximum cubic through one falling
    half-cycle to a handoff point on the envelope-minimum cubic, then through
    one rising half-cycle. holds=True iff the rising arc contacts the fold
    where the escape inequality is satisfied.
    """
    _positive("kappa", kappa)
    _require_region(p, "escape_cycle_check")
    half = math.pi / kappa
    down = integrate_singular(p, kappa, 0.0, _equilibrium_start(p, 1.0),
                              horizon=half, ds=ds)
    if not isinstance(down.terminal, ReachedHorizon):
        return EscapeCycleCheck(
            holds=False, handoff=None, landing=None,
            note=f"falling arc ended early: {down.terminal!r}")
    handoff = CubicPoint(v=float(down.v[-1]), w=float(down.w[-1]), c=-1.0)
    up = integrate_singular(p, kappa, math.pi, handoff, horizon=half, ds=ds)
    if isinstance(up.terminal, ReachedFold):
        landing = (up.terminal.s, up.terminal.c)
        if up.terminal.escaping:
            return EscapeCycleCheck(holds=True, handoff=handoff, landing=landing)
        return EscapeCycleCheck(holds=False, handoff=handoff, landing=landing,
                                note="fold contact outside the escape window")
    return EscapeCycleCheck(holds=False, handoff=handoff, landing=None,
                            note=f"rising arc did not meet the fold: {up.terminal!r}")
