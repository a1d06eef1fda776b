"""Closed-form analysis of the frozen system (envelope held at a constant c).

For each c the fast nullcline is the cubic w = r(c)*v - v**3/3 with
r(c) = 1 - A**2/2 - B**2/2 - c*A*B, and the slow nullcline is the line
w = (v + beta)/gamma. This module locates the left fold of the cubic, the
leftmost equilibrium, and evaluates the stability and geometry flags that the
spiking/no-spiking predictions are built from.
"""
from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

from . import _kernels
from .errors import DomainError, FoldUndefinedError, RegionPreconditionError
from .model import Params, _check_int


@dataclasses.dataclass(frozen=True)
class FoldPoint:
    """Left fold (local minimum) of the cubic nullcline at envelope value c."""

    c: float
    v_m: float
    w_m: float


@dataclasses.dataclass(frozen=True)
class EquilibriumInfo:
    """Leftmost equilibrium of the frozen system with its stability flags.

    unique: the frozen system has exactly one equilibrium at this c.
    les: the equilibrium is locally exponentially stable.
    ges_small_eps: premise for global stability at small timescale ratio
    (unique and the equilibrium sits on the strictly stable outer branch).
    """

    c: float
    v_e: float
    w_e: float
    unique: bool
    les: bool
    ges_small_eps: bool


@dataclasses.dataclass(frozen=True)
class RegionClass:
    """Parameter-region membership flags.

    unique: one frozen equilibrium for every envelope value (closed form).
    les_sufficient: a sufficient condition for local stability at every c;
    the exact stability region is larger, so False is not a disproof.
    equilibria_left_of_folds: folds exist for all c, equilibria are unique,
    and every equilibrium lies strictly left of its fold (grid-verified).
    ges_small_eps: global stability for small timescale ratio; taken equal to
    equilibria_left_of_folds.
    """

    unique: bool
    les_sufficient: bool
    equilibria_left_of_folds: bool
    ges_small_eps: bool


def _gain(p: Params, c):
    # r(c) for a float or an array of envelope values, unchecked
    return 1.0 - p.A * p.A / 2.0 - p.B * p.B / 2.0 - c * p.A * p.B


def effective_gain(p: Params, c: float) -> float:
    """Linear gain r(c) of the fast variable at envelope value c."""
    if not (-1.0 <= c <= 1.0):
        raise DomainError(f"envelope value must lie in [-1, 1], got {c}")
    return _gain(p, c)


def fold_point(p: Params, c: float) -> FoldPoint:
    """Left fold of the cubic nullcline; requires r(c) > 0."""
    r = effective_gain(p, c)
    if r <= 0.0:
        raise FoldUndefinedError(
            f"cubic nullcline has no fold at c={c} (effective gain {r} <= 0)")
    return FoldPoint(c=c, v_m=-math.sqrt(r), w_m=-(2.0 / 3.0) * r ** 1.5)


def _equilibrium_cubic(p: Params, r):
    # (P, Q) of v**3 + P*v + Q = 0, whose leftmost root is the leftmost
    # equilibrium v_e at gain r (a float or an array)
    return -3.0 * (r - 1.0 / p.gamma), 3.0 * p.beta / p.gamma


def _unique_at(p: Params, r):
    # one frozen equilibrium at gain r (a float or an array)
    return (r - 1.0 / p.gamma) ** 3 < (9.0 / 4.0) * p.beta ** 2 / p.gamma ** 2


def _les_at(p: Params, r, v_e):
    # the equilibrium v_e at gain r (floats or arrays) is locally stable
    return r - v_e * v_e < min(p.epsilon * p.gamma, 1.0 / p.gamma)


def is_unique(p: Params, c: float) -> bool:
    """True iff the frozen system at c has exactly one equilibrium."""
    return _unique_at(p, effective_gain(p, c))


def is_les(p: Params, c: float) -> bool:
    """True iff the leftmost equilibrium at c is locally exponentially stable."""
    return equilibrium(p, c).les


def equilibrium(p: Params, c: float) -> EquilibriumInfo:
    """Leftmost equilibrium of the frozen system at envelope value c."""
    r = effective_gain(p, c)
    v_e = float(_kernels.leftmost_cubic_root(*_equilibrium_cubic(p, r)))
    w_e = (v_e + p.beta) / p.gamma
    unique = _unique_at(p, r)
    les = _les_at(p, r, v_e)
    ges = unique and (r - v_e * v_e < 0.0)
    return EquilibriumInfo(c=c, v_e=v_e, w_e=w_e, unique=unique, les=les,
                           ges_small_eps=ges)


def _unique_everywhere(p: Params) -> bool:
    # worst case is c = -1 where the gain is largest
    rhs = 2.0 * (1.0 - 1.0 / p.gamma
                 - (9.0 * p.beta ** 2 / (4.0 * p.gamma ** 2)) ** (1.0 / 3.0))
    return (p.A - p.B) ** 2 > rhs


# c-grid points of classify_region's fold-gap test and of frozen_table's rows
_C_GRID_SIZE = 1001


# a verdict chain reads the band of one point, and a band of the default 1001
# values holds 24 kB, so a few entries serve and memory stays flat
@functools.lru_cache(maxsize=8)
def _band(p: Params, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The uniform grid c of n envelope values on [-1, 1], the gains r(c) and
    the leftmost equilibria v_e(c), as read-only arrays.

    Memoised on the Params and n, so the region checks of one verdict chain
    and frozen_table share one band; every caller passes n by position, which
    keeps them on one cache entry. The band's roots are one array call,
    _kernels.leftmost_cubic_roots, whose values equal equilibrium's scalar
    roots bit for bit.
    """
    cs = np.linspace(-1.0, 1.0, n)
    r = _gain(p, cs)
    v_e = _kernels.leftmost_cubic_roots(*_equilibrium_cubic(p, r))
    for a in (cs, r, v_e):
        a.flags.writeable = False
    return cs, r, v_e


def classify_region(p: Params, c_grid_size: int = _C_GRID_SIZE) -> RegionClass:
    """Evaluate the parameter-region flags; the grid verifies the fold gap.

    The equilibria_left_of_folds flag has no closed form: v_e(c) < v_m(c) is
    checked on a uniform c-grid of c_grid_size points, and accepted only if the
    smallest observed gap exceeds 10 * (grid spacing) * (max observed gap
    slope), so a sign change between grid points cannot hide. The CLI's
    --c-grid-size sets this resolution (and the rows of its --table).
    """
    _check_int("c_grid_size", c_grid_size, 3)
    unique = _unique_everywhere(p)
    eq1 = equilibrium(p, 1.0)
    les_sufficient = (effective_gain(p, -1.0)
                      < eq1.v_e ** 2 + min(p.epsilon * p.gamma, 1.0 / p.gamma))
    left_of_folds = False
    if unique and p.folds_everywhere:
        cs, r, v_e = _band(p, c_grid_size)
        gaps = -np.sqrt(r) - v_e
        h = cs[1] - cs[0]
        slope = float(np.max(np.abs(np.diff(gaps)))) / h
        left_of_folds = bool(np.min(gaps) > 10.0 * h * slope)
    return RegionClass(unique=unique, les_sufficient=les_sufficient,
                       equilibria_left_of_folds=left_of_folds,
                       ges_small_eps=left_of_folds)


def no_spiking_condition(p: Params, c_grid_size: int = _C_GRID_SIZE) -> bool:
    """Quiescence test: the lowest equilibrium sits above the highest fold.

    True predicts no tonic spiking for small timescale ratio under any bounded
    envelope. Only meaningful when equilibria_left_of_folds holds, so that is a
    precondition.
    """
    region = classify_region(p, c_grid_size)
    if not region.equilibria_left_of_folds:
        raise RegionPreconditionError(
            "no_spiking_condition requires equilibria_left_of_folds; "
            "run classify_region for details")
    return equilibrium(p, -1.0).w_e > fold_point(p, 1.0).w_m


def piecewise_spiking_condition(p: Params) -> bool:
    """Square-wave tonic-spiking test; premises are evaluated internally.

    True iff equilibria are unique everywhere, folds exist everywhere, the
    equilibrium at envelope -1 lies strictly left of its fold, and it lies
    strictly below the fold at envelope +1. True predicts tonic spiking under
    the square-wave envelope for small timescale ratio and slow beat.
    """
    if not (p.folds_everywhere and _unique_everywhere(p)):
        return False
    eq = equilibrium(p, -1.0)
    lo_fold = fold_point(p, -1.0)
    hi_fold = fold_point(p, 1.0)
    return eq.v_e < lo_fold.v_m and eq.w_e < hi_fold.w_m


def frozen_table(p: Params, c_grid_size: int = _C_GRID_SIZE) -> dict:
    """Per-c table of gains, folds, equilibria, and flags for CSV export.

    Fold columns are NaN where the fold is undefined (gain <= 0). The c, r
    and v_e columns are copies of the memoised band that classify_region's
    grid test also reads, so a caller may write to the table.
    """
    _check_int("c_grid_size", c_grid_size, 2)
    cs, r, v_e = _band(p, c_grid_size)
    r_fold = np.where(r > 0.0, r, np.nan)
    return {
        "c": cs.copy(),
        "r": r.copy(),
        "v_m": -np.sqrt(r_fold),
        "w_m": -(2.0 / 3.0) * r_fold ** 1.5,
        "v_e": v_e.copy(),
        "w_e": (v_e + p.beta) / p.gamma,
        "unique": _unique_at(p, r),
        "les": _les_at(p, r, v_e),
    }
