"""Reference checks on the program's outputs.

Each check compares one output with a computation from oracles.py, or with a
property the method must have, and returns a list of problems (empty when the
output is right). The self-tests in selftest.py feed each check a deliberately
wrong output.
"""
import math

import numpy as np

import oracles

# samples of a reference trace this close to a detector level leave the spike
# count undecided between two correct integrators
LEVEL_TOL = 1e-6
KAPPA_STAR_RTOL = 1e-7


def region_flags(A, B, beta, gamma, unique, left_of_folds, ges_small_eps):
    unique_ref, _, left_ref, _, _ = oracles.region_reference(A, B, beta, gamma)
    out = []
    if unique != oracles.unique_by_enumeration(A, B, beta, gamma):
        out.append(f"unique={unique} but root enumeration says otherwise")
    if unique != unique_ref:
        out.append(f"unique={unique} but the closed form gives {unique_ref}")
    if left_of_folds != left_ref:
        out.append(f"equilibria_left_of_folds={left_of_folds} but the closed form "
                   f"gives {left_ref}")
    if ges_small_eps != left_of_folds:
        out.append("ges_small_eps differs from equilibria_left_of_folds")
    return out


def kappa_star(A, B, beta, gamma, value):
    ref = oracles.kappa_star_scan(A, B, beta, gamma)
    if not abs(value - ref) <= KAPPA_STAR_RTOL * max(1.0, abs(ref)):
        return [f"kappa*={value!r} but a dense scan gives {ref!r}"]
    return []


def escape_landing(A, B, beta, gamma, kappa, kstar_ref, landing):
    """An escape cycle that holds needs kappa > kappa* and escape at the landing."""
    out = []
    if not kappa > kstar_ref:
        out.append(f"escape cycle holds at kappa={kappa} <= kappa*={kstar_ref}")
    if landing is None:
        out.append("escape cycle holds without a landing point")
    elif not oracles.escapes_at(A, B, beta, gamma, kappa, landing[1]):
        out.append(f"escape inequality fails at the landing c={landing[1]}")
    return out


def frozen_table(A, B, beta, gamma, table):
    out = []
    c = table["c"]
    if not np.allclose(c, np.linspace(-1.0, 1.0, c.size), rtol=0.0, atol=1e-15):
        out.append("c column is not the uniform grid on [-1, 1]")
    r = oracles.gain(A, B, c)
    if np.max(np.abs(table["r"] - r)) > 1e-14:
        out.append("r column differs from the gain formula")
    pos = r > 0.0
    if (np.max(np.abs(table["v_m"][pos] + np.sqrt(r[pos])), initial=0.0) > 1e-12
            or np.any(np.isfinite(table["v_m"][~pos]))):
        out.append("fold column differs from -sqrt(r)")
    v_e, w_e = table["v_e"], table["w_e"]
    dv = np.max(np.abs(v_e - oracles.equilibrium_v(A, B, beta, gamma, c)))
    if dv > 1e-9:
        out.append(f"v_e differs from bisection by {dv:.3e}")
    if np.max(np.abs(w_e - (v_e + beta) / gamma)) > 1e-12:
        out.append("an equilibrium is off the linear nullcline")
    if np.max(np.abs(r * v_e - v_e ** 3 / 3.0 - w_e)) > 1e-9:
        out.append("an equilibrium is off the cubic nullcline")
    return out


def spike_count(v, fire, arm, count):
    ref = len(oracles.hysteresis_indices(v, fire, arm))
    if count != ref:
        return [f"spike count {count} but a hysteresis recount gives {ref}"]
    return []


def recount(ref_v, fire, arm, count):
    """Count on a reference trace; a trace grazing a level leaves it undecided."""
    ref = len(oracles.hysteresis_indices(ref_v, fire, arm))
    if count != ref and not oracles.near_level(ref_v, (fire, arm), LEVEL_TOL):
        return [f"spike count {count} but the DOP853 recount gives {ref}"]
    return []


def in_box(A, B, beta, gamma, v, w, L, S):
    """Samples inside [-L, L] x [-S, S], and the box's edges point inward."""
    out = []
    worst_gain = oracles.gain(A, B, -1.0)
    if L * worst_gain - L ** 3 / 3.0 + S > 0.0 or S < (L + beta) / gamma:
        out.append(f"box L={L}, S={S} has an edge where the flow points outward")
    if np.max(np.abs(v)) > L or np.max(np.abs(w)) > S:
        out.append(f"a sample leaves the box: max|v|={np.max(np.abs(v)):.4g} (L={L}), "
                   f"max|w|={np.max(np.abs(w)):.4g} (S={S})")
    return out


def near_equilibrium(v, w, v_e, w_e, tol=1e-4):
    d = math.hypot(v - v_e, w - w_e)
    if not d <= tol:
        return [f"frozen run ends {d:.3e} from its equilibrium"]
    return []
