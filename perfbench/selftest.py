"""Self-tests of the benchmark's reference checks: each rejects a wrong output.

Run from the root of a checkout:

    python3 perfbench/selftest.py

Each test takes a real output of the package, confirms the check accepts it,
then breaks it the way a faulty program would and confirms the check refuses.
"""
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import fhn_tis as ft  # noqa: E402
import checks  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402

P = ft.Params(A=0.3, B=0.3, beta=0.8, gamma=0.5, epsilon=0.1)
ARGS = (P.A, P.B, P.beta, P.gamma)


class SpikeCount(unittest.TestCase):
    # the desk tonic cell: kappa = 2 at epsilon = 0.02 fires twice by t = 500
    def setUp(self):
        self.p = ft.Params(A=0.3, B=0.3, beta=0.8, gamma=0.5, epsilon=0.02)
        self.traj = ft.simulate(self.p, ft.AveragedCosine(eta=0.04), ft.State(-2.0, 2.0), 500.0)
        self.rep = ft.count_spikes(self.traj)
        self.arm = workloads._arm(*ARGS)

    def test_count_off_by_one_is_refused(self):
        self.assertGreaterEqual(self.rep.count, 2)
        self.assertEqual(checks.spike_count(self.traj.v, 0.0, self.arm, self.rep.count), [])
        for wrong in (self.rep.count - 1, self.rep.count + 1):
            self.assertTrue(checks.spike_count(self.traj.v, 0.0, self.arm, wrong))

    def test_recount_against_dop853_refuses_off_by_one(self):
        ref = oracles.reference_v(*ARGS, self.p.epsilon, "averaged_cosine", (0.04,), -2.0, 2.0,
                                  self.traj.t)
        self.assertEqual(checks.recount(ref, 0.0, self.arm, self.rep.count), [])
        self.assertTrue(checks.recount(ref, 0.0, self.arm, self.rep.count + 1))


class KappaStar(unittest.TestCase):
    def test_shift_by_1e_3_is_refused(self):
        kstar = ft.kappa_threshold(P)
        self.assertEqual(checks.kappa_star(*ARGS, kstar), [])
        self.assertTrue(checks.kappa_star(*ARGS, kstar + 1e-3))
        self.assertTrue(checks.kappa_star(*ARGS, kstar - 1e-3))

    def test_escape_below_threshold_is_refused(self):
        kstar = oracles.kappa_star_scan(*ARGS)
        ecc = ft.escape_cycle_check(P, 2.0)
        self.assertTrue(ecc.holds)
        self.assertEqual(checks.escape_landing(*ARGS, 2.0, kstar, ecc.landing), [])
        self.assertTrue(checks.escape_landing(*ARGS, 2.0, 2.5, ecc.landing))
        self.assertTrue(checks.escape_landing(*ARGS, 1.0, kstar, ecc.landing))


class RegionFlags(unittest.TestCase):
    def test_flipped_flags_are_refused(self):
        r = ft.classify_region(P)
        flags = (r.unique, r.equilibria_left_of_folds, r.ges_small_eps)
        self.assertEqual(checks.region_flags(*ARGS, *flags), [])
        for i in range(3):
            flipped = list(flags)
            flipped[i] = not flipped[i]
            self.assertTrue(checks.region_flags(*ARGS, *flipped), f"flag {i} flipped")

    def test_pinned_points_show_the_known_false_negative(self):
        for A, B, beta, gamma in workloads.PINNED:
            r = ft.classify_region(ft.Params(A, B, beta, gamma, workloads.PINNED_EPSILON))
            self.assertTrue(oracles.region_reference(A, B, beta, gamma)[2])
            self.assertTrue(checks.region_flags(A, B, beta, gamma, r.unique,
                                                r.equilibria_left_of_folds, r.ges_small_eps))

    def test_frozen_table_with_a_moved_equilibrium_is_refused(self):
        table = ft.frozen_table(P)
        self.assertEqual(checks.frozen_table(*ARGS, table), [])
        table["v_e"][500] += 1e-6
        self.assertTrue(checks.frozen_table(*ARGS, table))


class InvariantBox(unittest.TestCase):
    def test_sample_outside_the_box_is_refused(self):
        L, S = ft.invariant_box(P)
        traj = ft.simulate(P, ft.SignCosine(eta=0.2), ft.State(L * 0.9, -S * 0.9), 50.0)
        self.assertEqual(checks.in_box(*ARGS, traj.v, traj.w, L, S), [])
        v = traj.v.copy()
        v[len(v) // 2] = L * 1.001
        self.assertTrue(checks.in_box(*ARGS, v, traj.w, L, S))
        self.assertTrue(checks.in_box(*ARGS, traj.v, traj.w, L / 4.0, S))

    def test_frozen_run_short_of_its_equilibrium_is_refused(self):
        eq = ft.equilibrium(P, -1.0)
        self.assertEqual(checks.near_equilibrium(eq.v_e, eq.w_e, eq.v_e, eq.w_e), [])
        self.assertTrue(checks.near_equilibrium(eq.v_e + 1e-3, eq.w_e, eq.v_e, eq.w_e))


class Oracles(unittest.TestCase):
    def test_bisection_matches_a_known_root(self):
        # (t + 2)(t - 1)^2 = t^3 - 3t + 2: leftmost root -2 beside a double root
        self.assertAlmostEqual(float(oracles.leftmost_root_bisect(-3.0, 2.0)), -2.0, places=12)
        self.assertEqual(list(oracles.real_root_counts([-3.0, 1.0], [0.0, 0.0])), [3, 1])

    def test_hysteresis_needs_a_re_arm(self):
        v = np.array([-1.0, 0.5, -0.2, 0.5, -1.0, 0.5])
        self.assertEqual(oracles.hysteresis_indices(v, 0.0, -0.5), [1, 5])

    def test_kappa_scan_matches_the_cli_example(self):
        # README: kappa_threshold for A=B=0.3, beta=0.8, gamma=0.5 is 1.5724...
        self.assertAlmostEqual(oracles.kappa_star_scan(0.3, 0.3, 0.8, 0.5), 1.5724, places=4)


if __name__ == "__main__":
    unittest.main()
