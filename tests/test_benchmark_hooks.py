"""The benchmark in perfbench/ reaches into the package by name: its warm-up
calls the kernels with fixed signatures, its environment record reads
_kernels.NUMBA_ENABLED, and its tracer replaces module attributes and must put
them back. A rename that breaks any of these, or a layer that stops calling
another through the traced name, fails here; so does a change to the sample
count at index 3 of dp45_trajectory's result, from which the tracer counts
accepted steps. The benchmark's self-test, which feeds each of its checks a
deliberately wrong output, must pass as well."""
import importlib
import re
import subprocess
import sys
from pathlib import Path

import fhn_tis as ft
from fhn_tis import frozen, sim, singular

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_benchmark_warmup_and_tracer_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    run = importlib.import_module("run")
    tracing = importlib.import_module("tracing")
    run._warm_kernels()
    assert run._environment()["numba_enabled"] is False
    original = frozen.classify_region
    p = ft.Params(A=0.3, B=0.3, beta=0.8, gamma=0.5, epsilon=0.1)
    tracer = tracing.Tracer()
    uninstall = tracer.install()
    try:
        singular.kappa_threshold(p)
        singular.escape_cycle_check(p, 2.0)
        drive, ic = ft.AveragedCosine(0.1), ft.State(-1.0, -0.5)
        sim.simulate(p, drive, ic, 20.0)
        adaptive = sim.IntegratorConfig(method=sim.AdaptiveRK45(), sample_stride=3)
        traj = sim.simulate(p, drive, ic, 20.0, adaptive)
    finally:
        uninstall()
    assert tracer.stats["singular.kappa_threshold"].calls == 1
    assert tracer.stats["singular.escape_cycle_check"].calls == 1
    assert tracer.stats["frozen.classify_region"].calls == 2
    # the falling and the rising arc of the escape construction
    assert tracer.stats["_kernels.transport_arc"].calls == 2
    assert tracer.stats["_kernels.leftmost_cubic_root"].calls > 0
    assert tracer.stats["sim.simulate.averaged_cosine.fixed"].calls == 1
    assert tracer.stats["_kernels.rk4_trajectory"].units == 2000
    # accepted steps, to within one stride, from the sample count
    dp45 = tracer.stats["_kernels.dp45_trajectory"]
    assert dp45.calls == 1
    assert dp45.units == (len(traj.t) - 1) * 3 > 0
    # the untraced classify_region is back under both names
    assert frozen.classify_region is original
    assert singular.classify_region is original


def test_benchmark_selftest_refuses_wrong_outputs():
    # in a fresh interpreter: perfbench/ and tests/ each have an oracles module
    done = subprocess.run([sys.executable, str(PERFBENCH / "selftest.py")],
                          cwd=PERFBENCH.parent, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    ran = re.search(r"^Ran (\d+) tests", done.stderr, re.MULTILINE)
    assert ran and int(ran.group(1)) >= 12, done.stderr
    assert done.stderr.rstrip().endswith("OK")
