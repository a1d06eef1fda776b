"""The benchmark in perfbench/ reaches into the package by name: its warm-up
calls the kernels with fixed signatures, its environment record reads
_kernels.NUMBA_ENABLED, and its tracer replaces module attributes and must put
them back. A rename that breaks any of these, or a layer that stops calling
another through the traced name, fails here."""
import importlib
from pathlib import Path

import fhn_tis as ft
from fhn_tis import frozen, singular

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
    finally:
        uninstall()
    assert tracer.stats["singular.kappa_threshold"].calls == 1
    assert tracer.stats["singular.escape_cycle_check"].calls == 1
    assert tracer.stats["frozen.classify_region"].calls == 2
    # the falling and the rising arc of the escape construction
    assert tracer.stats["_kernels.transport_arc"].calls == 2
    assert tracer.stats["_kernels.leftmost_cubic_root"].calls > 0
    # the memoised classify_region is back under both names
    assert frozen.classify_region is original
    assert singular.classify_region is original
    assert original.cache_info().currsize > 0
