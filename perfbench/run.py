"""Benchmark of fhn-tis: one workload per run, timed end to end, then checked.

Run from the root of a checkout:

    python3 perfbench/run.py --workload analysis --seed 1 --seconds 24 --trace 0

--trace 0 prints the end-to-end metrics; --trace 1 first runs untraced rounds
for half the time, then installs the tracer (tracing.py) for the other half and
prints the per-layer metrics, the tracing overhead and the untraced latency and
throughput figures of the workload. The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics. --record FILE appends the
full result, with the backend, versions, core count and git SHA, to a JSON
lines file that compare.py reads.
"""
import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from hostspeed import Clock

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 9


def _setup(name, seed, tmp_dir):
    """Import the package and the workload, make round 0's inputs, warm the kernels.

    The package is dropped from sys.modules first, so every repeat pays the
    import again, and it must come from this checkout's src/.
    """
    for mod in [m for m in sys.modules if m.split(".")[0] in ("fhn_tis", "workloads")]:
        del sys.modules[mod]
    import fhn_tis.experiments
    if Path(fhn_tis.__file__).resolve().parent != (ROOT / "src" / "fhn_tis").resolve():
        raise SystemExit(f"perfbench: imported fhn_tis from {fhn_tis.__file__}, not src/")
    import workloads
    cls = workloads.WORKLOADS[name]
    wl = cls(seed, tmp_dir) if name == "experiments" else cls(seed)
    wl.inputs(0)
    _warm_kernels()
    return wl


def _warm_kernels():
    """One small call per kernel, so a JIT backend compiles before timing."""
    import numpy as np
    from fhn_tis import _kernels as k
    none = np.empty(0)
    k.cosine_cell_spikes(0.3, 0.3, 0.8, 0.5, 0.1, 0.1, 0.0, 0.0, 1.0, 0.5, 0.0, -0.5)
    k.rk4_trajectory(k.DRIVE_COSINE, 0.1, 0.0, none, 1.0, 0.3, 0.3, 0.8, 0.5, 0.1,
                     0.0, 0.0, 0.0, 1.0, 0.5, 1)
    k.dp45_trajectory(k.DRIVE_COSINE, 0.1, 0.0, none, 1.0, 0.3, 0.3, 0.8, 0.5, 0.1,
                      0.0, 0.0, 0.0, 1.0, 1e-6, 1e-6, 0.5, 1)
    k.spike_scan(np.zeros(4), 0.0, -0.5)
    k.transport_arc(0.3, 0.3, 0.8, 0.5, 2.0, 0.0, -0.62, 0.01, 5e-4, 1e-6, 10)
    k.leftmost_cubic_root(-1.0, 0.1)


def _environment():
    import numpy as np
    from fhn_tis import _kernels
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {"numba_enabled": bool(_kernels.NUMBA_ENABLED),
            "python": platform.python_version(), "numpy": np.__version__,
            "cpu_count": os.cpu_count(), "git_sha": sha}


def _rounds(wl, k0, budget, problems, tracer=None):
    """Run whole rounds from index k0 until about `budget` seconds have passed in them.

    With a tracer, only the rounds themselves are traced, not the checks. Each
    round records the process's peak resident set before its checks, which
    may load scipy.
    """
    rounds = []
    spent = 0.0
    k = k0
    while True:
        inputs = wl.inputs(k)
        uninstall = tracer.install() if tracer else None
        try:
            rd = wl.run(inputs, k)
        finally:
            if uninstall:
                uninstall()
        rd.rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        problems += wl.check(inputs, rd, k)
        rd.outputs = None
        rounds.append(rd)
        spent += rd.raw_s
        k += 1
        # stop when a further round would overshoot the budget by more than half
        if spent + 0.5 * spent / len(rounds) >= budget:
            return rounds


def _end_to_end(rounds, setup_s):
    items = sum(r.attempted for r in rounds)
    busy = sum(sum(r.item_s) for r in rounds)
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.mean(r.wall_s for r in rounds), "s"),
        "peak_rss_mb": (rounds[0].rss_mb, "MB"),
        "items_per_s": (items / busy, "1/s"),
    }


def _untraced_figures(name, rounds):
    """The workload's own throughput and latency figures, from untraced rounds."""
    m = {f"e2e.{e}_cells_per_s": (0.0, "cells/s") for e in ("exp1", "exp2")}
    for key in ("point", "traj"):
        for q in (50, 90):
            m[f"e2e.{key}_p{q}_ms"] = (0.0, "ms")
    if name == "experiments":
        for e in ("exp1", "exp2"):
            m[f"e2e.{e}_cells_per_s"] = (sum(r.extra[f"{e}_cells"] for r in rounds)
                                         / sum(r.extra[f"{e}_s"] for r in rounds), "cells/s")
    else:
        lat = [s * 1e3 for r in rounds for s in r.item_s]
        key = "point" if name == "analysis" else "traj"
        m[f"e2e.{key}_p50_ms"] = (statistics.median(lat), "ms")
        m[f"e2e.{key}_p90_ms"] = (statistics.quantiles(lat, n=10, method="inclusive")[8], "ms")
    return m


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=("experiments", "analysis", "simulate"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="timed seconds to spend in whole rounds")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", type=Path, help="append the full result to this JSON lines file")
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "fhn_tis" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package source at {src}/fhn_tis")
    sys.path.insert(0, str(src))
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    tmp_dir = Path(tempfile.mkdtemp(prefix="tmp-", dir=scratch))
    try:
        clock = Clock()
        setups = []
        for _ in range(SETUP_REPEATS):
            wl, sec = clock(_setup, args.workload, args.seed, tmp_dir)
            setups.append(sec)
        setup_s = statistics.median(setups)

        problems = []
        budget = args.seconds / 2.0 if args.trace else args.seconds
        plain = _rounds(wl, 0, budget, problems)
        rounds = list(plain)
        if args.trace:
            import tracing
            tracer = tracing.Tracer()
            traced = _rounds(wl, len(plain), budget, problems, tracer)
            rounds += traced
            points = sum(r.attempted for r in traced) if args.workload == "analysis" else 0
            metrics = tracer.per_layer(len(traced), points)
            metrics.update(_untraced_figures(args.workload, plain))
            metrics["trace.overhead_s"] = (
                statistics.mean(r.wall_s for r in traced)
                - statistics.mean(r.wall_s for r in plain), "s")
        else:
            metrics = _end_to_end(plain, setup_s)
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    env = _environment()
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"rounds={len(rounds)} attempted={attempted} failed={failed}")
    print("# env " + json.dumps(env))
    for p in problems[:20]:
        print(f"# CHECK FAILED: {p}")
    for k, (v, u) in metrics.items():
        print(f"# {k} = {v:.6g} {u}")
    if args.record:
        record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                      seconds=args.seconds, rounds=len(rounds), env=env,
                      problems=problems[:20])
        with open(args.record, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
