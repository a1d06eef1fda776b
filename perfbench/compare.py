"""Compare two sets of benchmark runs, metric by metric and workload by workload.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds the records that run.py --record appends, one run per line;
only untraced runs are read. For each workload and end-to-end metric of
BENCHMARK.json it prints each side's median and quartiles, the ratio new/base
and a verdict:

  unresolved  a side's spread (quartile distance over median) exceeds the
              bound, unless every new run beats every base run
  worse       the new median is worse than the base median by more than the bound
  better      the new median is better by more than the base quartile distance,
              and the new run wins at least 9 in 10 of all (base, new) pairs
  unchanged   otherwise

It also prints each side's share of failed operations, and flags a side that
had an incorrect run.
"""
import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path):
    runs = {}
    for line in Path(path).read_text().splitlines():
        rec = json.loads(line)
        if rec["trace"] == 0:
            runs.setdefault(rec["workload"], []).append(rec)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base, new, better, bound):
    sign = 1.0 if better == "higher" else -1.0
    b1, bm, b3 = quartiles(base)
    n1, nm, n3 = quartiles(new)
    wins = sum(sign * (n - b) > 0 for n in new for b in base)
    pairs = len(base) * len(new)
    if ((b3 - b1) / bm > bound or (n3 - n1) / nm > bound) and wins < pairs:
        return "unresolved"
    if sign * (bm - nm) / bm > bound:
        return "worse"
    if sign * (nm - bm) > b3 - b1 and wins >= 0.9 * pairs:
        return "better"
    return "unchanged"


def main(argv):
    if len(argv) != 2:
        raise SystemExit(__doc__)
    spec = json.loads(SPEC.read_text())
    base, new = load(argv[0]), load(argv[1])
    print(f"{'workload':<12} {'metric':<14} {'base q1/med/q3':>30} {'new q1/med/q3':>30} "
          f"{'new/base':>9}  verdict")
    for wl in spec["workloads"]:
        name = wl["name"]
        if name not in base or name not in new:
            print(f"{name:<12} missing from {'base' if name not in base else 'new'}")
            continue
        for side, runs in (("base", base[name]), ("new", new[name])):
            att = sum(r["attempted"] for r in runs)
            bad = sum(not r["correct"] for r in runs)
            print(f"{name:<12} {side}: {len(runs)} runs, failed {sum(r['failed'] for r in runs)}"
                  f"/{att} operations" + (f", {bad} INCORRECT runs" if bad else ""))
        for m in spec["end_to_end"]:
            b = [r["metrics"][m["name"]]["value"] for r in base[name]]
            n = [r["metrics"][m["name"]]["value"] for r in new[name]]
            bq, nq = quartiles(b), quartiles(n)
            print(f"{name:<12} {m['name']:<14} "
                  f"{'/'.join(f'{x:.4g}' for x in bq):>30} {'/'.join(f'{x:.4g}' for x in nq):>30} "
                  f"{nq[1] / bq[1]:>9.3f}  {verdict(b, n, m['better'], m['bound'])}")


if __name__ == "__main__":
    main(sys.argv[1:])
