#!/usr/bin/env python3
"""Steadiness check for the repo benchmark: two independent sets of runs.

Usage (from the root of a checkout):

  python3 perfbench/steadiness.py [--workload NAME ...]

Runs `perfbench/run.py --trace 0` ten times per workload in each of two
sets, each run with its own seed (set s, run i uses seed 1 + 10 s + i),
with the run length from BENCHMARK.json; every workload in BENCHMARK.json
unless --workload names some. For every end-to-end metric it prints each
set's median and quartiles and the spread (q3 - q1) / median, and whether:

  * every spread stays within the metric's bound (marked "~" where it is
    above a third of the bound);
  * the second set's median is not worse than the first's by more than
    the bound;
  * the share of failed operations is exactly the same in both sets.

Exits 1 if any of these fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10
SETS = 2


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    res = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    lines = [l for l in res.stdout.splitlines() if l.strip()]
    if res.returncode != 0 or not lines:
        sys.stderr.write(res.stderr[-2000:])
        raise SystemExit(f"steadiness: {workload} seed {seed} exited "
                         f"{res.returncode}")
    return json.loads(lines[-1])


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]

    results = {}  # (set, workload) -> [run result]
    for s in range(SETS):
        for w in workloads:
            for i in range(RUNS):
                seed = 1 + s * RUNS + i
                r = run_once(w, seed, seconds)
                results.setdefault((s, w), []).append(r)
                vals = " ".join(f"{k}={v['value']:.4g}"
                                for k, v in r["metrics"].items())
                print(f"set {s + 1} {w} seed {seed}: {vals} "
                      f"failed {r['failed']}/{r['attempted']}"
                      f"{'' if r['correct'] else ' INCORRECT'}", flush=True)

    ok = True
    print()
    for w in workloads:
        print(f"== {w}")
        for name, bound in bounds.items():
            meds = []
            for s in range(SETS):
                vals = [r["metrics"][name]["value"] for r in results[(s, w)]]
                q1, med, q3 = quartiles(vals)
                spread = (q3 - q1) / med
                meds.append(med)
                mark = "ok"
                if spread > bound:
                    mark, ok = "SPREAD>BOUND", False
                elif spread > bound / 3:
                    mark = "~"
                print(f"  {name:14s} set {s + 1}: median {med:.5g} "
                      f"q1 {q1:.5g} q3 {q3:.5g} spread {spread:.3f} "
                      f"(bound {bound}) {mark}")
            drift = meds[1] / meds[0] - 1
            good = drift <= bound
            ok &= good
            print(f"  {name:14s} set 2 vs 1: {drift:+.3f} "
                  f"{'ok' if good else 'WORSE>BOUND'}")
        shares = []
        for s in range(SETS):
            rs = results[(s, w)]
            shares.append((sum(r["failed"] for r in rs),
                           sum(r["attempted"] for r in rs)))
            if not all(r["correct"] for r in rs):
                ok = False
                print(f"  set {s + 1}: a run reported incorrect outputs")
        fracs = [f / a for f, a in shares]
        same = all(f * shares[0][1] == shares[0][0] * a for f, a in shares)
        ok &= same
        print(f"  failed share per set: {', '.join(f'{f}/{a}' for f, a in shares)}"
              f" {'ok' if same else 'DIFFERS'} ({', '.join(f'{x:.3f}' for x in fracs)})")

    print("\nsteady" if ok else "\nNOT steady")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
