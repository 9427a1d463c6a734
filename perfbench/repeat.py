"""Run workloads n times with successive seeds and summarize each metric.

    python3 perfbench/repeat.py --workloads r1r9,wide_fanin --runs 10 --first-seed 1 --out a.json
    python3 perfbench/repeat.py --compare a.json b.json

For every end-to-end metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the distance
between the quartiles as a share of the median, against the metric's
bound in BENCHMARK.json. ``--compare`` checks that the second set's median
is not worse than the first's by more than the bound and that both sets
failed the same share of operations. Runs go one at a time, from the root
of the checkout this file sits in.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from run import ROOT, spec


def run_set(workloads: list[str], runs: int, first_seed: int) -> dict:
    bench = spec()
    results: dict[str, list[dict]] = {}
    for name in workloads:
        for seed in range(first_seed, first_seed + runs):
            cmd = bench["command"] + [
                "--workload", name, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0",
            ]
            began = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            took = time.perf_counter() - began
            if proc.returncode != 0:
                sys.exit(f"{name} seed {seed} exited with {proc.returncode}:\n{proc.stderr}")
            result = json.loads(proc.stdout.splitlines()[-1])
            result["seed"] = seed
            results.setdefault(name, []).append(result)
            print(f"{name} seed {seed}: correct={result['correct']} "
                  f"failed {result['failed']}/{result['attempted']}, {took:.0f} s", file=sys.stderr)
    return results


def summarize(results: dict) -> bool:
    """Print each metric's median, quartiles and spread; True when every
    spread is within its bound and the failed share is the same in every
    run."""
    bounds = {m["name"]: m for m in spec()["end_to_end"]}
    ok = True
    for name, runs in results.items():
        shares = {r["failed"] / r["attempted"] for r in runs}
        correct = all(r["correct"] for r in runs)
        ok &= len(shares) == 1 and correct
        print(f"\n{name}: {len(runs)} runs, correct={correct}, failed shares {sorted(shares)}")
        print(f"  {'metric':24} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(metric, {}).get("bound")
            flag = ""
            if bound is not None:
                within = spread <= bound
                ok &= within
                flag = "ok" if spread <= bound / 3 else ("within bound" if within else "TOO WIDE")
            print(f"  {metric:24} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f} "
                  f"{bound if bound is not None else '-':>6} {flag}")
    return ok


def compare(first: dict, second: dict) -> bool:
    """True when no median of the second set is worse than the first's by
    more than the bound, and both failed the same share of operations."""
    bounds = {m["name"]: m for m in spec()["end_to_end"]}
    ok = True
    for name in first:
        a, b = first[name], second[name]
        share_a = {r["failed"] / r["attempted"] for r in a}
        share_b = {r["failed"] / r["attempted"] for r in b}
        same = share_a == share_b and len(share_a) == 1
        ok &= same
        print(f"\n{name}: failed share {sorted(share_a)} vs {sorted(share_b)} {'ok' if same else 'DIFFERENT'}")
        for metric, m in bounds.items():
            ma = statistics.median(r["metrics"][metric]["value"] for r in a)
            mb = statistics.median(r["metrics"][metric]["value"] for r in b)
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            within = worse <= m["bound"]
            ok &= within
            print(f"  {metric:24} {ma:14.6g} -> {mb:14.6g}  worse by {100 * worse:+7.2f}% "
                  f"(bound {100 * m['bound']:.0f}%) {'ok' if within else 'REGRESSION'}")
    return ok


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec()["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", help="save the results as JSON")
    parser.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"), help="two saved result sets")
    args = parser.parse_args()
    if args.compare:
        first, second = (json.loads(Path(p).read_text(encoding="utf-8")) for p in args.compare)
        sys.exit(0 if compare(first, second) else 1)
    results = run_set(args.workloads.split(","), args.runs, args.first_seed)
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=1), encoding="utf-8")
    sys.exit(0 if summarize(results) else 1)


if __name__ == "__main__":
    main()
