#!/usr/bin/env python3
"""Runs the benchmark once per seed and reports each metric's spread.

Usage, from the root of the repository:

    python3 perfbench/spread.py --workload fault_sweep --seeds 1-10 \
        [--trace 0|1] [--out perfbench/results/x.json]
    python3 perfbench/spread.py --compare BASE.json NEW.json

The command and run length come from BENCHMARK.json. For every metric the
script prints the median of the runs, the first and third quartiles (as
Python's statistics.quantiles(values, n=4) gives them), and the spread: the
distance between the quartiles as a share of the median. With --out it
also writes every run's context and result lines, and the summary, as JSON.
--compare reads two such files and says, for each end-to-end metric, by
what share NEW's median is worse than BASE's, against the metric's bound.
It also checks that every seed the two files share gave the same counts
for its first unit (`unit0_counts`), so a change that should leave the
modelled behaviour alone can show that it did; it exits 1 if one differs.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def seeds_arg(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def compare(base_path, new_path, bench):
    records = []
    for path in (base_path, new_path):
        with open(path) as f:
            records.append(json.load(f))
    base, new = (r["summary"] for r in records)
    for m in bench["end_to_end"]:
        b, n = base[m["name"]]["median"], new[m["name"]]["median"]
        worse = (n - b) / b if m["better"] == "lower" else (b - n) / b
        verdict = "ok" if worse <= m["bound"] else "WORSE THAN BOUND"
        print(f"{m['name']:20s} {b:<14.6g} -> {n:<14.6g} worse by {worse:+.4f} "
              f"(bound {m['bound']}) {verdict}")
    counts = [{r["seed"]: r["context"]["unit0_counts"] for r in rec["runs"]}
              for rec in records]
    shared = sorted(counts[0].keys() & counts[1].keys())
    changed = [s for s in shared if counts[0][s] != counts[1][s]]
    for s in changed:
        print(f"seed {s}: unit0_counts differ: {counts[0][s]} -> {counts[1][s]}")
    print(f"unit0_counts: {len(shared) - len(changed)} of {len(shared)} shared seeds repeat")
    if changed:
        sys.exit(1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--out")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    if args.compare:
        compare(*args.compare, bench)
        return
    if not args.workload:
        ap.error("--workload is required")
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    runs = []
    for seed in args.seeds:
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", args.trace,
        ]
        t0 = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True)
        wall_s = time.monotonic() - t0
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
        context, result = json.loads(lines[-2])["context"], json.loads(lines[-1])
        runs.append({"seed": seed, "wall_s": wall_s, "context": context,
                     "result": result})
        values = {k: v["value"] for k, v in result["metrics"].items()}
        print(f"seed {seed}: attempted {result['attempted']} failed "
              f"{result['failed']} {json.dumps(values)}", flush=True)

    summary = {}
    for name in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        spread = (q3 - q1) / med if med else 0.0
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                         "bound": bounds.get(name)}
        bound = bounds.get(name)
        flag = "" if bound is None else (" ok" if spread < bound / 3 else
                                         " WITHIN BOUND" if spread < bound else " OVER BOUND")
        print(f"{name:40s} median {med:<14.6g} q1 {q1:<14.6g} q3 {q3:<14.6g} "
              f"spread {spread:.4f}{flag}")

    if args.out:
        with open(args.out, "w") as f:
            json.dump({"workload": args.workload, "trace": args.trace,
                       "seconds": seconds, "runs": runs, "summary": summary},
                      f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
