#!/usr/bin/env python3
"""Measure the benchmark's run-to-run spread.

Runs perfbench/run.sh once per (workload, seed) and reports, for every
end-to-end metric, the median of the runs and the spread: the distance
between the first and third quartile (statistics.quantiles(values, n=4))
as a share of the median, next to the metric's bound from BENCHMARK.json.

    python3 perfbench/spread.py --workloads live-capacity,sim-approx --seeds 1-10

Run it from the repository root. --json writes every run's result line
and the summary to a file.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--json", help="write all results and the summary here")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    record = {"seconds": args.seconds, "runs": [], "summary": {}}
    for workload in args.workloads.split(","):
        values = {}
        for seed in args.seeds:
            cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(args.seconds), "--trace", str(args.trace)]
            t0 = time.time()
            proc = subprocess.run(cmd, capture_output=True, text=True)
            took = time.time() - t0
            if proc.returncode != 0:
                sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            record["runs"].append({"workload": workload, "seed": seed, "took_s": took, "result": result})
            if not result["correct"]:
                print(f"{workload} seed {seed}: NOT CORRECT ({result['failed']} failed)", file=sys.stderr)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: {took:.1f}s", file=sys.stderr)
        print(f"\n{workload} ({len(args.seeds)} seeds)")
        summary = record["summary"].setdefault(workload, {})
        for name, vals in sorted(values.items()):
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None:
                flag = "ok" if spread < bound / 3 else ("WITHIN BOUND" if spread <= bound else "OVER BOUND")
            summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
            print(f"  {name:32s} median {med:12.6g}  spread {spread:7.2%}"
                  + (f"  bound {bound:.0%} {flag}" if bound is not None else ""))
    if args.json:
        with open(args.json, "w") as f:
            json.dump(record, f, indent=1)


if __name__ == "__main__":
    main()
