#!/usr/bin/env python3
"""Runs the benchmark several times per workload and reports the spread
of every end-to-end metric against its bound in BENCHMARK.json.

    python3 simbench/spread.py [--runs 10] [--first-seed 1]
                               [--workloads ilp,mlp] [--seconds 35]
                               [--out runs.jsonl] [-- extra benchmark args]

Run it from the repository root. For each workload it makes `--runs`
runs with consecutive seeds and prints, per metric, the median and the
interquartile range as a share of the median (`statistics.quantiles`
with n=4), marking spreads at or above a third of the metric's bound.
Arguments after `--` go to every benchmark run (for example
`--slow-next-inst-ns 80` for the sensitivity check).
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds, extra):
    cmd = ["bash", "simbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"] + extra
    out = subprocess.run(cmd, check=True, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def main():
    argv = sys.argv[1:]
    extra = []
    if "--" in argv:
        extra = argv[argv.index("--") + 1:]
        argv = argv[:argv.index("--")]
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=None)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)

    bench = json.load(open("BENCHMARK.json"))
    seconds = args.seconds or bench["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    out = open(args.out, "a") if args.out else None
    ok = True
    for workload in workloads:
        values = {}
        for i in range(args.runs):
            seed = args.first_seed + i
            result = run_once(workload, seed, seconds, extra)
            if out:
                out.write(json.dumps({"workload": workload, "seed": seed,
                                      "extra": extra, "result": result}) + "\n")
                out.flush()
            if not result["correct"]:
                print(f"{workload} seed {seed}: correct=false", file=sys.stderr)
                ok = False
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        for metric in bench["end_to_end"]:
            v = values.get(metric["name"], [])
            if len(v) < 2:
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = "" if spread < metric["bound"] / 3 else "  <-- spread >= bound/3"
            if spread > metric["bound"]:
                ok = False
            print(f"{workload:9} {metric['name']:12} median={med:.6g} "
                  f"spread={spread:.4f} bound={metric['bound']}{flag}")
        sys.stdout.flush()
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
