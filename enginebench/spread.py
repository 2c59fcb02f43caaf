#!/usr/bin/env python3
"""Runs one workload over several seeds and reports each metric's spread.

    python3 enginebench/spread.py --workload large_mix --runs 10 --seconds 20

For every metric it prints the median and the distance between the first
and third quartiles (statistics.quantiles, n=4) as a share of the median,
next to the metric's bound from BENCHMARK.json. Each seed's result line is
appended to --log as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--log", type=Path)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    values = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        out = subprocess.run(
            [sys.executable, str(ROOT / "enginebench" / "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=False)
        if out.returncode != 0:
            sys.exit(f"seed {seed} failed:\n{out.stderr[-2000:]}")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if args.log:
            with args.log.open("a") as log:
                log.write(json.dumps({"workload": args.workload, "seed": seed,
                                      "result": result}) + "\n")
        if not result["correct"] or result["failed"]:
            print(f"seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed} done", file=sys.stderr)

    print(f"{args.workload}: {args.runs} runs of {seconds} s")
    for name, vals in values.items():
        median = statistics.median(vals)
        if len(vals) >= 2 and median != 0:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = f"{(q3 - q1) / abs(median):8.4f}"
        else:
            spread = "       -"
        bound = bounds.get(name)
        print(f"  {name:34s} median {median:14.6g}  iqr/median {spread}"
              + (f"  bound {bound}" if bound is not None else ""))


if __name__ == "__main__":
    main()
