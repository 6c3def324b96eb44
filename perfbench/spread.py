#!/usr/bin/env python3
"""Run the benchmark on several seeds and summarise each metric's spread.

For every metric this prints the median of the runs, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and their distance as a
share of the median, next to the bound ``BENCHMARK.json`` fixes for it.

    python3 perfbench/spread.py --workload serve_distinct --runs 10 --seed0 100
    python3 perfbench/spread.py --workload serve_hot --runs 5 --trace 1 --json out.json

Run it from the repository root. It runs the ``command`` of
``BENCHMARK.json`` as given, so set ``CARGO_TARGET_DIR`` to reuse a build.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds, trace):
    args = command + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    done = subprocess.run(args, capture_output=True, text=True, timeout=900, check=False)
    if done.returncode != 0:
        sys.exit(f"seed {seed}: exit {done.returncode}\n{done.stderr[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"seed {seed}: a correctness check failed\n{done.stdout[-4000:]}")
    return result


def host():
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            model = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), "")
    except OSError:
        pass
    return {"cpus": os.cpu_count(), "cpu_model": model, "system": platform.system()}


def summarise(runs, bounds):
    rows = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = median
        rows[name] = {
            "unit": runs[0]["metrics"][name]["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "bound": bounds.get(name),
            "values": values,
        }
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--json", help="also write the summary to this file")
    opts = parser.parse_args()

    with open("BENCHMARK.json", encoding="utf-8") as f:
        bench = json.load(f)
    seconds = opts.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs = []
    for i in range(opts.runs):
        seed = opts.seed0 + i
        runs.append(run_once(bench["command"], opts.workload, seed, seconds, opts.trace))
        print(f"seed {seed} done", file=sys.stderr)
    rows = summarise(runs, bounds)
    print(f"{opts.workload}: {opts.runs} runs, seeds {opts.seed0}..{opts.seed0 + opts.runs - 1}")
    for name, row in rows.items():
        bound = "" if row["bound"] is None else f"bound {row['bound']:.2f}"
        flag = ""
        if row["bound"] is not None and row["spread"] > row["bound"] / 3:
            flag = "  <- above a third of the bound"
        print(
            f"  {name:32} median {row['median']:12.5g} {row['unit']:6} "
            f"q1 {row['q1']:12.5g} q3 {row['q3']:12.5g} spread {row['spread']:7.2%} {bound}{flag}"
        )
    if opts.json:
        summary = {
            "workload": opts.workload,
            "host": host(),
            "seeds": [opts.seed0 + i for i in range(opts.runs)],
            "seconds": seconds,
            "trace": opts.trace,
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "metrics": rows,
        }
        with open(opts.json, "w", encoding="utf-8") as f:
            json.dump(summary, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
