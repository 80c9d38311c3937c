#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

For every workload and metric this prints the median of the per-seed
values and the distance between their first and third quartiles as a share
of that median (Python's statistics.quantiles(values, n=4)), next to the
metric's bound from BENCHMARK.json. Run from the repository root:

    python3 perfbench/spread.py --seeds 1 2 3 4 5 --workloads static
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    parser.add_argument("--workloads", nargs="+")
    parser.add_argument("--seconds", type=int, help="override run_seconds")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    specs = bench["per_layer"] if args.trace else bench["end_to_end"]
    ok = True
    for workload in workloads:
        values = {m["name"]: [] for m in specs}
        for seed in args.seeds:
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(args.trace),
            ]
            out = subprocess.run(cmd, capture_output=True, text=True)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"]:
                ok = False
                print(f"{workload} seed {seed}: INCORRECT {result}")
            digest = next((l for l in lines if l.startswith("digest")), "digest ?")
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            shown = " ".join(f"{name}={vals[-1]:.6g}" for name, vals in values.items())
            print(f"{workload} seed {seed}: {digest} {shown}", flush=True)
        for m in specs:
            vals = values[m["name"]]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = m.get("bound")
            note = "" if bound is None else f"  bound {bound} (third {bound / 3:.4f})"
            print(f"  {workload:9} {m['name']:26} median {med:.6g} {m['unit']:9} "
                  f"spread {spread:.4f}{note}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
