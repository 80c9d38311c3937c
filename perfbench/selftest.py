#!/usr/bin/env python3
"""Self-test of the benchmark's determinism.

For each workload, two invocations with the same seed must print the same
RunMetrics digest, and an invocation with another seed must print a
different one. Each invocation makes one short pass. Run from the
repository root:

    python3 perfbench/selftest.py [--workloads static ...]
"""

import argparse
import json
import subprocess
import sys


def digest(command, workload, seed):
    cmd = command + ["--workload", workload, "--seed", str(seed),
                     "--seconds", "1", "--trace", "0"]
    out = subprocess.run(cmd, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
    if not json.loads(lines[-1])["correct"]:
        sys.exit(f"{workload} seed {seed}: output checks failed\n{out.stdout}")
    return next(l.split()[2] for l in lines if l.startswith("digest"))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+")
    args = parser.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    ok = True
    for workload in workloads:
        a = digest(bench["command"], workload, 42)
        b = digest(bench["command"], workload, 42)
        c = digest(bench["command"], workload, 43)
        same, differs = a == b, a != c
        ok &= same and differs
        print(f"{workload}: seed 42 {a} / {b} ({'same' if same else 'DIFFERENT'}), "
              f"seed 43 {c} ({'differs' if differs else 'SAME'})")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
