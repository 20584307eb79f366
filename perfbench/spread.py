#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each end-to-end
metric's median and spread (interquartile range as a share of the
median), the figure BENCHMARK.json's bounds are set against.

    python3 perfbench/spread.py --workload audit-deep --seeds 1-10 --seconds 20

Run from the repository root.
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--seconds", type=int, default=20)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    values = {}
    for s in seeds(args.seeds):
        cmd = ["bash", "perfbench/run.sh", "--workload", args.workload, "--seed", str(s),
               "--seconds", str(args.seconds), "--trace", "0"]
        out = subprocess.run(cmd, capture_output=True, text=True)
        if out.returncode != 0:
            sys.exit(f"seed {s}: exit {out.returncode}\n{out.stderr}{out.stdout[-2000:]}")
        res = json.loads(out.stdout.strip().splitlines()[-1])
        if not res["correct"]:
            sys.exit(f"seed {s}: incorrect result\n{out.stdout[-2000:]}")
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {s}: " + " ".join(f"{n}={m['value']:.4g}" for n, m in sorted(res["metrics"].items())), flush=True)
    worst = 0.0
    for name in sorted(values):
        v = values[name]
        q1, med, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s":
            worst = max(worst, spread / bound)
            flag = "  OVER BOUND" if spread > bound else ("  over a third of bound" if spread > bound / 3 else "")
        print(f"{name:24s} median {med:12.5g}  spread {spread:7.3f}  bound {bound}{flag}")
    print(f"worst spread/bound (setup_s excluded): {worst:.3f}")


if __name__ == "__main__":
    main()
