#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each end-to-end metric's
median and spread (interquartile range as a share of the median) against
the bounds in BENCHMARK.json.

Run from the repository root after building the benchmark:

    python3 perfbench/spread.py --workload update_sync_full --seeds 1-10 \
        [--seconds 10] [--trace 0] [--bin PATH]

The default binary is the one `cargo build --release --manifest-path
perfbench/Cargo.toml` leaves under $CARGO_TARGET_DIR (or perfbench/target).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def seeds_of(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", default="0")
    ap.add_argument("--bin", default=None)
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    seconds = args.seconds or bench["run_seconds"]
    target = os.environ.get("CARGO_TARGET_DIR", "perfbench/target")
    binary = args.bin or os.path.join(target, "release", "diff-index-perfbench")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values = {}
    for seed in seeds_of(args.seeds):
        cmd = [binary, "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", args.trace]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
        if proc.returncode != 0 or not last.startswith("{"):
            sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stdout}\n{proc.stderr}")
        result = json.loads(last)
        if not result["correct"] or result["failed"]:
            sys.exit(f"seed {seed}: {last}")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
              flush=True)

    print(f"\n{'metric':<36} {'median':>12} {'spread':>8} {'bound':>6}")
    for name, vs in values.items():
        med = statistics.median(vs)
        q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [vs[0]] * 3
        spread = (q[2] - q[0]) / med if med else float("inf")
        bound = bounds.get(name)
        flag = "" if bound is None or spread < bound / 3 else "  <-- above bound/3"
        print(f"{name:<36} {med:>12.4f} {spread:>8.3f} {bound if bound is not None else '-':>6}{flag}")


if __name__ == "__main__":
    main()
