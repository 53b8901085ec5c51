#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout. The first run configures and builds the
measuring program (perfbench/src, linked against the repository library) in
the build directory: $CARGO_TARGET_DIR when set, else .bench_build. Later
runs only re-check the configuration and that the build is current. The program's report goes to
stdout; its last line is the JSON result. Build output goes to stderr.
Exits non-zero, without a result line, when the build or the run fails.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("aes_fleet", "hash_reconfig", "qos_fidelity", "net_loopback")
RUN_TIMEOUT_S = 175


def build(build_dir):
    """Configure (quick once the tree exists) and bring the program up to date."""
    obj = os.path.join(build_dir, "perfbench")
    subprocess.run(["cmake", "-S", HERE, "-B", obj, "-DCMAKE_BUILD_TYPE=Release"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", obj, "--target", "perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(obj, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, help="workload seed (default: the preset's)")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    out_dir = os.path.join(build_dir, "results")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--spec-dir", os.path.join(HERE, "workloads"),
           "--out-dir", out_dir]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        ok = set(result) == {"correct", "attempted", "failed", "metrics"}
    except (json.JSONDecodeError, TypeError):
        ok = False
    if proc.returncode != 0 or not ok:
        sys.stderr.write(proc.stdout)
        print(f"perfbench: run failed (exit {proc.returncode})", file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
