#!/usr/bin/env python3
"""Builds and runs the Dynamoth end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source tree. It configures and builds the
benchmark (perfbench/CMakeLists.txt, Release) under $CARGO_TARGET_DIR
(default .bench_build) and runs it; the last line of its output is the JSON
result. See perfbench/README.md for the workloads and metrics.
"""
import argparse
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
# Beyond --seconds: set-ups, the traced run and elastic's fig7 gate.
RUN_MARGIN_S = 150


def build_dir() -> pathlib.Path:
    return pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve() / "perfbench"


def build() -> pathlib.Path:
    """Configures (once) and builds the benchmark; returns the binary."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit(f"run.py: no Dynamoth sources under {ROOT}/src")
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    if not (out / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "-j", jobs], check=True, stdout=sys.stderr)
    return out / "dynbench"


def commit() -> str:
    try:
        return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                              text=True, check=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown (not a git checkout)"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="smoke-test size")
    args = ap.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 2
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--fig7-csv", str(ROOT / "fig7_elasticity.csv"),
           "--out-dir", str(build_dir() / "out"), "--commit", commit()]
    if args.tiny:
        cmd.append("--tiny")
    timeout = args.seconds + RUN_MARGIN_S
    try:
        return subprocess.run(cmd, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: benchmark exceeded {timeout:g} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
