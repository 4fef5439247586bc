#!/usr/bin/env python3
"""Build and run the EDC replay benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
engine and the benchmark binary (Release) under .bench_build/perfbench;
later runs only re-check the build. The binary's last stdout line is the
result object: {"correct", "attempted", "failed", "metrics"}. With
--trace 1 the kept spans of the traced repetition are written to
.bench_build/perfbench/spans/<workload>.csv. See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "edc_perfbench"
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build() -> None:
    """Configure (once) and build the binary; exit 1 with the log on failure."""
    BUILD.mkdir(parents=True, exist_ok=True)
    log_path = BUILD / "build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs,
                  "--target", "edc_perfbench"])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                done = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT)
            except OSError as e:
                sys.exit(f"perfbench: cannot run {cmd[0]}: {e}")
            if done.returncode != 0:
                log.flush()
                tail = log_path.read_text(errors="replace").splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                if cmd[1] == "-S":
                    # Configure again next time rather than reuse a broken cache.
                    (BUILD / "CMakeCache.txt").unlink(missing_ok=True)
                sys.exit(f"perfbench: build step failed: {' '.join(cmd)}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    build()
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = BUILD / "spans"
        spans.mkdir(exist_ok=True)
        cmd += ["--spans-out", str(spans / f"{args.workload}.csv")]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        print(f"perfbench: edc_perfbench exited with {done.returncode}",
              file=sys.stderr)
        return done.returncode or 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stdout.write(done.stdout)
        print("perfbench: edc_perfbench printed no result object",
              file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
