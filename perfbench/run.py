#!/usr/bin/env python3
"""Build the mecra benchmark binary from source and run one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload stream_journaled --seed 1 \
        --seconds 20 --trace 0

The benchmark binary prints its metrics as one JSON object on the last line
of standard output. Extra modes, forwarded to the binary unchanged:

    python3 perfbench/run.py --self-test    # corrupt outputs must be rejected
    python3 perfbench/run.py --reference --seed 1   # README reference figures

The build lives in $CARGO_TARGET_DIR (default .bench_build) under the
checkout root; journals and other scratch files go to its work/ directory.
"""

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def build(build_dir: Path) -> None:
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    configured = any((build_dir / f).exists() for f in ("Makefile", "build.ninja"))
    if not configured:
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              check=False)
        if done.returncode != 0:
            sys.stderr.write(f"perfbench: build step failed: {' '.join(cmd)}\n")
            sys.exit(2)


def main() -> int:
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    build_dir = target / "perfbench"
    build(build_dir)
    workdir = target / "work"
    workdir.mkdir(parents=True, exist_ok=True)
    cmd = [str(build_dir / "perfbench"), "--workdir", str(workdir)]
    cmd += sys.argv[1:]
    done = subprocess.run(cmd, check=False)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
