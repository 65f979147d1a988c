#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs one workload.

Run from the root of a checkout:

  python3 e2ebench/run.py --workload co_checkout --seed 1 --seconds 10 --trace 0
  python3 e2ebench/run.py --selftest

The build goes to $CARGO_TARGET_DIR/e2ebench (default .bench_build/e2ebench)
and is incremental, so only the first run of a checkout compiles the engine.
The last line of standard output is the result JSON printed by xnfbench. A
failed build exits with status 3 and prints no result.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def build_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build") / "e2ebench"


def run_quiet(cmd):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:])
        sys.stderr.write("e2ebench: build step failed: %s\n" % " ".join(cmd))
        sys.exit(3)


def build():
    bdir = build_dir()
    if not (bdir / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(bdir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_quiet(cmd)
    run_quiet(["cmake", "--build", str(bdir), "-j", "4"])
    return bdir


def main():
    bdir = build()
    work = bdir / "runs" / str(os.getpid())
    try:
        proc = subprocess.run([str(bdir / "xnfbench"), *sys.argv[1:],
                               "--work-dir", str(work)])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
