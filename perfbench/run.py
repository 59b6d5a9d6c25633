#!/usr/bin/env python3
"""Build the Paradice benchmark from source and run it.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload noop --seed 1 --seconds 10 --trace 0

The arguments go to perfbench/paradice_bench.exe unchanged (see
perfbench/README.md).  Build output goes to standard error, so the last
line of standard output is the benchmark's JSON result.  The exit code
is the benchmark's, or 2 if the build fails.
"""

import os
import shutil
import subprocess
import sys

TARGET = "./perfbench/paradice_bench.exe"


def dune_command():
    dune = shutil.which("dune")
    if dune:
        return [dune]
    opam = shutil.which("opam")
    if opam:
        return [opam, "exec", "--", "dune"]
    sys.exit("perfbench: neither dune nor opam is on PATH")


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    # the build stays inside the checkout: no shared dune cache
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        dune_command() + ["build", "--root", root, TARGET],
        cwd=root,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    exe = os.path.join(root, "_build", "default", "perfbench", "paradice_bench.exe")
    return subprocess.run([exe] + sys.argv[1:], cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
