#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload compile --seed 1 --seconds 30 --trace 0

The Go toolchain builds perfbench/ (a module of its own that uses the
repository's packages through a replace directive) into .bench_build/,
with every Go cache and setting kept under that directory, and the
built program then replaces this process. Arguments are passed through.
"""

import os
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(ROOT, ".bench_build")


def main():
    os.makedirs(BUILD, exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOMODCACHE=os.path.join(BUILD, "gopath", "pkg", "mod"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOFLAGS="-mod=mod",
        GOPROXY="off",
        GOSUMDB="off",
        GOTOOLCHAIN="local",
    )
    exe = os.path.join(BUILD, "perfbench")
    built = subprocess.run(["go", "build", "-o", exe, "."], cwd=HERE, env=env)
    if built.returncode != 0:
        sys.exit(built.returncode or 1)
    os.execv(exe, [exe] + sys.argv[1:])


if __name__ == "__main__":
    main()
