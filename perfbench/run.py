#!/usr/bin/env python3
"""Build and run the XLF benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload nac-flood --seed 3 --seconds 20 --trace 0

The benchmark is the Go module in perfbench/_xlfbench. This script builds
it against the checkout's own source into .bench_build/ (Go's build cache
included, so nothing is written outside the checkout), then runs it with
the given arguments. The last line of standard output is the result JSON.
Without the repository's go.mod next to perfbench/ there is nothing to
benchmark, and the script exits with status 2 before printing anything.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(HERE, "_xlfbench")
BUILD = os.path.join(ROOT, ".bench_build")

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def go_env():
    home = os.path.join(BUILD, "home")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOMODCACHE=os.path.join(BUILD, "gomodcache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOPROXY="off",
        GOFLAGS="",
        GOWORK="off",
        GOENV="off",
        GOTOOLCHAIN="local",
        GOTELEMETRY="off",
        CGO_ENABLED="0",
        HOME=home,
        XDG_CONFIG_HOME=os.path.join(home, ".config"),
        XDG_CACHE_HOME=os.path.join(home, ".cache"),
    )
    return env


def main():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        print("perfbench: no go.mod beside perfbench/; run from a full checkout", file=sys.stderr)
        return 2
    env = go_env()
    binary = os.path.join(BUILD, "xlfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=SRC, env=env,
                           stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    run = subprocess.run([binary, *sys.argv[1:], "--root", ROOT], env=env, timeout=RUN_TIMEOUT_S)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
