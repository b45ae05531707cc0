#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Usage, from the repository root:

    python3 perfbench/run.py --workload paper-sweep --seed 1 --seconds 20 --trace 0

The benchmark is its own Go module (perfbench/go.mod) that builds against
the repository module through a local replace, so the code under test is
always the checkout it sits in. The build cache, the binary and trace
files all live under .bench_build/ at the repository root.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def main():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOMODCACHE=os.path.join(BUILD, "gopath", "pkg", "mod"),
        # The go command keeps telemetry counters under the user config
        # directory; keep them inside the build directory too.
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOFLAGS="-mod=mod",
        GOTOOLCHAIN="local",
        GOWORK="off",
        GOPROXY="off",
        GOENV="off",
        CGO_ENABLED="0",
    )
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(BUILD, "perfbench")
    build = subprocess.run(
        ["go", "build", "-o", binary, "."],
        cwd=HERE,
        env=env,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    os.chdir(ROOT)
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
