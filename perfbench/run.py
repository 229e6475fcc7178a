#!/usr/bin/env python3
"""Build the perfbench harness from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload serve-cold --seed 1 --seconds 20 --trace 0

The harness is a Go module of its own (perfbench/go.mod) that builds
the repository's packages from the parent directory. Everything the
build and the run write goes under .bench_build/ at the repository
root: the Go build cache, the binary, run records and spans. The last
line of standard output is the run's JSON result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def main():
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOMODCACHE": os.path.join(BUILD, "gopath", "pkg", "mod"),
        # Keeps the go command's own config and telemetry files inside
        # the build directory too.
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "-mod=readonly",
        "CGO_ENABLED": "0",
    })
    binary = os.path.join(BUILD, "perfbench", "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    args = sys.argv[1:] + ["--out", os.path.join(BUILD, "perfbench")]
    return subprocess.run([binary] + args, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
