#!/usr/bin/env python3
"""Build and run perfbench from the root of a source checkout.

    python3 perfbench/run.py --workload coupled-1r --seed 1 --seconds 30 --trace 0

The Go build cache, temporary files and the binary live under .bench_build/
in the checkout, and perfbench's restart sets under .bench_work/, so the
benchmark reads and writes nothing outside the checkout. The program's last
standard-output line is the JSON result; this script passes its output and
exit code through unchanged.
"""
import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def git_rev(root):
    """The checkout's git revision, or "unknown" outside a git work tree.
    The search stops at the checkout root."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else "unknown"


def main():
    root = os.getcwd()
    bench = os.path.join(root, "perfbench")
    build = os.path.join(root, ".bench_build")
    for d in ("gocache", "gopath", "tmp"):
        os.makedirs(os.path.join(build, d), exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOMODCACHE=os.path.join(build, "gopath", "pkg", "mod"),
        GOTMPDIR=os.path.join(build, "tmp"),
        TMPDIR=os.path.join(build, "tmp"),
        GOTOOLCHAIN="local",
        GOFLAGS="",
        GO111MODULE="on",
    )
    binary = os.path.join(build, "perfbench")
    try:
        built = subprocess.run(
            ["go", "build", "-buildvcs=false", "-o", binary, "."],
            cwd=bench, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args = [binary] + sys.argv[1:] + [
        "--spec", os.path.join(root, "BENCHMARK.json"),
        "--work", os.path.join(root, ".bench_work"),
        "--git-rev", git_rev(root),
    ]
    try:
        ran = subprocess.run(args, cwd=root, env=env, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: run failed: {err}", file=sys.stderr)
        return 1
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
