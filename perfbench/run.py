#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload ingest|recall|mixed --seed N --seconds S --trace 0|1

perfbench/ is a Go module of its own that drives the repository's packages
(its go.mod replaces the module "repro" with the repository root). This
script builds it into .bench_build/ at the root, keeping the Go build cache
and temporary files there too, then runs it with the given arguments and
passes its output and exit code through. The last line of standard output
is the benchmark's JSON result.
"""

import os
import shutil
import subprocess
import sys

RUN_TIMEOUT_S = 175


def main():
    root = os.getcwd()
    src = os.path.join(root, "perfbench")
    out = os.path.join(root, ".bench_build")
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)

    go = shutil.which("go")
    if go is None and os.environ.get("GOROOT"):
        go = os.path.join(os.environ["GOROOT"], "bin", "go")
    if go is None or not os.path.exists(go):
        print("run.py: no go toolchain on PATH", file=sys.stderr)
        return 1

    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(out, "gocache"),
        GOMODCACHE=os.path.join(out, "gomodcache"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        # The go command's telemetry counters live under the user config
        # directory; keep them inside the checkout too.
        XDG_CONFIG_HOME=os.path.join(out, "config"),
        XDG_CACHE_HOME=os.path.join(out, "cache"),
        GOTOOLCHAIN="local",
        GOFLAGS="",
        GOWORK="off",
        GOENV="off",
    )
    binary = os.path.join(out, "perfbench")
    build = subprocess.run([go, "build", "-o", binary, "."], cwd=src, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("run.py: building perfbench failed", file=sys.stderr)
        return 1

    try:
        run = subprocess.run([binary] + sys.argv[1:], env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
