#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper-ts --seed 1 --seconds 30 --trace 0

It builds rofs-server and the perfbench binary into .bench_build/ (the Go
build cache and every temporary file stay there too), then runs perfbench,
whose last line of output is the JSON summary. A failed build exits 1
without printing a summary.
"""

import argparse
import os
import signal
import subprocess
import sys

RUN_TIMEOUT_S = 170


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["paper-ts", "sim-long", "serve-mix"])
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    root = os.getcwd()
    build = os.path.join(root, ".bench_build")
    bindir = os.path.join(build, "bin")
    tmp = os.path.join(build, "tmp")
    for d in (bindir, tmp):
        os.makedirs(d, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOMODCACHE=os.path.join(build, "gopath", "pkg", "mod"),
        GOTOOLCHAIN="local",
        GOFLAGS="",
        GOPROXY="off",
        CGO_ENABLED="0",
        TMPDIR=tmp,
        GOTMPDIR=tmp,
        XDG_CONFIG_HOME=os.path.join(build, "config"),
    )
    server = os.path.join(bindir, "rofs-server")
    bench = os.path.join(bindir, "perfbench")
    for cmd, cwd in (
        (["go", "build", "-o", server, "./cmd/rofs-server"], root),
        (["go", "build", "-o", bench, "."], os.path.join(root, "perfbench")),
    ):
        if subprocess.run(cmd, cwd=cwd, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1

    cmd = [bench, "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace),
           "-server", server, "-out", os.path.join(build, "perfbench")]
    # A session of its own, so a timeout can stop the benchmark together
    # with the servers and workers it started.
    proc = subprocess.Popen(cmd, cwd=root, env=env, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: stopped after %ds" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
