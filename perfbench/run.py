#!/usr/bin/env python3
"""Build the repository benchmark from source and run it.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

The Go program in this directory is compiled against the repository's own
packages (its go.mod replaces module "repro" with the parent directory)
into .bench_build/, which also holds the Go build cache, so that nothing
is written outside the checkout. Arguments are passed through unchanged;
the program's last line of standard output is the result.
"""

import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
EXE = os.path.join(BUILD, "perfbench")

BUILD_TIMEOUT_S = 840  # a first build compiles the standard library too
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    return 2


def run(cmd, env, timeout, cwd):
    """Runs cmd in its own process group and kills the group on timeout."""
    proc = subprocess.Popen(cmd, env=env, cwd=cwd, start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return None


def main():
    for need in ("go.mod", os.path.join("internal", "core")):
        if not os.path.exists(os.path.join(ROOT, need)):
            return fail("no %s under %s: run from a full checkout" % (need, ROOT))
    go = shutil.which("go")
    if go is None:
        return fail("no go toolchain on PATH")

    env = dict(
        os.environ,
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        HOME=os.path.join(BUILD, "home"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "home", ".config"),
        GOFLAGS="",
        GOWORK="off",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        CGO_ENABLED="0",
    )
    os.makedirs(env["HOME"], exist_ok=True)
    code = run([go, "build", "-o", EXE, "."], env, BUILD_TIMEOUT_S, HERE)
    if code != 0:
        return fail("build failed" if code is not None else "build timed out")

    code = run([EXE] + sys.argv[1:], env, RUN_TIMEOUT_S, ROOT)
    if code is None:
        return fail("run timed out after %d s" % RUN_TIMEOUT_S)
    return code


if __name__ == "__main__":
    sys.exit(main())
