#!/usr/bin/env python3
"""Build and run the repo benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds bin/msts.exe and perfbench/main.exe with dune into .bench_build/
(release profile, dune's shared cache off, so nothing is written outside
the checkout), then runs one benchmark pass and relays its output; the
last line of standard output is the JSON result.  Exits non-zero, without
a result, when the checkout holds no msts sources to build.
"""

import os
import signal
import subprocess
import sys

BUILD_DIR = ".bench_build"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170

# The child running now: each runs in its own process group, so a timeout
# or a signal takes it down with everything it forked (the daemons).
current = None


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def kill_current():
    if current is not None and current.poll() is None:
        os.killpg(current.pid, signal.SIGKILL)
        current.wait()


def run(argv, timeout, **kwargs):
    global current
    current = subprocess.Popen(argv, start_new_session=True, **kwargs)
    try:
        return current.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        kill_current()
        fail(f"{argv[0]} exceeded {timeout} s")
    finally:
        current = None


def on_signal(signum, _frame):
    kill_current()
    sys.exit(128 + signum)


def main():
    if not (os.path.isfile("dune-project") and os.path.isfile("bin/msts.ml")):
        fail("run from the root of an msts checkout (no dune-project or bin/msts.ml here)")
    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
             "--profile", "release", "./bin/msts.exe", "./perfbench/main.exe"]
    if run(build, BUILD_TIMEOUT_S, env=env, stdout=sys.stderr) != 0:
        fail("build failed")
    exe = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
    msts = os.path.join(BUILD_DIR, "default", "bin", "msts.exe")
    sys.exit(run([exe, "--msts", msts] + sys.argv[1:], RUN_TIMEOUT_S))


if __name__ == "__main__":
    main()
