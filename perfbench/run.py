#!/usr/bin/env python3
"""Performance benchmark of the CITROEN reproduction: one run of one workload.

    python3 perfbench/run.py --workload tune-citroen|search-random|serve-sandboxed \
        --seed N --seconds S --trace 0|1 [--sandbox 0|1]

Run from the root of a checkout. It builds the program and the harness
from source into $CARGO_TARGET_DIR/perfbench (default .bench_build), runs
the harness self-test, then one harness run in a private working directory
under the build directory. The harness's result line (one JSON object) is
printed as the last line of stdout. Exit status: 0 with a result whose
checks all passed, 1 when a check failed (the result is printed) or no
result could be produced (nothing is printed on stdout). Every process
started on the way is killed and reaped, and the working directory is
removed, on every exit path.
"""

import argparse
import ctypes
import json
import os
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
WORKLOADS = ("tune-citroen", "search-random", "serve-sandboxed")
TARGETS = ("perfbench_harness", "perfbench_selftest", "citroend")
HARNESS_SLACK_S = 120  # beyond --seconds: set-up, checks and replays
BUILD_TIMEOUT_S = 850
JOBS = "4"


class Stop(Exception):
    """Raised from the signal handler so every exit path cleans up."""


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def become_subreaper():
    # Orphaned grandchildren (a daemon whose harness died) are re-parented
    # here, so they can be reaped below.
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


class Children:
    """Process groups started by this script; killed and reaped on exit."""

    def __init__(self):
        self.groups = []

    def run(self, argv, timeout, **kw):
        proc = subprocess.Popen(argv, start_new_session=True, **kw)
        self.groups.append(proc.pid)
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            log("timed out after %d s: %s" % (timeout, " ".join(argv)))
            self.kill_all()
            return None, None
        self.kill_all()
        return proc.returncode, out

    def kill_all(self):
        for pgid in self.groups:
            try:
                os.killpg(pgid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
        self.groups = []
        while True:
            try:
                os.waitpid(-1, 0)
            except ChildProcessError:
                break
            except InterruptedError:
                continue


def build(children, build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("program sources not found under %s" % ROOT)
        return False
    os.makedirs(build_dir, exist_ok=True)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        code, _ = children.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            BUILD_TIMEOUT_S, stdout=sys.stderr)
        if code != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            return False
    code, _ = children.run(
        ["cmake", "--build", build_dir, "-j", JOBS, "--target", *TARGETS],
        BUILD_TIMEOUT_S, stdout=sys.stderr)
    return code == 0


def expected_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def parse_result(stdout, trace):
    lines = [l for l in stdout.decode(errors="replace").splitlines()
             if l.strip()]
    if not lines:
        return None
    try:
        res = json.loads(lines[-1])
    except ValueError:
        return None
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        return None
    if not isinstance(res["attempted"], int) or res["attempted"] < 1:
        return None
    want = expected_metrics(trace)
    got = {k: v.get("unit") for k, v in res["metrics"].items()}
    if got != want:
        log("metrics differ from BENCHMARK.json: %s" %
            sorted(set(got.items()) ^ set(want.items())))
        return None
    return lines[-1]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    ap.add_argument("--sandbox", default="1", choices=("0", "1"),
                    help="serve-sandboxed only: 0 serves in process")
    args = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    work = os.path.join(build_dir, "run-%d" % os.getpid())
    children = Children()

    def on_signal(signum, _frame):
        raise Stop("signal %d" % signum)

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    become_subreaper()
    line, code = None, 1
    try:
        if not build(children, build_dir):
            log("build failed")
            return 1
        st, _ = children.run([os.path.join(build_dir, "perfbench_selftest")],
                             60, stdout=sys.stderr)
        if st != 0:
            log("self-test of the output checks failed")
            return 1
        os.makedirs(work)
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("CITROEN_")}
        env["CITROEN_THREADS"] = "1"
        argv = [os.path.join(build_dir, "perfbench_harness"),
                "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", args.trace,
                "--sandbox", args.sandbox,
                "--daemon", os.path.join(build_dir, "citroen_src", "serve",
                                         "citroend"),
                "--t0", repr(time.time())]
        st, out = children.run(argv, args.seconds + HARNESS_SLACK_S,
                               cwd=work, env=env, stdout=subprocess.PIPE)
        if st in (0, 1):
            line = parse_result(out, args.trace == "1")
        if line is None:
            log("no result (harness exit status %s)" % st)
            return 1
        code = st
    except Stop as e:
        log("stopped by %s" % e)
        return 1
    finally:
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        children.kill_all()
        shutil.rmtree(work, ignore_errors=True)
    print(line, flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
