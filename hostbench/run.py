#!/usr/bin/env python3
"""Builds and runs the host-time benchmark of the DYNO simulator.

Run from the root of a checkout:

    python3 hostbench/run.py --workload fig7_sf1000 --seed 1 \
        --seconds 20 --trace 0
    python3 hostbench/run.py --selftest

The first call configures and builds hostbench/ (which compiles ../src) into
$CARGO_TARGET_DIR/hostbench, default .bench_build/hostbench, as an
optimized RelWithDebInfo build; later calls rebuild incrementally. Build
output goes to stderr, so the benchmark's last stdout line stays its JSON
result. The exit status is the benchmark's own (0 only when every result was
correct), or 1 when the build fails.
"""

import fcntl
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(root), "hostbench")


def jobs():
    return str(max(1, min(4, len(os.sched_getaffinity(0)))))


def run_quiet(cmd):
    """Runs a build step with its output on stderr."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode


def build(out):
    os.makedirs(out, exist_ok=True)
    # One build at a time per build tree.
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", out,
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if run_quiet(cmd) != 0:
                # Leave no half-configured tree behind for the next call.
                cache = os.path.join(out, "CMakeCache.txt")
                if os.path.exists(cache):
                    os.remove(cache)
                return False
        return run_quiet(["cmake", "--build", out, "-j", jobs()]) == 0


def main(argv):
    if shutil.which("cmake") is None:
        print("run.py: cmake not found", file=sys.stderr)
        return 1
    out = build_dir()
    if not build(out):
        print("run.py: build failed", file=sys.stderr)
        return 1
    if argv == ["--selftest"]:
        cmd = [os.path.join(out, "hostbench_selftest")]
    else:
        cmd = [os.path.join(out, "hostbench")] + argv
    sys.stdout.flush()
    child = subprocess.Popen(cmd)

    def forward(signum, _frame):
        child.send_signal(signum)

    signal.signal(signal.SIGTERM, forward)
    signal.signal(signal.SIGINT, forward)
    try:
        return child.wait()
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
