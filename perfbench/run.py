#!/usr/bin/env python3
"""Repo benchmark entry point (see BENCHMARK.json and perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. BENCHMARK.json lists the workloads the
benchmark measures (bulk, serve_large); serve_small and stream_durable
run the same way by hand (see perfbench/README.md). Builds the library
modules, plr_server,
the harness and its self-test from source into $CARGO_TARGET_DIR
(default .bench_build), runs the self-test, then runs one workload and
relays the harness output. The last line of standard output is the
result: {"correct", "attempted", "failed", "metrics"}. Build logs go to
standard error. Exits non-zero, printing no result, when the build, the
self-test or the run fails.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("bulk", "serve_small", "serve_large", "stream_durable")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configure once, then an incremental build (a no-op when current)."""
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            fail("cmake configure failed")
    if subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")


def stop_group(proc):
    """SIGKILL whatever is left of the harness's process group (a
    plr_server child orphaned by a crash) and wait until it is gone."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        return
    proc.wait()
    deadline = time.time() + 10
    while time.time() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(HERE, "..", "src", "CMakeLists.txt")):
        fail("no library sources next to perfbench/; run from a full checkout")
    # Relative paths keep the AF_UNIX socket path short.
    build_root = os.path.relpath(
        os.environ.get("CARGO_TARGET_DIR", ".bench_build"), root)
    build_dir = os.path.join(build_root, "perfbench")
    build(build_dir)

    selftest = subprocess.run([os.path.join(build_dir, "perfbench_selftest")],
                              stdout=sys.stderr)
    if selftest.returncode != 0:
        fail("self-test failed")

    work_dir = os.path.join(build_root, "perfbench-run",
                            "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    trace_dir = os.path.join(build_root, "perfbench-traces")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    command = [os.path.join(build_dir, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--server", os.path.join(build_dir, "plr_server"),
               "--work-dir", work_dir]

    proc = subprocess.Popen(command, stdout=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(proc)
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        stop_group(proc)
    lines = out.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("harness exited with %d" % proc.returncode)
    for name in os.listdir(work_dir):
        if name.startswith("trace-"):
            os.makedirs(trace_dir, exist_ok=True)
            shutil.move(os.path.join(work_dir, name),
                        os.path.join(trace_dir, name))
    shutil.rmtree(work_dir, ignore_errors=True)
    try:
        json.loads(lines[-1])
    except ValueError:
        fail("harness printed no result line")
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
