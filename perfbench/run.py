#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see NOTES.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: cold-suite, warm-suite, daemon-mixed, gen-code. Run it from the
root of a relc checkout. Every run first builds perfbench/ together with
the relc tree around it under .bench_build/ (the first build takes a few
minutes; later ones only check that nothing changed), then runs the
harness. The last line of stdout is the run's result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics under --trace 0 and the per-layer metrics
under --trace 1. Everything else goes to stderr. A run that cannot build
or start exits non-zero and prints no result.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(".bench_build", "perfbench")
WORK_DIR = os.path.join(".bench_build", "perfbench-work")
TRACE_DIR = os.path.join(".bench_build", "perfbench-traces")
WORKLOADS = ("cold-suite", "warm-suite", "daemon-mixed", "gen-code")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# A run is set-up plus --seconds plus the checks; this bounds a wedged one.
HARNESS_SLACK_S = 110


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the harness and relcd."""
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", "perfbench", "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs],
        stdout=sys.stderr, check=True)


def stop_group(pgid):
    """Kills whatever the harness left in its process group and waits."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 5
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    os.chdir(ROOT)
    if not (os.path.isfile("CMakeLists.txt") and os.path.isdir("src")):
        log("no relc sources around perfbench/; nothing to build")
        return 2
    # Compiler and harness temporaries stay inside the checkout too.
    tmp = os.path.abspath(os.path.join(".bench_build", "tmp"))
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 2

    shutil.rmtree(WORK_DIR, ignore_errors=True)
    cmd = [os.path.join(BUILD_DIR, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", WORK_DIR, "--trace-dir", TRACE_DIR]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=args.seconds + HARNESS_SLACK_S)
    except subprocess.TimeoutExpired:
        log("harness timed out")
        return 3
    finally:
        stop_group(proc.pid)
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(WORK_DIR, ignore_errors=True)
    if proc.returncode != 0:
        log(f"harness exited {proc.returncode}")
        return proc.returncode if proc.returncode > 0 else 3

    lines = [l for l in out.splitlines() if l.strip()]
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("harness printed no result")
        return 3
    if set(result) != RESULT_KEYS:
        log(f"malformed result keys: {sorted(result)}")
        return 3
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
