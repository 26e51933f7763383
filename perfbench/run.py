#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload ddpm-inproc --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-check

Run from the root of a checkout. The first run configures and builds the
library, surro_cli and the perfbench harness into .bench_build/perfbench
(Release); later runs only re-check the build. Build output goes to stderr.
The harness's report line and, last, its result line go to stdout; the
result line is checked against BENCHMARK.json (every metric of the run's
mode, with its unit, and nothing else) before it is printed.

Exit status: 0 for a verified run, 1 when the harness found wrong bytes or a
worker exited non-zero (the result line is still printed), 2 when the build,
a self-check or the run itself failed (no result line).
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
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "perfbench-traces")
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


class BenchError(Exception):
    pass


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        raise BenchError(f"no CMakeLists.txt in {ROOT}: not a source checkout")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release", *generator]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            raise BenchError("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    compile_cmd = ["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                   "-j", jobs]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        raise BenchError("build failed")


def expected_metrics(bench, per_layer):
    key = "per_layer" if per_layer else "end_to_end"
    return {m["name"]: m["unit"] for m in bench[key]}


def self_check(bench):
    """The harness's own helper checks, plus: the harness declares exactly
    the workloads and metrics (names and units) BENCHMARK.json lists."""
    done = subprocess.run([BINARY, "--self-check"], stdout=sys.stderr)
    if done.returncode != 0:
        raise BenchError("harness self-check failed")
    listing = subprocess.run([BINARY, "--list-metrics"], capture_output=True,
                             text=True, check=True).stdout.split("\n")
    declared = {"end_to_end": {}, "per_layer": {}, "workload": set()}
    for line in filter(None, listing):
        kind, *rest = line.split()
        if kind == "workload":
            declared["workload"].add(rest[0])
        else:
            declared[kind][rest[0]] = rest[1]
    problems = []
    for mode in ("end_to_end", "per_layer"):
        want = expected_metrics(bench, mode == "per_layer")
        if declared[mode] != want:
            problems.append(f"{mode}: harness {sorted(declared[mode].items())}"
                            f" != BENCHMARK.json {sorted(want.items())}")
    listed = {w["name"] for w in bench["workloads"]}
    if declared["workload"] != listed:
        problems.append(f"workloads: harness {sorted(declared['workload'])}"
                        f" != BENCHMARK.json {sorted(listed)}")
    if problems:
        raise BenchError("metric catalogue mismatch: " + "; ".join(problems))


def reap_strays(work_dir):
    """Kill worker processes a crashed harness left behind (their pids are
    published in the work directory) and wait until they are gone."""
    try:
        with open(os.path.join(work_dir, "worker.pids"), encoding="utf-8") as f:
            pids = [int(p) for p in f.read().split()]
    except OSError:
        return
    for pid in pids:
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as f:
                if b"surro_cli" not in f.read():
                    continue
            os.kill(pid, signal.SIGKILL)
        except (OSError, ProcessLookupError):
            continue
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline and any(
            os.path.exists(f"/proc/{pid}") for pid in pids):
        time.sleep(0.05)


def run(args, bench):
    work_dir = os.path.join(ROOT, ".bench_build", f"perfbench-work-{os.getpid()}")
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir, "--trace-dir", TRACE_DIR]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise BenchError(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        reap_strays(work_dir)
        shutil.rmtree(work_dir, ignore_errors=True)

    lines = [line for line in out.split("\n") if line.strip()]
    if proc.returncode not in (0, 1) or not lines:
        raise BenchError(f"harness exited with {proc.returncode}")
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        raise BenchError(f"result keys {sorted(result)}")
    want = expected_metrics(bench, args.trace == 1)
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != want:
        raise BenchError(f"metrics {sorted(got.items())} != BENCHMARK.json "
                         f"{sorted(want.items())}")
    for line in lines:
        print(line)
    return proc.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    try:
        bench = load_benchmark()
        build()
        self_check(bench)
        if args.self_check:
            log("self-check ok")
            return 0
        if args.workload not in {w["name"] for w in bench["workloads"]}:
            raise BenchError(f"unknown workload {args.workload!r}")
        return run(args, bench)
    except (BenchError, OSError, ValueError, subprocess.SubprocessError) as e:
        log(f"error: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
