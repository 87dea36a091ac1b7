#!/usr/bin/env python3
"""Run one workload of the end-to-end benchmark and print its result as JSON.

    python3 bench/e2e/run.py --workload csv_churn --seed 1 --seconds 18 --trace 0

Run from anywhere inside a checkout; the benchmark builds itself (CMake,
Release) into .bench_build/ at the checkout root on first use. --trace 0 runs
bench_e2e and reports the end-to-end metrics of BENCHMARK.json; --trace 1
runs bench_e2e_traced and reports the per-layer metrics. The binary's own
output goes to stderr; the last line of stdout is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Exit status is 0 whenever a result was printed (correct may be false when a
correctness gate failed) and 1 when the benchmark could not run.
"""
import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BINARIES = {0: "bench_e2e", 1: "bench_e2e_traced"}
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def build(build_dir):
    """Configure once, then bring both binaries up to date (serialised by a lock)."""
    os.makedirs(build_dir, exist_ok=True)
    # Compiler temporaries stay inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(build_dir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    log_path = os.path.join(build_dir, "bench_e2e_build.log")
    with open(os.path.join(build_dir, ".build.lock"), "w") as lock, open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", build_dir, "--target", *BINARIES.values(), "-j", "3"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT, env=env).returncode != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail("build failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny lab, traffic and windows (bench/e2e/check.sh --smoke)")
    args = ap.parse_args()

    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        fail("--seed must be >= 0 and --seconds within 1..60")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build(build_dir)
    cmd = [os.path.join(build_dir, BINARIES[args.trace]), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--work-dir", os.path.join(build_dir, "work")]
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{BINARIES[args.trace]} did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    if proc.returncode not in (0, 3):  # 3: ran to the end, a correctness gate failed
        fail(f"{BINARIES[args.trace]} exited with status {proc.returncode}")

    printed, result, threads = {}, None, None
    for line in proc.stdout.splitlines():
        f = line.split()
        if len(f) == 4 and f[0] == "metric":
            printed[f[1]] = (float(f[2]), f[3])
        elif len(f) == 3 and f[:2] == ["info", "hardware_threads"]:
            threads = int(f[2])
        elif f and f[0] == "result":
            result = dict(kv.split("=") for kv in f[1:])
    if result is None or threads is None:
        fail("the benchmark printed no result or no hardware_threads line")
    metrics = {}
    for m in wanted:
        if m["name"] not in printed:
            fail(f"metric {m['name']} was not printed")
        value, unit = printed[m["name"]]
        if unit != m["unit"]:
            fail(f"metric {m['name']} printed in {unit}, BENCHMARK.json says {m['unit']}")
        metrics[m["name"]] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": proc.returncode == 0 and result["correct"] == "1",
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
