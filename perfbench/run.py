#!/usr/bin/env python3
"""Host-cost benchmark of the Canal Mesh simulator.

Run from the repository root:

    python3 perfbench/run.py --workload canal_steady --seed 1 --seconds 20 --trace 0

Builds perfbench/ (CMake, Release) into .bench_build/perfbench, runs one
workload for about --seconds seconds and prints, as the last line of stdout,
one JSON object with the keys correct, attempted, failed and metrics.
--trace 0 reports the end-to-end metrics (setup_s, req_per_s,
cpu_us_per_req, peak_rss_mb) of untraced repeats; --trace 1 reports the
per-layer metrics of a traced repeat and writes its spans as Chrome
trace-event JSON under .bench_out/. The full result, with the checked
simulated outputs and a run manifest (commit or source digest, compiler
and flags, CPU model, nproc, load average, seed), is written to
.bench_out/result-<workload>-seed<seed>-trace<trace>.json.

Exit status: 0 when the simulated outputs pass every check, 1 when a check
fails (the result line then has "correct": false), 2 on bad arguments and
3 when the build fails (no result line).
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "perfbench")
OUT_DIR = ".bench_out"
WORKLOADS = ("canal_steady", "plane_churn", "region_sharded")
# region_sharded at seed 1 is the region_scale operating point, whose
# simulated outputs are pinned by this golden (keys under "wall." are
# host measurements and are not compared).
REGION_GOLDEN = "BENCH_region.json"
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds the benchmark; returns the binary path or None."""
    if shutil.which("cmake") is None:
        log("perfbench: cmake not found")
        return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "-j", jobs],
    ]
    for step in steps:
        proc = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log("perfbench: build step failed: " + " ".join(step))
            log(proc.stdout[-4000:])
            return None
    binary = os.path.join(BUILD_DIR, "perfbench")
    return binary if os.path.isfile(binary) else None


def region_expectations():
    """--expect arguments pinning region_sharded to the seed-1 golden."""
    with open(REGION_GOLDEN) as f:
        golden = json.load(f)["canal"]
    args = []
    for key, value in sorted(golden.items()):
        if key.startswith("wall."):
            continue
        args += ["--expect", "sim.%s=%r" % (key, value)]
    return args


def source_digest():
    """sha256 over the simulator and benchmark sources: identifies the code
    when the checkout is not a git repository."""
    h = hashlib.sha256()
    for root in ("src", os.path.relpath(BENCH_DIR)):
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(path.encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def commit():
    if not os.path.isdir(".git") or shutil.which("git") is None:
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    manifest = {
        "commit": commit(),
        "source_sha256": None,
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "loadavg_1m_at_start": os.getloadavg()[0],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "kernel": platform.release(),
    }

    binary = build()
    if binary is None:
        sys.exit(3)
    manifest["source_sha256"] = source_digest()
    os.makedirs(OUT_DIR, exist_ok=True)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", OUT_DIR]
    if args.workload == "region_sharded" and args.seed == 1:
        cmd += region_expectations()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
        sys.exit(4)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        log("perfbench: the benchmark binary exited %d without a result"
            % proc.returncode)
        log(proc.stdout[-4000:])
        sys.exit(proc.returncode or 5)

    manifest["compiler"] = result.pop("compiler", "unknown")
    manifest["flags"] = result.pop("flags", "unknown")
    result["manifest"] = manifest
    path = os.path.join(OUT_DIR, "result-%s-seed%d-trace%d.json"
                        % (args.workload, args.seed, args.trace))
    with open(path, "w") as f:
        json.dump(result, f, indent=2, sort_keys=True)
        f.write("\n")

    for line in lines[:-1]:
        print(line)
    print("manifest: " + json.dumps(manifest, sort_keys=True))
    print("result file: " + path)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    sys.exit(0 if proc.returncode == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
