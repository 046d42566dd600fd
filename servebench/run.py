#!/usr/bin/env python3
"""Builds and runs the serving benchmark on one workload.

    python3 servebench/run.py --workload fleet_single --seed 1 --seconds 32 \
        --trace 0 [--build-type Release] [--baseline-out FILE]

Run from the repository root. The benchmark binary is built from source
into .bench_build/ (CMake project in servebench/), the workload's shape
comes from servebench/workloads.json, and the seed picks the generated
data and traffic. Progress goes to stderr; stdout ends with a provenance
line and then one JSON object with the keys correct, attempted, failed
and metrics (--trace 0: end-to-end metrics, --trace 1: per-layer
metrics). servebench/METRICS.md defines every metric.

--baseline-out also writes the result with its provenance to FILE, and
refuses to when the tree is dirty (or not a git checkout), when the
build type differs from the one BENCHMARK.json's command names, or when
the capacity search ended at its floor or ceiling.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build(build_type):
    build_dir = os.path.join(BUILD_ROOT, "servebench-" + build_type.lower())
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=" + build_type],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", "serve_bench",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "serve_bench")


def git(*args):
    try:
        out = subprocess.run(["git", "-C", ROOT] + list(args),
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def l3_size():
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for entry in sorted(os.listdir(base)):
            with open(os.path.join(base, entry, "level")) as f:
                if f.read().strip() != "3":
                    continue
            with open(os.path.join(base, entry, "size")) as f:
                return f.read().strip()
    except OSError:
        pass
    return "unknown"


def provenance(args):
    sha = git("rev-parse", "HEAD")
    status = git("status", "--porcelain") if sha else None
    return {
        "git_sha": sha or "unknown",
        "dirty": None if status is None else bool(status),
        "build_type": args.build_type,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "l3": l3_size(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def cpu_ticks():
    """(steal, total) jiffies over all CPUs, from /proc/stat."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def benchmark_build_type():
    """The build type BENCHMARK.json's command passes (default Release)."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        command = json.load(f)["command"]
    if "--build-type" in command:
        return command[command.index("--build-type") + 1]
    return "Release"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=32)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--build-type", default="Release")
    parser.add_argument("--baseline-out")
    args = parser.parse_args()

    with open(os.path.join(HERE, "workloads.json")) as f:
        workloads = json.load(f)
    if args.workload not in workloads:
        log("unknown workload %r (known: %s)" %
            (args.workload, ", ".join(sorted(workloads))))
        return 2

    info = provenance(args)
    if args.baseline_out and info["dirty"] is not False:
        log("refusing to record a baseline: the tree is dirty or not a git "
            "checkout")
        return 3

    try:
        binary = build(args.build_type)
    except (OSError, subprocess.CalledProcessError) as error:
        log("build failed: %s" % error)
        return 2

    work_dir = os.path.join(BUILD_ROOT, "work",
                            "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    os.makedirs(work_dir, exist_ok=True)
    spans = os.path.join(BUILD_ROOT, "spans",
                         "%s-seed%d.jsonl" % (args.workload, args.seed))
    os.makedirs(os.path.dirname(spans), exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir, "--spans-out", spans]
    for key, value in workloads[args.workload].items():
        command += ["--" + key.replace("_", "-"), str(value)]

    started = time.monotonic()
    steal_before, total_before = cpu_ticks()
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("benchmark run exceeded %d s" % RUN_TIMEOUT_S)
        return 4
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    log("run took %.1f s" % (time.monotonic() - started))
    # CPU time the hypervisor gave to other guests: high steal explains
    # noisy figures on a shared host.
    steal_after, total_after = cpu_ticks()
    if total_after > total_before:
        info["steal_pct"] = round(100.0 * (steal_after - steal_before) /
                                  (total_after - total_before), 2)

    lines = proc.stdout.strip().splitlines()
    try:
        raw = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("benchmark printed no result (exit code %d)" % proc.returncode)
        return proc.returncode or 5
    result = {key: raw[key]
              for key in ("correct", "attempted", "failed", "metrics")}
    info.update(raw.get("info", {}))  # build_type as compiled in

    record = dict(result, provenance=info)
    results = os.path.join(BUILD_ROOT, "results")
    os.makedirs(results, exist_ok=True)
    name = "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    paths = [os.path.join(results, name)]
    if args.baseline_out:
        wanted = benchmark_build_type()
        if info["build_type"] != wanted:
            log("refusing to record a baseline: build type %s, BENCHMARK.json "
                "names %s" % (info["build_type"], wanted))
            return 3
        if info.get("search_end", "inside") != "inside":
            log("refusing to record a baseline: the capacity search ended at "
                "its %s" % info["search_end"])
            return 3
        paths.append(args.baseline_out)
    for path in paths:
        with open(path, "w") as f:
            json.dump(record, f, indent=1)

    print("provenance: " + json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
