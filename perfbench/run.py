#!/usr/bin/env python3
"""Runs one workload of the repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload struct_query --seed 1 \
        --seconds 15 --trace 0

Builds perfbench/ (and with it the library in src/) into .bench_build/,
runs the workload in .bench_work/, prints a provenance line and then, as
the last line of stdout, one JSON object with the keys correct, attempted,
failed and metrics. With --trace 0 the metrics are the end_to_end metrics
of BENCHMARK.json; with --trace 1 they are its per_layer metrics, and the
recorded spans are written to .bench_results/. Build output goes to
stderr. Exits non-zero, printing no result, when the build or the run
fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_work")
RESULTS_DIR = os.path.join(ROOT, ".bench_results")
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds the benchmark binary; returns its path."""
    # The compiler's temporary files stay inside the checkout too.
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = subprocess.run(
            ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
             f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"],
            stdout=sys.stderr, stderr=sys.stderr, cwd=ROOT, env=env)
        if configure.returncode != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            fail("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    built = subprocess.run(
        ["cmake", "--build", BUILD_DIR, "--target", "vist_perfbench",
         "-j", jobs],
        stdout=sys.stderr, stderr=sys.stderr, cwd=ROOT, env=env)
    if built.returncode != 0:
        fail("build failed")
    return os.path.join(BUILD_DIR, "vist_perfbench")


def source_digest():
    """SHA-256 over the library and benchmark sources (the checkout the
    benchmark runs in need not be a git repository)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def cmake_cache(key):
    try:
        with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return None


def compare_exact_counts(workload, seed, counts):
    """Compares a traced run's exact counts with the last traced run of
    the same workload and seed in this checkout, then stores them. Returns
    the names that differ, or None when there is no earlier run."""
    path = os.path.join(RESULTS_DIR, f"counts-{workload}-seed{seed}.json")
    differing = None
    if os.path.exists(path):
        with open(path) as f:
            previous = json.load(f)
        differing = sorted(name for name in counts.keys() | previous.keys()
                           if counts.get(name) != previous.get(name))
    with open(path, "w") as f:
        json.dump(counts, f, indent=1, sort_keys=True)
    return differing


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    binary = build()
    os.makedirs(WORK_DIR, exist_ok=True)
    workdir = os.path.join(WORK_DIR, f"{args.workload}-{os.getpid()}")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", workdir]
    if args.trace:
        os.makedirs(RESULTS_DIR, exist_ok=True)
        trace_out = os.path.join(
            RESULTS_DIR, f"trace-{args.workload}-seed{args.seed}.tsv")
        command += ["--trace-out", trace_out]
    start = time.monotonic()
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE,
                             stderr=sys.stderr, text=True, cwd=ROOT,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        shutil.rmtree(workdir, ignore_errors=True)
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if run.returncode != 0:
        fail(f"run failed with exit code {run.returncode}")
    lines = run.stdout.strip().splitlines()
    if not lines:
        fail("run printed no result")
    raw = json.loads(lines[-1])

    metrics = {}
    for metric in wanted:
        got = raw["metrics"].get(metric["name"])
        if got is None:
            fail(f"run did not report {metric['name']}")
        if got["unit"] != metric["unit"]:
            fail(f"{metric['name']}: unit {got['unit']} != {metric['unit']}")
        metrics[metric["name"]] = {"value": got["value"], "unit": got["unit"]}

    attempted, failed = raw["attempted"], raw["failed"]
    provenance = {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "build_type": cmake_cache("CMAKE_BUILD_TYPE"),
        "compiler": cmake_cache("CMAKE_CXX_COMPILER"),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "wall_s": round(time.monotonic() - start, 3),
        "failed_frac": failed / attempted if attempted else 1.0,
        "failures": raw["failures"],
        "other_metrics": {name: got for name, got in raw["metrics"].items()
                          if name not in metrics},
        "info": raw["info"],
    }
    if args.trace and "exact_counts" in raw["info"]:
        provenance["cross_run_nonrepeating"] = compare_exact_counts(
            args.workload, args.seed, raw["info"]["exact_counts"])
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
