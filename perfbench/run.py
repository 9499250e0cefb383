#!/usr/bin/env python3
"""Builds and runs the KBForge benchmark from the sources of a checkout.

One run of one workload (the last stdout line is the result JSON):

    python3 perfbench/run.py --workload lookup --seed 1 --seconds 10 --trace 0

The benchmark's own test: every workload, untraced and traced, on a tiny
KB, with every answer check, and the printed metrics checked against
BENCHMARK.json:

    python3 perfbench/run.py --smoke

The build goes to .bench_build/perfbench (configured once, rebuilt
incrementally on every call); volumes and logs of a run live under
.bench_build/perfbench-run and are removed when it ends; a traced run
writes its spans and per-layer self times to .bench_build/perfbench-out.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "perfbench-run")
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench-out")
BINARY = os.path.join(BUILD_DIR, "kb_perfbench")
WORKLOADS = ("lookup", "report", "ingest")
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the benchmark; True on success."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "knowledge_base.h")):
        print("perfbench: no KBForge sources under %s/src" % ROOT, file=sys.stderr)
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"] + generator)
    steps.append(["cmake", "--build", BUILD_DIR, "-j", "4"])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.call(cmd, cwd=ROOT, stdout=sys.stderr) != 0:
            print("perfbench: build step failed: %s" % " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def run_once(argv):
    """Runs the benchmark binary; returns (exit code, stdout text)."""
    cmd = [BINARY, "--workdir", WORK_DIR, "--outdir", OUT_DIR] + argv
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print("perfbench: run timed out after %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 124, ""
    return proc.returncode, out


def smoke(seed):
    """Every workload, untraced and traced, on the tiny KB. Each run must
    pass every answer check and print exactly the metrics BENCHMARK.json
    declares for its mode, with their units."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            code, out = run_once(["--workload", workload, "--seed", str(seed),
                                  "--seconds", "1", "--trace", trace,
                                  "--smoke"])
            label = "%s trace=%s" % (workload, trace)
            lines = out.strip().splitlines()
            if code != 0 or not lines:
                problems.append("%s: exit code %d" % (label, code))
                continue
            result = json.loads(lines[-1])
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if not result["correct"] or result["failed"] != 0:
                problems.append("%s: %d failed" % (label, result["failed"]))
            if got != declared[trace]:
                problems.append("%s: metrics differ from BENCHMARK.json" % label)
            print("%s: %d ops, %d failed" % (label, result["attempted"],
                                             result["failed"]))
    for p in problems:
        print("SMOKE FAIL: " + p)
    print("smoke: %s" % ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload on a tiny KB and check it")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required (or --smoke)")
    if not build():
        return 2
    if args.smoke:
        return smoke(args.seed)
    code, out = run_once(["--workload", args.workload, "--seed",
                          str(args.seed), "--seconds", str(args.seconds),
                          "--trace", args.trace])
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
