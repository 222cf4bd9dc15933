#!/usr/bin/env python3
"""Build and run the ros2 end-to-end benchmark for one workload.

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds libros2 and the benchmark binary
(Release) into $CARGO_TARGET_DIR or .bench_build/, runs one workload, and
prints the result as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Every run also leaves a gzipped JSON record in .bench_results/<workload>/:
the host fingerprint (CPU model, nproc, build type, compiler, seed) beside
the raw per-call samples, so numbers are only ever compared on the same
host.
"""
import argparse
import gzip
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TYPE = "Release"
RUN_TIMEOUT_S = 170


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def build():
    """Configures once, then (re)builds only the benchmark target."""
    bdir = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (bdir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    steps.append(["cmake", "--build", str(bdir), "--target", "e2ebench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("e2ebench: build failed: " + " ".join(cmd))
    return bdir / "e2ebench"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint(seed):
    return {
        "cpu_model": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "kernel": platform.release(),
        "machine": platform.machine(),
        "seed": seed,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    binary = build()
    out_dir = ROOT / ".bench_results" / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    name = f"{stamp}-{os.getpid()}-seed{args.seed}-trace{args.trace}"
    record = out_dir / (name + ".json.gz")
    raw = out_dir / (name + ".raw")

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--raw", str(raw)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"e2ebench: {args.workload} exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"e2ebench: {args.workload} failed (exit {proc.returncode})")
    if proc.returncode != 0:
        # A run whose reads did not verify still reports what it measured.
        print(lines[-1])
        sys.exit(proc.returncode)

    try:
        details = json.loads(raw.read_text())
        raw.unlink()
    except (OSError, ValueError) as e:
        sys.exit(f"e2ebench: unreadable run record {raw}: {e}")
    host = fingerprint(args.seed)
    host["build_type"] = details.get("build_type")
    host["compiler"] = details.get("compiler")
    with gzip.open(record, "wt") as f:
        f.write(json.dumps({"host": host, **details}) + "\n")
    print(lines[-1])


if __name__ == "__main__":
    main()
