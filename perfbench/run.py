#!/usr/bin/env python3
"""Build and run the layer-resolved benchmark for one workload.

Run from the repository root:

    python3 perfbench/run.py --workload timing-sweep --seed 1 --seconds 10 --trace 0

The benchmark is built from source (the simulator libraries under src/
plus perfbench/src) into $CARGO_TARGET_DIR, or .bench_build when that is
unset, and writes its work files under .bench_work.  The last line
of standard output is the result object; see perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["classify-files", "timing-sweep"]
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def log(*args):
    print("perfbench:", *args, file=sys.stderr, flush=True)


def build(build_dir):
    """Configure once, then build incrementally; False on failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        # Build logs go to stderr: stdout's last line is the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed:", " ".join(cmd))
            return False
    return True


def revision():
    """The git revision, or a digest of the sources outside git."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "sources-sha256:" + h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="self-test sizes (no stored digests apply)")
    ap.add_argument("--digests", default=os.path.join(HERE, "digests.json"),
                    help="stored stat digests to check against")
    ap.add_argument("--record-digests", default="",
                    help="write this run's digests to this file")
    args = ap.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or os.path.join(ROOT, ".bench_build"))
    if not build(build_dir):
        return 1
    binary = os.path.join(build_dir, "ccm-perfbench")

    work_dir = ".bench_work"
    shutil.rmtree(os.path.join(ROOT, work_dir), ignore_errors=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir, "--digests", args.digests,
           "--revision", revision()]
    if args.tiny:
        cmd.append("--tiny")
    if args.record_digests:
        cmd += ["--record-digests", args.record_digests]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=170)
    except subprocess.TimeoutExpired:
        log("timed out")
        return 1
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        log("exit code", proc.returncode)
        return proc.returncode
    try:
        result = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stderr.write(proc.stdout)
        log("no result line")
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
