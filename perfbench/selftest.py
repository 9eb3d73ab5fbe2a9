#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes.

Run from the repository root:  python3 perfbench/selftest.py

For every workload, traced and untraced: every metric BENCHMARK.json
names is printed with its unit; a run checked against digests recorded
by an earlier run passes; and the same run against a tampered digest
file reports the mismatch as a failed operation.  Exits 0 when all hold.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SECONDS = "0.5"


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "3", "--seconds", SECONDS, "--trace",
           str(trace), "--tiny", *extra]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=300)
    if out.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {out.returncode}:\n"
                             f"{out.stderr[-2000:]}")
    return json.loads(out.stdout.strip().split("\n")[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    work = os.path.join(ROOT, ".bench_work_selftest")
    os.makedirs(work, exist_ok=True)
    problems = []
    for w in [w["name"] for w in spec["workloads"]]:
        before = len(problems)
        digests = os.path.join(work, w + ".digests.json")
        if os.path.exists(digests):
            os.remove(digests)
        for trace in (0, 1):
            res = run(w, trace, "--digests", digests,
                      "--record-digests", digests if trace == 0 else "")
            got = {k: v.get("unit") for k, v in res["metrics"].items()}
            if got != expected[trace]:
                problems.append(f"{w} trace {trace}: metrics {got} != "
                                f"{expected[trace]}")
            if not all(isinstance(v.get("value"), (int, float))
                       for v in res["metrics"].values()):
                problems.append(f"{w} trace {trace}: non-numeric value")
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                problems.append(f"{w} trace {trace}: not clean: {res}")

        # A second untraced run is checked against the recorded digests.
        res = run(w, 0, "--digests", digests)
        if not res["correct"] or res["failed"]:
            problems.append(f"{w}: run against its own digests failed")

        with open(digests) as f:
            book = json.load(f)
        key = next(iter(book))
        job = next(iter(book[key]))
        book[key][job] = "0" * 16
        with open(digests, "w") as f:
            json.dump(book, f)
        res = run(w, 0, "--digests", digests)
        if res["correct"] or res["failed"] < 1:
            problems.append(f"{w}: tampered digest not counted: {res}")
        print(w, "ok" if len(problems) == before else "FAILED", flush=True)

    shutil.rmtree(work, ignore_errors=True)
    for p in problems:
        print("FAIL:", p)
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
