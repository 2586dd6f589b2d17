#!/usr/bin/env python3
"""The benchmark's own test.  Run from the repository root:

    python3 perfbench/selftest.py

Checks, with short runs of every workload:
  1. a clean run exits 0 and reports correct=true with every metric that
     BENCHMARK.json names for its mode;
  2. a deliberately corrupted reply (--corrupt-reply) makes the run exit
     nonzero with correct=false, untraced and traced;
  3. the per-layer CUBE exports of two traced runs difference cleanly
     through cube_calc 'diff(a, b)'.
Exits nonzero on the first failed check.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SECONDS = "2"


def bench(workload, trace, *extra, seed=7):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", SECONDS, "--trace",
           str(trace), *extra]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else None
    return out.returncode, result, out.stderr


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        sys.exit(1)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = {0: {m["name"] for m in spec["end_to_end"]},
             1: {m["name"] for m in spec["per_layer"]}}
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    scratch = os.path.join(build_dir, "selftest")
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)

    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            code, result, err = bench(workload, trace)
            check(code == 0 and result is not None and result["correct"]
                  and set(result["metrics"]) == names[trace],
                  f"{workload} trace={trace}: clean run is correct and "
                  "reports every metric")
            code, result, err = bench(workload, trace, "--corrupt-reply", "3")
            check(code != 0 and result is not None and not result["correct"]
                  and "MISMATCH" in err,
                  f"{workload} trace={trace}: corrupted reply is caught")

    exports = []
    for seed in (1, 2):
        path = os.path.join(scratch, f"layers{seed}.cube")
        code, _, _ = bench("cold_series", 1, "--export", path, seed=seed)
        check(code == 0 and os.path.exists(path),
              f"traced run exports {os.path.basename(path)}")
        exports.append(path)
    calc = os.path.join(build_dir, "cube", "examples", "cube_calc")
    out = subprocess.run([calc, "diff(a, b)", "a=" + exports[0],
                          "b=" + exports[1], "-o",
                          os.path.join(scratch, "delta.cube")],
                         capture_output=True, text=True)
    check(out.returncode == 0, "cube_calc 'diff(a, b)' over two exports")
    shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    main()
