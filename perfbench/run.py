#!/usr/bin/env python3
"""Builds perfbench from the sources around this directory and runs it.

    python3 perfbench/run.py --workload cold_series --seed 1 --seconds 15 --trace 0

Run from the repository root.  The build goes to $CARGO_TARGET_DIR (default
.bench_build) under perfbench/; each run works in a fresh scratch directory
inside it and removes it afterwards.  Every argument is passed on to the
perfbench binary (see main.cpp); its standard output ends with the one-line
JSON result.  Build output goes to standard error.
"""
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run must finish within 180 s; the first one in a checkout also builds.
RUN_TIMEOUT_S = 170


def fail(message, code):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def source_digest():
    """SHA-256 over the program and benchmark sources, so two runs can be
    shown to have measured the same code even outside a git checkout."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
            paths += [os.path.join(dirpath, f) for f in filenames]
    for path in sorted(paths):
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def git_rev():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else "none"


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            fail("configure failed", 3)
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed", 3)


def main():
    args = sys.argv[1:]
    if "--workload" not in args:
        fail("usage: run.py --workload NAME --seed N --seconds S --trace 0|1",
             2)
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"{needed} not found next to perfbench/: the benchmark "
                 "builds the program from the repository's sources", 2)
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    build(build_dir)

    work = os.path.join(build_dir, f"work-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [os.path.join(build_dir, "perfbench")] + args + [
        "--git-rev", git_rev(), "--source-digest", source_digest()]
    proc = subprocess.Popen(cmd, cwd=work)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        code = 124
        print("perfbench: run timed out", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
