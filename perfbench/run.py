#!/usr/bin/env python3
"""Builds the reconciliation benchmark from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload emd_oneshot --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 0

The build goes to $CARGO_TARGET_DIR if set, else .bench_build/, relative to
the current directory. The last line of standard output is the result JSON
object of the benchmark binary (perfbench/main.cc); every line before it is
human-readable context. `--workload all` runs every workload BENCHMARK.json
declares, one after another, each ending with its own result line. A failed
build exits non-zero without a result.
"""

import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def source_digest():
    """SHA-1 over the library sources, so a result names the code it ran
    even in a checkout that is not a git repository."""
    digest = hashlib.sha1()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()[:12]


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12",
                              "HEAD"], capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def build(build_dir):
    """Configures once, then rebuilds incrementally. Build output goes to
    stderr so standard output stays the benchmark's."""
    if not os.path.exists(os.path.join(ROOT, "CMakeLists.txt")):
        print("perfbench: repository sources not found next to perfbench/",
              file=sys.stderr)
        return False
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cfg = subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                              "-DCMAKE_BUILD_TYPE=Release"],
                             stdout=sys.stderr, stderr=sys.stderr)
        if cfg.returncode != 0:
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    made = subprocess.run(["cmake", "--build", build_dir, "--target",
                           "perfbench", "-j", jobs],
                          stdout=sys.stderr, stderr=sys.stderr)
    return made.returncode == 0


def bench_cpus():
    """The two highest-numbered CPUs this process may run on. Pinning the
    benchmark there keeps the scheduler from moving its (at most two)
    threads between CPUs mid-run; unpinned runs on a 4-vCPU host spread
    two to three times wider from run to run."""
    allowed = sorted(os.sched_getaffinity(0))
    return set(allowed[-2:])


def expand_all(argv):
    """One argument list per workload to run: `--workload all` becomes one
    per workload of BENCHMARK.json, in its order."""
    if "--workload" not in argv:
        return [argv]
    at = argv.index("--workload") + 1
    if at >= len(argv) or argv[at] != "all":
        return [argv]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        names = [w["name"] for w in json.load(f)["workloads"]]
    return [argv[:at] + [name] + argv[at + 1:] for name in names]


def main():
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or ".bench_build")
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    binary = os.path.join(build_dir, "perfbench")
    context = ["--commit", git_commit(), "--source", source_digest()]
    cpus = bench_cpus()
    for argv in expand_all(sys.argv[1:]):
        sys.stdout.flush()
        code = subprocess.run(
            [binary] + argv + context,
            preexec_fn=lambda: os.sched_setaffinity(0, cpus)).returncode
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
