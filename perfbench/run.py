#!/usr/bin/env python3
"""Build and run the lsds benchmark.

    python3 perfbench/run.py --workload lhc_tier --seed 1 --seconds 20 --trace 0

Run from the repository root. The driver is compiled (Release) from
perfbench/ and ../src into .bench_build/perfbench, then replaces this
process with the same arguments; its last stdout line is the JSON result. Build output goes
to stderr; a traced run (--trace 1) writes its spans to
.bench_build/perfbench/spans.jsonl. Exits non-zero, printing no result, when
the build fails.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd += ["-G", "Ninja"]
    subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", "lsds_perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "lsds_perfbench")


def main():
    root = os.getcwd()
    build_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(root, build_root, "perfbench")
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    spans = os.path.join(build_dir, "spans.jsonl")
    sys.stdout.flush()
    sys.stderr.flush()
    # The benchmark replaces this process: one run is one process.
    os.execv(binary, [binary] + sys.argv[1:] + ["--spans", spans])


if __name__ == "__main__":
    sys.exit(main())
