#!/usr/bin/env python3
"""Build and run the specsyn end-to-end benchmark.

Run from the repository root:

    python3 specbench/run.py --workload sweep|verify|fuzz --seed N \
        --seconds S --trace 0|1
    python3 specbench/run.py --self-test

The benchmark program (specbench/specbench.cpp) is built from source with the
product library (src/) into the build directory: $CARGO_TARGET_DIR when set,
else .bench_build. The last line of standard output is the program's JSON
result. The exit code is non-zero when the sources are missing or the build
or the run fails.
"""
import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NEEDED = ("src/CMakeLists.txt", "examples/specs/medical.spec",
          "specbench/CMakeLists.txt", "specbench/specbench.cpp")


def commit_id():
    """The git commit when the checkout is a git repository, else 'none'."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def build(build_dir):
    """Configures once, then rebuilds incrementally; build output goes to
    stderr so the result line stays last on stdout."""
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if not os.path.exists(cache):
        subprocess.run(["cmake", "-S", os.path.join(ROOT, "specbench"),
                        "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr, timeout=300)
    subprocess.run(["cmake", "--build", build_dir, "-j4"], check=True,
                   stdout=sys.stderr, timeout=840)
    return os.path.join(build_dir, "specbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=("sweep", "verify", "fuzz"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")

    missing = [p for p in NEEDED if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        print("specbench: missing sources: " + ", ".join(missing),
              file=sys.stderr)
        return 2

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        exe = build(build_dir)
    except (OSError, subprocess.SubprocessError) as e:
        print("specbench: build failed: %s" % e, file=sys.stderr)
        return 2

    cmd = [exe, "--out-dir", build_dir]
    if args.self_test:
        cmd.append("--self-test")
    else:
        cmd += ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--commit", commit_id()]
    # The program reads examples/specs/ relative to the repository root.
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=170).returncode
    except subprocess.TimeoutExpired:
        print("specbench: the benchmark ran over 170 s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
