#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: paper_galaxy, oocore_scan, serve_mixed, or `all` to run the three
in turn. The first call configures and builds the engine's libraries and
the benchmark binary (perfbench/CMakeLists.txt) in the build directory:
$CARGO_TARGET_DIR when set, else .bench_build/ at the repository root.
Later calls rebuild only what changed. Build output goes to standard error,
so the last line of standard output is always the binary's JSON result.

Extra flags for the smoke test: --tiny (small sizes), --corrupt-expected
(deliberately corrupt one expected answer; the run must fail).
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_galaxy", "oocore_scan", "serve_mixed")
RUN_TIMEOUT_S = 170


def build_dir():
    configured = os.environ.get("CARGO_TARGET_DIR")
    return os.path.abspath(configured) if configured else os.path.join(ROOT, ".bench_build")


def build():
    """Build the benchmark binary; returns its path. Exits 2 when the sources are absent."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        sys.stderr.write("perfbench: no engine sources next to %s; run from a "
                         "repository checkout\n" % HERE)
        sys.exit(2)
    bdir = os.path.join(build_dir(), "perfbench")
    # Keep the compiler's temporary files inside the build directory too.
    tmp = os.path.join(build_dir(), "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, env=env)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", bdir, "--target", "perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr, env=env)
    return os.path.join(bdir, "perfbench")


def run(binary, workload, args):
    workdir = os.path.join(build_dir(), "work", "%s-%d" % (workload, os.getpid()))
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    if args.tiny:
        cmd.append("--tiny")
    if args.corrupt_expected:
        cmd.append("--corrupt-expected")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        sys.stderr.write("perfbench: %s did not finish within %ds\n"
                         % (workload, RUN_TIMEOUT_S))
        sys.stderr.write(e.stdout or "")
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--corrupt-expected", action="store_true")
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        binary = build()
    except subprocess.CalledProcessError as e:
        sys.stderr.write("perfbench: build failed: %s\n" % e)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    status = 0
    for workload in workloads:
        status = run(binary, workload, args) or status
    return status


if __name__ == "__main__":
    sys.exit(main())
