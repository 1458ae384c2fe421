#!/usr/bin/env python3
"""Smoke test of the benchmark at tiny sizes.

    python3 perfbench/smoke_test.py

For every workload, with --trace 0 and --trace 1, it checks three things:
- the run passes its answer checks;
- the JSON result carries exactly the metrics BENCHMARK.json lists, with
  their units;
- the printed report names every end-to-end figure of the workload with its
  unit.
It then checks that a deliberately corrupted expected answer fails each
workload. Last, it checks that a directory holding only BENCHMARK.json and
perfbench/ (no engine sources) exits non-zero without printing a result.
Exits non-zero on the first failure.
"""
import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

# The figures each workload prints under its own name, with their units.
PRINTED = {
    "paper_galaxy": [("direct_pass_s", "s"), ("sr_pass_s", "s"),
                     ("sr_ratio_geomean", "ratio"), ("sr_ratio_max", "ratio")],
    "oocore_scan": [("scan_ms_p50", "ms"), ("scan_ms_tail", "ms"),
                    ("disk_bytes_per_raw_byte", "ratio")],
    "serve_mixed": [("read_ms_p50", "ms"), ("read_ms_p99", "ms"),
                    ("write_ms_p50", "ms"), ("write_ms_tail", "ms"),
                    ("serve_max_qps", "1/s")],
}


def fail(msg):
    sys.stderr.write("smoke_test: FAIL: %s\n" % msg)
    sys.exit(1)


def run(workload, trace, *extra):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "3",
           "--seconds", "2", "--trace", str(trace), "--tiny"] + list(extra)
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc, result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in PRINTED:
        for trace in (0, 1):
            proc, result = run(workload, trace)
            where = "%s --trace %d" % (workload, trace)
            if proc.returncode != 0 or result is None:
                fail("%s exited %d\n%s%s" % (where, proc.returncode,
                                             proc.stdout[-2000:], proc.stderr[-2000:]))
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                fail("%s: result keys %s" % (where, sorted(result)))
            if result["correct"] is not True or result["attempted"] < 1:
                fail("%s: not correct or nothing attempted" % where)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                missing = set(expected[trace]) - set(got)
                extra = set(got) - set(expected[trace])
                fail("%s: metric set differs (missing %s, extra %s, or units)"
                     % (where, sorted(missing), sorted(extra)))
            for name, unit in PRINTED[workload] + [("setup_s", "s"), ("peak_rss_mb", "MB")]:
                pattern = r"^\s*%s = \S+ %s(\s|$)" % (re.escape(name), re.escape(unit))
                if not re.search(pattern, proc.stdout, re.MULTILINE):
                    fail("%s: report does not print %s in %s" % (where, name, unit))
            if "failure share = " not in proc.stdout:
                fail("%s: report does not print the failure share" % where)
            print("ok  %s" % where)

        proc, result = run(workload, 0, "--corrupt-expected")
        if proc.returncode == 0 or result is None or result["correct"] is not False \
                or result["metrics"]:
            fail("%s: a corrupted expected answer was not caught" % workload)
        print("ok  %s catches a corrupted expected answer" % workload)

    # Without the engine sources the command must fail without a result.
    bare = os.path.join(ROOT, ".bench_build", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path))
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "paper_galaxy", "--seed", "1", "--seconds", "1"],
                          cwd=bare, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=170)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        fail("a checkout without engine sources produced a result")
    print("ok  no sources -> exit %d, no result" % proc.returncode)
    print("smoke_test: all checks passed")


if __name__ == "__main__":
    main()
