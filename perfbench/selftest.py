#!/usr/bin/env python3
"""Self-test of the repository benchmark.

    python3 perfbench/selftest.py

Run from the root of a checkout. For a tiny instance of every workload of
BENCHMARK.json and of grid_oblivious, which the paper readout runs (the first
two missions of its set, one pass), it checks that:
  * the result line carries every metric BENCHMARK.json names, with its
    unit, for --trace 0 (end_to_end) and --trace 1 (per_layer);
  * the same seed gives the same result digest across invocations;
  * a different seed changes the inputs;
and that the benchmark refuses to run, without printing a result, in a
directory that holds only BENCHMARK.json and the benchmark's own files.
Exits nonzero on the first failure.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

from run import HERE, build, build_dir

ROOT = HERE.parent


def fail(msg):
    print("selftest: FAIL: " + msg)
    sys.exit(1)


def run(binary, workload, seed, trace, report):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed), "--seconds", "0",
           "--trace", str(trace), "--missions", "2", "--report", str(report)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        fail("%s exited %d:\n%s" % (" ".join(cmd), proc.returncode, proc.stdout[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1]), json.loads(report.read_text())


def check_metrics(result, wanted, what):
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            fail("%s: metric %s missing" % (what, m["name"]))
        if got["unit"] != m["unit"]:
            fail("%s: %s has unit %s, expected %s" % (what, m["name"], got["unit"], m["unit"]))
    extra = set(result["metrics"]) - {m["name"] for m in wanted}
    if extra:
        fail("%s: metrics not in BENCHMARK.json: %s" % (what, sorted(extra)))


def check_refuses_without_sources():
    lone = build_dir() / "selftest_lone"
    shutil.rmtree(lone, ignore_errors=True)
    lone.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", lone)
    shutil.copytree(HERE, lone / HERE.name)
    proc = subprocess.run([sys.executable, str(lone / HERE.name / "run.py"), "--workload",
                           "grid_roborun", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=lone, capture_output=True, text=True, timeout=170,
                          env={"PATH": "/usr/bin:/bin", "CARGO_TARGET_DIR": str(lone / "b")})
    shutil.rmtree(lone, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        fail("benchmark ran without the library sources")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    binary = build()
    out = build_dir() / "selftest"
    out.mkdir(exist_ok=True)
    for name in [w["name"] for w in spec["workloads"]] + ["grid_oblivious"]:
        first, first_report = run(binary, name, 1, 0, out / "a.json")
        check_metrics(first, spec["end_to_end"], name + " --trace 0")
        traced, traced_report = run(binary, name, 1, 1, out / "b.json")
        check_metrics(traced, spec["per_layer"], name + " --trace 1")
        other, other_report = run(binary, name, 2, 0, out / "c.json")
        if first_report["digest"] != traced_report["digest"]:
            fail("%s: seed 1 gave digests %s and %s" %
                 (name, first_report["digest"], traced_report["digest"]))
        if first_report["inputs"] == other_report["inputs"]:
            fail("%s: seeds 1 and 2 gave the same inputs" % name)
        for result in (first, traced, other):
            if not result["correct"] or result["failed"]:
                fail("%s: output check failed" % name)
        print("selftest: %-15s ok  digest %s  inputs %s / %s" %
              (name, first_report["digest"], first_report["inputs"], other_report["inputs"]))
    check_refuses_without_sources()
    print("selftest: refuses to run without the library sources: ok")
    print("selftest: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
