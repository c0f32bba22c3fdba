#!/usr/bin/env python3
"""Self-test of the repository benchmark (about two minutes).

    python3 perfbench/selftest.py

Runs every workload run.py defines briefly, untraced and traced, and fails
when the result line is malformed, when a metric named in BENCHMARK.json is
missing or has another unit, or when a run is not correct. Then runs once
with a deliberately wrong expected body and fails unless that run reports
itself incorrect.
"""

import importlib.util
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(workload, trace, extra=()):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace)] + list(extra)
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, proc.stdout + proc.stderr


def check_result(result, expected_units):
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append("result keys are %s" % sorted(result))
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append("attempted is %r" % result.get("attempted"))
    metrics = result.get("metrics", {})
    for name, unit in expected_units.items():
        if name not in metrics:
            errors.append("metric %s missing" % name)
        elif metrics[name].get("unit") != unit:
            errors.append("metric %s has unit %r, want %r"
                          % (name, metrics[name].get("unit"), unit))
        elif not isinstance(metrics[name].get("value"), (int, float)):
            errors.append("metric %s has no numeric value" % name)
    extra = set(metrics) - set(expected_units)
    if extra:
        errors.append("unexpected metrics: %s" % sorted(extra))
    return errors


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    units = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    sys.dont_write_bytecode = True  # leave no __pycache__ in the tree
    loader = importlib.util.spec_from_file_location(
        "run", os.path.join(ROOT, "perfbench", "run.py"))
    run_py = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(run_py)
    failures = []
    for workload in run_py.WORKLOADS:
        for trace in (0, 1):
            label = "%s --trace %d" % (workload, trace)
            rc, result, output = run(workload, trace)
            if result is None:
                failures.append("%s: no result line (exit %d)\n%s"
                                % (label, rc, output[-2000:]))
                continue
            errors = check_result(result, units[trace])
            if rc != 0 or not result["correct"] or result["failed"]:
                errors.append("run not correct (exit %d, failed %s)"
                              % (rc, result["failed"]))
            failures += ["%s: %s" % (label, e) for e in errors]
            print("%-28s %s" % (label, "ok" if not errors else "FAILED"))

    rc, result, output = run("ping_open", 0, ["--corrupt-expected", "ping"])
    caught = (result is not None and not result["correct"]
              and result["failed"] > 0 and rc != 0
              and "wrong body" in output)
    print("%-28s %s" % ("wrong expected body", "caught" if caught else "MISSED"))
    if not caught:
        failures.append("a wrong expected body was not reported (exit %d)\n%s"
                        % (rc, output[-2000:]))

    for f in failures:
        print("FAIL: " + f)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
