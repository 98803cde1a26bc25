#!/usr/bin/env python3
"""Self-test of the repository benchmark.

    python3 perfbench/selftest.py

Runs every workload at its tiny size, untraced and traced, through
perfbench/run.py, and checks that:

  * the run exits 0 and its last line is exactly {correct, attempted,
    failed, metrics} with correct=true and attempted >= 1;
  * the metric names and units printed are exactly the end-to-end
    (--trace 0) or per-layer (--trace 1) metrics of BENCHMARK.json, every
    value is a finite number, and no end-to-end value is 0;
  * the line before the result carries the hardware context: nproc, the
    kernel ISA, precision and scheduler mode;
  * an unknown workload exits non-zero without printing a result.

Exits 0 when every check holds, 1 otherwise.
"""
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(args):
    return subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)


def check_run(spec, workload, trace, problems):
    label = f"{workload} --trace {trace}"
    p = run(["--workload", workload, "--seed", "1", "--seconds", "1",
             "--trace", str(trace), "--tiny"])
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or len(lines) < 2:
        problems.append(f"{label}: exit {p.returncode}\n{p.stderr[-2000:]}")
        return
    result = json.loads(lines[-1])
    context = json.loads(lines[-2]).get("context", {})
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{label}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("attempted", 0) < 1:
        problems.append(f"{label}: correct={result.get('correct')} "
                        f"attempted={result.get('attempted')}")
    declared = spec["end_to_end" if trace == 0 else "per_layer"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        problems.append(f"{label}: metrics differ from BENCHMARK.json: missing={missing} "
                        f"extra={extra} unit mismatch={units}")
    for name, v in result.get("metrics", {}).items():
        value = v.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{label}: {name} is not a finite number: {value!r}")
        elif trace == 0 and value == 0:
            problems.append(f"{label}: end-to-end metric {name} reads 0")
    for key in ("nproc", "isa", "precision", "scheduler"):
        if key not in context:
            problems.append(f"{label}: context lacks {key}")
    print(f"ok {label}: {len(got)} metrics, attempted={result.get('attempted')}, "
          f"nproc={context.get('nproc')} isa={context.get('isa')} "
          f"precision={context.get('precision')} scheduler={context.get('scheduler')}",
          flush=True)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            check_run(spec, w["name"], trace, problems)
    bad = run(["--workload", "no_such_workload", "--seed", "1", "--seconds", "1",
               "--trace", "0"])
    if bad.returncode == 0 or bad.stdout.strip():
        problems.append("an unknown workload did not fail cleanly")
    for p in problems:
        print("FAIL " + p)
    print("selftest: " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
