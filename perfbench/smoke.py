#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at a tiny input size.

    python3 perfbench/smoke.py [WORKLOAD ...]

For each workload (by default every one ``run.py`` has, including
``cold_grid``, which ``BENCHMARK.json`` leaves out) it runs
``run.py --scale tiny``
untraced and traced, and asserts that each run is correct and emits
every metric ``BENCHMARK.json`` names, with its unit.  A third run
perturbs one returned cell by one ulp (``--inject-mismatch``) and
asserts that the correctness check catches it: ``correct`` false and
exactly one failed cell.  Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import subprocess
import sys

from benchlib import HERE, ROOT
from run import WORKLOADS


def run(workload: str, *flags: str) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--scale", "tiny", *flags]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=str(ROOT),
                          timeout=170)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(cmd[2:])} exited "
                             f"{proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(result: dict, expected: list, label: str) -> None:
    emitted = {name: entry["unit"]
               for name, entry in result["metrics"].items()}
    wanted = {entry["name"]: entry["unit"] for entry in expected}
    if emitted != wanted:
        missing = sorted(set(wanted) - set(emitted))
        extra = sorted(set(emitted) - set(wanted))
        wrong = sorted(name for name in set(wanted) & set(emitted)
                       if wanted[name] != emitted[name])
        raise AssertionError(f"{label}: missing {missing}, unexpected "
                             f"{extra}, wrong units {wrong}")
    for name, entry in result["metrics"].items():
        if not isinstance(entry["value"], (int, float)):
            raise AssertionError(f"{label}: {name} is not a number")


def main(argv: list) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = argv or list(WORKLOADS)
    for workload in workloads:
        for trace, expected in (("0", bench["end_to_end"]),
                                ("1", bench["per_layer"])):
            result = run(workload, "--trace", trace)
            label = f"{workload} --trace {trace}"
            check_metrics(result, expected, label)
            if not result["correct"] or result["failed"]:
                raise AssertionError(f"{label}: not correct: {result}")
            print(f"ok   {label}: {len(result['metrics'])} metrics, "
                  f"{result['attempted']} cells checked", flush=True)
        result = run(workload, "--trace", "0", "--setups", "1",
                     "--inject-mismatch")
        if result["correct"] or result["failed"] != 1:
            raise AssertionError(
                f"{workload}: injected mismatch not caught: {result}")
        print(f"ok   {workload} --inject-mismatch: caught "
              f"(failed {result['failed']} of {result['attempted']})",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
