#!/usr/bin/env python3
"""Fast self-test of the benchmark: every workload at toy size, both modes.

    python3 perfbench/selftest.py

Checks that each run exits 0 with a passing result line whose metrics are
exactly the ones BENCHMARK.json names, each with its unit, and that the
benchmark refuses to run (non-zero exit, no result line) in a directory that
holds only BENCHMARK.json and the benchmark's own files.  About a minute.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BARE = ROOT / ".perfbench_work" / "selftest-bare"


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--size", "toy"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_result(bench: dict, workload: str, trace: int, proc) -> list[str]:
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}\n{proc.stdout[-3000:]}{proc.stderr[-3000:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        errors.append(f"{where}: correct={result['correct']} attempted={result['attempted']} "
                      f"failed={result['failed']}")
    wanted = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    if set(got) != set(wanted):
        errors.append(f"{where}: missing {sorted(set(wanted) - set(got))}, "
                      f"unexpected {sorted(set(got) - set(wanted))}")
    for name, unit in wanted.items():
        entry = got.get(name)
        if entry is None:
            continue
        if entry.get("unit") != unit:
            errors.append(f"{where}: {name} unit {entry.get('unit')!r}, expected {unit!r}")
        value = entry.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"{where}: {name} value {value!r}")
        elif not trace and value <= 0:
            errors.append(f"{where}: end-to-end metric {name} is {value}")
    return errors


def check_bare(bench: dict) -> list[str]:
    """Without the palnet sources the benchmark must fail and print no result."""
    shutil.rmtree(BARE, ignore_errors=True)
    BARE.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", BARE / "BENCHMARK.json")
        for path in bench["paths"]:
            shutil.copytree(ROOT / path, BARE / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(BARE, bench["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(BARE, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-500:]!r}"]
    return []


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = check_bare(bench)
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            proc = run(ROOT, workload, trace)
            found = check_result(bench, workload, trace, proc)
            print(f"{workload:20s} trace {trace}: {'ok' if not found else 'FAILED'}", flush=True)
            errors += found
    for err in errors:
        print(err)
    print("selftest", "FAILED" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
