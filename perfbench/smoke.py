"""Smoke test of the benchmark itself, at minimal size.

    python3 perfbench/smoke.py

Runs every workload for one second in both trace modes and checks that the
last stdout line reports no failed job and exactly the metrics, with the
units, that BENCHMARK.json lists for that mode.  Then checks that the
benchmark refuses to run, without printing a result, in a directory holding
only BENCHMARK.json and the benchmark's own files.  Exits non-zero on any
mismatch.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_benchmark(root: Path, workload: str, trace: int):
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines[-1] if lines else "", proc.stderr


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            code, last, stderr = run_benchmark(ROOT, workload, trace)
            label = f"{workload} --trace {trace}"
            try:
                result = json.loads(last)
            except json.JSONDecodeError:
                problems.append(f"{label}: no JSON result (exit {code}): {stderr[-500:]}")
                continue
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            if code != 0 or not result["correct"] or result["failed"]:
                problems.append(f"{label}: exit {code}, {result['failed']} failed jobs")
            if units != wanted[trace]:
                problems.append(f"{label}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(units.items()) ^ set(wanted[trace].items()))}")
            print(f"{label}: {result['attempted']} jobs, {result['failed']} failed")

    bare = ROOT / ".perfbench" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        code, last, _ = run_benchmark(bare, "kernels", 0)
        if code == 0 or last.startswith("{"):
            problems.append(f"without the program: exit {code}, last line {last[:80]!r}")
        else:
            print(f"without the program: exit {code}, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
