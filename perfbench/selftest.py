"""Self-test of the benchmark, in short mode (a few ops per workload).

    python3 perfbench/selftest.py

For every workload it runs the benchmark once untraced and once traced and
checks that
* the last line is the result object with exactly the agreed keys;
* every printed metric is declared in BENCHMARK.json, with its unit, and
  every declared metric of that mode is printed;
* the run is correct, and the traced pass gave results identical to the
  untraced pass (M values, audit margins, CLI output bytes);
and that the benchmark fails, without printing a result, when the program
sources are missing.  Exit status 0 when all checks pass.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 3


def run(args, cwd):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def check_workload(name: str, declared: dict) -> list:
    problems = []
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        proc = run(["--workload", name, "--seed", str(SEED), "--seconds",
                    "1", "--trace", str(trace), "--short"], ROOT)
        tag = f"{name} trace={trace}"
        if proc.returncode != 0:
            problems.append(f"{tag}: exit {proc.returncode}: "
                            f"{proc.stderr[-500:]}")
            continue
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        ctx = json.loads(lines[-2])
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            problems.append(f"{tag}: result keys {sorted(result)}")
        units = {m["name"]: m["unit"] for m in declared[kind]}
        printed = result["metrics"]
        for metric, doc in printed.items():
            if metric not in units:
                problems.append(f"{tag}: {metric} not declared")
            elif doc["unit"] != units[metric]:
                problems.append(f"{tag}: {metric} unit {doc['unit']!r}, "
                                f"declared {units[metric]!r}")
        missing = set(units) - set(printed)
        if missing:
            problems.append(f"{tag}: not printed: {sorted(missing)}")
        if not result["correct"]:
            problems.append(f"{tag}: incorrect; failures "
                            f"{ctx.get('failures')}")
        if trace and not ctx["context"].get("traced_results_identical"):
            problems.append(f"{tag}: tracing changed a result")
        print(f"{tag}: attempted={result['attempted']} "
              f"failed={result['failed']} correct={result['correct']}")
    return problems


def check_without_program() -> list:
    out = ROOT / ".perfbench-out"
    out.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=out))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(["--workload", "audit-lowdeg", "--seed", str(SEED),
                    "--seconds", "1", "--trace", "0"], bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return ["benchmark did not fail without the program sources"]
    print(f"without sources: exit {proc.returncode}, no result")
    return []


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in declared["workloads"]:
        problems += check_workload(workload["name"], declared)
    problems += check_without_program()
    for p in problems:
        print("FAIL:", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
