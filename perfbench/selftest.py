"""Self-test of the benchmark itself.

Usage, from the root of a pressurelab checkout: python3 perfbench/selftest.py

1. Runs every workload at tiny size with --trace 0 and --trace 1 and checks
   that every metric BENCHMARK.json names prints in the table with its unit
   and sample count, and in the last JSON line with its unit.
2. Negative controls: a deliberately wrong reference must count as a failed
   op, and so must a failed verification and a band value above its limit.
3. Without the program's sources next to it, the benchmark must exit
   nonzero without printing a result.

Exits 0 when every check holds; otherwise prints what failed and exits 1.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from typing import List

import run
import workloads

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _run(args: List[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=170, cwd=cwd)


def check_workload(name: str, trace: int) -> List[str]:
    proc = _run([str(HERE / "run.py"), "--workload", name, "--seed", "7",
                 "--seconds", "1", "--trace", str(trace), "--tiny"], run.ROOT)
    where = f"{name} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        problems.append(f"{where}: attempted {result['attempted']!r}")
    if result["correct"] is not True or result["failed"] != 0:
        problems.append(f"{where}: correct={result['correct']} failed={result['failed']}")
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    if set(result["metrics"]) != {m["name"] for m in wanted}:
        problems.append(f"{where}: JSON metrics differ from BENCHMARK.json")
    table = {}
    for line in lines:
        parts = line.split()
        if len(parts) >= 4 and not line.startswith("#"):
            table[parts[0]] = parts[1:4]
    for metric in wanted:
        got = result["metrics"].get(metric["name"], {})
        value = got.get("value")
        if got.get("unit") != metric["unit"] or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            problems.append(f"{where}: JSON {metric['name']} = {got}")
        row = table.get(metric["name"])
        if row is None or row[1] != metric["unit"] or not row[2].isdigit():
            problems.append(f"{where}: table row for {metric['name']} is {row}")
    return problems


def negative_controls() -> List[str]:
    sys.path.insert(0, str(run.SRC))
    problems = []
    ops = [op for op in workloads.generate("cover-deep", 7, tiny=True)
           if op.name == "golden-inside"]
    paths, _manifest, _digest = run.write_inputs(ops, run.OUT / "selftest-negative")
    bench = run.Bench(paths)
    bench.run_pass(ops)
    if bench.tally.failed != 0:
        problems.append(f"true reference failed: {bench.tally.failed_ops}")
    ops[0].reference += 1.0
    bench.run_pass(ops)
    if bench.tally.failed != 1 or "golden-inside" not in bench.tally.failed_ops:
        problems.append("a wrong reference did not register as a failed op")

    verify = workloads.Op("verify", "verify chain", {}, "passed")
    if run.check_report(verify, {"passed": False}, None)[0]:
        problems.append("a failed verification passed its check")
    band = workloads.Op("band", "pressure bowen", {}, "band", workloads.BAND_SUP, 1e-3)
    if run.check_report(band, {"results": {"m=1": {"midpoint": 0.7}}}, None)[0]:
        problems.append("a band value above its limit passed its check")
    if run.check_report(band, {"results": {"m=1": {"midpoint": 0.5}}}, 0.55)[0]:
        problems.append("a band value decreasing in L passed its check")
    return problems


def check_without_sources() -> List[str]:
    bare = run.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = _run([str(bare / HERE.name / "run.py"), "--workload", "orbits", "--seed", "1",
                 "--seconds", "1", "--trace", "0"], bare)
    shutil.rmtree(bare)
    if proc.returncode == 0 or "{" in proc.stdout:
        return [f"without sources: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    problems = []
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            problems += check_workload(name, trace)
    problems += negative_controls()
    problems += check_without_sources()
    for problem in problems:
        print("FAIL", problem)
    print("selftest:", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
