"""Smoke test of the benchmark at tiny sizes (about two minutes on two cores).

    python3 perfbench/smoke.py

Runs every workload once untraced and once traced with ``--tiny``, checks
the result line against BENCHMARK.json and the workload design (which
layers each workload must leave idle), and checks that the benchmark
refuses to run in a directory that holds only the benchmark's own files.
Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
            "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180)


def result_of(workload: str, trace: int) -> dict:
    proc = bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in spec}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == units, (got, units)
    return {name: m["value"] for name, m in result["metrics"].items()}


def main() -> int:
    for workload in (w["name"] for w in SPEC["workloads"]):
        e2e = result_of(workload, 0)
        assert all(v > 0 for v in e2e.values()), e2e
        layers = result_of(workload, 1)
        assert layers["trace.coverage"] >= 0.9, layers
        if workload == "extract":
            assert layers["glm.fits"] == 0 and layers["features.extract_s"] > 0, layers
        elif workload == "cv-loo":
            assert layers["features.thresholds_calls"] == 0 and layers["score.notes"] == 0
            assert layers["glm.fits"] > 0, layers
        else:
            assert layers["features.thresholds_calls"] == layers["evaluation.folds"] > 0
            assert layers["features.extract_s"] == 0, layers
        print(f"ok  {workload}")

    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = bench(bare, SPEC["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    print("ok  refuses to run without the program's sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
