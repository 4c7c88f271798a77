"""Smoke test of the benchmark: every workload at its smallest size.

    python -m pytest perfbench -q
"""

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def counts(result: dict) -> dict:
    return {k: m["value"] for k, m in result["metrics"].items()
            if not k.endswith("_s") and k != "trace.overhead"}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_answer_exact(workload):
    result = bench(workload, 0)
    assert result["correct"]
    assert result["attempted"] > 0 and result["failed"] == 0
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(workload):
    first, second = bench(workload, 1), bench(workload, 1)
    assert first["failed"] == second["failed"] == 0
    assert counts(first) == counts(second)
    assert any(counts(first).values())


def test_wrong_answers_are_caught():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        import workloads
    finally:
        del sys.path[:2]
    cheater = workloads._cheater_job("A x1 : x1", 2, Fraction(1, 2))
    assert cheater.check(cheater.run()) is not None
    quantum = workloads._quantum_job("A x1 : x1", 2, 1, "lookahead",
                                     (Fraction(15, 16), Fraction(1, 2)))
    assert quantum.check(quantum.run()) is not None
    dense = workloads._dense_job("E x1 : x1", 1, 1, (2,), Fraction(1))
    assert dense.check(dense.run()) is not None
    argv, _, fields = workloads.SMOKE_CLI["lookahead"]
    report = workloads._cli_job("lookahead", argv, "0" * 64, fields)
    assert "sha256" in report.check(report.run())
