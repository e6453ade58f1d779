"""Tiny-size smoke test of the benchmark itself (corpus degree 2).

    python3 -m pytest -q perfbench/test_smoke.py

Checks that BENCHMARK.json and the harness declare the same workloads and
metrics, that every metric is emitted with its unit in both modes, that
traced counts repeat, and that the correctness gate rejects perturbed
expected values.  The program is only called, never changed.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run  # noqa: I001  (pins BLAS threads before numpy loads)
import workloads

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = 2


def _declared(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCH[kind]}


def _emitted(result: dict) -> dict[str, str]:
    return {name: m["unit"] for name, m in result["metrics"].items()}


def _check_shape(result: dict) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    for metric in result["metrics"].values():
        assert math.isfinite(metric["value"])


def test_declarations_match_harness():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)
    assert _declared("end_to_end") == run.END_TO_END
    assert _declared("per_layer") == run.PER_LAYER


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_emitted(name, trace, tmp_path):
    result = run.run_benchmark(workloads.build(name, degree=TINY), 7, 0.0, trace, tmp_path)
    _check_shape(result)
    kind = "per_layer" if trace else "end_to_end"
    assert _emitted(result) == _declared(kind)
    # At degree 2 some verify and battery checks are legitimately skipped
    # (their cutoffs exceed the degree), so only the norm gate must pass.
    if name == "norms-m2-d32":
        assert result["correct"], result


def test_traced_counts_repeat(tmp_path):
    counts = []
    for _ in range(2):
        result = run.run_benchmark(workloads.build("battery-m2", degree=TINY), 7, 0.0, 1, tmp_path)
        counts.append({k: m["value"] for k, m in result["metrics"].items()
                       if m["unit"] in ("count", "bytes")})
    assert counts[0] == counts[1]
    assert counts[0]["verify.Workspace.misses"] > 0


def test_gate_rejects_perturbed_norm_identity(monkeypatch, tmp_path):
    exact = workloads.coefficient_l2
    monkeypatch.setattr(workloads, "coefficient_l2", lambda poly: exact(poly) * (1 + 1e-9))
    result = run.run_benchmark(workloads.build("norms-m2-d32", degree=TINY), 7, 0.0, 0, tmp_path)
    assert not result["correct"]
    # poly_norm and seq_norm_B at (p, tau) = (2, 2), for every corpus member
    assert result["failed"] == 2 * result["attempted"] // 18


def test_gate_rejects_perturbed_verdict(monkeypatch, tmp_path):
    monkeypatch.setattr(workloads, "EXPECTED_VERDICT", "fail")
    result = run.run_benchmark(workloads.build("verify-m2", degree=TINY), 7, 0.0, 0, tmp_path)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 16
    assert result["metrics"]["pass_frac"]["value"] == 0.0


def test_refuses_checkout_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-m2", "--seed", "7",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
