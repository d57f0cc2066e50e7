"""Smoke test for the benchmark: quick mode on every workload, traced and untraced.

Run with ``python3 -m pytest -q bench/test_smoke.py``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
from tracing import load_spans  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(cwd, workload, trace, seed=3):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--quick"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_quick_run_passes_and_reports_every_metric(workload, trace):
    proc = run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    assert all(result["metrics"][m["name"]]["unit"] == m["unit"] for m in wanted)
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
        return
    assert result["metrics"]["verification.recheck_counterexample.calls"]["value"] == 0
    header, fields = load_spans(ROOT / "bench" / "out" / f"spans-{workload}.bin")
    assert header["count"] == len(fields["start_ns"]) > 0
    assert all(p < i for i, p in enumerate(fields["parent"]))
    assert all(s <= e for s, e in zip(fields["start_ns"], fields["end_ns"]))


def test_exhaustive_counts_do_not_depend_on_the_seed():
    reports = []
    for seed in (3, 4):
        assert run(ROOT, "exhaustive-small", 1, seed).returncode == 0
        path = ROOT / "bench" / "out" / f"report-exhaustive-small-seed{seed}-trace1.json"
        metrics = json.loads(path.read_text())["metrics"]
        reports.append({k: v for k, v in metrics.items() if k.endswith(".cases")})
    assert reports[0] == reports[1] and sum(reports[0].values()) > 0


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run(tmp_path, "structure-wide", 0)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
