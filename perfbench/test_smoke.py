"""Fast smoke test of the benchmark: every named metric is emitted, nothing fails.

    python3 -m pytest perfbench/test_smoke.py -q

Runs each workload at reduced sizes with --seconds 0, which still makes the
minimum number of passes, and one traced run, which covers every layer.
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture
def small(monkeypatch):
    for module, name, value in [
        (workloads, "SERIES_R", 20),
        (workloads, "SERIES_CLOSED_CENTRES", (8, 12, 16)),
        (workloads, "QUANTUM_DIM", 4),
        (workloads, "QUANTUM_R", 6),
        (workloads, "QUANTUM_REPEATS", 3),
        (workloads, "ENUM_R", 6),
        (workloads, "TWO_FACE_R_MIN", 4),
        (workloads, "TWO_FACE_R", 5),
        (workloads, "VERIFY_ARGV", ["verify", "--threads", "2", "--r-max", "5"]),
        (layers, "POOL_REPEATS", 2),
        (layers, "KEEP_R", 4),
        (layers, "IMPORT_REPEATS", 1),
        (run, "SETUP_REPEATS", 1),
    ]:
        monkeypatch.setattr(module, name, value)


def _run(capsys, workload, trace):
    code = run.main(["--workload", workload, "--seed", "7", "--seconds", "0", "--trace", str(trace)])
    lines = capsys.readouterr().out.splitlines()
    return code, lines, json.loads(lines[-1])


def test_benchmark_json_names_every_workload_and_metric():
    # verify is measured by traced runs and on demand, but not listed: see README.md.
    assert [w["name"] for w in BENCHMARK["workloads"]] == [w for w in workloads.WORKLOADS if w != "verify"]
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(layers.METRICS)
    for group, units in (("end_to_end", run.END_TO_END), ("per_layer", layers.METRICS)):
        assert all(units[m["name"]] == (m["unit"], m["better"]) for m in BENCHMARK[group])


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_untraced_run_emits_every_end_to_end_metric(small, capsys, workload):
    code, lines, result = _run(capsys, workload, 0)
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert any(line.startswith("fail_frac 0 ") for line in lines)
    details = json.loads((run.OUT / f"{workload}-seed7-trace0.json").read_text())
    assert len(details["speed_samples"]) >= 2 * len(details["passes"])


def test_traced_run_emits_every_per_layer_metric(small, capsys):
    code, _, result = _run(capsys, "enumerate", 1)
    assert code == 0
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(layers.METRICS)
    details = json.loads((run.OUT / "enumerate-seed7-trace1.json").read_text())
    names = {s["name"].split(".")[0] for s in details["spans"]}
    assert names == {"polynomial", "closed_form", "recursion", "enumeration", "two_face", "cli"}


def test_a_directory_without_the_package_is_refused(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "series", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
