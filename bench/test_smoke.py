"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest bench/test_smoke.py -q
"""

import json

import numpy as np
import pytest

import run
from workloads import ReportOrbit, Verify

TINY = {
    "verify-small": lambda: Verify((1, 2), 1),
    "report-orbit": lambda: ReportOrbit(dim=3, reports=3, steps=4),
}
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOAD_EXTRAS = {
    "verify-small": {"trials_per_s": "1/s", "error_rate": "ratio"},
    "report-orbit": {"report_ms_p50": "ms", "report_ms_p90": "ms",
                     "orbit_rows_per_s": "1/s", "error_rate": "ratio"},
}


@pytest.fixture(autouse=True)
def tiny_workloads(monkeypatch):
    monkeypatch.delenv("CEBOUND_THREADS", raising=False)
    for name, make in TINY.items():
        monkeypatch.setitem(run.WORKLOADS, name, make)


def bench(capsys, workload, trace, seed=3):
    args = run.parse_args(["--workload", workload, "--seed", str(seed),
                           "--seconds", "0", "--trace", str(trace)])
    assert run.run_workload(args) == 0
    *_, full, result = capsys.readouterr().out.strip().splitlines()
    return json.loads(full), json.loads(result)


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", list(TINY))
def test_end_to_end_metrics(capsys, workload):
    full, result = bench(capsys, workload, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    for metric in SPEC["end_to_end"]:
        shown = result["metrics"][metric["name"]]
        assert shown["unit"] == metric["unit"]
        assert shown["value"] > 0
    for name, unit in WORKLOAD_EXTRAS[workload].items():
        assert full["extra"][name]["unit"] == unit
    assert full["extra"]["error_rate"]["value"] == 0.0
    assert full["meta"]["env_used"]["CEBOUND_THREADS"] is None


@pytest.mark.parametrize("workload", list(TINY))
def test_layer_metrics_and_repeatable_counts(capsys, workload):
    first_full, first = bench(capsys, workload, 1)
    second_full, second = bench(capsys, workload, 1)
    assert first["correct"] and second["correct"]
    assert [m["name"] for m in SPEC["per_layer"]] == list(first["metrics"])
    for metric in SPEC["per_layer"]:
        assert first["metrics"][metric["name"]]["unit"] == metric["unit"]
    for name in run.NAMED_LAYER_METRICS:
        assert first_full["metrics"][name]["unit"] == run.UNITS[name.rsplit(".", 1)[-1]]
    assert first_full["extra"]["absent"] == []
    assert first_full["extra"]["counts_repeat"]
    counts = {
        name: shown["value"]
        for name, shown in first_full["metrics"].items()
        if name.endswith((".calls", ".lapack_calls", ".work_n3"))
    }
    assert counts["cli.main.calls"] >= 1
    assert counts == {name: second_full["metrics"][name]["value"] for name in counts}


def test_tracer_wraps_aliases_and_restores_originals():
    pkg, cli = run.load_package()
    before = (np.linalg.eigh, cli.main, cli.variational_optimizer, pkg.bkm_form)
    with run.Tracer(pkg):
        during = (np.linalg.eigh, cli.main, cli.variational_optimizer, pkg.bkm_form)
        assert all(new.__wrapped__ is old for new, old in zip(during, before))
    after = (np.linalg.eigh, cli.main, cli.variational_optimizer, pkg.bkm_form)
    assert all(new is old for new, old in zip(after, before))


def test_absent_function_is_reported_not_fatal(capsys, monkeypatch):
    pkg, cli = run.load_package()
    monkeypatch.delattr(pkg, "write_orbit_csv")
    monkeypatch.setattr(run, "load_package", lambda: (pkg, cli))
    full, result = bench(capsys, "report-orbit", 1)
    assert "dephasing.write_orbit_csv.calls" in full["extra"]["absent"]
    assert full["metrics"]["dephasing.write_orbit_csv.calls"]["value"] == 0
