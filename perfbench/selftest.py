"""Tests of the benchmark itself (not part of the program's test suite).

    PYTHONPATH=src python3 -m pytest -q perfbench/selftest.py

The wrap-coverage guard runs every workload once traced (about three
minutes on two cores): each traced name must fire on the workload that
exercises it and stay silent where the workload bypasses it, so that a
renamed or moved function cannot silently zero a per-layer metric.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import answers  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

CLI = run.import_jetcohom()
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_self_time_subtracts_children_and_leaves():
    t = tracing.Tracer()
    t.spans = [
        ["root", 0.0, 10.0, -1, 0],
        ["child", 1.0, 4.0, 0, 0],
        ["child", 3.0, 5.0, 0, 0],  # overlaps the first child: covered once
        ["grandchild", 1.5, 2.0, 1, 0],
    ]
    t.leaves[(0, "exactlinalg.det")] = [7, 2.0]
    assert t.self_times() == pytest.approx([10 - 4 - 2, 3 - 0.5, 2, 0.5])


def test_install_patches_every_lookup_site_and_undo_restores():
    from jetcohom import cli, cochain, exactlinalg, report

    before = (report.harmonic_space, cli.serialize_report, exactlinalg.det, cochain.CellComplex.laplacian)
    undo, missing = tracing.install(tracing.Tracer())
    try:
        assert missing == []
        assert report.harmonic_space is cochain.harmonic_space is not before[0]
        assert cli.serialize_report is report.serialize_report is not before[1]
        assert cochain.xl.det is not before[2]
        assert cochain.CellComplex.laplacian is not before[3]
    finally:
        undo()
    after = (report.harmonic_space, cli.serialize_report, exactlinalg.det, cochain.CellComplex.laplacian)
    assert after == before


def test_reference_answers_hold_the_known_maths():
    ref = answers.load()["compute"]
    betti = {cell: sum(d * m for _lw, d, m in s) for cell, s in ref["A1 3/6"]["harmonic"].items()}
    assert betti == {"0,0": 1, "1,1": 3, "2,3": 5, "3,6": 7}
    a2 = ref["A2 2/4"]["harmonic"]["2,2"]
    assert [(d, m) for _lw, d, m in a2] == [(10, 1), (10, 1)] and a2[0][0] != a2[1][0]


@pytest.mark.parametrize("fmt", workloads.FORMATS)
def test_checks_accept_the_seed_report_and_reject_wrong_maths(tmp_path, fmt):
    from jetcohom.report import RunConfig, cmd_compute, serialize_report

    c = workloads.A1_36
    ref = answers.load()["compute"][c.label]
    good = cmd_compute(RunConfig(series=c.series, rank=c.rank, maxDegree=c.degree, maxEnergy=c.energy))
    assert answers.check_compute(ref, fmt, serialize_report(good, fmt)) == []
    bad = json.loads(json.dumps(good))
    cell = next(cell for cell in bad["cells"] if cell["p"] == 2 and cell["k"] == 3)
    cell["harmonic"] = []
    cell["harmonic_dim"] = 0
    assert answers.check_compute(ref, fmt, serialize_report(bad, fmt))


def test_identity_check_rejects_a_large_error():
    ref = answers.load()["identities"]["A2 [-1,2] guard 1"]
    verdicts = [{"identity": name, "pass": True, "skipped": False, "maxAbsError": 0.0} for name in ref["passed"]]
    verdicts += [{"identity": name, "pass": False, "skipped": True, "maxAbsError": None} for name in ref["skipped"]]
    assert answers.check_identities(ref, json.dumps({"identity_suite": verdicts})) == []
    verdicts[0]["maxAbsError"] = 1e-3
    assert answers.check_identities(ref, json.dumps({"identity_suite": verdicts}))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_wrap_coverage_guard(tmp_path, name):
    workload = workloads.WORKLOADS[name](1, tmp_path)
    metrics, _printed, outcome, samples = run.traced_run(CLI, workload, seed=1)
    assert outcome.failed == 0, outcome.problems
    assert samples["missing_wraps"] == [] and samples["guard_violations"] == []
    assert (metrics["exactlinalg.det.calls"][0] > 0) == (name == "exact-cold")
    assert sorted(metrics) == sorted(m["name"] for m in BENCHMARK["per_layer"])
    if name == "exact-cold":
        assert samples["exactlinalg.det.calls_by_command"]["A2 2/4"] == 93718
        assert samples["exactlinalg.det.calls_by_command"]["B2 2/4"] == 314950
        assert metrics["cochain.laplacian_builds_per_cell"][0] == 2.0


def test_timed_run_reports_every_end_to_end_metric(tmp_path):
    workload = workloads.Identities(1, tmp_path)
    metrics, printed, outcome, _samples = run.timed_run(CLI, workload, seconds=0)
    assert outcome.failed == 0, outcome.problems
    assert sorted(metrics) == sorted(m["name"] for m in BENCHMARK["end_to_end"])
    assert all(value > 0 for value, _unit in metrics.values())
    assert sorted(printed) == ["report_s.p50"]  # p90 needs 100 samples
