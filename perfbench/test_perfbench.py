"""Checks that the benchmark's own checks bite.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import hostspeed  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from mrlab import cli  # noqa: E402

SMALL = workloads.WARMUP_ROWS


def _report(case: workloads.Case) -> str:
    _elapsed, code, report, problem = run._run_cli(cli.run, case.argv)
    assert code == 0, problem
    return report


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    files = []
    for seed, sub in ((3, "a"), (3, "b"), (4, "c")):
        directory = tmp_path / sub
        directory.mkdir()
        case = workload.make(seed, workload.rows, directory)
        files.append(Path(case.argv[1]).read_bytes())
    assert files[0] == files[1]
    assert files[0] != files[2]


def _perturb(report: str, edit) -> str:
    doc = json.loads(report)
    edit(doc)
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _bump_coefficient(doc):
    doc["result"]["coefficients"][1] *= 1 + 1e-6


def _bump_center(doc):
    doc["result"]["centers"][0][0] += 1e-6


def _single_class_forest(doc):
    for tree in doc["result"]["model"]["trees"]:
        tree["nodes"] = [{"class": 0}]


def _shrink_resample(doc):
    doc["stats"]["records_shuffled"] //= 50


def _bump_count(doc):
    doc["result"]["counts"][0][2] += 1


def _bump_records_read(doc):
    doc["stats"]["records_read"] += 1


CORRUPTIONS = [
    ("logreg-disk", _bump_coefficient),
    ("logreg-disk", _bump_records_read),
    ("kmeans-memory", _bump_center),
    ("kmeans-memory", _bump_records_read),
    ("forest-poisson", _single_class_forest),
    ("forest-poisson", _shrink_resample),
    ("calls-count", _bump_count),
    ("calls-count", _bump_records_read),
]


@pytest.mark.parametrize("name,corrupt", CORRUPTIONS)
def test_corrupted_report_is_a_failed_job(name, corrupt, tmp_path):
    workload = workloads.WORKLOADS[name]
    # The forest needs its full input to clear the held-out accuracy floor.
    rows = workload.rows if name == "forest-poisson" else SMALL
    case = workload.make(0, rows, tmp_path)
    report = _report(case)
    judge = run.Judge(case)
    assert judge(report, None)
    assert not judge(_perturb(report, corrupt), None)
    assert (judge.attempted, judge.failed) == (2, 1)


def test_changed_kmeans_assignment_is_a_failed_job(tmp_path):
    case = workloads.WORKLOADS["kmeans-memory"].make(0, SMALL, tmp_path)
    report = _report(case)
    assert case.check(report) == []
    path = Path(case.argv[case.argv.index("--assignments-out") + 1])
    lines = path.read_text().splitlines()
    lines[0] = str((int(lines[0]) + 1) % workloads.KMEANS_K)
    path.write_text("".join(f"{line}\n" for line in lines))
    assert case.check(report) == ["assignments differ from the numpy Lloyd run"]


def test_report_differing_from_the_first_is_a_failed_job(tmp_path):
    case = workloads.WORKLOADS["calls-count"].make(0, SMALL, tmp_path)
    report = _report(case)
    judge = run.Judge(case)
    assert judge(report, None)
    assert not judge(report.replace('"schema": 1', '"schema": 1 '), None)
    assert not judge(report, "exit 1: boom")
    assert (judge.attempted, judge.failed) == (3, 2)


def test_host_speed_scales_each_span_by_the_calibrations_around_it(monkeypatch):
    units = iter([0.02, 0.02, 0.04, 0.04])
    monkeypatch.setattr(hostspeed, "unit_s", lambda: next(units))
    host = hostspeed.HostSpeed()
    ref = hostspeed.REFERENCE_UNIT_S
    # A span is scaled by the reference over the mean unit on both sides.
    assert host.correct(0.02 / ref) == pytest.approx(1.0)
    assert host.correct(0.03 / ref) == pytest.approx(1.0)
    # Speed unchanged: a span 10% longer reads 10% longer.
    assert host.correct(1.1 * 0.04 / ref) == pytest.approx(1.1)
    assert host.units == [0.02, 0.02, 0.04, 0.04]


def test_union_length_counts_overlap_once():
    starts, ends = [0.0, 1.0, 5.0, 5.5], [2.0, 3.0, 6.0, 5.7]
    assert layers.union_length(starts, ends, 0.0, 10.0) == pytest.approx(4.0)
    assert layers.union_length(starts, ends, 2.5, 5.8) == pytest.approx(1.3)
    assert layers.union_length([], [], 0.0, 1.0) == 0.0


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_job_matches_ledger_and_leaves_program_untouched(name, tmp_path):
    import mrlab.engine
    import mrlab.linmodels

    original = (mrlab.engine.run_job, mrlab.linmodels.run_job, cli.run)
    case = workloads.WORKLOADS[name].make(0, SMALL, tmp_path)
    plain = _report(case)
    recorder = layers.Recorder()
    with recorder.installed():
        assert mrlab.linmodels.run_job is not original[1]
        traced = _report(case)
    assert (mrlab.engine.run_job, mrlab.linmodels.run_job, cli.run) == original
    assert traced == plain
    assert len(recorder.jobs) == 1
    assert run._shuffle_agrees(recorder.jobs[0], traced) == []
    job = recorder.jobs[0]
    assert set(dict(layers.LAYER_METRICS)) <= set(job)
    assert job["engine.map.pairs"] > 0 and job["cli.self_s"] > 0
    assert 0 < job["engine.self_s"] < sum(s.duration for s in recorder.spans if s.name == "engine.run_job")
