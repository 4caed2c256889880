import contextlib
import csv
import gc
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, note, settings
from hypothesis import strategies as st

import mrlab.forest
from mrlab import cli
from mrlab.aggregates import CallLog, read_call_csv
from mrlab.engine import RunStats
from mrlab.forest import ForestModel, TreeModel


def run_cli(argv, capsys):
    code = cli.run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_python(args):
    """``python *args`` in a process of its own, with this checkout's
    ``src`` first on the path."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=60)


def run_module(module, argv):
    """``python -m module *argv`` in a process of its own."""
    return run_python(["-m", module, *argv])


def report_of(out):
    report = json.loads(out)
    assert report["schema"] == 1
    return report


def indented(out):
    """The indent=2 form of a report printed on one line.

    The pinned digests were recorded when reports were indented: hashing
    this form shows the one-line report holds the same document.
    """
    report = json.loads(out)
    assert out == json.dumps(report, sort_keys=True, allow_nan=False) + "\n"
    return json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"


@pytest.fixture
def calls_csv(tmp_path):
    path = tmp_path / "calls.csv"
    path.write_text(
        "date,caller,callee,duration\n"
        "2024-01-01,alice,bob,30\n"
        "2024-01-01,carol,bob,60\n"
        "2024-01-02,alice,dan,10\n",
        encoding="utf-8",
    )
    return str(path)


@pytest.fixture
def numbers_csv(tmp_path):
    def write(name, header, rows):
        path = tmp_path / name
        lines = [",".join(header)] + [",".join(str(v) for v in row) for row in rows]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return str(path)

    return write


def test_calls_avg_report(calls_csv, capsys):
    code, out, _ = run_cli(["calls-avg", calls_csv], capsys)
    assert code == 0
    report = report_of(out)
    assert report["command"] == ["calls-avg", calls_csv]
    assert report["config"] == {"splits": 1, "mode": "disk", "seed": 0}
    assert report["result"]["means"] == [["2024-01-01", 45.0, 2], ["2024-01-02", 10.0, 1]]
    assert report["stats"]["records_read"] == 3


def test_calls_count_report(calls_csv, capsys):
    code, out, _ = run_cli(["calls-count", calls_csv], capsys)
    assert code == 0
    counts = report_of(out)["result"]["counts"]
    assert counts == [
        ["2024-01-01", "alice", 1],
        ["2024-01-01", "carol", 1],
        ["2024-01-02", "alice", 1],
    ]


def test_calls_count_keeps_a_caller_holding_the_unit_separator(tmp_path, capsys):
    path = tmp_path / "us.csv"
    path.write_text("date,caller,callee,duration\n2024-01-01,a\x1fb,c,3\n", encoding="utf-8")
    code, out, err = run_cli(["calls-count", str(path)], capsys)
    assert (code, err) == (0, "")
    assert report_of(out)["result"]["counts"] == [["2024-01-01", "a\x1fb", 1]]


def test_wordcount_report(tmp_path, capsys):
    doc = tmp_path / "docs.txt"
    doc.write_text("to be or\nnot to be\n", encoding="utf-8")
    code, out, _ = run_cli(["wordcount", str(doc)], capsys)
    assert code == 0
    counts = dict(tuple(pair) for pair in report_of(out)["result"]["counts"])
    assert counts == {"to": 2, "be": 2, "or": 1, "not": 1}


def test_wordcount_reads_a_document_per_file_line(tmp_path, capsys):
    # "\f" and U+2028 split tokens, but only "\n", "\r\n" and "\r" end a document
    doc = tmp_path / "docs.txt"
    doc.write_text("a b\x0cc d\nx\u2028y\n", encoding="utf-8", newline="")
    code, out, _ = run_cli(["wordcount", str(doc)], capsys)
    assert code == 0
    report = report_of(out)
    assert report["result"]["counts"] == [[token, 1] for token in "abcdxy"]
    assert (report["stats"]["records_read"], report["stats"]["bytes_read"]) == (2, 12)


def test_sample_reservoir_keeps_whole_tiny_file(numbers_csv, capsys):
    path = numbers_csv("rows.csv", ["v"], [[1], [2], [3]])
    code, out, _ = run_cli(["sample", path, "--method", "reservoir", "--n", "3"], capsys)
    assert code == 0
    result = report_of(out)["result"]
    assert result["rows"] == [["1"], ["2"], ["3"]]
    assert result["success"] is True


def test_sample_sort_writes_rows_out(numbers_csv, tmp_path, capsys):
    path = numbers_csv("rows.csv", ["v"], [[i] for i in range(50)])
    rows_out = tmp_path / "sampled.csv"
    code, out, _ = run_cli(
        ["sample", path, "--method", "sort", "--n", "5", "--rows-out", str(rows_out)],
        capsys,
    )
    assert code == 0
    rows = report_of(out)["result"]["rows"]
    assert len(rows) == 5
    lines = rows_out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "v"
    assert [[v] for v in lines[1:]] == rows


def test_sample_scan_success(numbers_csv, capsys):
    path = numbers_csv("rows.csv", ["v"], [[i] for i in range(500)])
    code, out, _ = run_cli(["sample", path, "--method", "scan", "--n", "10"], capsys)
    assert code == 0
    result = report_of(out)["result"]
    assert result["success"] is True
    assert len(result["rows"]) == 10
    assert result["candidates"] >= 10


def test_sample_scan_failure_exits_one(numbers_csv, capsys):
    # delta 0.95 makes the waitlist ceiling so tight the scan under-collects
    path = numbers_csv("rows.csv", ["v"], [[i] for i in range(40)])
    code, out, err = run_cli(
        ["sample", path, "--method", "scan", "--n", "20", "--delta", "0.95", "--seed", "42"],
        capsys,
    )
    assert code == 1
    result = report_of(out)["result"]
    assert result["success"] is False
    assert result["candidates"] == 19
    assert "fewer than n=20" in err


def test_failed_scan_still_writes_what_it_kept(numbers_csv, tmp_path, capsys):
    path = numbers_csv("rows.csv", ["v"], [[i] for i in range(40)])
    out_path, rows_path = tmp_path / "report.json", tmp_path / "kept.csv"
    code, out, err = run_cli(
        ["sample", path, "--method", "scan", "--n", "20", "--delta", "0.95", "--seed", "42",
         "--out", str(out_path), "--rows-out", str(rows_path)],
        capsys,
    )
    assert code == 1
    assert err == "mrlab: sample: scan kept 19 candidates, fewer than n=20\n"
    assert out_path.read_text(encoding="utf-8") == out
    kept = report_of(out)["result"]["rows"]
    assert rows_path.read_text(encoding="utf-8").splitlines() == ["v", *(row[0] for row in kept)]


def test_usage_error_prints_usage_then_one_error_line(numbers_csv, capsys):
    path = numbers_csv("line.csv", ["x", "y"], [[1, 2], [2, 4]])
    with pytest.raises(SystemExit) as exc:
        cli.run(["kmeans", path, "--k", "x"])
    out, err = capsys.readouterr()
    assert exc.value.code == 2
    assert out == ""
    lines = err.splitlines()
    assert lines[0].startswith("usage: mrlab kmeans ")
    assert lines[-1] == "mrlab kmeans: error: argument --k: invalid int value: 'x'"
    assert not any(line.startswith("mrlab") for line in lines[:-1])


def test_sample_scan_ledger_comes_from_its_job(numbers_csv, capsys):
    path = numbers_csv("rows.csv", ["v"], [[i] for i in range(500)])
    reports = {}
    for splits in (1, 2, 3, 7):
        for mode in ("disk", "memory"):
            argv = ["sample", path, "--method", "scan", "--n", "10", "--splits", str(splits), "--mode", mode]
            code, out, _ = run_cli(argv, capsys)
            assert code == 0
            reports[splits, mode] = report_of(out)
    rows = reports[1, "disk"]["result"]["rows"]
    for (_splits, mode), report in reports.items():
        result, stats = report["result"], report["stats"]
        assert result["rows"] == rows
        assert stats["records_shuffled"] == result["candidates"]
        # a disk-mode job also writes its map output
        assert stats["records_written"] == result["candidates"] * (2 if mode == "disk" else 1)


def test_kmeans_report_and_artifacts(numbers_csv, tmp_path, capsys):
    path = numbers_csv("points.csv", ["x", "y"], [[0, 0], [0, 2], [10, 0], [10, 2]])
    centers_out = tmp_path / "centers.csv"
    assign_out = tmp_path / "assign.txt"
    code, out, _ = run_cli(
        [
            "kmeans", path, "--k", "2", "--seed", "3",
            "--centers-out", str(centers_out), "--assignments-out", str(assign_out),
        ],
        capsys,
    )
    assert code == 0
    result = report_of(out)["result"]
    assert result["columns"] == ["x", "y"]
    assert sorted(c[0] for c in result["centers"]) == [0.0, 10.0]
    assert result["objective"] == pytest.approx(4.0)
    assignments = assign_out.read_text(encoding="utf-8").split()
    assert len(assignments) == 4
    assert assignments[0] == assignments[1] != assignments[2]
    center_lines = centers_out.read_text(encoding="utf-8").splitlines()
    assert center_lines[0] == "x,y"
    assert len(center_lines) == 3


def test_linreg_recovers_line(numbers_csv, capsys):
    rows = [[x, 2 * x] for x in range(6)]
    path = numbers_csv("line.csv", ["x", "y"], rows)
    code, out, _ = run_cli(["linreg", path, "--label", "y"], capsys)
    assert code == 0
    result = report_of(out)["result"]
    assert result["columns"] == ["intercept", "x"]
    np.testing.assert_allclose(result["coefficients"], [0.0, 2.0], atol=1e-9)
    assert result["residual_norm"] < 1e-9


def test_linreg_singular_exits_one(numbers_csv, capsys):
    rows = [[x, x, x + 1.0] for x in range(6)]  # duplicated feature column
    path = numbers_csv("dup.csv", ["a", "b", "y"], rows)
    code, out, err = run_cli(["linreg", path, "--label", "y"], capsys)
    assert code == 1
    assert out == ""
    assert "singular" in err


def test_logreg_separable(numbers_csv, capsys):
    rows = [[x, 0 if x < 0 else 1] for x in (-3, -2, -1, 1, 2, 3)]
    path = numbers_csv("sep.csv", ["x", "label"], rows)
    code, out, _ = run_cli(
        ["logreg", path, "--label", "label", "--step", "2.0", "--iters", "50"], capsys,
    )
    assert code == 0
    result = report_of(out)["result"]
    assert result["iterations"] == 50
    assert result["coefficients"][1] > 0  # slope points at the positive class


def test_logreg_divergence_exits_one(numbers_csv, capsys):
    rows = [[-1e3, 0], [1e3, 1], [2e3, 1]]
    path = numbers_csv("steep.csv", ["x", "label"], rows)
    code, out, err = run_cli(
        ["logreg", path, "--label", "label", "--step", "1e306", "--iters", "5"], capsys,
    )
    assert code == 1
    assert out == ""
    assert "diverged" in err


def test_linreg_with_overflowing_squares_exits_one_without_a_warning(numbers_csv, capsys):
    path = numbers_csv("huge.csv", ["x", "y"], [["1e200", 1], ["2e200", 2], [3, 3]])
    code, out, err = run_cli(["linreg", path, "--label", "y"], capsys)
    assert (code, out, err) == (1, "", "mrlab: linreg: matrix is singular at pivot 1\n")


def test_kmeans_with_overflowing_distances_exits_one_naming_the_round(numbers_csv, capsys):
    path = numbers_csv("far.csv", ["x", "y"], [["1e200", 1], ["-1e200", 0], [3, 1], [4, 2]])
    code, out, err = run_cli(["kmeans", path, "--k", "2"], capsys)
    assert (code, out, err) == (1, "", "mrlab: kmeans: objective is inf at iteration 1\n")


def test_linreg_non_finite_residual_norm_exits_one_naming_the_field(numbers_csv, tmp_path, capsys):
    # The squared residuals overflow, so the norm is inf: not a JSON number.
    path = numbers_csv("wide.csv", ["x", "y"], [[1, 0], [2, "1e300"], [3, "-1e300"], [4, 2]])
    out_path = tmp_path / "report.json"
    code, out, err = run_cli(["linreg", path, "--label", "y", "--out", str(out_path)], capsys)
    assert (code, out, err) == (1, "", "mrlab: linreg: result.residual_norm is not finite\n")
    assert not out_path.exists()


def test_linreg_solution_beyond_double_range_exits_one_without_a_warning(numbers_csv, capsys):
    # The triangular solves overflow; that is a non-finite result, not a warning.
    rows = [[2, 2, 0], [2, "5e-324", 0], [3, 2, 1], ["5e-324", 1, "1.7e308"], [2, -2, 0]]
    path = numbers_csv("solve.csv", ["x0", "x1", "y"], rows)
    code, out, err = run_cli(["linreg", path, "--label", "y"], capsys)
    assert (code, out, err) == (1, "", "mrlab: linreg: result.coefficients[0] is not finite\n")


def test_rf_regression_leaf_mean_near_overflow_is_finite(numbers_csv, tmp_path, capsys):
    # The leaf sums overflow; the means do not.
    path = numbers_csv("huge.csv", ["x", "y"], [[1, "1.5e308"], [2, "1.6e308"], [3, "1.7e308"], [4, "1.7e308"]])
    model_path = tmp_path / "model.json"
    argv = ["rf", path, "--label", "y", "--task", "regression", "--trees", "2", "--max-depth", "0",
            "--model-out", str(model_path)]
    code, out, err = run_cli(argv, capsys)
    assert (code, err) == (0, "")
    trees = report_of(out)["result"]["model"]["trees"]
    values = [tree["nodes"][0]["value"] for tree in trees]
    assert all(1.5e308 <= v <= 1.7e308 for v in values)
    assert json.loads(model_path.read_text(encoding="utf-8"))["trees"] == trees


def test_rf_non_finite_model_exits_one_and_writes_nothing(numbers_csv, tmp_path, capsys, monkeypatch):
    def fit_forest(*args):
        trees = [TreeModel([{"value": 1.0}]), TreeModel([{"value": math.inf}])]
        return ForestModel(trees, "regression"), RunStats()

    monkeypatch.setattr(mrlab.forest, "fit_forest", fit_forest)  # rf imports it when it runs
    path = numbers_csv("t.csv", ["x", "y"], [[1, 1], [2, 2]])
    model_path, out_path = tmp_path / "model.json", tmp_path / "report.json"
    argv = ["rf", path, "--label", "y", "--task", "regression",
            "--model-out", str(model_path), "--out", str(out_path)]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (1, "")
    assert err == "mrlab: rf: result.model.trees[1].nodes[0].value is not finite\n"
    assert not model_path.exists() and not out_path.exists()


def test_calls_avg_overflow_exits_one(tmp_path, capsys):
    path = tmp_path / "huge.csv"
    path.write_text("date,caller,callee,duration\n2024-01-01,a,b,1e308\n2024-01-01,a,c,1e308\n",
                    encoding="utf-8")
    for splits in ("1", "2"):
        code, out, err = run_cli(["calls-avg", str(path), "--splits", splits], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("mrlab: calls-avg: intermediate overflow in fsum [stage=")


def test_logreg_non_binary_label_exits_two(numbers_csv, capsys):
    path = numbers_csv("labels.csv", ["x", "label"], [[-1, 0], [1, 2], [2, 1]])
    code, out, err = run_cli(["logreg", path, "--label", "label"], capsys)
    assert code == 2
    assert out == ""
    assert "row 3" in err  # file line of the label 2; the header is line 1
    assert "label must be 0 or 1, got 2.0" in err


@pytest.mark.parametrize("command, cell, message", [
    ("logreg", "abc", "bad numeric label 'abc'"),
    ("logreg", "nan", "non-finite label"),
    ("logreg", "2", "logistic label must be 0 or 1, got 2.0"),
    ("linreg", "abc", "bad numeric label 'abc'"),
    ("linreg", "nan", "non-finite label"),
])
def test_label_errors_name_the_file_line(numbers_csv, capsys, command, cell, message):
    path = numbers_csv("labels.csv", ["x", "label"], [[-1, 0], [1, cell]])
    code, out, err = run_cli([command, path, "--label", "label"], capsys)
    assert code == 2
    assert out == ""
    assert f"row 3: {message}" in err  # the header is line 1


@pytest.mark.parametrize("trees", [2, 6])
@pytest.mark.parametrize("cell", ["nan", "inf", "1e400"])
def test_rf_regression_rejects_non_finite_labels(numbers_csv, capsys, trees, cell):
    path = numbers_csv("labels.csv", ["x", "label"], [[-1, 0], [1, cell]])
    code, out, err = run_cli(
        ["rf", path, "--label", "label", "--task", "regression", "--trees", str(trees)], capsys,
    )
    assert code == 2
    assert out == ""
    assert "row 3: non-finite label" in err  # the header is line 1


def test_rf_trains_and_saves_model(numbers_csv, tmp_path, capsys):
    rng = np.random.default_rng(0)
    rows = []
    for _ in range(60):
        rows.append([round(rng.normal(0.0), 4), round(rng.normal(0.0), 4), "low"])
    for _ in range(60):
        rows.append([round(rng.normal(4.0), 4), round(rng.normal(4.0), 4), "high"])
    path = numbers_csv("blobs.csv", ["x0", "x1", "cls"], rows)
    model_out = tmp_path / "forest.json"
    code, out, _ = run_cli(
        ["rf", path, "--label", "cls", "--trees", "5", "--seed", "9",
         "--model-out", str(model_out)],
        capsys,
    )
    assert code == 0
    result = report_of(out)["result"]
    assert result["task"] == "classification"
    assert result["classes"] == ["high", "low"]
    assert result["trees"] == 5
    saved = json.loads(model_out.read_text(encoding="utf-8"))
    assert saved == result["model"]


@pytest.mark.parametrize("task, labels", [
    ("classification", ["a", "b"]),
    ("regression", [-1.5, 2.25]),
])
def test_rf_report_model_equals_model_file(numbers_csv, tmp_path, capsys, task, labels):
    rng = np.random.default_rng(1)
    rows = [[round(rng.normal(3.0 * c), 4), labels[c]] for c in (0, 1) for _ in range(30)]
    path = numbers_csv("rf.csv", ["x", "y"], rows)
    model_out = tmp_path / "model.json"
    code, out, _ = run_cli(
        ["rf", path, "--label", "y", "--task", task, "--trees", "4", "--splits", "3",
         "--model-out", str(model_out)],
        capsys,
    )
    assert code == 0
    assert report_of(out)["result"]["model"] == json.loads(model_out.read_text(encoding="utf-8"))


def test_bench_io_read_ratio(numbers_csv, capsys):
    path = numbers_csv("data.csv", ["v"], [[i] for i in range(100)])
    code, out, _ = run_cli(["bench-io", path, "--iters", "5"], capsys)
    assert code == 0
    result = report_of(out)["result"]
    assert result["modes"]["disk"]["records_read"] == 500
    assert result["modes"]["memory"]["records_read"] == 100
    assert result["read_ratio"] == 5.0


def test_bench_io_single_mode(numbers_csv, capsys):
    path = numbers_csv("data.csv", ["v"], [[i] for i in range(20)])
    code, out, _ = run_cli(["bench-io", path, "--iters", "3", "--mode", "disk"], capsys)
    assert code == 0
    result = report_of(out)["result"]
    assert list(result["modes"]) == ["disk"]
    assert result["modes"]["disk"]["records_read"] == 60
    assert "read_ratio" not in result


# ------------------------------------------------------------- exit code 2


def test_missing_file_exits_two(capsys):
    code, out, err = run_cli(["wordcount", "/no/such/file.txt"], capsys)
    assert code == 2
    assert out == ""
    assert "wordcount" in err


def test_malformed_call_csv_exits_two(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("day,who,whom,length\n2024-01-01,a,b,3\n", encoding="utf-8")
    code, _, err = run_cli(["calls-avg", str(path)], capsys)
    assert code == 2
    assert "row 1" in err


@pytest.mark.parametrize("command, key", [("calls-avg", "means"), ("calls-count", "counts")])
def test_call_log_without_rows(tmp_path, capsys, command, key):
    empty = tmp_path / "empty.csv"
    empty.write_bytes(b"")
    code, out, err = run_cli([command, str(empty)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith(f"mrlab: {command}: ") and "Traceback" not in err

    header_only = tmp_path / "header.csv"
    header_only.write_text("date,caller,callee,duration\n", encoding="utf-8")
    code, out, _ = run_cli([command, str(header_only)], capsys)
    assert code == 0
    assert report_of(out)["result"] == {key: []}


@pytest.mark.parametrize("argv, text", [
    (["calls-count"], b"date,caller,callee,duration\n2024-01-01,\xff\xfe,b,3\n"),
    (["rf", "--label", "y"], b"x,y\n1.0,\xffa\n2.0,b\n"),
    (["wordcount"], b"first line\nsecond \xc3( line\n"),
    (["kmeans", "--k", "1"], b"x,y\n1.0,2\xe9\n"),
], ids=["calls-count", "rf", "wordcount", "kmeans"])
def test_input_that_is_not_utf8_exits_two_naming_the_line(tmp_path, capsys, argv, text):
    path = tmp_path / "bad.txt"
    path.write_bytes(text)
    code, out, err = run_cli([argv[0], str(path), *argv[1:]], capsys)
    assert code == 2
    assert out == ""
    assert f"mrlab: {argv[0]}: row 2: not valid UTF-8" in err


@pytest.mark.parametrize("argv, text, message", [
    (["calls-count"], 'date,caller,callee,duration\n2024-01-01,"a\nb",c,3\n2024-01-01,a,b,x\n',
     "bad duration 'x'"),
    (["linreg", "--label", "label"], 'x,label\n"1\n",0\n1,nan\n', "non-finite label"),
    (["logreg", "--label", "label"], 'x,label\n"1\n",0\n1,abc\n', "bad numeric label 'abc'"),
], ids=["calls-count", "linreg", "logreg"])
def test_row_after_a_multiline_record_is_named_by_its_file_line(tmp_path, capsys, argv, text, message):
    path = tmp_path / "multiline.csv"
    path.write_text(text, encoding="utf-8")
    code, out, err = run_cli([argv[0], str(path), *argv[1:]], capsys)
    assert code == 2
    assert out == ""
    assert f"mrlab: {argv[0]}: row 4: {message}" in err  # data row 2 starts on line 4


@pytest.mark.parametrize("argv, header, row, line", [
    (["linreg", "--label", "y"], "x,y", "3," + "1" * 131073, 3),
    (["kmeans", "--k", "1"], "x,y", "3," + "1" * 131073, 3),
    (["calls-count"], "date,caller,callee,duration", "2024-01-01," + "a" * 131073 + ",b,3", 3),
    (["sample", "--n", "1"], "x,y", "a" * 131073 + ",b", 3),
    (["kmeans", "--k", "1"], "x," + "y" * 131073, "3,4", 1),
], ids=["table", "matrix", "call-log", "sample", "header"])
def test_a_field_over_the_csv_limit_exits_two_naming_its_line(tmp_path, capsys, argv, header, row, line):
    path = tmp_path / "long.csv"
    first = "2024-01-01,a,b,3" if argv[0] == "calls-count" else "1,2"
    path.write_text(f"{header}\n{first}\n{row}\n", encoding="utf-8")
    code, out, err = run_cli([argv[0], str(path), *argv[1:]], capsys)
    assert code == 2
    assert out == ""
    assert err == f"mrlab: {argv[0]}: row {line}: field larger than field limit (131072)\n"


@pytest.mark.parametrize("argv", [["kmeans", "--k", "1"], ["linreg", "--label", "b"]], ids=["matrix", "table"])
def test_a_body_of_blank_lines_exits_two_with_one_line(tmp_path, argv):
    # in a process of its own, so that a warning would reach stderr
    path = tmp_path / "blank.csv"
    path.write_text("a,b\n\n\n", encoding="utf-8")
    proc = run_module("mrlab", [argv[0], str(path), *argv[1:]])
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"mrlab: {argv[0]}: row 2: expected 2 fields, got 0\n"


@pytest.mark.parametrize("command", ["linreg", "logreg", "rf"])
def test_a_label_missing_from_the_header_exits_two_with_one_line(tmp_path, capsys, command):
    path = tmp_path / "data.csv"
    path.write_text("a,b\n1,0\n2,1\n", encoding="utf-8")
    code, out, err = run_cli([command, str(path), "--label", "z"], capsys)
    assert (code, out) == (2, "")
    assert err == f"mrlab: {command}: label column 'z' not in header ['a', 'b']\n"


@pytest.mark.parametrize("argv", [
    ["linreg", "--label", "b"],
    ["kmeans", "--k", "1"],
    ["rf", "--label", "b", "--task", "classification"],
    ["rf", "--label", "b", "--task", "regression"],
    ["bench-io"],
], ids=["linreg", "kmeans", "rf-classification", "rf-regression", "bench-io"])
def test_a_file_without_data_rows_exits_two_with_one_line(tmp_path, capsys, argv):
    path = tmp_path / "header.csv"
    path.write_text("a,b\n", encoding="utf-8")
    code, out, err = run_cli([argv[0], str(path), *argv[1:]], capsys)
    assert (code, out) == (2, "")
    assert err == f"mrlab: {argv[0]}: {path}: no data rows\n"


def test_bad_sample_size_exits_two(numbers_csv, capsys):
    path = numbers_csv("rows.csv", ["v"], [[1], [2]])
    code, _, err = run_cli(["sample", path, "--n", "0"], capsys)
    assert code == 2
    assert "sample size" in err


@pytest.mark.parametrize("method", ["reservoir", "sort", "scan"])
def test_sample_size_above_row_count_exits_two(numbers_csv, capsys, method):
    path = numbers_csv("rows.csv", ["v"], [[1], [2], [3]])
    code, out, err = run_cli(["sample", path, "--method", method, "--n", "9"], capsys)
    assert code == 2
    assert out == ""
    assert "--n: sample size" in err


@pytest.mark.parametrize("columns, flags, message", [
    (["x0", "x1", "y"], ["--k", str(10**20)], "--k: sample size per tree must be at most 5242880 "),
    (["x0", "x1", "y"], ["--mtry", "3"], "--mtry: features per node must be at most 2 (the feature count), got 3\n"),
    (["y"], [], "{path}: no feature column besides the label column 'y'\n"),
], ids=["k", "mtry", "label-only"])
def test_rf_flag_above_its_cap_exits_two(numbers_csv, capsys, columns, flags, message):
    path = numbers_csv("small.csv", columns, [[i, -i, i % 2][-len(columns):] for i in range(5)])
    code, out, err = run_cli(["rf", path, "--label", "y", *flags, "--trees", "2"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith(f"mrlab: rf: {message.format(path=path)}")


@pytest.mark.parametrize("flag, value, argv, message", [
    ("--splits", "0", ["linreg", "--label", "y"], "must be >= 1, got 0"),
    ("--seed", "-1", ["sample", "--n", "2"], "must be >= 0, got -1"),
    ("--trees", "0", ["rf", "--label", "y"], "must be >= 1, got 0"),
    ("--k", "0", ["rf", "--label", "y"], "must be >= 1, got 0"),
    ("--k", "0", ["kmeans"], "must be >= 1, got 0"),
    ("--k", "-2", ["kmeans"], "must be >= 1, got -2"),
    ("--mtry", "0", ["rf", "--label", "y"], "must be >= 1, got 0"),
    ("--max-depth", "-1", ["rf", "--label", "y"], "must be >= 0, got -1"),
    ("--iters", "0", ["kmeans", "--k", "2"], "must be >= 1, got 0"),
    ("--iters", "0", ["logreg", "--label", "y"], "must be >= 1, got 0"),
    ("--iters", "0", ["bench-io"], "must be >= 1, got 0"),
    ("--tol", "nan", ["kmeans", "--k", "2"], "must be a finite number >= 0, got nan"),
    ("--tol", "-1", ["kmeans", "--k", "2"], "must be a finite number >= 0, got -1"),
    ("--tol", "inf", ["logreg", "--label", "y"], "must be a finite number >= 0, got inf"),
    ("--step", "0", ["logreg", "--label", "y"], "must be a finite number > 0, got 0"),
    ("--step", "1e400", ["logreg", "--label", "y"], "must be a finite number > 0, got 1e400"),
    ("--delta", "1", ["sample", "--n", "2", "--method", "scan"], "must be a finite number in (0, 1), got 1"),
    ("--delta", "nan", ["sample", "--n", "2", "--method", "scan"], "must be a finite number in (0, 1), got nan"),
], ids=["splits", "seed", "trees", "k", "kmeans-k-zero", "kmeans-k-negative", "mtry", "max-depth",
        "kmeans-iters", "logreg-iters", "bench-io-iters",
        "kmeans-tol-nan", "kmeans-tol-negative", "logreg-tol-inf", "step-zero", "step-inf", "delta-one",
        "delta-nan"])
def test_bad_shared_flag_exits_two(numbers_csv, capsys, flag, value, argv, message):
    path = numbers_csv("line.csv", ["x", "y"], [[1, 2], [2, 4], [3, 7]])
    with pytest.raises(SystemExit) as exc:
        cli.run([argv[0], path, *argv[1:], f"{flag}={value}"])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert err.endswith(f"mrlab {argv[0]}: error: argument {flag}: {message}\n")


def test_kmeans_k_above_the_row_count_exits_two(numbers_csv, capsys):
    path = numbers_csv("two.csv", ["x", "y"], [[1, 2], [3, 4]])
    code, out, err = run_cli(["kmeans", path, "--k", "5"], capsys)
    assert (code, out) == (2, "")
    assert err == "mrlab: kmeans: --k: clusters must be in 1..2 (the row count), got 5\n"


def test_zero_tolerance_runs_every_round(numbers_csv, capsys):
    path = numbers_csv("line.csv", ["x", "y"], [[1, 2], [2, 4], [3, 7], [9, 9]])
    code, out, _ = run_cli(["kmeans", path, "--k", "2", "--iters", "4", "--tol", "0"], capsys)
    assert code == 0
    assert json.loads(out)["result"]["iterations"] == 4


def test_unknown_subcommand_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.run(["frobnicate", "x.csv"])
    assert exc.value.code == 2


def test_empty_input_exits_two(tmp_path, capsys):
    path = tmp_path / "empty.csv"
    path.write_text("v\n", encoding="utf-8")
    code, _, err = run_cli(["sample", str(path), "--n", "1"], capsys)
    assert code == 2
    assert "no data rows" in err


# ----------------------------------------------------------- reproducibility


def test_report_bytes_stable_across_runs(calls_csv, capsys):
    _, first, _ = run_cli(["calls-avg", calls_csv, "--splits", "4"], capsys)
    _, second, _ = run_cli(["calls-avg", calls_csv, "--splits", "4"], capsys)
    assert first == second


def write_seeded_calls(path, seed=10, rows=400):
    """A call file with fractional durations, a non-ASCII caller, and
    dates in canonical and non-canonical ISO forms."""
    rng = np.random.default_rng(seed)
    dates = ["2024-02-01", "2024-02-02", "20240202", " 2024-02-03", "2024-02-04 ", "2024-02-05"]
    callers = ["0601", "0602", "06é3", "0604", "0605", "0606"]
    lines = ["date,caller,callee,duration"] + [
        f"{dates[d]},{callers[a]},07{b:02d},{s / 1000!r}"
        for d, a, b, s in zip(*(rng.integers(0, top, rows).tolist()
                                for top in (len(dates), len(callers), 30, 3_600_000)))
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.mark.parametrize("argv", [
    ["calls-avg", "calls.csv"],
    ["calls-count", "calls.csv"],
    ["kmeans", "table.csv", "--k", "3", "--iters", "20"],
    ["linreg", "table.csv", "--label", "y"],
    ["logreg", "table.csv", "--label", "y", "--iters", "20"],
], ids=["calls-avg", "calls-count", "kmeans", "linreg", "logreg"])
def test_reports_have_the_same_result_at_one_three_and_eight_splits(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    write_seeded_inputs(tmp_path)
    write_seeded_calls(tmp_path / "calls.csv")
    results = [report_of(run_cli([*argv, "--splits", splits], capsys)[1])["result"] for splits in ("1", "3", "8")]
    assert results == [results[0]] * 3


# SHA-256 of the call reports on write_seeded_calls's file, recorded before
# the call log was read into columns; calls-avg re-pinned when partials
# became exact (its means and bytes_written moved).
CALL_REPORT_DIGESTS = {
    "calls-avg": "6c25190126d0d32c42465cdd0c1c9e06bde1d3354918323aba311d01230892ec",
    "calls-count": "81c391e65aa998b62c2ed48a26680fa911eb33e6d27d698f9685174c8c0d0454",
}


@pytest.mark.parametrize("command", sorted(CALL_REPORT_DIGESTS))
def test_call_reports_are_pinned(tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)  # the report echoes the input path
    write_seeded_calls(tmp_path / "calls.csv")
    code, out, _ = run_cli([command, "calls.csv", "--splits", "3"], capsys)
    assert code == 0
    assert hashlib.sha256(indented(out).encode("utf-8")).hexdigest() == CALL_REPORT_DIGESTS[command]


# SHA-256 of the call reports on a file that holds only the header,
# recorded before the reader returned an empty log directly.
EMPTY_CALL_REPORT_DIGESTS = {
    "calls-avg": "9b0f1b750dea5bff1d8408146eec1ee3ca680041476619d0b1022464b27166e4",
    "calls-count": "76626c433ca2cdd8bcd800efc4144e5b0656a2ac5c8fc0d63e735324e4e607ef",
}


@pytest.mark.parametrize("command", sorted(EMPTY_CALL_REPORT_DIGESTS))
def test_a_header_only_call_file_reads_as_an_empty_log(tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)  # the report echoes the input path
    (tmp_path / "calls.csv").write_text("date,caller,callee,duration\n", encoding="utf-8")
    assert read_call_csv("calls.csv") == CallLog()
    code, out, err = run_cli([command, "calls.csv"], capsys)
    assert (code, err) == (0, "")
    assert hashlib.sha256(indented(out).encode("utf-8")).hexdigest() == EMPTY_CALL_REPORT_DIGESTS[command]


def write_seeded_inputs(root, seed=11, rows=300):
    """A numeric table (three features, a 0/1 label y) and a text file of
    one document per line, both drawn from seed."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(rows, 3))
    y = (x @ [1.5, -2.0, 0.5] + rng.normal(size=rows) > 0).astype(int)
    (root / "table.csv").write_text(
        "x0,x1,x2,y\n" + "".join(f"{a!r},{b!r},{c!r},{label}\n" for (a, b, c), label in zip(x.tolist(), y)),
        encoding="utf-8",
    )
    words = ["map", "reduce", "shuffle", "key", "value", "split", "été"]
    (root / "docs.txt").write_text(
        "".join(" ".join(words[w] for w in rng.integers(0, len(words), rng.integers(1, 12))) + "\n"
                for _ in range(rows)),
        encoding="utf-8",
    )


# SHA-256 of the other subcommands' reports on write_seeded_inputs's files,
# recorded before shuffle pairs became plain tuples; kmeans, linreg and
# logreg re-pinned when partials became exact (bytes_written moved in all
# three, and the kmeans and logreg results at 3 splits).
REPORT_DIGESTS = {
    "sample-reservoir": (
        ["sample", "table.csv", "--method", "reservoir", "--n", "20"],
        "f6aa4a704b1bbbe095a3da03fcea650e34db13f5f5b8559f3ec1ce87b5f95ece",
    ),
    "sample-sort": (
        ["sample", "table.csv", "--method", "sort", "--n", "20"],
        "00e8743b402ecf23e9938ee05a718369ad8c16a1e1d8fea70b143d2904af03fb",
    ),
    "sample-scan": (
        ["sample", "table.csv", "--method", "scan", "--n", "20"],
        "dbe0211c87dc9611cf499324ed626946d023ee38e6a2b56e4492f6bc5831ca64",
    ),
    "wordcount": (
        ["wordcount", "docs.txt"],
        "57023a5bf195d16a92b4ff5b19d6a4f4c95749784b7f428d37ab15b05bbba31c",
    ),
    "kmeans": (
        ["kmeans", "table.csv", "--k", "3", "--iters", "20"],
        "c79cb851198efa58b88f409bc8425f0794203546f65df81c32aa6f5b93afdbaf",
    ),
    "linreg": (
        ["linreg", "table.csv", "--label", "y"],
        "e707c8a474e98c60e0b23fc31c98cbf8ba8d445d7a4295a4494168a34b6c07d4",
    ),
    "logreg": (
        ["logreg", "table.csv", "--label", "y", "--iters", "20"],
        "9035285fb8ae62ab6ded8076fd4fe847e7bdf16eb204438ab0911d4fe674926e",
    ),
    "rf": (
        ["rf", "table.csv", "--label", "y", "--trees", "3"],
        "8dc34a3c1ffa32187eb278c689fdf103938ef022b4541447e169f0f8ecfd37a9",
    ),
    "bench-io": (
        ["bench-io", "table.csv", "--iters", "3"],
        "857e8dec3fe98c4ee280e9e36d28d944954ab7420deb4334958b3a54a72687a8",
    ),
}


@pytest.mark.parametrize("name", sorted(REPORT_DIGESTS))
def test_reports_are_pinned(tmp_path, monkeypatch, capsys, name):
    monkeypatch.chdir(tmp_path)  # the report echoes the input path
    write_seeded_inputs(tmp_path)
    argv, digest = REPORT_DIGESTS[name]
    code, out, _ = run_cli([*argv, "--splits", "3"], capsys)
    assert code == 0
    assert hashlib.sha256(indented(out).encode("utf-8")).hexdigest() == digest


def write_text_csv(path, seed=12, rows=60):
    """A text CSV drawn from seed: multi-byte cells, a quoted comma, a
    quoted newline, a quoted quote, empty cells, and one blank line, which
    is a row of no fields."""
    rng = np.random.default_rng(seed)
    cells = ["plain", "été", "日本語", "a,b", "two\nlines", "", '"q"', "naïve, café", "x"]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["name", "note", "n"])
        for i in range(rows):
            if i == 17:
                fh.write("\n")
                continue
            a, b = rng.integers(0, len(cells), 2).tolist()
            writer.writerow([cells[a], cells[b], str(i)])


# SHA-256 of the reports, and of the --rows-out file, on write_text_csv's
# file, recorded while sample and bench-io read one list per row. Every
# sample holds the blank line's empty row.
TEXT_REPORT_DIGESTS = {
    "sample-reservoir": (
        ["sample", "text.csv", "--method", "reservoir", "--n", "30", "--rows-out", "rows.csv"],
        "7535c3202a5c39f49c04de7884191bababce3602502e4577ebdd21fd32d9934a",
        "31bb2e2a13c04a1d6d3f4fd3892bb8a2b00b1f2cec42075674e61ebb1ddb9b59",
    ),
    "sample-sort": (
        ["sample", "text.csv", "--method", "sort", "--n", "30", "--rows-out", "rows.csv"],
        "7b0bd6d4eae4f755377ca25a54e30a31531b9aca5ce8de2cb7e1cfaf0964acd0",
        "c8aac17d980647baa977ee72fb960f86f777abdcb776faf412fb15a681e0ccd3",
    ),
    "sample-scan": (
        ["sample", "text.csv", "--method", "scan", "--n", "30", "--rows-out", "rows.csv"],
        "ef6b0e1d8ca672076bdd7fd66898e5b014acd6e30338eea7eae36319b9c481e6",
        "c8aac17d980647baa977ee72fb960f86f777abdcb776faf412fb15a681e0ccd3",
    ),
    "bench-io": (
        ["bench-io", "text.csv", "--iters", "3"],
        "c1f77bae14659b42b8ef39f6fde3c35a17b91a91540ae32461c860ce73cce5c1", None,
    ),
}


@pytest.mark.parametrize("name", sorted(TEXT_REPORT_DIGESTS))
def test_text_csv_reports_are_pinned(tmp_path, monkeypatch, capsys, name):
    monkeypatch.chdir(tmp_path)  # the report echoes the input path
    write_text_csv(tmp_path / "text.csv")
    argv, digest, rows_digest = TEXT_REPORT_DIGESTS[name]
    code, out, _ = run_cli([*argv, "--splits", "3"], capsys)
    assert code == 0
    assert hashlib.sha256(indented(out).encode("utf-8")).hexdigest() == digest
    if rows_digest is not None:
        assert hashlib.sha256((tmp_path / "rows.csv").read_bytes()).hexdigest() == rows_digest


def test_linreg_result_is_equal_at_every_split_count(numbers_csv, capsys):
    # Integer-valued input: every partial sum is exact, so the split layout
    # cannot change a bit of the result.
    rows = [[x, 3 * x + 1] for x in range(40)]
    path = numbers_csv("line.csv", ["x", "y"], rows)
    results = [report_of(run_cli(["linreg", path, "--label", "y", "--splits", str(splits)], capsys)[1])["result"]
               for splits in (1, 2, 3, 8)]
    assert results == [results[0]] * 4


@pytest.mark.parametrize("argv, source", [
    (["linreg", "--label", "x0"], "table.csv"),
    (["kmeans", "--k", "3"], "table.csv"),
    (["calls-count"], "calls.csv"),
    (["wordcount"], "docs.txt"),
], ids=["linreg", "kmeans", "calls-count", "wordcount"])
def test_a_byte_order_mark_changes_no_result(tmp_path, capsys, argv, source):
    write_seeded_inputs(tmp_path)
    write_seeded_calls(tmp_path / "calls.csv")
    marked = tmp_path / f"marked-{source}"
    marked.write_bytes(b"\xef\xbb\xbf" + (tmp_path / source).read_bytes())
    reports = []
    for path in (tmp_path / source, marked):
        code, out, err = run_cli([argv[0], str(path), *argv[1:]], capsys)
        assert code == 0, err
        reports.append({key: report_of(out)[key] for key in ("result", "stats")})
    assert reports[1] == reports[0]


def test_out_file_matches_stdout(calls_csv, tmp_path, capsys):
    out_path = tmp_path / "report.json"
    _, out, _ = run_cli(["calls-avg", calls_csv, "--out", str(out_path)], capsys)
    assert out_path.read_text(encoding="utf-8") == out

    # rf writes the largest report, the model embedded in it.
    write_seeded_inputs(tmp_path)
    model_path = tmp_path / "model.json"
    code, out, _ = run_cli(["rf", str(tmp_path / "table.csv"), "--label", "y", "--trees", "3",
                            "--out", str(out_path), "--model-out", str(model_path)], capsys)
    assert code == 0
    assert out_path.read_text(encoding="utf-8") == out
    assert json.loads(model_path.read_text(encoding="utf-8")) == report_of(out)["result"]["model"]


def test_unwritable_out_path_exits_two_and_prints_no_report(numbers_csv, tmp_path, capsys):
    path = numbers_csv("n.csv", ["v"], [[1], [2], [3]])
    out_path = tmp_path / "no" / "such" / "dir" / "r.json"
    code, out, err = run_cli(["sample", path, "--n", "2", "--out", str(out_path)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("mrlab: sample: ")
    assert str(out_path) in err
    assert not out_path.exists()


@pytest.mark.parametrize("module", ["mrlab", "mrlab.cli"])
def test_python_dash_m_runs_the_cli(numbers_csv, capsys, module):
    path = numbers_csv("line.csv", ["x", "y"], [[x, 2 * x + 1] for x in range(5)])
    argv = ["linreg", path, "--label", "y"]
    _, expected, _ = run_cli(argv, capsys)
    proc = run_module(module, argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == expected


def test_the_cli_loads_only_the_modules_its_command_runs(tmp_path):
    # in a fresh interpreter, where nothing is imported yet
    path = tmp_path / "calls.csv"
    path.write_text("date,caller,callee,duration\n2024-01-01,a,b,10\n", encoding="utf-8")
    script = (
        "import contextlib, io, json, sys\n"
        "import mrlab.cli\n"
        "at_import = sorted(sys.modules)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = mrlab.cli.run(['calls-count', {str(path)!r}])\n"
        "print(json.dumps([code, at_import, sorted(sys.modules)]))\n"
    )
    proc = run_python(["-c", script])
    assert proc.returncode == 0, proc.stderr
    code, at_import, after_run = json.loads(proc.stdout)
    assert code == 0
    assert {m for m in at_import if m.split(".")[0] == "mrlab"} == {
        "mrlab", "mrlab.cli", "mrlab.dataio", "mrlab.engine", "mrlab.errors"}
    assert "numpy.random" not in at_import
    assert "mrlab.aggregates" in after_run
    assert not {"mrlab.forest", "mrlab.kmeans", "mrlab.linmodels"} & set(after_run)


# ------------------------------------------------------- cyclic collector


def write_collector_inputs(root):
    """The seeded inputs, a singular table (exit 1) and a table with a
    bad cell (exit 2)."""
    write_seeded_inputs(root)
    write_seeded_calls(root / "calls.csv")
    (root / "dup.csv").write_text("a,b,y\n" + "".join(f"{x},{x},{x + 1}\n" for x in range(6)),
                                  encoding="utf-8")
    (root / "bad.csv").write_text("x,y\n1,2\n3,oops\n", encoding="utf-8")


# Every subcommand once, a failing one of each exit code, and the files
# that --out and the other -out flags write, with their exit codes.
COLLECTOR_CASES = {
    **{name: (argv, 0) for name, (argv, _digest) in REPORT_DIGESTS.items()},
    "calls-avg": (["calls-avg", "calls.csv"], 0),
    "calls-count": (["calls-count", "calls.csv", "--out", "report.json"], 0),
    "kmeans-files": (["kmeans", "table.csv", "--k", "3", "--iters", "5",
                      "--centers-out", "centers.csv", "--assignments-out", "labels.txt"], 0),
    "rf-model-out": (["rf", "table.csv", "--label", "y", "--trees", "2", "--model-out", "model.json"], 0),
    "sample-rows-out": (["sample", "table.csv", "--n", "5", "--rows-out", "rows.csv"], 0),
    "linreg-singular": (["linreg", "dup.csv", "--label", "y"], 1),
    "linreg-bad-row": (["linreg", "bad.csv", "--label", "y"], 2),
}


@pytest.mark.parametrize("name", sorted(COLLECTOR_CASES))
def test_a_command_leaves_no_cycle_for_the_collector(tmp_path, monkeypatch, capsys, name):
    # run() pauses the collector on the premise that no command builds a
    # reference cycle, so none waits for a collection to be freed
    monkeypatch.chdir(tmp_path)
    write_collector_inputs(tmp_path)
    argv, expected = COLLECTOR_CASES[name]
    # the first run builds the parser and imports the command's modules,
    # which leave cycles once per process
    assert run_cli([*argv, "--splits", "3"], capsys)[0] == expected
    gc.collect()
    gc.disable()
    try:
        code, _, _ = run_cli([*argv, "--splits", "3"], capsys)
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert code == expected
    assert unreachable == 0


@pytest.mark.parametrize("name", ["rf", "linreg-singular", "linreg-bad-row"])
def test_run_restores_the_collector_on_every_exit(tmp_path, monkeypatch, capsys, name):
    monkeypatch.chdir(tmp_path)
    write_collector_inputs(tmp_path)
    argv, expected = COLLECTOR_CASES[name]
    assert gc.isenabled()
    assert run_cli(argv, capsys)[0] == expected
    assert gc.isenabled()


def test_run_restores_the_collector_when_a_command_raises(numbers_csv, monkeypatch):
    def crash(args, config):
        assert not gc.isenabled()
        raise RuntimeError("unexpected")

    monkeypatch.setitem(cli._HANDLERS, "linreg", crash)
    path = numbers_csv("line.csv", ["x", "y"], [[x, 2 * x] for x in range(6)])
    with pytest.raises(RuntimeError, match="unexpected"):
        cli.run(["linreg", path, "--label", "y"])
    assert gc.isenabled()


def test_run_leaves_a_paused_collector_paused(numbers_csv, capsys):
    path = numbers_csv("line.csv", ["x", "y"], [[x, 2 * x] for x in range(6)])
    gc.disable()
    try:
        code, _, _ = run_cli(["linreg", path, "--label", "y"], capsys)
        collecting = gc.isenabled()
    finally:
        gc.enable()
    assert (code, collecting) == (0, False)


# ------------------------------------------------------------ argv property


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    docs = root / "docs.txt"
    docs.write_text("a b a\nc b\n", encoding="utf-8")
    # the table and the call file are drawn anew for each example
    return {"table": str(root / "table.csv"), "calls": str(root / "calls.csv"), "docs": str(docs)}


_COUNTS = st.integers(-3, 12)
_FLOATS = st.floats()  # includes nan, +-inf, subnormals and huge values
_EDGES = st.sampled_from(["nan", "inf", "-inf", "-1", "0"])
# Table cells: the edges of the double range, subnormals, signed zeros and small values.
_CELLS = st.sampled_from([1e308, -1e308, 1.7e308, -1.7e308, 5e-324, -5e-324, 0.0, -0.0, 2.5]) | st.integers(-3, 3)
_SUBCOMMANDS = {
    # name: (input, fixed argv, {numeric flag: domain})
    "calls-avg": ("calls", [], {}),
    "calls-count": ("calls", [], {}),
    "wordcount": ("docs", [], {}),
    "sample": ("table", [], {"--n": _COUNTS, "--delta": _FLOATS | _EDGES}),
    "kmeans": ("table", [], {"--k": _COUNTS, "--iters": _COUNTS | _EDGES, "--tol": _FLOATS | _EDGES}),
    "linreg": ("table", ["--label", "y"], {}),
    "logreg": ("table", ["--label", "y"], {
        "--step": _FLOATS | _EDGES, "--iters": _COUNTS | _EDGES, "--tol": _FLOATS | _EDGES,
    }),
    "rf": ("table", ["--label", "y"], {
        # bounded: the copies grow with --k and --trees; 10**20 is past the Poisson rate cap
        "--trees": st.integers(-2, 6), "--k": st.integers(-3, 30) | st.just(10**20),
        "--mtry": st.integers(-2, 4), "--max-depth": st.integers(-2, 6),
        "--task": st.sampled_from(["classification", "regression"]),
    }),
    "bench-io": ("table", [], {"--iters": _COUNTS | _EDGES}),
}
_SHARED = {"--splits": st.integers(-3, 40), "--seed": st.integers(-3, 2**64 + 3)}
# The values that a flag's range refuses at parse time, given as text.
_REFUSED = {
    "--iters": lambda text: not text.lstrip("-").isdigit() or int(text) < 1,
    "--tol": lambda text: not 0 <= float(text) < math.inf,
    "--step": lambda text: not 0 < float(text) < math.inf,
    "--delta": lambda text: not 0 < float(text) < 1,
}
_USAGE_ERROR = re.compile(
    r"mrlab [\w-]+: error: (?:argument (--[\w-]+): .*|the following arguments are required: (--[\w-]+))")


@st.composite
def _table(draw) -> str:
    """A small numeric CSV with columns x0.., y: one to nine rows, some
    repeated, and maybe a constant column; labels lean to 0 and 1."""
    width = draw(st.integers(1, 3))
    row = st.tuples(*[_CELLS] * width, st.sampled_from([0, 1]) | _CELLS)
    rows = draw(st.lists(row, min_size=1, max_size=5))
    rows += draw(st.lists(st.sampled_from(rows), max_size=4))
    if draw(st.booleans()):
        column, value = draw(st.integers(0, width)), draw(_CELLS)
        rows = [r[:column] + (value,) + r[column + 1:] for r in rows]
    header = [f"x{i}" for i in range(width)] + ["y"]
    return "".join(",".join(map(str, line)) + "\n" for line in [header, *rows])


# Call-file fields: canonical, compact, space-padded and bad dates; callers
# holding U+001F, a non-ASCII letter, a quoted comma or newline, or nothing;
# durations at and past the edges of what a row may hold.
_CALL_DATES = st.sampled_from(["2024-01-01", "20240102", " 2024-01-01 ", "2024-13-01"])
_CALLERS = st.sampled_from(["a\x1fb", "é", '"a,b"', '"a\nb"', "", "a"])
_DURATIONS = st.sampled_from(["0", "-0", "2.5", "1e308", "-1", "nan", "x"])


@st.composite
def _calls(draw) -> str:
    """A small call file: one to five rows, some repeated."""
    rows = draw(st.lists(st.tuples(_CALL_DATES, _CALLERS, _CALLERS, _DURATIONS), min_size=1, max_size=5))
    rows += draw(st.lists(st.sampled_from(rows), max_size=3))
    return "".join(",".join(line) + "\n" for line in [("date", "caller", "callee", "duration"), *rows])


_DRAWN = {"table": _table, "calls": _calls}


@st.composite
def _argv(draw, inputs):
    name = draw(st.sampled_from(sorted(_SUBCOMMANDS)))
    source, fixed, flags = _SUBCOMMANDS[name]
    if source in _DRAWN:
        Path(inputs[source]).write_text(draw(_DRAWN[source]()), encoding="utf-8")
    argv = [name, inputs[source], *fixed]
    if name == "sample":
        argv += ["--method", draw(st.sampled_from(["reservoir", "sort", "scan"]))]
    for flag, domain in sorted({**flags, **_SHARED}.items()):
        if draw(st.booleans()):
            argv.append(f"{flag}={draw(domain)!s}")  # '=' keeps '-inf' from reading as a flag
    return argv


def _strict_json(text: str):
    """json.loads that refuses Infinity, -Infinity and NaN."""

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=refuse)


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_numeric_flags_never_end_in_a_traceback(fuzz_inputs, data):
    argv = data.draw(_argv(fuzz_inputs))
    if argv[1] in (fuzz_inputs["table"], fuzz_inputs["calls"]):
        note(Path(argv[1]).read_text(encoding="utf-8"))
    drawn = dict(arg.split("=", 1) for arg in argv if arg.startswith("--") and "=" in arg)
    refused = [flag for flag, text in drawn.items() if flag in _REFUSED and _REFUSED[flag](text)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
            assert code == 2
            assert out.getvalue() == ""
            # argparse prints its usage lines, then one error line naming the flag
            line = err.getvalue().splitlines()[-1]
            named = _USAGE_ERROR.fullmatch(line)
            assert named and line.startswith(f"mrlab {argv[0]}: error: "), line
            assert named[1] in drawn if named[1] else named[2] not in drawn, line
            assert named[1] not in _REFUSED or named[1] in refused, line
            return
    assert not refused, (argv, refused)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2), (argv, err)
    assert "Traceback" not in err
    if code == 0:
        assert err == ""
        _strict_json(out)
        return
    assert err.count("\n") == 1 and err.startswith(f"mrlab: {argv[0]}: "), (argv, err)
    if code == 1 and "scan kept" in err:  # a failed scan still reports what it kept
        assert _strict_json(out)["result"]["success"] is False
    else:
        assert out == "", (argv, out)
