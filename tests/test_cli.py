import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mrlab import cli


def run_cli(argv, capsys):
    code = cli.run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def report_of(out):
    report = json.loads(out)
    assert report["schema"] == 1
    return report


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


def test_wordcount_report(tmp_path, capsys):
    doc = tmp_path / "docs.txt"
    doc.write_text("to be or\nnot to be\n", encoding="utf-8")
    code, out, _ = run_cli(["wordcount", str(doc)], capsys)
    assert code == 0
    counts = dict(tuple(pair) for pair in report_of(out)["result"]["counts"])
    assert counts == {"to": 2, "be": 2, "or": 1, "not": 1}


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


def test_logreg_non_binary_label_exits_two(numbers_csv, capsys):
    path = numbers_csv("labels.csv", ["x", "label"], [[-1, 0], [1, 2], [2, 1]])
    code, out, err = run_cli(["logreg", path, "--label", "label"], capsys)
    assert code == 2
    assert out == ""
    assert "row 2" in err
    assert "label must be 0 or 1, got 2.0" in err


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


@pytest.mark.parametrize("flag, value, argv", [
    ("--splits", "0", ["linreg", "--label", "y"]),
    ("--seed", "-1", ["sample", "--n", "2"]),
], ids=["splits", "seed"])
def test_bad_shared_flag_exits_two(numbers_csv, capsys, flag, value, argv):
    path = numbers_csv("line.csv", ["x", "y"], [[1, 2], [2, 4], [3, 7]])
    with pytest.raises(SystemExit) as exc:
        cli.run([argv[0], path, *argv[1:], flag, value])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert f"argument {flag}: must be >= " in err


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


def test_sequential_env_matches_parallel(numbers_csv, capsys, monkeypatch):
    rows = [[x, 3 * x + 1] for x in range(40)]
    path = numbers_csv("line.csv", ["x", "y"], rows)
    argv = ["linreg", path, "--label", "y", "--splits", "8"]
    _, parallel_out, _ = run_cli(argv, capsys)
    monkeypatch.setenv("MRLAB_SEQUENTIAL", "1")
    _, sequential_out, _ = run_cli(argv, capsys)
    assert parallel_out == sequential_out


def test_out_file_matches_stdout(calls_csv, tmp_path, capsys):
    out_path = tmp_path / "report.json"
    _, out, _ = run_cli(["calls-avg", calls_csv, "--out", str(out_path)], capsys)
    assert out_path.read_text(encoding="utf-8") == out


@pytest.mark.parametrize("module", ["mrlab", "mrlab.cli"])
def test_python_dash_m_runs_the_cli(numbers_csv, capsys, module):
    path = numbers_csv("line.csv", ["x", "y"], [[x, 2 * x + 1] for x in range(5)])
    argv = ["linreg", path, "--label", "y"]
    _, expected, _ = run_cli(argv, capsys)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", module, *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == expected
