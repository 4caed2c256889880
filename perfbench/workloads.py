"""The four benchmark workloads: seeded input generators, CLI argv, oracles.

Each workload writes one CSV from ``--seed`` alone; the program sees only
that file. Every oracle is independent of mrlab: it recomputes the answer
with plain numpy or the standard library from the generated values, and
``Case.check`` returns the list of problems with one report (empty when
the report is right). Ledger invariants from the paper's I/O model are
checked alongside.
"""

from __future__ import annotations

import collections
import datetime
import functools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

# Relative tolerance for float results recomputed by a numpy oracle. The
# engine sums with math.fsum per split, numpy pairwise; both are within a
# few ulps of the exact sum, far inside 1e-9.
RTOL = 1e-9
# Held-out accuracy the forest must beat. Chance is 1/3; the forest scores
# 0.81-0.86 across seeds 0-9 at this input size, so a broken tree, vote or
# resample shows up as a drop well below the floor.
FOREST_ACCURACY_FLOOR = 0.70


@dataclass
class Case:
    """One generated input plus what a correct report must contain."""

    argv: list
    check: Callable[[str], list] = field(repr=False)


def _rng(seed: int, workload: int, part: int) -> np.random.Generator:
    return np.random.default_rng([seed, workload, part])


def _fixed4(values: np.ndarray) -> np.ndarray:
    """Round to 4 decimals so that '%.4f' text parses back to the same float.

    k / 1e4 is the correctly rounded double of the 4-decimal literal, which
    is what float() returns when the CLI reads the file.
    """
    return np.rint(values * 1e4) / 1e4


def _write_csv(path: Path, header: list, rows: list) -> None:
    path.write_text(",".join(header) + "\n" + "".join(r + "\n" for r in rows), encoding="utf-8")


def _matrix_lines(matrix: np.ndarray, suffix: list | None = None) -> list:
    fmt = ",".join(["%.4f"] * matrix.shape[1])
    lines = [fmt % tuple(row) for row in matrix.tolist()]
    if suffix is not None:
        lines = [f"{line},{s}" for line, s in zip(lines, suffix)]
    return lines


def _close(got, want, scale: float) -> bool:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    return got.shape == want.shape and bool(np.all(np.abs(got - want) <= RTOL * scale))


def _ledger(stats: dict, problems: list, **expected: int) -> None:
    for name, value in expected.items():
        if stats.get(name) != value:
            problems.append(f"ledger {name}={stats.get(name)}, expected {value}")


def _parse(report_text: str, problems: list):
    try:
        return json.loads(report_text)
    except ValueError as err:
        problems.append(f"report is not JSON: {err}")
        return None


# --- logreg-disk -----------------------------------------------------------

LOGREG_FEATURES = 8
LOGREG_ITERS = 10


def _sigmoid(z: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def logreg_oracle(x: np.ndarray, y: np.ndarray, iters: int, step: float = 1.0):
    """Full-batch gradient descent, b <- b - step/n * X'(sigmoid(Xb) - y).

    Returns (coefficients, last gradient) with the intercept column first,
    as the CLI's ``logreg`` does.
    """
    design = np.hstack([np.ones((x.shape[0], 1)), x])
    beta = np.zeros(design.shape[1])
    grad = beta
    for _ in range(iters):
        grad = design.T @ (_sigmoid(design @ beta) - y)
        beta = beta - step / x.shape[0] * grad
    return beta, grad


def logreg_case(seed: int, rows: int, directory: Path) -> Case:
    rng = _rng(seed, 1, 0)
    x = _fixed4(rng.standard_normal((rows, LOGREG_FEATURES)))
    weights = rng.normal(0.0, 1.0, LOGREG_FEATURES)
    y = (rng.random(rows) < _sigmoid(x @ weights + 0.5)).astype(float)
    names = [f"x{j}" for j in range(LOGREG_FEATURES)]
    path = directory / "logreg.csv"
    _write_csv(path, names + ["y"], _matrix_lines(x, [str(int(v)) for v in y]))

    @functools.cache
    def expected():
        return logreg_oracle(x, y, LOGREG_ITERS)

    # An absolute error bound for a sum of n terms scales with the sum of |terms|.
    grad_scale = float(np.abs(x).sum(axis=0).max()) + rows

    def check(text: str) -> list:
        problems: list = []
        report = _parse(text, problems)
        if report is None:
            return problems
        beta, grad = expected()
        result = report["result"]
        if not _close(result["coefficients"], beta, float(np.max(np.abs(beta)))):
            problems.append("coefficients differ from the numpy descent")
        if not _close(result["gradient_norm"], np.max(np.abs(grad)), grad_scale):
            problems.append("gradient_norm differs from the numpy descent")
        if result["iterations"] != LOGREG_ITERS or result["columns"] != ["intercept"] + names:
            problems.append("iterations or columns differ")
        _ledger(report["stats"], problems,
                records_read=rows * LOGREG_ITERS, iterations=LOGREG_ITERS)
        return problems

    argv = ["logreg", str(path), "--label", "y", "--iters", str(LOGREG_ITERS),
            "--splits", "8", "--mode", "disk"]
    return Case(argv, check)


# --- kmeans-memory ---------------------------------------------------------

KMEANS_K = 8
KMEANS_ITERS = 10


def reservoir_indices(n: int, k: int, seed: int) -> list:
    """Algorithm R as the CLI documents its k-means init: the first k
    records fill the reservoir, record i then draws j uniform on [1, i]."""
    rng = np.random.default_rng(seed)
    reservoir = list(range(k))
    for i in range(k + 1, n + 1):
        j = int(rng.integers(1, i + 1))
        if j <= k:
            reservoir[j - 1] = i - 1
    return reservoir


def lloyd_oracle(points: np.ndarray, init: np.ndarray, iters: int):
    """Plain Lloyd rounds; an empty cluster keeps its center.

    Returns (final centers, last assignments, objective at that assignment).
    """
    centers = init.copy()
    assignment = np.zeros(len(points), dtype=np.int64)
    objective = 0.0
    for _ in range(iters):
        d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        assignment = np.argmin(d2, axis=1)
        objective = float(d2[np.arange(len(points)), assignment].sum())
        for c in range(len(centers)):
            members = points[assignment == c]
            if len(members):
                centers[c] = members.sum(axis=0) / len(members)
    return centers, assignment, objective


def kmeans_case(seed: int, rows: int, directory: Path) -> Case:
    rng = _rng(seed, 2, 0)
    blobs = rng.uniform(-10.0, 10.0, (KMEANS_K, 2))
    points = _fixed4(blobs[rng.integers(0, KMEANS_K, rows)] + rng.normal(0.0, 1.0, (rows, 2)))
    path = directory / "kmeans.csv"
    assignments_path = directory / "kmeans-assignments.txt"
    _write_csv(path, ["x0", "x1"], _matrix_lines(points))

    @functools.cache
    def expected():
        init = points[reservoir_indices(rows, KMEANS_K, 0)]
        centers, assignment, objective = lloyd_oracle(points, init, KMEANS_ITERS)
        return centers, "".join(f"{a}\n" for a in assignment.tolist()), objective

    def check(text: str) -> list:
        problems: list = []
        report = _parse(text, problems)
        if report is None:
            return problems
        centers, want_assignments, objective = expected()
        result = report["result"]
        try:
            got_assignments = assignments_path.read_text(encoding="utf-8")
        except OSError as err:
            problems.append(f"assignments file: {err}")
            got_assignments = None
        if got_assignments is not None and got_assignments != want_assignments:
            problems.append("assignments differ from the numpy Lloyd run")
        if not _close(result["centers"], centers, float(np.max(np.abs(centers)))):
            problems.append("centers differ from the numpy Lloyd run")
        if not _close(result["objective"], objective, objective):
            problems.append("objective differs from the numpy Lloyd run")
        if result["iterations"] != KMEANS_ITERS or result["k"] != KMEANS_K:
            problems.append("iterations or k differ")
        _ledger(report["stats"], problems, records_read=rows, iterations=KMEANS_ITERS)
        return problems

    argv = ["kmeans", str(path), "--k", str(KMEANS_K), "--iters", str(KMEANS_ITERS),
            "--tol", "0", "--splits", "8", "--mode", "memory",
            "--assignments-out", str(assignments_path)]
    return Case(argv, check)


# --- forest-poisson --------------------------------------------------------

FOREST_TREES = 10
FOREST_CLASSES = ["c0", "c1", "c2"]
FOREST_HOLDOUT = 1000
_FOREST_MEANS = np.array([[0.0, 0.0, 0.0, 0.0], [2.0, 0.0, 1.0, 0.0], [1.0, 1.8, 0.0, 0.0]])


def _forest_rows(rng: np.random.Generator, rows: int):
    labels = rng.integers(0, len(FOREST_CLASSES), rows)
    x = _fixed4(_FOREST_MEANS[labels] + rng.normal(0.0, 0.8, (rows, _FOREST_MEANS.shape[1])))
    return x, labels


def forest_predict(model: dict, x: np.ndarray) -> np.ndarray:
    """Majority vote of the report's trees; ties go to the smallest class."""
    votes = np.zeros((len(x), len(model["classes"])), dtype=np.int64)
    for tree in model["trees"]:
        nodes = tree["nodes"]
        for r, row in enumerate(x.tolist()):
            node = nodes[0]
            while "feature" in node:
                node = nodes[node["left"] if row[node["feature"]] <= node["threshold"] else node["right"]]
            votes[r, node["class"]] += 1
    return np.argmax(votes, axis=1)


def forest_case(seed: int, rows: int, directory: Path) -> Case:
    x, labels = _forest_rows(_rng(seed, 3, 0), rows)
    held_x, held_labels = _forest_rows(_rng(seed, 3, 1), FOREST_HOLDOUT)
    path = directory / "forest.csv"
    names = [f"f{j}" for j in range(x.shape[1])]
    _write_csv(path, names + ["cls"], _matrix_lines(x, [FOREST_CLASSES[c] for c in labels]))

    def check(text: str) -> list:
        problems: list = []
        report = _parse(text, problems)
        if report is None:
            return problems
        result = report["result"]
        model = result["model"]
        if result["classes"] != FOREST_CLASSES or len(model["trees"]) != FOREST_TREES:
            problems.append("classes or tree count differ")
        else:
            accuracy = float(np.mean(forest_predict(model, held_x) == held_labels))
            if not accuracy > FOREST_ACCURACY_FLOOR:
                problems.append(f"held-out accuracy {accuracy:.3f} <= {FOREST_ACCURACY_FLOOR}")
        # Each record goes to each tree Poisson(k/n) times, so the pairs
        # shuffled are Poisson(trees * k) in total; k = n by default.
        expected_pairs = FOREST_TREES * rows
        shuffled = report["stats"].get("records_shuffled", 0)
        if abs(shuffled - expected_pairs) > 5 * expected_pairs ** 0.5:
            problems.append(f"ledger records_shuffled={shuffled}, expected {expected_pairs} +- 5 sigma")
        _ledger(report["stats"], problems, records_read=rows, iterations=1)
        return problems

    argv = ["rf", str(path), "--label", "cls", "--trees", str(FOREST_TREES), "--splits", "8"]
    return Case(argv, check)


# --- calls-count -----------------------------------------------------------

CALL_DAYS = 60
CALLERS = 500
_CALL_START = datetime.date(2024, 1, 1)


def calls_case(seed: int, rows: int, directory: Path) -> Case:
    rng = _rng(seed, 4, 0)
    dates = [(_CALL_START + datetime.timedelta(days=d)).isoformat() for d in range(CALL_DAYS)]
    day = rng.integers(0, CALL_DAYS, rows).tolist()
    caller = rng.integers(0, CALLERS, rows).tolist()
    callee = rng.integers(0, CALLERS, rows).tolist()
    seconds = rng.integers(1, 3600, rows).tolist()
    lines = [f"{dates[d]},06{a:08d},07{b:08d},{s}" for d, a, b, s in zip(day, caller, callee, seconds)]
    path = directory / "calls.csv"
    _write_csv(path, ["date", "caller", "callee", "duration"], lines)

    @functools.cache
    def expected():
        counts = collections.Counter((dates[d], f"06{a:08d}") for d, a in zip(day, caller))
        # Keys shuffle in byte order of "date\x1fcaller"; dates and callers
        # are fixed width, so tuple order is the same order.
        return [[d, c, n] for (d, c), n in sorted(counts.items())]

    def check(text: str) -> list:
        problems: list = []
        report = _parse(text, problems)
        if report is None:
            return problems
        if report["result"]["counts"] != expected():
            problems.append("counts differ from collections.Counter")
        _ledger(report["stats"], problems, records_read=rows, iterations=1)
        return problems

    return Case(["calls-count", str(path), "--splits", "8"], check)


@dataclass(frozen=True)
class Workload:
    name: str
    rows: int
    rounds: int  # MR rounds per job, for rows_per_s
    make: Callable[[int, int, Path], Case] = field(repr=False)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("logreg-disk", 20_000, LOGREG_ITERS, logreg_case),
        Workload("kmeans-memory", 5_000, KMEANS_ITERS, kmeans_case),
        Workload("forest-poisson", 4_000, 1, forest_case),
        Workload("calls-count", 50_000, 1, calls_case),
    )
}
# Rows in the warm-up input, which has the same shape as the timed one.
WARMUP_ROWS = 200
