"""End-to-end acceptance checks, one test per numbered criterion.

Each test prints `criterion N (...): PASS` or `... FAIL` on the real
stderr, so `pytest tests/test_acceptance.py -v -s` reads as a checklist.
Tolerances and workload sizes are pinned inline; loosening them here is
a red flag, not a fix.
"""

import json
import math
import sys
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.stats import chi2, poisson

from conftest import make_call_corpus
from mrlab import cli
from mrlab.aggregates import avg_duration_by_date, calls_per_date_number, word_count
from mrlab.engine import ClusterConfig
from mrlab.forest import ForestParams, fit_forest, poisson_count_block, predict_forest
from mrlab.kmeans import fit_kmeans
from mrlab.linmodels import (
    DataMatrix,
    fit_linear,
    fit_logistic,
    gram_job,
    logistic_gradient_job,
)
from mrlab.sampling import reservoir_sample, scan_srs, sort_sample

from references import negative_log_likelihood


@contextmanager
def criterion(name):
    # sys.__stderr__ bypasses capsys, so the line survives in -s runs
    # that also capture CLI output
    try:
        yield
    except BaseException:
        print(f"{name}: FAIL", file=sys.__stderr__, flush=True)
        raise
    print(f"{name}: PASS", file=sys.__stderr__, flush=True)


# --------------------------------------------------------------- criterion 1


def test_criterion_1_engine_matches_in_memory_oracles():
    with criterion("criterion 1 (engine vs in-memory oracles, 10^4 rows)"):
        records = make_call_corpus(11, 10_000)
        rng = np.random.default_rng(5)
        vocab = [f"w{i:03d}" for i in range(300)]
        docs = [
            " ".join(rng.choice(vocab, size=int(rng.integers(3, 12))))
            for _ in range(10_000)
        ]

        sums = {}
        counts = Counter()
        for r in records:
            day = r.date.isoformat()
            sums[day] = sums.get(day, 0) + int(r.duration)
            counts[day] += 1
        expected_avg = sorted(
            (day, (float(sums[day]) / counts[day], counts[day])) for day in sums
        )
        expected_pairs = sorted(
            Counter((r.date.isoformat(), r.caller) for r in records).items()
        )
        expected_words = sorted(
            Counter(token for doc in docs for token in doc.split()).items()
        )

        for splits in (1, 2, 8):
            config = ClusterConfig(num_splits=splits)
            for run, expected in (
                (lambda: avg_duration_by_date(records, config), expected_avg),
                (lambda: calls_per_date_number(records, config), expected_pairs),
                (lambda: word_count(docs, config), expected_words),
            ):
                start = time.perf_counter()
                result, _stats = run()
                elapsed = time.perf_counter() - start
                assert result == expected, f"mismatch at num_splits={splits}"
                assert elapsed < 5.0, f"job took {elapsed:.2f}s at num_splits={splits}"


# --------------------------------------------------------------- criterion 2


def test_criterion_2_sampler_uniformity():
    with criterion("criterion 2 (sampler uniformity, 10^5 trials each)"):
        population = list(range(10))
        n, trials = 3, 100_000
        config = ClusterConfig()

        def scan_trial(seed):
            result, _ = scan_srs(population, n, 0.01, seed)
            assert result.success
            return result.sample

        samplers = {
            "reservoir": lambda seed: reservoir_sample(population, n, seed),
            "sort": lambda seed: sort_sample(population, n, seed, config)[0],
            "scan": scan_trial,
        }
        start = time.perf_counter()
        cutoff = chi2.ppf(0.999, df=len(population) - 1)
        for name, draw in samplers.items():
            inclusion = np.zeros(len(population))
            for seed in range(trials):
                sample = draw(seed)
                assert len(sample) == n
                np.add.at(inclusion, sample, 1)
            freq = inclusion / trials
            assert np.abs(freq - 0.3).max() <= 0.01, f"{name}: {freq}"
            expected = trials * n / len(population)
            stat = float(((inclusion - expected) ** 2 / expected).sum())
            assert stat < cutoff, f"{name}: chi2 {stat:.1f} >= {cutoff:.1f}"
        assert time.perf_counter() - start < 60.0


# --------------------------------------------------------------- criterion 3


def test_criterion_3_scan_srs_guarantees():
    with criterion("criterion 3 (single-pass SRS success rate and candidates)"):
        population = list(range(100_000))
        n, delta, trials = 100, 0.01, 1000
        successes = 0
        candidate_counts = []
        for seed in range(trials):
            result, stats = scan_srs(population, n, delta, seed)
            candidate_counts.append(result.accepted_count + result.waitlist_count)
            if result.success and len(result.sample) == n:
                successes += 1
        assert successes / trials >= 0.98
        bound = n + 20.0 * math.sqrt(n * math.log(2.0 / delta))
        assert float(np.mean(candidate_counts)) <= bound


# --------------------------------------------------------------- criterion 4


def test_criterion_4_linear_regression_oracle():
    with criterion("criterion 4 (least squares vs lstsq oracle)"):
        rng = np.random.default_rng(40)
        n, p = 10_000, 5
        x = np.hstack([np.ones((n, 1)), rng.normal(size=(n, p))])
        true_beta = np.array([0.7, 1.5, -2.0, 0.5, 0.0, 3.0])
        y = x @ true_beta + 0.01 * rng.normal(size=n)
        data = DataMatrix(x, y)

        model, _ = fit_linear(data, ClusterConfig(num_splits=8))
        oracle, *_ = np.linalg.lstsq(x, y, rcond=None)
        assert np.abs(model.beta - oracle).max() <= 1e-8

        grams = [gram_job(data, ClusterConfig(num_splits=s))[0] for s in (1, 2, 8)]
        xtx_scale = max(1.0, float(np.abs(grams[0].xtx).max()))
        xty_scale = max(1.0, float(np.abs(grams[0].xty).max()))
        for other in grams[1:]:
            assert np.abs(other.xtx - grams[0].xtx).max() <= 1e-12 * xtx_scale
            assert np.abs(other.xty - grams[0].xty).max() <= 1e-12 * xty_scale

        residual = y - x @ model.beta
        assert np.abs(x.T @ residual).max() <= 1e-6 * (1.0 + np.abs(x.T @ y).max())


# --------------------------------------------------------------- criterion 5


def _logistic_fixture(seed, n, p):
    rng = np.random.default_rng(seed)
    x = np.hstack([np.ones((n, 1)), rng.normal(size=(n, p))])
    truth = rng.normal(size=p + 1)
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-(x @ truth)))).astype(float)
    return DataMatrix(x, y)


def test_criterion_5_logistic_numerics():
    with criterion("criterion 5 (logistic gradient, lockstep, descent)"):
        h = 1e-6
        for seed in range(20):
            data = _logistic_fixture(seed, 60 + 7 * seed, 2 + seed % 4)
            beta = np.random.default_rng(1000 + seed).normal(scale=0.5, size=data.width)
            config = ClusterConfig(num_splits=1 + seed % 4)
            grad, _ = logistic_gradient_job(data, beta, config)
            fd = np.zeros_like(beta)
            for j in range(len(beta)):
                bump = np.zeros_like(beta)
                bump[j] = h
                fd[j] = (
                    negative_log_likelihood(data, beta + bump)
                    - negative_log_likelihood(data, beta - bump)
                ) / (2 * h)
            assert np.all(np.abs(grad - fd) <= 1e-5 * np.maximum(1.0, np.abs(fd)))

        data = _logistic_fixture(123, 500, 3)
        step, iters = 2.0, 40
        history = []
        fit_logistic(data, step, iters, None, ClusterConfig(num_splits=4), history=history)
        assert len(history) == iters
        beta = np.zeros(data.width)
        for t in range(iters):
            z = data.x @ beta
            grad = data.x.T @ (1.0 / (1.0 + np.exp(-z)) - data.y)
            beta = beta - (step / data.n) * grad
            assert np.abs(history[t] - beta).max() <= 1e-9, f"iteration {t + 1}"

        # largest curvature of the total NLL is lambda_max(X'X)/4, so a
        # raw step of 4n/lambda_max keeps every update in the descent regime
        lam = float(np.linalg.eigvalsh(data.x.T @ data.x)[-1])
        certified = 4.0 * data.n / lam
        history = []
        fit_logistic(data, certified, 60, None, ClusterConfig(), history=history)
        nll = [negative_log_likelihood(data, np.zeros(data.width))]
        nll += [negative_log_likelihood(data, b) for b in history]
        for before, after in zip(nll, nll[1:]):
            assert after <= before + 1e-9 * (1.0 + abs(before))


# --------------------------------------------------------------- criterion 6


def _lloyd_oracle_steps(points, init, rounds):
    centers = np.array(init, dtype=float)
    steps = []
    for _ in range(rounds):
        d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        assignments = np.argmin(d2, axis=1)
        sse = float(d2[np.arange(len(points)), assignments].sum())
        new_centers = centers.copy()
        for j in range(len(centers)):
            members = points[assignments == j]
            if len(members):
                new_centers[j] = members.mean(axis=0)
        steps.append((assignments, sse))
        centers = new_centers
    return steps


def test_criterion_6_kmeans_lockstep():
    with criterion("criterion 6 (k-means lockstep on 10 datasets)"):
        for ds in range(10):
            rng = np.random.default_rng(200 + ds)
            spots = rng.uniform(-8.0, 8.0, size=(3, 2))
            points = np.vstack([
                rng.normal(spots[0], 1.0, size=(700, 2)),
                rng.normal(spots[1], 1.0, size=(700, 2)),
                rng.normal(spots[2], 1.0, size=(600, 2)),
            ])
            init = points[rng.choice(len(points), size=3, replace=False)]
            history = []
            config = ClusterConfig(num_splits=4, iteration_mode="disk")
            _centers, _assign, stats = fit_kmeans(
                points, 3, init=init, max_iters=60, tol=1e-9,
                config=config, history=history,
            )

            oracle = _lloyd_oracle_steps(points, init, len(history))
            objectives = []
            for t, (centers_t, assign_t, sse_t) in enumerate(history):
                assert np.array_equal(assign_t, oracle[t][0]), f"dataset {ds}, round {t}"
                objectives.append(sse_t)
            for before, after in zip(objectives, objectives[1:]):
                assert after <= before + 1e-12 * max(1.0, before)
            assert stats.records_read == stats.iterations * len(points)


# --------------------------------------------------------------- criterion 7


def _poisson_gof(draws, rate):
    total = len(draws)
    kmax = 0
    while total * poisson.pmf(kmax, rate) >= 5.0:
        kmax += 1
    raw = np.bincount(draws, minlength=kmax + 1)
    observed = np.append(raw[:kmax], raw[kmax:].sum())
    probs = poisson.pmf(np.arange(kmax), rate)
    probs = np.append(probs, max(1.0 - probs.sum(), 1e-300))
    expected = total * probs
    stat = float(((observed - expected) ** 2 / expected).sum())
    return stat, chi2.ppf(0.999, df=kmax)


def test_criterion_7_forest_poisson_statistics():
    with criterion("criterion 7 (resampling statistics and forest accuracy)"):
        n = 30_000
        for regime, (ratio, m) in enumerate([(1.0, 1), (0.5, 2), (0.1, 5)]):
            seed = 70 + regime
            counts = poisson_count_block(seed, 0, n, m, ratio)  # the mapper's draw path
            never = float(np.mean(~counts.any(axis=1)))
            assert abs(never - math.exp(-ratio * m)) <= 0.01
            stat, cutoff = _poisson_gof(counts.ravel().astype(np.int64), ratio)
            assert stat < cutoff, f"regime {(ratio, m)}: chi2 {stat:.1f}"

        rng = np.random.default_rng(3)
        x = np.vstack([
            rng.normal((0.0, 0.0), 0.6, size=(1000, 2)),
            rng.normal((3.0, 3.0), 0.6, size=(1000, 2)),
        ])
        y = ["a"] * 1000 + ["b"] * 1000
        params = ForestParams(trees=10, sample_size=500, mtry=2, seed=7)
        model, _ = fit_forest(x, y, params)
        hits = sum(predict_forest(model, row) == label for row, label in zip(x, y))
        assert hits / len(y) >= 0.95


# --------------------------------------------------------------- criterion 8


def test_criterion_8_iteration_io_penalty():
    with criterion("criterion 8 (disk/memory read ratio at 10 rounds)"):
        rows = list(range(100))
        result = cli.bench_io(rows, 10, ["disk", "memory"], ClusterConfig(num_splits=4))
        assert result["modes"]["disk"]["records_read"] == 1000
        assert result["modes"]["memory"]["records_read"] == 100
        assert result["read_ratio"] == 10.0


# --------------------------------------------------------------- criterion 9


def _write_cli_fixtures(tmp_path):
    rng = np.random.default_rng(77)

    calls = tmp_path / "calls.csv"
    lines = ["date,caller,callee,duration"]
    for _ in range(200):
        day = f"2024-03-{int(rng.integers(1, 29)):02d}"
        lines.append(f"{day},06{int(rng.integers(0, 30)):08d},07{int(rng.integers(0, 30)):08d},{int(rng.integers(1, 600))}")
    calls.write_text("\n".join(lines) + "\n", encoding="utf-8")

    docs = tmp_path / "docs.txt"
    vocab = ["alpha", "beta", "gamma", "delta"]
    docs.write_text(
        "\n".join(" ".join(rng.choice(vocab, size=6)) for _ in range(50)) + "\n",
        encoding="utf-8",
    )

    rows = tmp_path / "rows.csv"
    rows.write_text("v\n" + "".join(f"{i}\n" for i in range(300)), encoding="utf-8")

    points = tmp_path / "points.csv"
    pts = np.vstack([
        rng.normal((0, 0), 0.5, size=(40, 2)),
        rng.normal((5, 5), 0.5, size=(40, 2)),
        rng.normal((0, 5), 0.5, size=(40, 2)),
    ])
    points.write_text(
        "x,y\n" + "".join(f"{float(a)!r},{float(b)!r}\n" for a, b in pts),
        encoding="utf-8",
    )

    line = tmp_path / "line.csv"
    xs = rng.normal(size=100)
    line.write_text(
        "x,y\n"
        + "".join(f"{float(a)!r},{float(3 * a + 1 + 0.01 * rng.normal())!r}\n" for a in xs),
        encoding="utf-8",
    )

    logit = tmp_path / "logit.csv"
    zs = rng.normal(size=120)
    logit.write_text(
        "x,y\n" + "".join(f"{float(z)!r},{int(z > 0)}\n" for z in zs), encoding="utf-8",
    )

    blobs = tmp_path / "blobs.csv"
    rows_txt = ["x0,x1,cls"]
    for _ in range(60):
        rows_txt.append(f"{float(rng.normal(0.0))!r},{float(rng.normal(0.0))!r},low")
    for _ in range(60):
        rows_txt.append(f"{float(rng.normal(4.0))!r},{float(rng.normal(4.0))!r},high")
    blobs.write_text("\n".join(rows_txt) + "\n", encoding="utf-8")

    return {
        "calls-avg": ["calls-avg", str(calls), "--splits", "4", "--seed", "3"],
        "calls-count": ["calls-count", str(calls), "--splits", "3"],
        "wordcount": ["wordcount", str(docs), "--splits", "2"],
        "sample": ["sample", str(rows), "--method", "sort", "--n", "7",
                   "--splits", "4", "--seed", "5"],
        "kmeans": ["kmeans", str(points), "--k", "3", "--splits", "4", "--seed", "2"],
        "linreg": ["linreg", str(line), "--label", "y", "--splits", "8"],
        "logreg": ["logreg", str(logit), "--label", "y", "--step", "1.5",
                   "--iters", "30", "--splits", "4"],
        "rf": ["rf", str(blobs), "--label", "cls", "--trees", "5", "--k", "60",
               "--splits", "4", "--seed", "7"],
        "bench-io": ["bench-io", str(rows), "--iters", "4", "--splits", "3"],
    }


def test_criterion_9_cli_determinism(tmp_path, capsys, monkeypatch):
    with criterion("criterion 9 (CLI byte-stable, parallel == sequential)"):
        argvs = _write_cli_fixtures(tmp_path)
        for name, argv in argvs.items():
            monkeypatch.delenv("MRLAB_SEQUENTIAL", raising=False)
            assert cli.run(argv) == 0, name
            first = capsys.readouterr().out
            assert cli.run(argv) == 0, name
            second = capsys.readouterr().out
            monkeypatch.setenv("MRLAB_SEQUENTIAL", "1")
            assert cli.run(argv) == 0, name
            sequential = capsys.readouterr().out
            assert first == second, f"{name}: reruns differ"
            assert first == sequential, f"{name}: sequential run differs"
            json.loads(first)  # the report must stay one valid JSON object
