"""Every summing job gives the same bits at any split count.

The inputs span about 4.3 decimal orders of magnitude (entries scaled by
e^u, u uniform on [-5, 5]), so a partial rounded per split would show
in the last bits of the totals.
"""

import datetime

import numpy as np
import pytest

from mrlab.aggregates import CallLog, avg_duration_by_date
from mrlab.engine import ClusterConfig
from mrlab.kmeans import fit_kmeans
from mrlab.linmodels import DataMatrix, fit_logistic, gram_job

SPLITS = (1, 2, 3, 7, 8, 13)


def wide(rng, shape):
    return rng.normal(size=shape) * np.exp(rng.uniform(-5, 5, size=shape))


@pytest.fixture(scope="module")
def design():
    rng = np.random.default_rng(2024)
    x = wide(rng, (5000, 4))
    y = (rng.random(5000) < 0.5).astype(float)
    return DataMatrix.from_features(x, y)


def bits(*arrays) -> bytes:
    return b"".join(np.asarray(a, dtype=float).tobytes() for a in arrays)


def at_every_split_count(run):
    return [run(ClusterConfig(num_splits=s)) for s in SPLITS]


def test_gram_products_are_bitwise_equal_at_every_split_count(design):
    def run(config):
        gram, _ = gram_job(design, config)
        return bits(gram.xtx, gram.xty)

    results = at_every_split_count(run)
    assert results == [results[0]] * len(SPLITS)


def test_logistic_coefficients_are_bitwise_equal_at_every_split_count(design):
    def run(config):
        model, _ = fit_logistic(design, 0.5, 5, config=config)
        return bits(model.beta, [model.residual_norm])

    results = at_every_split_count(run)
    assert results == [results[0]] * len(SPLITS)


def test_kmeans_is_bitwise_equal_at_every_split_count():
    rng = np.random.default_rng(7)
    points = wide(rng, (2000, 2)) + np.repeat(rng.normal(scale=20, size=(4, 2)), 500, axis=0)

    def run(config):
        centers, assignments, _ = fit_kmeans(points, 4, init=points[:4], max_iters=6, config=config)
        return bits(centers.centers, [centers.objective], assignments)

    results = at_every_split_count(run)
    assert results == [results[0]] * len(SPLITS)


def test_mean_durations_are_bitwise_equal_at_every_split_count():
    rng = np.random.default_rng(11)
    n = 3000
    days = [(datetime.date(2024, 5, 1) + datetime.timedelta(days=int(d))).isoformat()
            for d in rng.integers(0, 9, n)]
    durations = np.abs(wide(rng, n)) * 60
    log = CallLog(tuple(days), ("a",) * n, ("b",) * n, tuple(durations.tolist()))
    results = at_every_split_count(lambda config: avg_duration_by_date(log, config)[0])
    assert results == [results[0]] * len(SPLITS)
