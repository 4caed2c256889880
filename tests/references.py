"""Reference forms that the tests check the library against.

The library keeps one form of each draw rule, over arrays; the draws here
are the same rules written one value at a time, in plain Python integers
and floats. So is the k-means squared distance. The logistic objective is
here because only tests evaluate it.
"""

from __future__ import annotations

import bisect

import numpy as np

from mrlab.forest import _poisson_cdf

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
MIX1 = 0xBF58476D1CE4E5B9
MIX2 = 0x94D049BB133111EB


def splitmix64(x: int) -> int:
    """One splitmix64 finalizer round (Steele/Lea/Flood mixing constants)."""
    x = (x + GAMMA) & MASK64
    x ^= x >> 30
    x = (x * MIX1) & MASK64
    x ^= x >> 27
    x = (x * MIX2) & MASK64
    x ^= x >> 31
    return x


def counter_hash(key: int, counter: int) -> int:
    """splitmix64(splitmix64(key) ^ counter), both taken mod 2**64."""
    return splitmix64(splitmix64(key & MASK64) ^ (counter & MASK64))


def record_uniform(key: int, counter: int) -> float:
    """Uniform on [0, 1) at (key, counter): the top 53 bits of the hash
    times 2**-53."""
    return (counter_hash(key, counter) >> 11) * 2.0**-53


def softplus(z: np.ndarray) -> np.ndarray:
    """log(1 + exp(z)) without overflow for large |z|."""
    z = np.asarray(z, dtype=float)
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


def negative_log_likelihood(data, beta: np.ndarray) -> float:
    """Unnormalized logistic NLL of a ``DataMatrix``, overflow-free via softplus."""
    z = data.x @ np.asarray(beta, dtype=float)
    return float(np.sum(softplus(z) - data.y * z))


def poisson_counts(seed: int, record_index: int, trees: int, rate: float) -> np.ndarray:
    """Replication counts of one record across all trees: tree j's count
    is the inverse Poisson CDF of the uniform at (key of tree j, record)."""
    cdf = _poisson_cdf(rate)
    return np.array(
        [bisect.bisect_right(cdf, record_uniform(counter_hash(seed, j), record_index))
         for j in range(trees)],
        dtype=np.int64,
    )


def reservoir_sample(stream, n: int, seed) -> list:
    """The sequential reservoir: the first n records fill it, and record i
    (1-based) then makes one scalar draw j uniform on [1, i] and replaces
    slot j when j <= n."""
    rng = np.random.default_rng(seed)
    reservoir: list = []
    for i, record in enumerate(stream, start=1):
        if i <= n:
            reservoir.append(record)
            continue
        j = int(rng.integers(1, i + 1))
        if j <= n:
            reservoir[j - 1] = record
    return reservoir


def column_order_d2(block, centers) -> np.ndarray:
    """(m, k) squared distances: for each row and center, the squared
    coordinate differences added one float at a time, in column order."""
    rows = np.asarray(block, dtype=float).tolist()
    centers = np.asarray(centers, dtype=float).tolist()
    out = np.empty((len(rows), len(centers)))
    for r, row in enumerate(rows):
        for c, center in enumerate(centers):
            total = 0.0
            for x, y in zip(row, center):
                total += (x - y) * (x - y)
            out[r, c] = total
    return out
