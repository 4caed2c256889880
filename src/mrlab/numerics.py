"""Small numeric helpers shared by the model jobs."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .encoding import f64s_value, parse_f64s
from .engine import KeyValue


def fsum_vectors(vectors: Sequence[np.ndarray]) -> np.ndarray:
    """Column-wise exact-ish sum of equal-length float vectors.

    Uses ``math.fsum`` per component so the result does not depend on
    the order the vectors arrive in, which keeps reductions stable
    across different split layouts.
    """
    if not vectors:
        raise ValueError("fsum_vectors needs at least one vector")
    first = np.asarray(vectors[0], dtype=float)
    if len(vectors) == 1:
        return first.copy()
    stacked = np.stack([np.asarray(v, dtype=float) for v in vectors])
    return np.array([math.fsum(stacked[:, j]) for j in range(stacked.shape[1])])


def sum_vectors_reduce(key: bytes, values: list) -> list[KeyValue]:
    """Reducer/combiner: one pair holding the fsum of float-vector values."""
    return [KeyValue(key, f64s_value(fsum_vectors([parse_f64s(v) for v in values])))]


def sigmoid(z: float) -> float:
    """Numerically stable logistic function for scalars."""
    if z >= 0.0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def softplus(z: np.ndarray) -> np.ndarray:
    """log(1 + exp(z)) without overflow for large |z|."""
    z = np.asarray(z, dtype=float)
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))
