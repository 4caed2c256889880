"""Small numeric helpers shared by the model jobs.

The summing jobs (Gram products, residuals, logistic gradients, k-means
centres and objective, call-log means) exchange split partials in one
format, kept here: a mapper encodes the column sums of its block with
``partial_sum``, and a reducer totals a group's partials with
``sum_partials``. Both sum with ``fsum_vectors``.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .encoding import f64s_value, parse_f64s_rows
from .engine import KeyValue


def fsum_vectors(block) -> np.ndarray:
    """Column sums of a 2-D block (or a list of equal-length vectors).

    Each column is summed with ``math.fsum``: correctly rounded, so the
    result does not depend on the order of the rows, and a split mapper's
    partial and the reducer's sum of partials each round once. Columns
    go through ``tolist`` so that fsum reads Python floats.
    """
    block = np.asarray(block, dtype=float)
    if block.ndim != 2 or block.shape[0] == 0:
        raise ValueError(f"fsum_vectors needs a non-empty 2-D block, got shape {block.shape}")
    return np.array([math.fsum(column) for column in block.T.tolist()])


def partial_sum(key: bytes, block) -> KeyValue:
    """A split's partial under ``key``: the column sums of ``block``, encoded."""
    return KeyValue(key, f64s_value(fsum_vectors(block)))


def sum_partials(values: Sequence[bytes]) -> np.ndarray:
    """The column sums of a group's ``partial_sum`` values."""
    return fsum_vectors(parse_f64s_rows(values))


def sum_vectors_reduce(key: bytes, values: list) -> list[KeyValue]:
    """Reducer: one pair holding the total of a group's partials."""
    return [KeyValue(key, f64s_value(sum_partials(values)))]


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function without overflow: exp only ever sees -|z|."""
    z = np.asarray(z, dtype=float)
    e = np.exp(-np.abs(z))
    return np.where(z >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


def softplus(z: np.ndarray) -> np.ndarray:
    """log(1 + exp(z)) without overflow for large |z|."""
    z = np.asarray(z, dtype=float)
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))
