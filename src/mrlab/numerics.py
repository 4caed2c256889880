"""Small numeric helpers shared by the model jobs.

The summing jobs (Gram products, residuals, logistic gradients, k-means
centres and objective, call-log means) exchange split partials in one
format, kept here. A partial is exact: a short float expansion, K rows
whose column sums equal the block's column sums exactly, so it carries
no rounding. ``exact_sums`` builds the expansions of a block or of row
groups of a block, a mapper encodes one under a key with
``partial_sum``, and a reducer totals a group's partials with
``sum_partials``, the one column sum of the package: ``math.fsum`` over
every row of every partial, which rounds once. A total is therefore the
correctly rounded exact sum, the same bits as ``math.fsum`` of the whole
column at any split count.

A column holding a non-finite term, or a term whose magnitude is too
close to overflow for the extraction, is summed by ``math.fsum`` in the
mapper instead, so inf, nan, ``ValueError`` and ``OverflowError`` come
out as they do from ``math.fsum``.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from .encoding import f64s_row_blocks, f64s_value, parse_f64s_rows

# Rows summed together in one extraction pass. With 2**m >= rows + 2 the
# sum of a pass stays exact while rows * (rows + 2) <= 2**54, and a pass
# moves at least 53 - m >= 32 bits of every column into its row.
_MAX_ROWS = 1 << 20


def exact_sums(block, groups: Optional[np.ndarray] = None) -> tuple[np.ndarray, np.ndarray]:
    """Exact column sums of an (n, w) block, per group of rows, as float
    expansions.

    ``groups`` gives each row a non-negative integer group id; without
    it every row is in group 0. Returns (ids, expansions): the distinct
    ids in ascending order and a (G, K, w) array whose K rows for a group
    add up, exactly, to that group's column sums (rows past a column's
    last are zero).

    The rows come from error-free vector extraction (Rump, Ogita and
    Oishi, "Accurate floating-point summation, part I", 2008), with
    2**m >= (rows of the largest group) + 2; a group longer than
    ``_MAX_ROWS`` is summed as segments of that length. A pass takes, per
    group and column, mu = max |x| and sigma = 2**(exponent(mu) + m),
    splits each term into q = (sigma + x) - sigma and x - q, both exact,
    and emits the sum of the q, which is exact in any order because every
    q is a multiple of ulp(sigma) / 2 and the group's q stay below sigma
    in sum. Passes repeat until nothing is left; each shrinks mu by
    2**(53 - m) at least.
    """
    block = np.asarray(block, dtype=float)
    if block.ndim != 2 or block.shape[0] == 0:
        raise ValueError(f"exact_sums needs a non-empty 2-D block, got shape {block.shape}")
    n, w = block.shape
    if groups is None:
        ids, edges = np.zeros(1, dtype=np.int64), np.array([0, n])
        x = np.array(block.T, order="C")
    else:
        order = np.argsort(groups)
        ordered = np.asarray(groups)[order]
        edges = np.flatnonzero(np.concatenate([[True], ordered[1:] != ordered[:-1], [True]]))
        ids = ordered[edges[:-1]]
        x = np.ascontiguousarray(block.T[:, order])
    starts, lengths = edges[:-1], edges[1:] - edges[:-1]
    if lengths.max() > _MAX_ROWS:
        # Cut each group into segments of at most _MAX_ROWS rows, summed as
        # groups of their own; a group's rows are its segments' rows.
        per = -(-int(lengths.max()) // _MAX_ROWS)
        offset = np.arange(n) - np.repeat(starts, lengths)
        segment = np.repeat(np.arange(len(ids)) * per, lengths) + offset // _MAX_ROWS
        seg_ids, sums = exact_sums(x.T, segment)
        out = np.zeros((len(ids), per) + sums.shape[1:])
        out[seg_ids // per, seg_ids % per] = sums
        return ids, out.reshape(len(ids), -1, w)
    m = int(lengths.max() + 1).bit_length()

    q = np.empty_like(x)  # scratch
    mu = np.maximum.reduceat(np.abs(x, out=q), starts, axis=1)
    cols, grps = np.nonzero(~(mu < 2.0 ** (1023 - m)))  # non-finite or near overflow
    ends = starts + lengths
    fallback = [math.fsum(x[c, starts[g] : ends[g]].tolist()) for c, g in zip(cols, grps)]
    for c, g in zip(cols, grps):
        x[c, starts[g] : ends[g]] = 0.0
    mu[cols, grps] = 0.0

    rows = []
    while mu.any():
        sigma = np.ldexp(1.0, np.frexp(mu)[1] + m)
        # one group broadcasts sigma; a full copy of it would cost more
        spread = sigma if len(starts) == 1 else np.repeat(sigma, lengths, axis=1)
        np.add(spread, x, out=q)
        q -= spread
        x -= q
        rows.append(np.add.reduceat(q, starts, axis=1))
        mu = np.maximum.reduceat(np.abs(x, out=q), starts, axis=1)
    if not rows:
        rows.append(np.zeros_like(mu))
    rows[0][cols, grps] = fallback
    return ids, np.stack(rows).transpose(2, 0, 1)


def partial_sum(key: bytes, block) -> tuple[bytes, bytes]:
    """A split's partial under ``key``: the exact column sums of ``block``,
    encoded as the rows of its expansion."""
    return (key, f64s_row_blocks(exact_sums(block)[1])[0])


def sum_partials(values: Sequence[bytes]) -> np.ndarray:
    """The column sums of a group's partials: ``math.fsum`` over every
    row of every partial, column by column (``tolist`` hands fsum Python
    floats)."""
    return np.array([math.fsum(column) for column in parse_f64s_rows(values).T.tolist()])


def sum_vectors_reduce(key: bytes, values: list) -> list[tuple[bytes, bytes]]:
    """Reducer: one pair holding the total of a group's partials."""
    return [(key, f64s_value(sum_partials(values)))]


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function without overflow: exp only ever sees -|z|."""
    z = np.asarray(z, dtype=float)
    e = np.exp(-np.abs(z))
    return np.where(z >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))
