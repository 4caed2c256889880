"""Lloyd's k-means as an iterated MapReduce job.

Each round assigns every record to its nearest center (centers are
broadcast driver state, read-only during the round) and reduces
per-cluster coordinate sums into new barycenters. A map task folds its
whole split at once: one grouped ``numerics.exact_sums`` over the rows
(coordinates, 1, squared distance) keyed by nearest center gives one
exact (coordinate sums, count) partial per cluster present in the split
and, from the rows of every cluster's squared-distance column, one
exact partial of the within-cluster squared error; it also emits the
split's assignments as one block keyed by the index of its first record.
Exact partials make the centers and the objective the same bits at any
split count. The round's output carries the assignment blocks and
the total objective, so fit_kmeans can report assignments and track the
objective without extra passes, and the assignment vector it decodes is
the same whatever the split layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .encoding import f64s_row_blocks, f64s_value, parse_f64s, parse_u32_key, parse_u64_key, u32_key, u64_key
from .engine import ClusterConfig, JobSpec, RunStats, run_iterative
from .errors import DivergenceError, ParameterError
from .numerics import exact_sums, sum_partials, sum_vectors_reduce
from .sampling import reservoir_sample

_ASSIGN = b"A"
_CENTER = b"C"
_OBJECTIVE = b"O"


@dataclass(frozen=True)
class CenterSet:
    centers: np.ndarray  # (k, p)
    iteration: int
    objective: float  # sum of squared distances at the final assignment

    @property
    def k(self) -> int:
        return self.centers.shape[0]


def _nearest(block: np.ndarray, centers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of the (m, p) block: the index of the nearest center and
    the squared distance to it, inf if it overflows; ties go to the
    smallest index. One center at a time, so the scratch space is (m, p),
    not (m, k, p)."""
    d2 = np.empty((block.shape[0], centers.shape[0]))
    with np.errstate(over="ignore"):  # fit_kmeans rejects the infinite objective
        for c, center in enumerate(centers):
            d2[:, c] = ((block - center) ** 2).sum(axis=1)
    nearest = np.argmin(d2, axis=1)
    return nearest, d2[np.arange(block.shape[0]), nearest]


def assign(record, centers) -> int:
    """Index of the nearest center; ties go to the smallest index."""
    pts = centers.centers if isinstance(centers, CenterSet) else np.asarray(centers, dtype=float)
    x = np.asarray(record, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise ParameterError("centers must be a non-empty (k, p) array")
    if x.shape != (pts.shape[1],):
        raise ParameterError(f"record has dimension {x.shape}, centers have {pts.shape[1]}")
    return int(_nearest(x[None, :], pts)[0][0])


def _read_round(
    output: Sequence[tuple[bytes, bytes]], centers: np.ndarray, n: int,
) -> tuple[np.ndarray, np.ndarray, float]:
    """A round's output as (centers, assignments, objective); a cluster
    that got no records keeps its center from ``centers``."""
    centers = centers.copy()
    assignments = np.full(n, -1, dtype=np.int64)
    objective = float("inf")
    for key, value in output:
        if key[:1] == _CENTER:
            centers[parse_u32_key(key[1:5])] = parse_f64s(value)
        elif key[:1] == _ASSIGN:
            block = parse_f64s(value)
            first = parse_u64_key(key[1:9])
            assignments[first : first + block.size] = block
        else:
            objective = float(parse_f64s(value)[0])
    return centers, assignments, objective


def _split_mapper(centers: np.ndarray):
    def mapper(split):
        nearest, d2 = _nearest(split.records, centers)
        # per cluster: coordinates, then count, then squared error
        ids, sums = exact_sums(np.column_stack([split.records, np.ones(len(nearest)), d2]), nearest)
        out = [(_CENTER + u32_key(c), v) for c, v in zip(ids.tolist(), f64s_row_blocks(sums[:, :, :-1]))]
        out.append((_OBJECTIVE, f64s_row_blocks(sums[:, :, -1].reshape(1, -1, 1))[0]))
        out.append((_ASSIGN + u64_key(split.origin_range[0]), f64s_value(nearest)))
        return out

    return mapper


def _reducer(key: bytes, values: list) -> list[tuple[bytes, bytes]]:
    if key[:1] == _ASSIGN:  # one block per split, keyed by its first record
        return [(key, v) for v in values]
    if key[:1] == _OBJECTIVE:
        return sum_vectors_reduce(key, values)
    merged = sum_partials(values)  # coordinate sums, then count
    return [(key, f64s_value(merged[:-1] / merged[-1]))]


def fit_kmeans(
    data,
    k: int,
    init=None,
    max_iters: int = 100,
    tol: float = 1e-6,
    config: Optional[ClusterConfig] = None,
    *,
    seed: int = 0,
    history: Optional[list] = None,
) -> tuple[CenterSet, np.ndarray, RunStats]:
    """Iterate assign/barycenter rounds until centers stop moving.

    Stops when the largest center displacement (infinity norm) drops
    below tol, or after max_iters rounds. init is a (k, p) array of
    starting centers; when omitted, k records are drawn by reservoir
    sampling under seed. The driver reads each round's output once and
    builds the next round from the centers it read. history, when
    given, receives (centers, assignments, objective) per round. An
    objective that is not finite (squared distances that overflow)
    raises DivergenceError naming the round.
    """
    points = np.asarray(data, dtype=float)
    if points.ndim != 2 or points.size == 0:
        raise ParameterError("data must be a non-empty (n, p) array")
    n, p = points.shape
    if not 1 <= k <= n:
        raise ParameterError(f"need 1 <= k <= n, got k={k}, n={n}")
    if init is None:
        init = np.array(reservoir_sample(points, k, seed))
    centers = np.asarray(init, dtype=float)
    if centers.shape != (k, p):
        raise ParameterError(f"init must have shape {(k, p)}, got {centers.shape}")
    assignments, objective = None, None  # every round sets them
    rounds = 0

    def job_factory(t: int) -> JobSpec:
        return JobSpec(_split_mapper(centers), _reducer)

    def converged(output) -> bool:
        nonlocal centers, assignments, objective, rounds
        rounds += 1
        old = centers
        centers, assignments, objective = _read_round(output, old, n)
        if not math.isfinite(objective):
            raise DivergenceError(rounds, f"objective is {objective} at iteration {rounds}")
        if history is not None:
            history.append((centers.copy(), assignments, objective))
        return float(np.max(np.abs(centers - old))) < tol

    _output, stats = run_iterative(job_factory, max_iters, converged, points, config)
    return CenterSet(centers, stats.iterations, objective), assignments, stats
