"""Lloyd's k-means as an iterated MapReduce job.

Each round maps every record to its nearest center (centers are
broadcast driver state, read-only during the round) and reduces
per-cluster coordinate sums into new barycenters. The round's output
also carries every record's assignment and the total within-cluster
squared error, so the driver can report assignments and track the
objective without extra passes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .encoding import count_value, f64s_value, parse_count, parse_f64s, u32_key, u64_key
from .engine import ClusterConfig, JobSpec, KeyValue, RunStats, run_iterative
from .errors import ParameterError
from .numerics import fsum_vectors, sum_vectors_reduce
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


def _nearest(x: np.ndarray, centers: np.ndarray) -> tuple[int, float]:
    """(index, squared distance) of the nearest center; ties go to the
    smallest index."""
    deltas = centers - x
    d2 = np.einsum("ij,ij->i", deltas, deltas)
    c = int(np.argmin(d2))
    return c, float(d2[c])


def assign(record, centers, metric: Optional[Callable] = None) -> int:
    """Index of the nearest center; ties go to the smallest index."""
    pts = centers.centers if isinstance(centers, CenterSet) else np.asarray(centers, dtype=float)
    x = np.asarray(record, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise ParameterError("centers must be a non-empty (k, p) array")
    if x.shape != (pts.shape[1],):
        raise ParameterError(f"record has dimension {x.shape}, centers have {pts.shape[1]}")
    if metric is not None:
        dists = [metric(x, c) for c in pts]
        return int(np.argmin(dists))
    return _nearest(x, pts)[0]


def recompute(groups, previous) -> np.ndarray:
    """New barycenters: per-cluster coordinate means, summed in a fixed
    order; clusters absent from groups keep their previous center."""
    prev = previous.centers if isinstance(previous, CenterSet) else np.asarray(previous, dtype=float)
    centers = prev.copy()
    for cluster, members in groups:
        if not 0 <= cluster < centers.shape[0]:
            raise ParameterError(f"cluster index {cluster} out of range")
        if len(members) == 0:
            continue
        total = fsum_vectors([np.asarray(m, dtype=float) for m in members])
        centers[cluster] = total / len(members)
    return centers


def _centers_from_state(state: Sequence[KeyValue], fallback: np.ndarray) -> np.ndarray:
    centers = fallback.copy()
    for key, value in state:
        if key[:1] == _CENTER:
            centers[int.from_bytes(key[1:5], "big")] = parse_f64s(value)
    return centers


def _assignments_from_state(state: Sequence[KeyValue], n: int) -> np.ndarray:
    out = np.full(n, -1, dtype=np.int64)
    for key, value in state:
        if key[:1] == _ASSIGN:
            out[int.from_bytes(key[1:9], "big")] = parse_count(value)
    return out


def _objective_from_state(state: Sequence[KeyValue]) -> float:
    for key, value in state:
        if key[:1] == _OBJECTIVE:
            return float(parse_f64s(value)[0])
    return float("inf")


def _dispatching_combiner(key: bytes, values: list) -> list[KeyValue]:
    if key[:1] == _ASSIGN:
        return [KeyValue(key, v) for v in values]
    return sum_vectors_reduce(key, values)


def _dispatching_reducer(key: bytes, values: list) -> list[KeyValue]:
    if key[:1] != _CENTER:
        return _dispatching_combiner(key, values)
    merged = fsum_vectors([parse_f64s(v) for v in values])  # coordinate sums, then count
    return [KeyValue(key, f64s_value(merged[:-1] / merged[-1]))]


def fit_kmeans(
    data,
    k: int,
    init=None,
    max_iters: int = 100,
    tol: float = 1e-6,
    config: Optional[ClusterConfig] = None,
    *,
    history: Optional[list] = None,
) -> tuple[CenterSet, np.ndarray, RunStats]:
    """Iterate assign/recompute rounds until centers stop moving.

    Stops when the largest center displacement (infinity norm) drops
    below tol, or after max_iters rounds. init is a (k, p) array of
    starting centers; when omitted, k records are drawn by reservoir
    sampling with the config seed. history, when given, receives
    (centers, assignments, objective) per round.
    """
    config = config or ClusterConfig()
    points = np.asarray(data, dtype=float)
    if points.ndim != 2 or points.size == 0:
        raise ParameterError("data must be a non-empty (n, p) array")
    n, p = points.shape
    if not 1 <= k <= n:
        raise ParameterError(f"need 1 <= k <= n, got k={k}, n={n}")
    if init is None:
        init = np.array(reservoir_sample(points, k, np.random.default_rng(config.seed)))
    init = np.asarray(init, dtype=float)
    if init.shape != (k, p):
        raise ParameterError(f"init must have shape {(k, p)}, got {init.shape}")

    current = {"centers": init.copy()}

    def job_factory(t: int, state: list[KeyValue]) -> JobSpec:
        centers = _centers_from_state(state, current["centers"])
        current["centers"] = centers

        def mapper(indexed):
            i, x = indexed
            c, d2 = _nearest(x, centers)
            return [
                KeyValue(_ASSIGN + u64_key(i), count_value(c)),
                KeyValue(_CENTER + u32_key(c), f64s_value(np.append(x, 1.0))),
                KeyValue(_OBJECTIVE, f64s_value([d2])),
            ]

        return JobSpec(mapper, _dispatching_reducer, combiner=_dispatching_combiner, name="kmeans")

    def converged(old_state, new_state) -> bool:
        old = _centers_from_state(old_state, current["centers"])
        new = _centers_from_state(new_state, current["centers"])
        if history is not None:
            history.append((
                new.copy(),
                _assignments_from_state(new_state, n),
                _objective_from_state(new_state),
            ))
        return float(np.max(np.abs(new - old))) < tol

    initial_state = [KeyValue(_CENTER + u32_key(c), f64s_value(init[c])) for c in range(k)]
    records = list(enumerate(points))
    state, stats = run_iterative(job_factory, initial_state, max_iters, converged, records, config)

    final_centers = _centers_from_state(state, current["centers"])
    result = CenterSet(final_centers, stats.iterations, _objective_from_state(state))
    return result, _assignments_from_state(state, n), stats
