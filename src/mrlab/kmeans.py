"""Lloyd's k-means as an iterated MapReduce job.

Each round assigns every record to its nearest center (centers are
broadcast driver state, read-only during the round) and reduces
per-cluster coordinate sums into new barycenters. A map task folds its
whole split at once: it emits one (coordinate sums, count) partial per
cluster present in the split, one partial of the within-cluster squared
error, and the split's assignments as one block keyed by the index of
its first record. The round's output carries the assignment blocks and
the total objective, so fit_kmeans can report assignments and track the
objective without extra passes, and the assignment vector it decodes is
the same whatever the split layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .encoding import f64s_value, parse_f64s, u32_key, u64_key
from .engine import ClusterConfig, JobSpec, KeyValue, RunStats, run_iterative
from .errors import ParameterError
from .numerics import partial_sum, sum_partials, sum_vectors_reduce
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
    the squared distance to it; ties go to the smallest index. One
    center at a time, so the scratch space is (m, p), not (m, k, p)."""
    d2 = np.empty((block.shape[0], centers.shape[0]))
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
            block = parse_f64s(value)
            first = int.from_bytes(key[1:9], "big")
            out[first : first + block.size] = block
    return out


def _objective_from_state(state: Sequence[KeyValue]) -> float:
    for key, value in state:
        if key[:1] == _OBJECTIVE:
            return float(parse_f64s(value)[0])
    return float("inf")


def _split_mapper(centers: np.ndarray):
    def mapper(split):
        nearest, d2 = _nearest(split.records, centers)
        counted = np.column_stack([split.records, np.ones(len(nearest))])  # coordinates, then count
        out = [partial_sum(_CENTER + u32_key(c), counted[nearest == c]) for c in np.unique(nearest).tolist()]
        out.append(partial_sum(_OBJECTIVE, d2[:, None]))
        out.append(KeyValue(_ASSIGN + u64_key(split.origin_range[0]), f64s_value(nearest)))
        return out

    return mapper


def _reducer(key: bytes, values: list) -> list[KeyValue]:
    if key[:1] == _ASSIGN:  # one block per split, keyed by its first record
        return [KeyValue(key, v) for v in values]
    if key[:1] == _OBJECTIVE:
        return sum_vectors_reduce(key, values)
    merged = sum_partials(values)  # coordinate sums, then count
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
    """Iterate assign/barycenter rounds until centers stop moving.

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
        init = np.array(reservoir_sample(points, k, config.seed))
    init = np.asarray(init, dtype=float)
    if init.shape != (k, p):
        raise ParameterError(f"init must have shape {(k, p)}, got {init.shape}")

    current = {"centers": init.copy()}

    def job_factory(t: int, state: list[KeyValue]) -> JobSpec:
        centers = _centers_from_state(state, current["centers"])
        current["centers"] = centers
        return JobSpec(_split_mapper(centers), _reducer)

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
    state, stats = run_iterative(job_factory, initial_state, max_iters, converged, points, config)

    final_centers = _centers_from_state(state, current["centers"])
    result = CenterSet(final_centers, stats.iterations, _objective_from_state(state))
    return result, _assignments_from_state(state, n), stats
