"""Simple random sampling: n of N records, three ways.

- reservoir_sample: classic single-pass reservoir, strictly sequential.
- sort_sample: an MR job; every record gets an independent uniform key
  and the n smallest keys win.
- scan_srs: single pass with known N; Bernstein-derived thresholds
  accept records with tiny keys outright, waitlist borderline ones, and
  drop the rest, keeping only O(n) candidates in memory. Succeeds with
  probability at least 1 - delta; on success the sample is a uniform
  simple random sample.

Uniform keys are derived from (seed, global record index), never from
the split layout, so skewed record placement cannot bias the draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence, Union

import numpy as np

from .encoding import f64_key, parse_u64_key, u64_key
from .engine import ClusterConfig, InputSplit, JobSpec, KeyValue, RunStats, dataset_nbytes, run_job
from .errors import ParameterError
from .rng import record_uniform, record_uniforms

SeedLike = Union[int, np.random.Generator]


def _as_generator(seed: SeedLike) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def reservoir_sample(stream, n: int, seed: SeedLike) -> list:
    """Single-pass reservoir sample of min(n, N) records.

    The first n records fill the reservoir; record i (1-based) then
    draws j uniform on [1, i] and replaces slot j when j <= n.
    """
    if n < 1:
        raise ParameterError(f"sample size must be >= 1, got {n}")
    rng = _as_generator(seed)
    reservoir: list = []
    for i, record in enumerate(stream, start=1):
        if i <= n:
            reservoir.append(record)
            continue
        j = int(rng.integers(1, i + 1))
        if j <= n:
            reservoir[j - 1] = record
    return reservoir


def sort_sample(
    dataset: Sequence,
    n: int,
    seed: int,
    config: Optional[ClusterConfig] = None,
) -> tuple[list, RunStats]:
    """MR sampling by sorting on random keys; n smallest keys win.

    Each record's key is uniform on [0,1) keyed by its global index, and
    a map task draws its split's keys as one block; the shuffle's byte
    order on (key, index) does the sort, index breaking ties.
    """
    N = len(dataset)
    if not 1 <= n <= N:
        raise ParameterError(f"need 1 <= n <= N, got n={n}, N={N}")

    def mapper(split: InputSplit) -> list[KeyValue]:
        first, last = split.origin_range
        keys = record_uniforms(seed, first, last - first + 1).tolist()
        return [KeyValue(f64_key(u) + u64_key(i), b"") for i, u in enumerate(keys, start=first)]

    def reducer(key, values):
        return [KeyValue(key, v) for v in values]

    job = JobSpec(mapper, reducer, name="sort-sample")
    output, stats = run_job(job, dataset, config or ClusterConfig(seed=seed))
    winners = [parse_u64_key(key[-8:]) for key, _ in output[:n]]
    return [dataset[i] for i in winners], stats


def bernstein_thresholds(n: int, N: int, delta: float) -> tuple[float, float]:
    """Accept/waitlist key thresholds (q1, q2) for scan_srs.

    With p = n/N, q1 is low enough that P(#{keys < q1} > n) <= delta/2
    and q2 high enough that P(#{keys < q2} < n) <= delta/2, both via
    Bernstein's inequality on the binomial candidate counts.
    """
    if not 1 <= n <= N:
        raise ParameterError(f"need 1 <= n <= N, got n={n}, N={N}")
    if not 0.0 < delta < 1.0:
        raise ParameterError(f"delta must be in (0, 1), got {delta}")
    p = n / N
    log_term = -math.log(delta / 2.0)
    g1 = log_term / N
    g2 = (2.0 / 3.0) * log_term / N
    q1 = max(0.0, p + g1 - math.sqrt(g1 * g1 + 2.0 * g1 * p))
    q2 = min(1.0, p + g2 + math.sqrt(g2 * g2 + 3.0 * g2 * p))
    return q1, q2


@dataclass
class ScanState:
    """Streaming accumulator for scan_srs.

    Records with key < q1 are accepted outright, keys in [q1, q2) are
    waitlisted with their key, keys >= q2 are dropped on the spot.
    """

    n: int
    delta: float
    q1: float
    q2: float
    accepted: list = field(default_factory=list)
    waitlist: list = field(default_factory=list)  # (key, record) pairs

    def offer(self, key: float, record) -> None:
        if key < self.q1:
            self.accepted.append((key, record))
        elif key < self.q2:
            self.waitlist.append((key, record))

    @property
    def candidate_count(self) -> int:
        return len(self.accepted) + len(self.waitlist)


@dataclass(frozen=True)
class ScanResult:
    success: bool
    sample: list
    accepted_count: int
    waitlist_count: int
    q1: float
    q2: float


def _finish_scan(state: ScanState) -> ScanResult:
    """Fill the sample to exactly n from the candidates, smallest keys first.

    Equivalent to accept-then-fill-from-sorted-waitlist whenever at most
    n records were accepted outright (the likely case by construction);
    taking the n smallest candidate keys also covers the rare overflow.
    """
    candidates = sorted(state.accepted + state.waitlist, key=lambda kr: kr[0])
    success = len(candidates) >= state.n
    chosen = candidates[: state.n] if success else candidates
    return ScanResult(
        success=success,
        sample=[record for _key, record in chosen],
        accepted_count=len(state.accepted),
        waitlist_count=len(state.waitlist),
        q1=state.q1,
        q2=state.q2,
    )


def scan_srs_stream(stream, N: int, n: int, delta: float, seed: int) -> ScanResult:
    """Reference single-record-at-a-time scan; sample holds record indices."""
    q1, q2 = bernstein_thresholds(n, N, delta)
    state = ScanState(n=n, delta=delta, q1=q1, q2=q2)
    for i, record in enumerate(stream):
        state.offer(record_uniform(seed, i), record)
    return _finish_scan(state)


def scan_srs_indices(N: int, n: int, delta: float, seed: int) -> ScanResult:
    """Vectorized scan over indices 0..N-1; bit-identical to the stream form."""
    q1, q2 = bernstein_thresholds(n, N, delta)
    keys = record_uniforms(seed, 0, N)
    accepted = keys < q1
    waitlisted = (keys >= q1) & (keys < q2)
    n_acc = int(np.count_nonzero(accepted))
    n_wait = int(np.count_nonzero(waitlisted))
    candidates = np.flatnonzero(accepted | waitlisted)
    order = np.argsort(keys[candidates], kind="stable")
    candidates = candidates[order]
    success = candidates.size >= n
    chosen = candidates[:n] if success else candidates
    return ScanResult(
        success=success,
        sample=[int(i) for i in chosen],
        accepted_count=n_acc,
        waitlist_count=n_wait,
        q1=q1,
        q2=q2,
    )


def scan_srs(dataset: Sequence, n: int, delta: float, seed: int) -> tuple[ScanResult, RunStats]:
    """Single-pass SRS of exactly n records from a dataset of known size.

    Returns a failure result (success=False, all candidates as sample)
    when fewer than n records survived the thresholds, which happens
    with probability at most delta.
    """
    N = len(dataset)
    result = scan_srs_indices(N, n, delta, seed)
    stats = RunStats(
        records_read=N,
        bytes_read=dataset_nbytes(dataset),
        records_shuffled=result.accepted_count + result.waitlist_count,
        records_written=len(result.sample),
        iterations=1,
    )
    return replace(result, sample=[dataset[i] for i in result.sample]), stats
