"""Simple random sampling: n of N records, three ways.

- reservoir_sample: classic single-pass reservoir, strictly sequential.
  It reads the stream once, in blocks, and draws each block's
  replacement slots in one call from the same Generator stream that one
  draw per record would read.
- sort_sample: an MR job; every record gets an independent uniform key
  and the n smallest keys win.
- scan_srs: the sort job cut at q2. Bernstein-derived thresholds
  (q1, q2) bracket the key of the n-th smallest: map tasks emit only
  the records keyed below q2, O(n) candidates, and the n smallest keys
  win again. Keys below q1 count as accepted outright, the rest of the
  candidates as waitlisted. Succeeds with probability at least
  1 - delta; on success the sample is a uniform simple random sample.

Keys are derived from (seed, global record index), never from the split
layout, so skewed record placement cannot bias the draw. A shuffle key is
the record's 53-bit integer draw d, its uniform u = d * 2**-53 held
exactly, followed by the index that breaks ties.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from itertools import islice
from typing import Optional, Sequence, Union

import numpy as np

from .encoding import parse_u64_key, u64_key
from .engine import ClusterConfig, InputSplit, JobSpec, RunStats, run_job
from .errors import ParameterError
from .rng import record_draws

SeedLike = Union[int, "np.random.Generator"]  # a string, so importing loads no numpy.random


_RESERVOIR_BLOCK = 4096  # records read, and slots drawn in one call, at a time


def reservoir_sample(stream, n: int, seed: SeedLike) -> list:
    """Single-pass reservoir sample of min(n, N) records.

    The first n records fill the reservoir; record i (1-based) then
    draws j uniform on [1, i] and replaces slot j when j <= n. The rest
    of the stream is read in blocks, and a block's draws are one
    ``rng.integers`` call with one bound per record: numpy reads the
    same 32-bit stream for an array of bounds as for each bound in turn,
    so the sample, and the state a passed Generator is left in, are
    those of one scalar draw per record. No draw is made past the end
    of the stream.
    """
    if n < 1:
        raise ParameterError(f"sample size must be >= 1, got {n}")
    rng = np.random.default_rng(seed)  # a Generator comes back as it is
    records = iter(stream)
    reservoir = list(islice(records, n))
    seen = len(reservoir)
    while block := list(islice(records, _RESERVOIR_BLOCK)):
        j = rng.integers(1, np.arange(seen + 2, seen + len(block) + 2))
        for b in np.flatnonzero(j <= n).tolist():
            reservoir[j[b] - 1] = block[b]
        seen += len(block)
    return reservoir


def _smallest_keys(
    dataset: Sequence, seed: int, cut: float, config: Optional[ClusterConfig],
) -> tuple[list[tuple[bytes, bytes]], RunStats]:
    """The MR job both samplers run: records keyed below cut, smallest first.

    Each record's draw d is a 53-bit integer keyed by its global index
    i. A map task draws its split's block at once and emits
    u64_key(d) + u64_key(i) for each d below ceil(cut * 2**53), all of them
    cut from one big-endian buffer and in key order, as a map-side sort
    leaves them; the shuffle's byte order on (draw, index) then merges
    the splits' sorted runs, index breaking ties.
    """
    limit = math.ceil(cut * 2**53)  # d * 2**-53 < cut exactly when d < limit

    def mapper(split: InputSplit) -> list[tuple[bytes, bytes]]:
        first, last = split.origin_range
        d = record_draws(seed, first, last - first + 1)
        kept = np.flatnonzero(d < limit)
        kept = kept[np.argsort(d[kept], kind="stable")]
        keys = np.column_stack([d[kept], (kept + first).astype(np.uint64)]).astype(">u8").tobytes()
        return [(keys[j:j + 16], b"") for j in range(0, len(keys), 16)]

    def reducer(key, values):
        return [(key, v) for v in values]

    return run_job(JobSpec(mapper, reducer), dataset, config)


def sort_sample(
    dataset: Sequence,
    n: int,
    seed: int,
    config: Optional[ClusterConfig] = None,
) -> tuple[list, RunStats]:
    """MR sampling by sorting on random keys; n smallest keys win.

    Runs the smallest-keys job with a cut of 1.0, which keeps every record.
    """
    N = len(dataset)
    if not 1 <= n <= N:
        raise ParameterError(f"need 1 <= n <= N, got n={n}, N={N}")
    output, stats = _smallest_keys(dataset, seed, 1.0, config)
    return [dataset[parse_u64_key(key[-8:])] for key, _ in output[:n]], stats


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


@dataclass(frozen=True)
class ScanResult:
    success: bool
    sample: list
    accepted_count: int
    waitlist_count: int
    q1: float
    q2: float


def scan_srs(
    dataset: Sequence,
    n: int,
    delta: float,
    seed: int,
    config: Optional[ClusterConfig] = None,
) -> tuple[ScanResult, RunStats]:
    """Single-pass SRS of exactly n records from a dataset of known size.

    Runs the smallest-keys job cut at q2 and keeps the n smallest
    candidates, the same n records sort_sample picks whenever it
    succeeds. Returns a failure result (success=False, all candidates as
    sample) when fewer than n records survived the cut, which happens
    with probability at most delta.
    """
    q1, q2 = bernstein_thresholds(n, len(dataset), delta)
    output, stats = _smallest_keys(dataset, seed, q2, config)
    # the output is sorted by key, so the accepted keys (u < q1, that is
    # d < ceil(q1 * 2**53)) come first
    accepted = bisect.bisect_left(output, (u64_key(math.ceil(q1 * 2**53)),))
    result = ScanResult(
        success=len(output) >= n,
        sample=[dataset[parse_u64_key(key[-8:])] for key, _ in output[:n]],
        accepted_count=accepted,
        waitlist_count=len(output) - accepted,
        q1=q1,
        q2=q2,
    )
    return result, stats
