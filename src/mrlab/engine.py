"""Single-process MapReduce engine with deterministic shuffle semantics.

The engine mimics a small cluster on one thread: the dataset is cut into
contiguous splits, a mapper runs over each split in turn, the shuffle
groups emitted pairs by exact key bytes, and a reducer runs per group.
Outputs never depend on execution order because the shuffle applies a
canonical ordering: groups sorted by key bytes, values within a group
ordered by (split_id, emission index).

run_iterative owns the per-round read and write policy that RunStats
records: disk-backed rounds re-read the dataset and re-write state every
round, memory-resident rounds read once and keep state live.
"""

from __future__ import annotations

import numbers
from dataclasses import asdict, dataclass
from typing import Any, Callable, Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import EmptyInputError, JobExecutionError, ParameterError

DISK = "disk"
MEMORY = "memory"


class KeyValue(NamedTuple):
    """One shuffle record. Keys compare bytewise; values are opaque."""

    key: bytes
    value: bytes


Mapper = Callable[[Any], Iterable[KeyValue]]
Reducer = Callable[[bytes, list], Iterable[KeyValue]]


@dataclass(frozen=True)
class InputSplit:
    """A contiguous slice of the source dataset assigned to one mapper."""

    split_id: int
    records: tuple
    origin_range: tuple[int, int]  # (first, last) source indices, inclusive


@dataclass(frozen=True)
class JobSpec:
    """Mapper + reducer (+ optional combiner) for one MR round.

    A mapper is a pure function of its one record; randomness comes from
    ``rng.record_uniform``/``rng.substream``, keyed by record index or by
    tree, never by split. Combiners share the reducer signature and run
    per split before the shuffle; they must be idempotent with respect to
    the reducer.
    """

    mapper: Mapper
    reducer: Reducer
    combiner: Optional[Reducer] = None
    name: str = "job"


@dataclass(frozen=True)
class ClusterConfig:
    """Split count, iteration mode and base seed of a simulated cluster.

    ``parallel`` is accepted and ignored, so existing callers keep working:
    jobs always run on the calling thread, because per-record Python
    mappers and reducers hold the GIL and worker threads only added cost.
    """

    num_splits: int = 1
    iteration_mode: str = DISK
    seed: int = 0
    parallel: bool = False

    def __post_init__(self):
        if self.num_splits < 1:
            raise ParameterError(f"num_splits must be >= 1, got {self.num_splits}")
        if self.iteration_mode not in (DISK, MEMORY):
            raise ParameterError(f"iteration_mode must be 'disk' or 'memory', got {self.iteration_mode!r}")


@dataclass
class RunStats:
    """Counters of simulated cluster I/O, exported as a flat JSON object."""

    records_read: int = 0
    records_written: int = 0
    records_shuffled: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    iterations: int = 0

    def as_dict(self) -> dict[str, int]:
        return asdict(self)


def record_nbytes(record: Any) -> int:
    """Approximate serialized size of a record, for byte accounting."""
    if isinstance(record, (bytes, bytearray)):
        return len(record)
    if isinstance(record, str):
        return len(record.encode("utf-8"))
    if isinstance(record, np.ndarray):
        return record.nbytes
    if isinstance(record, (bool, numbers.Number)):
        return 8
    if isinstance(record, (tuple, list)):
        return sum(record_nbytes(r) for r in record)
    return len(repr(record).encode("utf-8"))


def partition(dataset: Sequence, num_splits: int) -> list[InputSplit]:
    """Cut the dataset into contiguous splits of near-equal size.

    Sizes differ by at most one: the first (n mod s) splits take the
    extra record. num_splits larger than the dataset is clamped.
    """
    n = len(dataset)
    if n == 0:
        raise EmptyInputError("cannot partition an empty dataset")
    if num_splits < 1:
        raise ParameterError(f"num_splits must be >= 1, got {num_splits}")
    s = min(num_splits, n)
    base, extra = divmod(n, s)
    splits = []
    start = 0
    for sid in range(s):
        size = base + (1 if sid < extra else 0)
        stop = start + size
        splits.append(InputSplit(sid, tuple(dataset[start:stop]), (start, stop - 1)))
        start = stop
    return splits


def shuffle(emitted: Sequence[Sequence[KeyValue]]) -> list[tuple[bytes, list[bytes]]]:
    """Group pairs by exact key bytes in canonical order.

    Groups come back sorted by key; values within a group keep
    (split_id, emission index) order, so the result is independent of
    the order in which map tasks physically finished.
    """
    groups: dict[bytes, list[bytes]] = {}
    for split_pairs in emitted:
        for key, value in split_pairs:
            groups.setdefault(key, []).append(value)
    return sorted(groups.items())


def _charge_write(stats: RunStats, pairs: Sequence[KeyValue]) -> None:
    """Charge writing these pairs: one record and key plus value bytes each."""
    stats.records_written += len(pairs)
    stats.bytes_written += sum(len(k) + len(v) for k, v in pairs)


def _map_split(job: JobSpec, split: InputSplit) -> list[KeyValue]:
    out: list[KeyValue] = []
    for offset, record in enumerate(split.records):
        try:
            out.extend(job.mapper(record))
        except JobExecutionError:
            raise
        except Exception as exc:
            raise JobExecutionError(
                "map", str(exc), split_id=split.split_id,
                record_index=split.origin_range[0] + offset,
            ) from exc
    return out


def _combine_split(job: JobSpec, split_id: int, pairs: list[KeyValue]) -> list[KeyValue]:
    grouped: dict[bytes, list[bytes]] = {}
    for key, value in pairs:
        grouped.setdefault(key, []).append(value)
    out: list[KeyValue] = []
    for key, values in grouped.items():
        try:
            out.extend(job.combiner(key, values))
        except JobExecutionError:
            raise
        except Exception as exc:
            raise JobExecutionError("combine", str(exc), split_id=split_id, key=key) from exc
    return out


def _reduce_group(job: JobSpec, key: bytes, values: list[bytes]) -> list[KeyValue]:
    try:
        return list(job.reducer(key, values))
    except JobExecutionError:
        raise
    except Exception as exc:
        raise JobExecutionError("reduce", str(exc), key=key) from exc


def run_job(
    job: JobSpec,
    dataset: Sequence,
    config: ClusterConfig,
    *,
    stats: Optional[RunStats] = None,
    _resident: bool = False,
) -> tuple[list[KeyValue], RunStats]:
    """Run one MR round: map over splits, shuffle, reduce.

    Accounting: reading the dataset charges records/bytes read; in disk
    mode the raw map output is materialized, charging one write per
    emitted pair; the reduce output is written. ``_resident`` is set
    only by run_iterative, which charges the dataset read and the state
    writes itself. ``iterations`` counts completed MR rounds.
    """
    if stats is None:
        stats = RunStats()
    splits = partition(dataset, config.num_splits)
    if not _resident:
        stats.records_read += len(dataset)
        stats.bytes_read += sum(record_nbytes(r) for r in dataset)

    per_split = [_map_split(job, s) for s in splits]

    if config.iteration_mode == DISK:
        for pairs in per_split:
            _charge_write(stats, pairs)

    if job.combiner is not None:
        per_split = [_combine_split(job, s.split_id, p) for s, p in zip(splits, per_split)]

    groups = shuffle(per_split)
    stats.records_shuffled += sum(len(vs) for _, vs in groups)

    output: list[KeyValue] = []
    for key, values in groups:
        output.extend(_reduce_group(job, key, values))

    if not _resident:
        _charge_write(stats, output)
    stats.iterations += 1
    return output, stats


def run_iterative(
    job_factory: Callable[[int, list[KeyValue]], JobSpec],
    initial_state: Iterable[KeyValue],
    max_iters: int,
    converged: Optional[Callable[[list[KeyValue], list[KeyValue]], bool]],
    dataset: Sequence,
    config: ClusterConfig,
) -> tuple[list[KeyValue], RunStats]:
    """Drive repeated MR rounds over one dataset with carried state.

    job_factory(iteration, state) builds the round's JobSpec from the
    current state. Disk mode re-reads the dataset and re-writes state
    every round; memory mode reads once and writes the final state only.
    Stops after max_iters rounds or as soon as converged(old, new) holds.
    """
    if max_iters < 1:
        raise ParameterError(f"max_iters must be >= 1, got {max_iters}")
    stats = RunStats()
    state = list(initial_state)
    disk = config.iteration_mode == DISK
    nbytes = sum(record_nbytes(r) for r in dataset)
    for t in range(max_iters):
        if disk or t == 0:
            stats.records_read += len(dataset)
            stats.bytes_read += nbytes
        job = job_factory(t, state)
        try:
            new_state, _ = run_job(job, dataset, config, stats=stats, _resident=True)
        except JobExecutionError as err:
            err.iteration = t
            raise
        if disk:
            _charge_write(stats, new_state)
        old_state, state = state, new_state
        if converged is not None and converged(old_state, state):
            break
    if not disk:
        _charge_write(stats, state)
    return state, stats
