"""Single-process MapReduce engine with deterministic shuffle semantics.

The engine mimics a small cluster on one thread: the dataset is cut into
contiguous splits, the mapper is called once per split and returns that
split's pairs, the shuffle groups emitted pairs by exact key bytes, and a
reducer runs per group. A mapper that sums over its records can emit one
partial per split (in-mapper combining); ``per_record`` lifts a function
of one record into a mapper for the jobs that work a record at a time.
Outputs never depend on execution order because the shuffle applies a
canonical ordering: groups sorted by key bytes, values within a group
ordered by (split_id, emission index).

run_iterative owns the per-round read and write policy that RunStats
records: disk-backed rounds re-read the dataset and re-write state every
round, memory-resident rounds read once and keep state live.
"""

from __future__ import annotations

import numbers
from dataclasses import asdict, dataclass, fields
from typing import Any, Callable, Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import EmptyInputError, JobExecutionError, ParameterError

DISK = "disk"
MEMORY = "memory"


class KeyValue(NamedTuple):
    """One shuffle record. Keys compare bytewise; values are opaque."""

    key: bytes
    value: bytes


@dataclass(frozen=True)
class InputSplit:
    """A contiguous slice of the source dataset assigned to one mapper.

    ``records`` is a view of the rows when the dataset is a numpy array,
    else a tuple of the records.
    """

    split_id: int
    records: tuple | np.ndarray
    origin_range: tuple[int, int]  # (first, last) source indices, inclusive


Mapper = Callable[[InputSplit], Iterable[KeyValue]]
Reducer = Callable[[bytes, list], Iterable[KeyValue]]


@dataclass(frozen=True)
class JobSpec:
    """Mapper + reducer (+ optional combiner) for one MR round.

    The mapper takes one ``InputSplit`` and returns that split's pairs;
    wrap a function of one record in ``per_record``. A mapper may emit
    per-split partials, but the reduced result must not depend on where
    the split boundaries fall: every draw is a counter-based uniform
    (``rng.record_uniform``/``rng.record_uniforms``) keyed by its
    coordinates, such as a record index (``origin_range[0]`` plus the
    offset in the split) or a tree node, never by split. Combiners
    share the reducer signature and run per split before the shuffle;
    they must be idempotent with respect to the reducer.
    """

    mapper: Mapper
    reducer: Reducer
    combiner: Optional[Reducer] = None


@dataclass(frozen=True)
class ClusterConfig:
    """Split count, iteration mode and base seed of a simulated cluster."""

    num_splits: int = 1
    iteration_mode: str = DISK
    seed: int = 0

    def __post_init__(self):
        if self.num_splits < 1:
            raise ParameterError(f"num_splits must be >= 1, got {self.num_splits}")
        if self.iteration_mode not in (DISK, MEMORY):
            raise ParameterError(f"iteration_mode must be 'disk' or 'memory', got {self.iteration_mode!r}")


@dataclass
class RunStats:
    """Counters of simulated cluster I/O, exported as a flat JSON object.

    Ledgers add field by field: a job of several rounds reports their sum.
    """

    records_read: int = 0
    records_written: int = 0
    records_shuffled: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    iterations: int = 0

    def as_dict(self) -> dict[str, int]:
        return asdict(self)

    def __add__(self, other: "RunStats") -> "RunStats":
        return RunStats(*(getattr(self, f.name) + getattr(other, f.name) for f in fields(self)))


def record_nbytes(record: Any) -> int:
    """Bytes charged for reading a record; other types give their own ``nbytes``.

    Builtin types are tested before the far slower ``numbers.Number`` check.
    """
    if isinstance(record, (int, float)):
        return 8
    if isinstance(record, (bytes, bytearray)):
        return len(record)
    if isinstance(record, str):
        return len(record.encode("utf-8"))
    if isinstance(record, (tuple, list)):
        return sum(map(record_nbytes, record))
    if isinstance(record, numbers.Number):
        return 8
    try:
        return record.nbytes
    except AttributeError:
        raise TypeError(f"cannot size a record of type {type(record).__name__}") from None


def dataset_nbytes(dataset: Sequence) -> int:
    """Bytes charged for reading a dataset: the sum of ``record_nbytes``
    over its records, taken as ``.nbytes`` for a 2-D array of rows and as
    8 a record when every record is exactly an int or a float."""
    if isinstance(dataset, np.ndarray) and dataset.ndim == 2:
        return dataset.nbytes
    if set(map(type, dataset)) <= {int, float}:
        return 8 * len(dataset)
    return sum(map(record_nbytes, dataset))


def partition(dataset: Sequence, num_splits: int) -> list[InputSplit]:
    """Cut the dataset into contiguous splits of near-equal size.

    Sizes differ by at most one: the first (n mod s) splits take the
    extra record. num_splits larger than the dataset is clamped. A numpy
    dataset is split into views of its rows; any other sequence into
    tuples.
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
        rows = dataset[start:stop]
        if not isinstance(rows, np.ndarray):
            rows = tuple(rows)
        splits.append(InputSplit(sid, rows, (start, stop - 1)))
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


def per_record(fn: Callable[[Any], Iterable[KeyValue]]) -> Mapper:
    """A mapper that calls fn on each record of its split in order and
    concatenates the pairs; a failure names the record's global index."""

    def mapper(split: InputSplit) -> list[KeyValue]:
        out: list[KeyValue] = []
        for offset, record in enumerate(split.records):
            try:
                out.extend(fn(record))
            except JobExecutionError:
                raise
            except Exception as exc:
                raise JobExecutionError(
                    "map", str(exc), split_id=split.split_id,
                    record_index=split.origin_range[0] + offset,
                ) from exc
        return out

    return mapper


def run_job(
    job: JobSpec,
    dataset: Sequence,
    config: ClusterConfig,
    *,
    _resident: bool = False,
) -> tuple[list[KeyValue], RunStats]:
    """Run one MR round: map over splits, shuffle, reduce.

    Accounting: reading the dataset charges records/bytes read; in disk
    mode the raw map output is materialized, charging one write per
    emitted pair; the reduce output is written. ``_resident`` is set
    only by run_iterative, which charges the dataset read and the state
    writes itself. ``iterations`` counts completed MR rounds. A failing
    mapper, combiner or reducer raises JobExecutionError naming its
    stage and the split or key it was working on.
    """
    stats = RunStats()
    splits = partition(dataset, config.num_splits)
    if not _resident:
        stats.records_read += len(dataset)
        stats.bytes_read += dataset_nbytes(dataset)

    per_split: list[list[KeyValue]] = []
    try:
        for split in splits:
            per_split.append(list(job.mapper(split)))
    except JobExecutionError:
        raise
    except Exception as exc:
        raise JobExecutionError("map", str(exc), split_id=split.split_id) from exc

    if config.iteration_mode == DISK:
        for pairs in per_split:
            _charge_write(stats, pairs)

    if job.combiner is not None:
        combined: list[list[KeyValue]] = []
        key = None
        try:
            for split, pairs in zip(splits, per_split):
                grouped: dict[bytes, list[bytes]] = {}
                for key, value in pairs:
                    grouped.setdefault(key, []).append(value)
                out: list[KeyValue] = []
                for key, values in grouped.items():
                    out.extend(job.combiner(key, values))
                combined.append(out)
        except JobExecutionError:
            raise
        except Exception as exc:
            raise JobExecutionError("combine", str(exc), split_id=split.split_id, key=key) from exc
        per_split = combined

    groups = shuffle(per_split)
    stats.records_shuffled += sum(len(vs) for _, vs in groups)

    output: list[KeyValue] = []
    try:
        for key, values in groups:
            output.extend(job.reducer(key, values))
    except JobExecutionError:
        raise
    except Exception as exc:
        raise JobExecutionError("reduce", str(exc), key=key) from exc

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
    nbytes = dataset_nbytes(dataset)
    for t in range(max_iters):
        if disk or t == 0:
            stats.records_read += len(dataset)
            stats.bytes_read += nbytes
        job = job_factory(t, state)
        try:
            new_state, round_stats = run_job(job, dataset, config, _resident=True)
        except JobExecutionError as err:
            err.iteration = t
            raise
        stats += round_stats
        if disk:
            _charge_write(stats, new_state)
        old_state, state = state, new_state
        if converged is not None and converged(old_state, state):
            break
    if not disk:
        _charge_write(stats, state)
    return state, stats
