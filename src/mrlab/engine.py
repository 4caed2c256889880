"""Single-process MapReduce engine with deterministic shuffle semantics.

The engine mimics a small cluster on one thread: the dataset is cut into
contiguous splits, the mapper is called once per split and returns that
split's pairs, the shuffle groups emitted pairs by exact key bytes, and a
reducer runs per group. A mapper takes a whole split, so one that sums
over its records emits one partial per split (in-mapper combining).
Outputs never depend on execution order because the shuffle applies a
canonical ordering: groups sorted by key bytes, values within a group
ordered by (split_id, emission index).

run_iterative chains rounds over one dataset and owns the per-round read
and write policy that RunStats records: disk-backed rounds re-read the
dataset and re-write their output every round, memory-resident rounds
read once and write the last output only. It cuts the splits once and
every round maps the same splits. Its caller is the driver: it reads
each round's output and builds the next round's job from it.
"""

from __future__ import annotations

import itertools
import numbers
from dataclasses import asdict, dataclass, fields
from typing import Any, Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import EmptyInputError, JobExecutionError, ParameterError

DISK = "disk"
MEMORY = "memory"


@dataclass(frozen=True)
class InputSplit:
    """A contiguous slice of the source dataset assigned to one mapper.

    ``records`` is the dataset's own slice: a view of the rows of a numpy
    array, a columnar log's sub-log, a list's sublist.
    """

    split_id: int
    records: Sequence
    origin_range: tuple[int, int]  # (first, last) source indices, inclusive


# A shuffle pair is a (key, value) tuple of bytes. Keys compare bytewise;
# values are opaque.
Mapper = Callable[[InputSplit], Iterable[tuple[bytes, bytes]]]
Reducer = Callable[[bytes, list], Iterable[tuple[bytes, bytes]]]


@dataclass(frozen=True)
class JobSpec:
    """Mapper + reducer (+ optional combiner) for one MR round.

    The mapper, the one form the engine takes, is called once per
    ``InputSplit`` and returns that split's pairs. A mapper may emit
    per-split partials, but the reduced result must not depend on where
    the split boundaries fall: every draw is a counter-based hash
    (``rng.counter_hash`` and the draws built on it) keyed by its
    coordinates, such as a record index (``origin_range[0]`` plus the
    offset in the split) or a tree node, never by split. Combiners share the reducer signature and run
    per split before the shuffle; they must be idempotent with respect to
    the reducer.
    """

    mapper: Mapper
    reducer: Reducer
    combiner: Optional[Reducer] = None


@dataclass(frozen=True)
class ClusterConfig:
    """Split count and iteration mode of a simulated cluster. Randomness
    is not the cluster's: each job that draws takes its own seed."""

    num_splits: int = 1
    iteration_mode: str = DISK

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

    A str counts its UTF-8 bytes, lone surrogates as ``text_key`` encodes
    them. Builtin types are tested before the slower ``Number`` check.
    """
    if isinstance(record, (int, float)):
        return 8
    if isinstance(record, (bytes, bytearray)):
        return len(record)
    if isinstance(record, str):
        return len(record.encode("utf-8", "surrogatepass"))
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
    over its records, taken as ``.nbytes`` for a 2-D array of rows and for
    a dataset other than an array that defines it (a columnar log and CSV
    rows size themselves), and as 8 a record when every record is exactly
    an int or a float."""
    if isinstance(dataset, np.ndarray):
        if dataset.ndim == 2:
            return dataset.nbytes
    elif hasattr(dataset, "nbytes"):
        return dataset.nbytes
    if set(map(type, dataset)) <= {int, float}:
        return 8 * len(dataset)
    return sum(map(record_nbytes, dataset))


def partition(dataset: Sequence, num_splits: int) -> list[InputSplit]:
    """Cut the dataset into contiguous splits of near-equal size.

    Sizes differ by at most one: the first (n mod s) splits take the
    extra record. num_splits larger than the dataset is clamped. Each
    split holds the dataset's own slice (a numpy array's view of its rows,
    a columnar log's sub-log, CSV rows' sub-rows, a list's sublist).
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
        splits.append(InputSplit(sid, dataset[start:stop], (start, stop - 1)))
        start = stop
    return splits


def shuffle(emitted: Sequence[Sequence[tuple[bytes, bytes]]]) -> list[tuple[bytes, list[bytes]]]:
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


def _charge_write(stats: RunStats, pairs: Sequence[tuple[bytes, bytes]]) -> None:
    """Charge writing these pairs: one record and key plus value bytes each."""
    stats.records_written += len(pairs)
    stats.bytes_written += sum(map(len, itertools.chain.from_iterable(pairs)))


def run_job(
    job: JobSpec,
    dataset: Sequence,
    config: Optional[ClusterConfig] = None,
    *,
    _splits: Optional[list[InputSplit]] = None,
) -> tuple[list[tuple[bytes, bytes]], RunStats]:
    """Run one MR round: map over splits, shuffle, reduce, on config
    (a one-split disk-mode ClusterConfig when omitted).

    Accounting: reading the dataset charges records/bytes read; in disk
    mode the raw map output is materialized, charging one write per
    emitted pair; the reduce output is written. ``_splits`` is passed
    only by run_iterative, which cuts the dataset once for all its rounds
    and charges the dataset read and the state writes itself, so run_job
    charges them only when it cuts the splits. ``iterations`` counts
    completed MR rounds. A failing mapper, combiner or reducer raises
    JobExecutionError naming its stage and the split or key it was
    working on; a JobExecutionError the job raises itself, such as one
    a mapper raises to name a record, passes on unchanged.
    """
    config = ClusterConfig() if config is None else config
    stats = RunStats()
    splits = _splits
    if splits is None:
        splits = partition(dataset, config.num_splits)
        stats.records_read += len(dataset)
        stats.bytes_read += dataset_nbytes(dataset)

    per_split: list[list[tuple[bytes, bytes]]] = []
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
        combined: list[list[tuple[bytes, bytes]]] = []
        key = None
        try:
            for split, pairs in zip(splits, per_split):
                grouped: dict[bytes, list[bytes]] = {}
                for key, value in pairs:
                    grouped.setdefault(key, []).append(value)
                out: list[tuple[bytes, bytes]] = []
                for key, values in grouped.items():
                    out.extend(job.combiner(key, values))
                combined.append(out)
        except JobExecutionError:
            raise
        except Exception as exc:
            raise JobExecutionError("combine", str(exc), split_id=split.split_id, key=key) from exc
        per_split = combined

    stats.records_shuffled += sum(map(len, per_split))  # each pair lands in one group
    groups = shuffle(per_split)

    output: list[tuple[bytes, bytes]] = []
    try:
        for key, values in groups:
            output.extend(job.reducer(key, values))
    except JobExecutionError:
        raise
    except Exception as exc:
        raise JobExecutionError("reduce", str(exc), key=key) from exc

    if _splits is None:
        _charge_write(stats, output)
    stats.iterations += 1
    return output, stats


def run_iterative(
    job_factory: Callable[[int], JobSpec],
    max_iters: int,
    converged: Optional[Callable[[list[tuple[bytes, bytes]]], bool]],
    dataset: Sequence,
    config: Optional[ClusterConfig] = None,
) -> tuple[list[tuple[bytes, bytes]], RunStats]:
    """Drive repeated MR rounds over one dataset.

    job_factory(t) builds round t's JobSpec; converged(output), when
    given, reads round t's reducer output once and stops the chain by
    returning true. The caller carries whatever the next round needs.
    The dataset is cut into splits once, and every round maps the same
    splits. Disk mode re-reads the dataset and re-writes the output every
    round; memory mode reads once and writes the last round's output only.
    Returns that last output and the summed ledger.
    """
    if max_iters < 1:
        raise ParameterError(f"max_iters must be >= 1, got {max_iters}")
    config = ClusterConfig() if config is None else config
    stats = RunStats()
    disk = config.iteration_mode == DISK
    nbytes = dataset_nbytes(dataset)
    splits = partition(dataset, config.num_splits)
    for t in range(max_iters):
        if disk or t == 0:
            stats.records_read += len(dataset)
            stats.bytes_read += nbytes
        try:
            output, round_stats = run_job(job_factory(t), dataset, config, _splits=splits)
        except JobExecutionError as err:
            err.iteration = t
            raise
        stats += round_stats
        if disk:
            _charge_write(stats, output)
        if converged is not None and converged(output):
            break
    if not disk:
        _charge_write(stats, output)
    return output, stats
