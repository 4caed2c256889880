"""Outside-in tracing of mrlab's layers.

``Recorder.installed()`` replaces every public function of the traced
modules by a timing wrapper, in each module that holds a reference to it:
where it is imported as well as where it is defined, because ``from .engine
import run_job`` binds a name the defining module cannot reach. Outside the
``with`` block the program runs untouched.

Two kinds of wrapper keep the overhead in proportion to the call rate:

- functions called a bounded number of times per job (readers, ``fit_*``,
  ``run_job``, ``run_iterative``, ``shuffle``, tree growth) record a span
  with name, start, end, parent and job id;
- everything else (encoders, sums, RNG, the byte walk), and the mapper,
  combiner and reducer callables that the wrapped ``run_job`` puts into the
  ``JobSpec``, only add to per-thread busy time and call counts.

Mappers and reducers run on pool threads, so each thread keeps its own
tally and nothing shared is updated without the lock. A span's self time
is its duration minus the union, in wall time, of its children's
intervals: children on two pool threads overlap, so their sum can exceed
the parent's span.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import inspect
import itertools
import json
import statistics
import threading
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

MODULES = ("cli", "dataio", "engine", "encoding", "numerics", "rng",
           "aggregates", "linmodels", "kmeans", "forest")

SPANS = frozenset({
    "cli.run",
    "dataio.read_lines", "dataio.read_csv_rows", "dataio.read_matrix",
    "dataio.read_table", "dataio.write_csv_rows",
    "aggregates.read_call_csv", "aggregates.avg_duration_by_date",
    "aggregates.calls_per_date_number", "aggregates.word_count",
    "linmodels.gram_job", "linmodels.solve_normal_equations", "linmodels.fit_linear",
    "linmodels.logistic_gradient_job", "linmodels.fit_logistic",
    "kmeans.fit_kmeans", "kmeans.recompute",
    "forest.fit_forest", "forest.train_tree_reduce", "forest.tree_to_bytes",
    "forest.tree_from_bytes",
    "engine.run_job", "engine.run_iterative", "engine.shuffle",
})

# Busy intervals kept per call, because they are the children of a
# run_job span: the engine's own work is what they leave uncovered.
_RUN_JOB_CHILDREN = ("engine.map", "engine.combine", "engine.reduce", "engine.record_nbytes")

# The per-layer metrics of one traced job, in BENCHMARK.json order.
LAYER_METRICS = (
    ("engine.record_nbytes.s", "s"),
    ("engine.map.busy_s", "s"),
    ("engine.map.window_s", "s"),
    ("engine.combine.busy_s", "s"),
    ("numerics.fsum_vectors.busy_s", "s"),
    ("encoding.busy_s", "s"),
    ("encoding.calls", "count"),
    ("engine.shuffle.s", "s"),
    ("engine.reduce.busy_s", "s"),
    ("engine.reduce.window_s", "s"),
    ("engine.groups", "count"),
    ("engine.self_s", "s"),
    ("engine.run_iterative.self_s", "s"),
    ("engine.round.p50_s", "s"),
    ("engine.round0_s", "s"),
    ("rng.substream.calls", "count"),
    ("forest.poisson_counts.busy_s", "s"),
    ("forest.train_tree_reduce.busy_s", "s"),
    ("forest.tree_to_bytes.s", "s"),
    ("dataio.read_s", "s"),
    ("aggregates.read_call_csv_s", "s"),
    ("cli.self_s", "s"),
    ("engine.map.pairs", "count"),
    ("engine.shuffle.bytes", "bytes"),
    ("engine.combine_ratio", "ratio"),
)


def union_length(starts, ends, lo: float, hi: float) -> float:
    """Wall time inside [lo, hi] covered by at least one interval."""
    s = np.clip(np.asarray(starts, dtype=float), lo, hi)
    e = np.clip(np.asarray(ends, dtype=float), lo, hi)
    if s.size == 0:
        return 0.0
    order = np.argsort(s, kind="stable")
    s = s[order]
    reach = np.maximum.accumulate(e[order])
    opens = np.flatnonzero(np.r_[True, s[1:] > reach[:-1]])
    closes = np.r_[opens[1:] - 1, s.size - 1]
    return float(np.sum(reach[closes] - s[opens]))


@dataclasses.dataclass
class Span:
    id: int
    name: str
    start: float
    parent: "Span | None"
    job: int
    thread: int
    end: float = 0.0
    self_s: float = 0.0
    children: list = dataclasses.field(default_factory=list)  # (start, end) pairs

    @property
    def duration(self) -> float:
        return self.end - self.start


class _Tally:
    """One thread's counters for the current job."""

    def __init__(self):
        self.thread = threading.current_thread()
        self.reset()

    def reset(self) -> None:
        self.busy = defaultdict(float)
        self.calls = defaultdict(int)
        self.depth = 0  # inside engine.record_nbytes, which recurses
        self.intervals = defaultdict(lambda: array("d"))  # flat start, end pairs


class Recorder:
    """Collects spans and per-thread tallies while installed; one job at a time."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()  # tally, per thread
        self._stacks = threading.local()  # open spans, per thread
        self._ids = itertools.count()
        self._tallies: list = []
        self._root: list = []  # span stack of the thread that runs the job
        self._job_start = 0  # index in spans of the current job's first span
        self.job = -1
        self.spans: list = []
        self.jobs: list = []  # per-job metric dicts, in job order

    # -- per-thread state ---------------------------------------------------

    def _tally(self) -> _Tally:
        try:
            return self._local.tally
        except AttributeError:
            tally = self._local.tally = _Tally()
            with self._lock:
                self._tallies.append(tally)
            return tally

    def _stack(self) -> list:
        stack = getattr(self._stacks, "stack", None)
        if stack is None:
            stack = self._stacks.stack = []
        return stack

    def _open(self, name: str) -> Span:
        stack = self._stack()
        if stack is self._root and not stack and name == "cli.run":
            self._begin_job()
        parent = stack[-1] if stack else (self._root[-1] if self._root else None)
        with self._lock:
            span = Span(next(self._ids), name, 0.0, parent, self.job, threading.get_ident())
        stack.append(span)
        span.start = perf_counter()
        return span

    def _close(self, span: Span, starts=(), ends=()) -> None:
        span.end = perf_counter()
        self._stack().pop()
        starts = np.r_[[c[0] for c in span.children], starts]
        ends = np.r_[[c[1] for c in span.children], ends]
        span.self_s = span.duration - union_length(starts, ends, span.start, span.end)
        with self._lock:
            self.spans.append(span)
            if span.parent is not None:
                span.parent.children.append((span.start, span.end))
        if span.parent is None and span.name == "cli.run":
            self.jobs.append(self._job_metrics(span))

    def _begin_job(self) -> None:
        self.job += 1
        with self._lock:
            self._tallies = [t for t in self._tallies if t.thread.is_alive()]
            for tally in self._tallies:
                tally.reset()
        self._job_start = len(self.spans)

    # -- wrappers ------------------------------------------------------------

    def _span_wrapper(self, name: str, fn):
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)

        return traced

    def _counter_wrapper(self, name: str, fn):
        local, new_tally = self._local, self._tally

        def counted(*args, **kwargs):
            tally = getattr(local, "tally", None) or new_tally()
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tally.busy[name] += perf_counter() - t0
                tally.calls[name] += 1

        return counted

    def _outermost_wrapper(self, name: str, fn):
        """Times only the outermost call of a recursive function, and keeps
        its intervals, which are children of the enclosing run_job span."""

        local, new_tally = self._local, self._tally

        def counted(*args, **kwargs):
            tally = getattr(local, "tally", None) or new_tally()
            if tally.depth:
                return fn(*args, **kwargs)
            tally.depth = 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tally.depth = 0
                tally.busy[name] += t1 - t0
                tally.calls[name] += 1
                tally.intervals[name].extend((t0, t1))

        return counted

    def _timed_callable(self, name: str, fn, pairs: str | None = None):
        """A mapper, combiner or reducer that records its busy interval."""

        local, new_tally = self._local, self._tally

        def timed(*args):
            tally = getattr(local, "tally", None) or new_tally()
            t0 = perf_counter()
            out = list(fn(*args))
            t1 = perf_counter()
            tally.busy[name] += t1 - t0
            tally.calls[name] += 1
            tally.intervals[name].extend((t0, t1))
            if pairs is not None:
                tally.calls[pairs] += len(out)
            return out

        return timed

    def _run_job_wrapper(self, fn):
        def traced_run_job(job, *args, **kwargs):
            timed = dataclasses.replace(
                job,
                mapper=self._timed_callable("engine.map", job.mapper, "engine.map.pairs"),
                reducer=self._timed_callable("engine.reduce", job.reducer),
                combiner=(None if job.combiner is None
                          else self._timed_callable("engine.combine", job.combiner)),
            )
            span = self._open("engine.run_job")
            try:
                return fn(timed, *args, **kwargs)
            finally:
                starts, ends = self._take_intervals()
                self._close(span, starts, ends)

        return traced_run_job

    def _take_intervals(self):
        """Drain the child intervals of the run_job that just ended.

        Its pools have been joined, so no thread is still adding to them.
        """
        main = self._tally()
        starts, ends = [], []
        with self._lock:
            tallies = list(self._tallies)
        for name in _RUN_JOB_CHILDREN:
            flat = np.concatenate([np.frombuffer(t.intervals.pop(name), dtype=float)
                                   for t in tallies if name in t.intervals] or [np.empty(0)])
            if flat.size and name in ("engine.map", "engine.reduce"):
                main.busy[name + ".window"] += float(flat[1::2].max() - flat[0::2].min())
            starts.append(flat[0::2])
            ends.append(flat[1::2])
        return np.concatenate(starts), np.concatenate(ends)

    def _shuffle_wrapper(self, fn):
        def traced_shuffle(emitted):
            tally = self._tally()
            tally.calls["engine.shuffle.pairs"] += sum(len(p) for p in emitted)
            tally.calls["engine.shuffle.bytes"] += sum(len(k) + len(v) for p in emitted for k, v in p)
            span = self._open("engine.shuffle")
            try:
                groups = fn(emitted)
            finally:
                self._close(span)
            tally.calls["engine.groups"] += len(groups)
            tally.calls["engine.shuffle.grouped"] += sum(len(vs) for _, vs in groups)
            return groups

        return traced_shuffle

    def _wrap(self, name: str, fn):
        if name == "engine.run_job":
            return self._run_job_wrapper(fn)
        if name == "engine.shuffle":
            return self._shuffle_wrapper(fn)
        if name == "engine.record_nbytes":
            return self._outermost_wrapper(name, fn)
        if name in SPANS:
            return self._span_wrapper(name, fn)
        return self._counter_wrapper(name, fn)

    @contextlib.contextmanager
    def installed(self):
        """Patch every traced function in every module that binds it."""
        self._stacks.stack = self._root
        modules = [importlib.import_module(f"mrlab.{m}") for m in MODULES]
        traced = {f"mrlab.{m}" for m in MODULES}
        wrappers: dict = {}
        saved = []
        for module in modules:
            for attr, value in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(value)
                        or value.__module__ not in traced):
                    continue
                if id(value) not in wrappers:
                    name = f"{value.__module__.removeprefix('mrlab.')}.{value.__name__}"
                    wrappers[id(value)] = self._wrap(name, value)
                saved.append((module, attr, value))
                setattr(module, attr, wrappers[id(value)])
        try:
            yield self
        finally:
            for module, attr, value in reversed(saved):
                setattr(module, attr, value)

    # -- results ------------------------------------------------------------

    def _job_metrics(self, job_span: Span) -> dict:
        busy: defaultdict = defaultdict(float)
        calls: defaultdict = defaultdict(int)
        with self._lock:
            tallies = list(self._tallies)
            spans = self.spans[self._job_start:]
        for tally in tallies:
            for name, value in tally.busy.items():
                busy[name] += value
            for name, value in tally.calls.items():
                calls[name] += value
        by_name = defaultdict(list)
        for span in spans:
            by_name[span.name].append(span)

        def total(name: str) -> float:
            return sum(s.duration for s in by_name[name])

        rounds = [s.duration for s in sorted(by_name["engine.run_job"], key=lambda s: s.start)
                  if s.parent is not None and s.parent.name == "engine.run_iterative"]
        reads = [s for s in spans if s.name.startswith("dataio.read")
                 and not (s.parent is not None and s.parent.name.startswith("dataio."))]
        encoding = [n for n in busy if n.startswith("encoding.")]
        pairs = calls["engine.map.pairs"]
        return {
            "engine.record_nbytes.s": busy["engine.record_nbytes"],
            "engine.map.busy_s": busy["engine.map"],
            "engine.map.window_s": busy["engine.map.window"],
            "engine.combine.busy_s": busy["engine.combine"],
            "numerics.fsum_vectors.busy_s": busy["numerics.fsum_vectors"],
            "encoding.busy_s": sum(busy[n] for n in encoding),
            "encoding.calls": sum(calls[n] for n in encoding),
            "engine.shuffle.s": total("engine.shuffle"),
            "engine.reduce.busy_s": busy["engine.reduce"],
            "engine.reduce.window_s": busy["engine.reduce.window"],
            "engine.groups": calls["engine.groups"],
            "engine.self_s": sum(s.self_s for s in by_name["engine.run_job"]),
            "engine.run_iterative.self_s": sum(s.self_s for s in by_name["engine.run_iterative"]),
            "engine.round.p50_s": statistics.median(rounds) if rounds else 0.0,
            "engine.round0_s": rounds[0] if rounds else 0.0,
            "rng.substream.calls": calls["rng.substream"],
            "forest.poisson_counts.busy_s": busy["forest.poisson_counts"],
            "forest.train_tree_reduce.busy_s": total("forest.train_tree_reduce"),
            "forest.tree_to_bytes.s": total("forest.tree_to_bytes"),
            "dataio.read_s": sum(s.duration for s in reads),
            "aggregates.read_call_csv_s": total("aggregates.read_call_csv"),
            "cli.self_s": job_span.self_s,
            "engine.map.pairs": pairs,
            "engine.shuffle.bytes": calls["engine.shuffle.bytes"],
            "engine.combine_ratio": calls["engine.shuffle.pairs"] / pairs if pairs else 0.0,
            # not reported; checked against the ledger's records_shuffled
            "engine.shuffle.pairs": calls["engine.shuffle.pairs"],
            "engine.shuffle.grouped": calls["engine.shuffle.grouped"],
        }

    def dump(self, path, origin: float) -> None:
        """Write every span as one JSON object per line, times from origin."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.id, "name": s.name, "job": s.job, "thread": s.thread,
                    "parent": None if s.parent is None else s.parent.id,
                    "start": s.start - origin, "end": s.end - origin, "self_s": s.self_s,
                }) + "\n")
