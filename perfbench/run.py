"""mrlab benchmark: seeded CLI jobs in a closed loop, checked by oracles.

    python3 perfbench/run.py --workload logreg-disk --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20

One client runs ``mrlab.cli.run(argv)`` in this process, the next job
starting when the previous report has been returned. Timed jobs run with
``MRLAB_SEQUENTIAL=1``: on a shared 2-vCPU host the engine's thread pools
make a job's time swing by 40% from one minute to the next (GIL hand-offs
between threads that both want the one free core), far more than a
one-thread job's. What the pools cost is measured apart, in the traced
run. Every timed span is corrected for the host's speed (hostspeed.py).
Every report is checked against an independent oracle and against the
run's first report (they must be byte-identical). The last line of stdout
is one JSON object.

``--trace 0`` times jobs untraced and reports the end-to-end metrics.
``--trace 1`` alternates untraced and traced jobs, adds one job with the
thread pools on, and reports the per-layer metrics of layers.py, the
tracing overhead and the cost of the thread pools. Spans go to
``.perfbench/trace-<workload>-seed<n>.jsonl``.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

import hostspeed
import layers
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
# Set-up runs SETUP_REPEATS times before the first job and once more after
# each untraced job, so its median samples the whole run, as job_s does.
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 600


@contextlib.contextmanager
def _pools(on: bool):
    """Run the CLI with the engine's thread pools on or off."""
    previous = os.environ.get("MRLAB_SEQUENTIAL")
    os.environ["MRLAB_SEQUENTIAL"] = "0" if on else "1"
    try:
        yield
    finally:
        if previous is None:
            del os.environ["MRLAB_SEQUENTIAL"]
        else:
            os.environ["MRLAB_SEQUENTIAL"] = previous


def _run_cli(run, argv):
    """One job: (seconds, exit code or None, stdout, problem or None)."""
    out, err = io.StringIO(), io.StringIO()
    gc.collect()  # start each job from the same heap, outside the timed span
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
    except SystemExit as exc:  # argparse exits on usage errors
        return perf_counter() - t0, exc.code, out.getvalue(), f"exit {exc.code}: {err.getvalue().strip()}"
    except Exception as exc:  # a crash in the program is a failed job, not a failed benchmark
        return perf_counter() - t0, None, out.getvalue(), f"{type(exc).__name__}: {exc}"
    elapsed = perf_counter() - t0
    problem = None if code == 0 else f"exit {code}: {err.getvalue().strip()}"
    return elapsed, code, out.getvalue(), problem


class Judge:
    """Counts jobs and failures. A job fails on a nonzero exit, an
    exception, a report that differs from the run's first, or a report
    (or file it wrote) that fails the workload's oracle."""

    def __init__(self, case: workloads.Case):
        self.case = case
        self.first = None
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def __call__(self, report: str, problem: str | None, extra: list = ()) -> bool:
        self.attempted += 1
        problems = [problem] if problem else []
        if not problems:
            if self.first is None:
                self.first = report
            elif report != self.first:
                problems.append("report differs from the run's first report")
            try:
                problems += self.case.check(report)
            except (KeyError, TypeError, IndexError, ValueError) as exc:
                problems.append(f"report lacks an expected field: {exc!r}")
        problems += list(extra)
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        return not problems


def _setup(workload, seed: int, directory: Path, run):
    """Generate the input and warm up on a small input of the same shape."""
    warm_dir = directory / "warmup"
    warm_dir.mkdir(exist_ok=True)
    t0 = perf_counter()
    case = workload.make(seed, workload.rows, directory)
    warm = workload.make(seed, workloads.WARMUP_ROWS, warm_dir)
    _elapsed, _code, report, problem = _run_cli(run, warm.argv)
    elapsed = perf_counter() - t0
    problems = [problem] if problem else warm.check(report)
    return elapsed, case, problems


def _ledger_metrics(report: str | None) -> dict:
    stats = json.loads(report)["stats"] if report else {}
    names = ("records_read", "bytes_read", "records_written", "bytes_written",
             "records_shuffled", "iterations")
    return {f"ledger.{n}": (stats.get(n, 0), "count") for n in names}


def _shuffle_agrees(job: dict, report: str) -> list:
    """Pairs entering and leaving the traced shuffle equal the ledger's count."""
    shuffled = json.loads(report)["stats"]["records_shuffled"]
    if job["engine.shuffle.pairs"] == job["engine.shuffle.grouped"] == shuffled:
        return []
    return [f"traced shuffle pairs {job['engine.shuffle.pairs']}/"
            f"{job['engine.shuffle.grouped']} != ledger records_shuffled {shuffled}"]


def measure(workload, seed: int, seconds: float, trace: bool, directory: Path, run,
            host: hostspeed.HostSpeed) -> dict:
    """Times set-ups and jobs; every time is corrected by ``host``."""
    setup_times, case = [], None
    setup_problems: list = []
    for _ in range(SETUP_REPEATS):
        elapsed, case, problems = _setup(workload, seed, directory, run)
        setup_times.append(host.correct(elapsed))
        setup_problems += problems
    judge = Judge(case)
    judge.problems += [f"warm-up: {p}" for p in setup_problems]
    times, wall_times, traced_times = [], [], []
    recorder = layers.Recorder()
    origin = perf_counter()
    while perf_counter() - origin < seconds or not times:
        elapsed, _code, report, problem = _run_cli(run, case.argv)
        times.append(host.correct(elapsed))
        wall_times.append(elapsed)
        judge(report, problem)
        if not trace:
            again = directory / "again"
            again.mkdir(exist_ok=True)
            elapsed, _case, problems = _setup(workload, seed, again, run)
            setup_times.append(host.correct(elapsed))
            judge.problems += [f"warm-up: {p}" for p in problems]
        else:
            with recorder.installed():
                elapsed, _code, report, problem = _run_cli(run, case.argv)
            traced_times.append(host.correct(elapsed))
            job = recorder.jobs[-1] if len(recorder.jobs) == len(traced_times) else None
            extra = ["traced job left no trace"] if job is None else []
            if job is not None and problem is None:
                extra += _shuffle_agrees(job, report)
            judge(report, problem, extra)
    result = {
        "job_s": statistics.median(times),
        "wall_job_s": statistics.median(wall_times),
        "jobs": len(times),
        "setup_s": statistics.median(setup_times),
        "setups": len(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "judge": judge,
    }
    if trace:
        with _pools(on=True):
            pooled_s, _code, report, problem = _run_cli(run, case.argv)
        pooled_s = host.correct(pooled_s)
        judge(report, problem)
        per_layer = {name: (statistics.median(job[name] for job in recorder.jobs), unit)
                     for name, unit in layers.LAYER_METRICS} if recorder.jobs else {}
        per_layer["engine.pool_cost_s"] = (pooled_s - result["job_s"], "s")
        per_layer["trace.overhead_s"] = (statistics.median(traced_times) - result["job_s"], "s")
        per_layer.update(_ledger_metrics(judge.first))
        result["layers"] = per_layer
        result["traced_jobs"] = len(traced_times)
        WORK.mkdir(exist_ok=True)
        recorder.dump(WORK / f"trace-{workload.name}-seed{seed}.jsonl", origin)
    return result


def _machine() -> str:
    return (f"nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={np.__version__} {platform.machine()}")


def run_one(args) -> int:
    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    import mrlab.cli
    import_s = perf_counter() - t0
    host = hostspeed.HostSpeed()
    import_s *= hostspeed.REFERENCE_UNIT_S / host.last
    if Path(mrlab.cli.__file__).resolve().parent != SRC / "mrlab":
        print(f"perfbench: imported mrlab from {mrlab.cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    def run(argv):  # look the function up per call, so tracing can patch it
        return mrlab.cli.run(argv)

    workload = workloads.WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    directory = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK))
    try:
        with _pools(on=False):
            r = measure(workload, args.seed, args.seconds, bool(args.trace), directory, run, host)
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    judge = r["judge"]
    setup_s = import_s + r["setup_s"]
    print(f"machine: {_machine()}")
    print(f"host speed: calibration unit median {statistics.median(host.units) * 1e3:.3f} ms "
          f"(range {min(host.units) * 1e3:.3f}-{max(host.units) * 1e3:.3f}), reference "
          f"{hostspeed.REFERENCE_UNIT_S * 1e3:.3f} ms; times below are at the reference speed")
    print(f"workload: {workload.name} seed={args.seed} rows={workload.rows} "
          f"rounds={workload.rounds} argv={' '.join(judge.case.argv)}")
    for problem, times in collections.Counter(judge.problems).most_common(20):
        print(f"FAIL ({times}x): {problem}")
    print(f"fail_ratio: {judge.failed}/{judge.attempted} = {judge.failed / judge.attempted:.6f}")
    if args.trace:
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in r["layers"].items()}
        print(f"traced jobs: {r['traced_jobs']}, untraced jobs: {r['jobs']}, jobs with pools on: 1")
    else:
        metrics = {
            "job_s": {"value": r["job_s"], "unit": "s"},
            "rows_per_s": {"value": workload.rows * workload.rounds / r["job_s"], "unit": "1/s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": r["peak_rss_mb"], "unit": "MB"},
        }
        print(f"jobs: {r['jobs']}, set-ups: {r['setups']} (medians of all; a tail percentile "
              "needs ten jobs beyond it, so none is reported); "
              f"uncorrected wall job_s median {r['wall_job_s']:.4f} s")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": judge.failed == 0 and not judge.problems,
        "attempted": judge.attempted,
        "failed": judge.failed,
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    summary, metrics = [], {}
    attempted = failed = 0
    for name in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            print(f"perfbench: workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, m in result["metrics"].items():
            metrics[f"{name}/{metric}"] = m
        summary.append((name, result))
    if not args.trace:
        print(f"{'workload':16} {'job_s':>8} {'rows_per_s':>11} {'setup_s':>8} {'peak_rss_mb':>11} {'fail_ratio':>10}")
        for name, r in summary:
            m = r["metrics"]
            print(f"{name:16} {m['job_s']['value']:8.4f} {m['rows_per_s']['value']:11.1f} "
                  f"{m['setup_s']['value']:8.4f} {m['peak_rss_mb']['value']:11.1f} "
                  f"{r['failed'] / r['attempted']:10.4f}")
    print(json.dumps({"correct": failed == 0 and all(r["correct"] for _, r in summary),
                      "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "mrlab" / "__init__.py").is_file():
        print(f"perfbench: no mrlab sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
