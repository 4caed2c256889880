"""Command-line interface.

Every subcommand prints one JSON run report to stdout: schema version,
the echoed command line, the cluster configuration, RunStats, and the
algorithm's result. A report is one line, keys sorted, with the default
", " and ": " separators and a trailing newline: the form json's C
encoder writes, which any indent would bypass. Fixed flags give
byte-identical reports, so the reports double as reproduction artifacts.

Exit codes: 0 success; 1 algorithmic failure (singular system,
divergence, failed scan sample, job crash, a nan or inf in the report or
model, named by its field); 2 usage errors, missing files, an unwritable
--out path and malformed input. The report is written to --out before
stdout, so a report that cannot be saved is not printed either. A failure
prints one "mrlab:" line on stderr and nothing on stdout, except a failed
scan sample, which still reports and writes what it kept, and an argparse
usage error, whose error line follows the usage lines.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import gc
import json
import math
import sys
from pathlib import Path

# Only what every subcommand needs is imported here; each handler imports
# the module it runs, so a command loads its own algorithm and no other.
from . import dataio
from .engine import (
    ClusterConfig,
    JobSpec,
    RunStats,
    run_iterative,
)
from .errors import (
    DivergenceError,
    EmptyInputError,
    JobExecutionError,
    ParameterError,
    RowParseError,
    SingularMatrixError,
)

SCHEMA_VERSION = 1


class _NotFinite(Exception):
    """A report field holds nan or inf, which JSON cannot carry."""


def _strict_json(write, value, name: str = "") -> str:
    """``write()``, a JSON writer of ``value`` that refuses nan and inf. A
    refusal raises ``_NotFinite`` naming the first such field, keys sorted,
    under ``name``: ``result.residual_norm``, for example."""
    try:
        return write()
    except ValueError:
        raise _NotFinite(f"{next(_non_finite(value, name))} is not finite") from None


def _non_finite(value, name: str):
    """The names of the nan and inf numbers in a report value, keys sorted."""
    if isinstance(value, float) and not math.isfinite(value):
        yield name
    elif isinstance(value, dict):
        for key in sorted(value):
            yield from _non_finite(value[key], f"{name}.{key}" if name else key)
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            yield from _non_finite(item, f"{name}[{i}]")


def _config(args) -> ClusterConfig:
    mode = args.mode if args.mode in ("disk", "memory") else "disk"
    return ClusterConfig(num_splits=args.splits, iteration_mode=mode)


def _int_at_least(minimum: int):
    """argparse type: an integer >= minimum, else a usage error (exit 2)."""

    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in its invalid-value message
    return parse


def _float_in(low: float, high: float = math.inf, *, low_open: bool):
    """argparse type: a finite float above low (or equal to it, unless
    low_open) and below high, else a usage error (exit 2)."""
    bound = f"in ({low:g}, {high:g})" if high < math.inf else f"{'>' if low_open else '>='} {low:g}"

    def parse(text: str) -> float:
        value = float(text)
        if not (math.isfinite(value) and (low < value if low_open else low <= value) and value < high):
            raise argparse.ArgumentTypeError(f"must be a finite number {bound}, got {text}")
        return value

    parse.__name__ = "float"
    return parse


def _add_shared(parser: argparse.ArgumentParser, *, bench: bool = False) -> None:
    parser.add_argument("input", help="input data file")
    parser.add_argument("--splits", type=_int_at_least(1), default=1, help="number of input splits")
    parser.add_argument("--seed", type=_int_at_least(0), default=0, help="base RNG seed")
    if bench:
        parser.add_argument("--mode", choices=["disk", "memory", "both"], default="both",
                            help="iteration modes to benchmark")
    else:
        parser.add_argument("--mode", choices=["disk", "memory"], default="disk",
                            help="iteration mode for I/O accounting")
    parser.add_argument("--out", default=None, help="also write the JSON report to this path")


@functools.cache  # parsing leaves the parser as it was, so one serves every run
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mrlab",
        description="Deterministic single-process MapReduce engine and MR-expressed learners",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("calls-avg", help="mean call duration per date")
    _add_shared(p)

    p = sub.add_parser("calls-count", help="call count per (date, caller)")
    _add_shared(p)

    p = sub.add_parser("wordcount", help="token occurrence counts, one document per line")
    _add_shared(p)

    p = sub.add_parser("sample", help="simple random sample of CSV rows")
    _add_shared(p)
    p.add_argument("--method", choices=["reservoir", "sort", "scan"], default="reservoir")
    p.add_argument("--n", type=int, required=True, help="sample size")
    p.add_argument("--delta", type=_float_in(0, 1, low_open=True), default=0.01, help="scan failure budget")
    p.add_argument("--rows-out", default=None, help="write sampled rows as CSV")

    p = sub.add_parser("kmeans", help="k-means clustering of a numeric CSV")
    _add_shared(p)
    p.add_argument("--k", type=_int_at_least(1), required=True, help="number of clusters")
    p.add_argument("--iters", type=_int_at_least(1), default=100, help="maximum iterations")
    p.add_argument("--tol", type=_float_in(0, low_open=False), default=1e-6, help="center displacement stop")
    p.add_argument("--centers-out", default=None, help="write centers as CSV")
    p.add_argument("--assignments-out", default=None, help="write assignments, one per line")

    p = sub.add_parser("linreg", help="least-squares fit of a numeric CSV")
    _add_shared(p)
    p.add_argument("--label", required=True, help="label column name")

    p = sub.add_parser("logreg", help="logistic regression via gradient descent")
    _add_shared(p)
    p.add_argument("--label", required=True, help="label column name (values 0/1)")
    p.add_argument("--step", type=_float_in(0, low_open=True), default=1.0, help="gradient step size")
    p.add_argument("--iters", type=_int_at_least(1), default=100, help="iteration count")
    p.add_argument("--tol", type=_float_in(0, low_open=False), default=None, help="optional gradient stop")

    p = sub.add_parser("rf", help="random forest via Poisson resampling")
    _add_shared(p)
    p.add_argument("--label", required=True, help="label column name")
    p.add_argument("--task", choices=["classification", "regression"], default="classification")
    p.add_argument("--trees", type=_int_at_least(1), default=10, help="number of trees")
    p.add_argument("--k", type=_int_at_least(1), default=None, help="target sample size per tree (default n)")
    p.add_argument("--mtry", type=_int_at_least(1), default=None, help="features per node (default sqrt(p))")
    p.add_argument("--max-depth", type=_int_at_least(0), default=None)
    p.add_argument("--model-out", default=None, help="write the forest model JSON")

    p = sub.add_parser("bench-io", help="disk vs memory read/write accounting")
    _add_shared(p, bench=True)
    p.add_argument("--iters", type=_int_at_least(1), default=10, help="iterative rounds to simulate")
    return parser


def _cmd_calls_avg(args, config):
    from .aggregates import avg_duration_by_date, read_call_csv

    log = read_call_csv(args.input)
    result, stats = avg_duration_by_date(log, config)
    return {"means": [[date, mean, count] for date, (mean, count) in result]}, stats, 0


def _cmd_calls_count(args, config):
    from .aggregates import calls_per_date_number, read_call_csv

    log = read_call_csv(args.input)
    result, stats = calls_per_date_number(log, config)
    # tuples, which build faster than lists and which json writes as arrays too
    return {"counts": [(date, caller, n) for (date, caller), n in result]}, stats, 0


def _cmd_wordcount(args, config):
    from .aggregates import word_count

    documents = dataio.read_lines(args.input)
    result, stats = word_count(documents, config)
    return {"counts": [[token, n] for token, n in result]}, stats, 0


def _cmd_sample(args, config):
    from .sampling import reservoir_sample, scan_srs, sort_sample

    header, rows = dataio.read_csv_fields(args.input)
    if not rows:
        raise EmptyInputError(f"{args.input}: no data rows")
    if not 1 <= args.n <= len(rows):
        raise ParameterError(f"--n: sample size must be in 1..{len(rows)} (the row count), got {args.n}")
    exit_code = 0
    result = {"method": args.method, "n": args.n, "success": True}
    if args.method == "reservoir":
        sample = reservoir_sample(rows, args.n, args.seed)
        stats = RunStats(
            records_read=len(rows),
            bytes_read=rows.nbytes,
            records_written=len(sample),
            iterations=1,
        )
    elif args.method == "sort":
        sample, stats = sort_sample(rows, args.n, args.seed, config)
    else:
        scan, stats = scan_srs(rows, args.n, args.delta, args.seed, config)
        sample = scan.sample
        result.update(
            success=scan.success,
            candidates=scan.accepted_count + scan.waitlist_count,
            delta=args.delta,
        )
        if not scan.success:
            exit_code = 1
            print(
                f"mrlab: sample: scan kept {result['candidates']} candidates, "
                f"fewer than n={args.n}",
                file=sys.stderr,
            )
    result["rows"] = [list(r) for r in sample]
    if args.rows_out:
        dataio.write_csv_rows(args.rows_out, header, sample)
    return result, stats, exit_code


def _cmd_kmeans(args, config):
    from .kmeans import fit_kmeans

    names, matrix = dataio.read_matrix(args.input)
    if args.k > len(matrix):
        raise ParameterError(f"--k: clusters must be in 1..{len(matrix)} (the row count), got {args.k}")
    centers, assignments, stats = fit_kmeans(
        matrix, args.k, max_iters=args.iters, tol=args.tol, config=config, seed=args.seed,
    )
    if args.centers_out:
        dataio.write_csv_rows(
            args.centers_out, names, [[repr(float(v)) for v in c] for c in centers.centers],
        )
    if args.assignments_out:
        Path(args.assignments_out).write_text(
            "".join(f"{a}\n" for a in assignments.tolist()), encoding="utf-8",
        )
    result = {
        "k": args.k,
        "centers": [[float(v) for v in c] for c in centers.centers],
        "objective": float(centers.objective),
        "iterations": centers.iteration,
        "columns": names,
    }
    return result, stats, 0


def _fit_table(args, fit):
    """Read the labelled CSV and fit(DataMatrix) on it.

    The library numbers data rows from 1; a RowParseError it raises is
    renumbered to the file line on which that row starts.
    """
    from .linmodels import DataMatrix

    table = dataio.read_table(args.input, args.label)
    try:
        model, stats = fit(DataMatrix.from_features(table.features, table.labels))
    except RowParseError as err:
        raise RowParseError(table.lines[err.row - 1], err.message) from None
    return table, model, stats


def _cmd_linreg(args, config):
    from .linmodels import fit_linear

    table, model, stats = _fit_table(args, lambda data: fit_linear(data, config))
    result = {
        "coefficients": [float(b) for b in model.beta],
        "columns": ["intercept"] + table.feature_names,
        "residual_norm": float(model.residual_norm),
    }
    return result, stats, 0


def _cmd_logreg(args, config):
    from .linmodels import fit_logistic

    table, model, stats = _fit_table(
        args, lambda data: fit_logistic(data, args.step, args.iters, args.tol, config),
    )
    result = {
        "coefficients": [float(b) for b in model.beta],
        "columns": ["intercept"] + table.feature_names,
        "iterations": model.iterations,
        "gradient_norm": float(model.residual_norm),
    }
    return result, stats, 0


def _cmd_rf(args, config):
    from .forest import MAX_POISSON_RATE, ForestParams, fit_forest

    table = dataio.read_table(args.input, args.label, numeric_labels=args.task == "regression")
    n, p = table.features.shape
    if p == 0:
        raise ParameterError(f"{args.input}: no feature column besides the label column {args.label!r}")
    if args.k is not None and args.k > n * MAX_POISSON_RATE:
        raise ParameterError(
            f"--k: sample size per tree must be at most {n * MAX_POISSON_RATE} "
            f"({MAX_POISSON_RATE} times the row count), got {args.k}"
        )
    if args.mtry is not None and args.mtry > p:
        raise ParameterError(
            f"--mtry: features per node must be at most {p} (the feature count), got {args.mtry}"
        )
    params = ForestParams(
        trees=args.trees,
        sample_size=args.k if args.k is not None else n,
        mtry=args.mtry if args.mtry is not None else max(1, math.isqrt(p)),
        max_depth=args.max_depth,
        seed=args.seed,
    )
    model, stats = fit_forest(table.features, table.labels, params, args.task, config)
    result = {
        "task": model.task,
        "classes": model.classes,
        "trees": len(model.trees),
        "degenerate_trees": sum(1 for t in model.trees if t.degenerate),
        "model": model.as_dict(),
    }
    if args.model_out:
        text = _strict_json(model.to_json, result["model"], "result.model")
        Path(args.model_out).write_text(text + "\n", encoding="utf-8")
    return result, stats, 0


def _identity_factory(t: int):
    return JobSpec(lambda split: [], lambda key, values: [])


def bench_io(dataset, iters: int, modes, base_config: ClusterConfig) -> dict:
    """Run an empty iterative job per mode and tabulate the I/O counters."""
    if iters < 1:
        raise ParameterError(f"iters must be >= 1, got {iters}")
    table = {}
    for mode in modes:
        config = dataclasses.replace(base_config, iteration_mode=mode)
        _output, stats = run_iterative(_identity_factory, iters, None, dataset, config)
        table[mode] = stats.as_dict()
    result = {"iters": iters, "modes": table}
    if "disk" in table and "memory" in table and table["memory"]["records_read"]:
        result["read_ratio"] = table["disk"]["records_read"] / table["memory"]["records_read"]
    return result


def _cmd_bench_io(args, config):
    _header, rows = dataio.read_csv_fields(args.input)
    if not rows:
        raise EmptyInputError(f"{args.input}: no data rows")
    modes = ["disk", "memory"] if args.mode == "both" else [args.mode]
    result = bench_io(rows, args.iters, modes, config)
    totals = sum((RunStats(**mode_stats) for mode_stats in result["modes"].values()), RunStats())
    return result, totals, 0


_HANDLERS = {
    "calls-avg": _cmd_calls_avg,
    "calls-count": _cmd_calls_count,
    "wordcount": _cmd_wordcount,
    "sample": _cmd_sample,
    "kmeans": _cmd_kmeans,
    "linreg": _cmd_linreg,
    "logreg": _cmd_logreg,
    "rf": _cmd_rf,
    "bench-io": _cmd_bench_io,
}


def run(argv) -> int:
    """Parse argv, run the subcommand, print the JSON report.

    The command runs with Python's cyclic garbage collector paused, and
    the caller's collector state is restored however ``run`` ends. Every
    mapper and reducer the CLI runs is mrlab's own and builds no
    reference cycle, so reference counting frees each object when it
    dies and the collector's passes over the live pairs, groups and
    report rows would find nothing to free. The parse stays outside the
    pause: argparse leaves cycles behind the first time it builds the
    parser.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _run_command(args, argv)
    finally:
        if collecting:
            gc.enable()


def _run_command(args, argv) -> int:
    try:
        result, stats, exit_code = _HANDLERS[args.command](args, _config(args))
        report = {
            "schema": SCHEMA_VERSION,
            "command": list(argv),
            "config": {
                "splits": args.splits,
                "mode": args.mode,
                "seed": args.seed,
            },
            "stats": stats.as_dict(),
            "result": result,
        }
        text = _strict_json(lambda: json.dumps(report, sort_keys=True, allow_nan=False), report)
        text += "\n"
        if args.out:
            Path(args.out).write_text(text, encoding="utf-8")
    except (RowParseError, ParameterError, EmptyInputError, OSError) as err:
        print(f"mrlab: {args.command}: {err}", file=sys.stderr)
        return 2
    except (SingularMatrixError, DivergenceError, JobExecutionError, _NotFinite) as err:
        print(f"mrlab: {args.command}: {err}", file=sys.stderr)
        return 1
    sys.stdout.write(text)
    return exit_code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
