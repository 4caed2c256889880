"""mrlab: a deterministic single-process MapReduce engine and the
classic learning algorithms expressed as Map/Reduce jobs (aggregation,
simple random sampling, k-means, linear and logistic regression,
Poisson-resampled random forests).

The package exports the public names of its modules lazily (PEP 562):
``_EXPORTS`` maps each module to the names it exports, and ``__all__`` is
those names, sorted. Importing ``mrlab`` loads none of the modules; the
first access to ``mrlab.fit_forest``, ``from mrlab import fit_forest`` or
``from mrlab import *`` imports the name's module and keeps the name in the
package. So ``import mrlab.cli`` loads only what the CLI needs at start-up.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "aggregates": (
        "CallLog", "CallRecord", "avg_duration_by_date", "calls_per_date_number",
        "read_call_csv", "word_count",
    ),
    "engine": (
        "DISK", "MEMORY", "ClusterConfig", "InputSplit", "JobSpec", "RunStats",
        "partition", "run_iterative", "run_job", "shuffle",
    ),
    "errors": (
        "DivergenceError", "EmptyInputError", "JobExecutionError", "MRLabError",
        "ParameterError", "RowParseError", "SingularMatrixError",
    ),
    "forest": ("ForestModel", "ForestParams", "TreeModel", "fit_forest", "predict_forest"),
    "kmeans": ("CenterSet", "assign", "fit_kmeans"),
    "linmodels": (
        "DataMatrix", "GramPair", "LinearModel", "fit_linear", "fit_logistic", "gram_job",
        "logistic_gradient_job", "solve_normal_equations",
    ),
    "sampling": ("ScanResult", "bernstein_thresholds", "reservoir_sample", "scan_srs", "sort_sample"),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__})
