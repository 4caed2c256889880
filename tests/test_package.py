import importlib

import pytest

import mrlab

# Each module's public names, as the package exports them.
EXPORTS = {
    "aggregates": ["CallLog", "CallRecord", "avg_duration_by_date", "calls_per_date_number",
                   "read_call_csv", "word_count"],
    "engine": ["DISK", "MEMORY", "ClusterConfig", "InputSplit", "JobSpec", "RunStats", "partition",
               "run_iterative", "run_job", "shuffle"],
    "errors": ["DivergenceError", "EmptyInputError", "JobExecutionError", "MRLabError",
               "ParameterError", "RowParseError", "SingularMatrixError"],
    "forest": ["ForestModel", "ForestParams", "TreeModel", "fit_forest", "predict_forest"],
    "kmeans": ["CenterSet", "assign", "fit_kmeans"],
    "linmodels": ["DataMatrix", "GramPair", "LinearModel", "fit_linear", "fit_logistic", "gram_job",
                  "logistic_gradient_job", "solve_normal_equations"],
    "sampling": ["ScanResult", "bernstein_thresholds", "reservoir_sample", "scan_srs", "sort_sample"],
}
NAMES = sorted(name for names in EXPORTS.values() for name in names)


def test_all_is_the_sorted_public_names():
    assert len(NAMES) == 44
    assert mrlab.__all__ == NAMES


@pytest.mark.parametrize("module, name", [(m, n) for m, names in EXPORTS.items() for n in names])
def test_each_name_is_its_modules_object(module, name):
    assert getattr(mrlab, name) is getattr(importlib.import_module(f"mrlab.{module}"), name)


def test_star_import_binds_every_name_and_dir_lists_them():
    namespace = {}
    exec("from mrlab import *", namespace)
    assert {name: namespace[name] for name in NAMES} == {name: getattr(mrlab, name) for name in NAMES}
    assert set(NAMES) <= set(dir(mrlab))


def test_an_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        mrlab.no_such_name  # noqa: B018
    with pytest.raises(ImportError, match="no_such_name"):
        from mrlab import no_such_name  # noqa: F401
