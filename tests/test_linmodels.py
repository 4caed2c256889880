import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrlab.engine import ClusterConfig
from mrlab.errors import (
    DivergenceError,
    ParameterError,
    RowParseError,
    SingularMatrixError,
)
from mrlab.linmodels import (
    DataMatrix,
    GramPair,
    fit_linear,
    fit_logistic,
    gram_job,
    logistic_gradient_job,
    solve_normal_equations,
)

from references import negative_log_likelihood


def random_matrix(seed, n=30, p=3):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, p))
    beta_true = rng.normal(size=p + 1)
    return x, beta_true, rng


# --------------------------------------------------------------- DataMatrix


def test_data_matrix_requires_intercept_column():
    with pytest.raises(ParameterError, match="intercept"):
        DataMatrix(np.array([[2.0, 1.0], [1.0, 1.0]]))


def test_data_matrix_reports_bad_row():
    x = np.ones((3, 2))
    x[1, 1] = np.nan
    with pytest.raises(RowParseError) as err:
        DataMatrix(x)
    assert err.value.row == 2


def test_data_matrix_label_shape_checked():
    with pytest.raises(ParameterError):
        DataMatrix(np.ones((3, 1)), np.zeros(2))


def test_from_features_accepts_1d():
    dm = DataMatrix.from_features([1.0, 2.0], [3.0, 4.0])
    np.testing.assert_array_equal(dm.x, [[1.0, 1.0], [1.0, 2.0]])


# --------------------------------------------------------------------- gram


def test_gram_hand_example():
    data = DataMatrix(np.array([[1.0, 2.0], [1.0, 4.0]]), np.array([1.0, 3.0]))
    g, _ = gram_job(data)
    np.testing.assert_allclose(g.xtx, [[2.0, 6.0], [6.0, 20.0]], atol=0)
    np.testing.assert_allclose(g.xty, [4.0, 14.0], atol=0)


def test_gram_intercept_only():
    y = np.array([2.0, 5.0, -1.0])
    data = DataMatrix(np.ones((3, 1)), y)
    g, _ = gram_job(data)
    assert g.xtx.tolist() == [[3.0]]
    assert g.xty.tolist() == [[2.0 + 5.0 - 1.0][0]]


def test_gram_split_count_invariant():
    x, beta_true, rng = random_matrix(0, n=200, p=4)
    y = rng.normal(size=200)
    data = DataMatrix.from_features(x, y)
    base, _ = gram_job(data, ClusterConfig(num_splits=1))
    for splits in (2, 4):
        g, _ = gram_job(data, ClusterConfig(num_splits=splits))
        np.testing.assert_allclose(g.xtx, base.xtx, rtol=1e-12)
        np.testing.assert_allclose(g.xty, base.xty, rtol=1e-12)


@given(st.integers(0, 1000))
@settings(max_examples=30)
def test_gram_symmetric_and_psd(seed):
    x, _, rng = random_matrix(seed, n=25, p=3)
    data = DataMatrix.from_features(x, rng.normal(size=25))
    g, _ = gram_job(data)
    np.testing.assert_array_equal(g.xtx, g.xtx.T)
    assert np.linalg.eigvalsh(g.xtx).min() >= -1e-10


# -------------------------------------------------------------------- solve


def test_solve_identity():
    v = np.array([3.0, -1.0, 2.0])
    np.testing.assert_array_equal(solve_normal_equations(GramPair(np.eye(3), v)), v)


def test_solve_hand_system():
    beta = solve_normal_equations(GramPair(np.array([[2.0, 6.0], [6.0, 20.0]]), np.array([4.0, 14.0])))
    np.testing.assert_allclose(beta, [-1.0, 1.0], atol=1e-12)
    # the fitted line passes through both data points
    x = np.array([[1.0, 2.0], [1.0, 4.0]])
    np.testing.assert_allclose(x @ beta, [1.0, 3.0], atol=1e-12)


def test_duplicated_column_reports_pivot():
    x = np.column_stack([np.ones(5), np.arange(5.0), np.arange(5.0)])
    g = GramPair(x.T @ x, x.T @ np.ones(5))
    with pytest.raises(SingularMatrixError) as err:
        solve_normal_equations(g)
    assert err.value.pivot == 2


def test_columns_in_far_apart_units_solve_as_lstsq_does():
    # The b column's diagonal is 1e-16 of the a column's: judged against
    # the largest diagonal entry, its pivot would read as zero.
    rng = np.random.default_rng(0)
    a, b = rng.normal(size=50) * 1e4, rng.normal(size=50) * 1e-4
    y = 0.001 * a + 2000 * b + rng.normal(size=50)
    x = np.column_stack([a, b])
    model, _ = fit_linear(DataMatrix.from_features(x, y))
    expected = np.linalg.lstsq(np.column_stack([np.ones(50), x]), y, rcond=None)[0]
    np.testing.assert_allclose(model.beta, expected, rtol=1e-9)


def test_solve_residual_bound():
    x, _, rng = random_matrix(5, n=100, p=4)
    y = rng.normal(size=100)
    data = DataMatrix.from_features(x, y)
    g, _ = gram_job(data)
    beta = solve_normal_equations(g)
    resid = np.max(np.abs(g.xtx @ beta - g.xty))
    assert resid <= 1e-8 * (1.0 + np.max(np.abs(g.xty)))


# --------------------------------------------------------------- fit_linear


def test_fit_linear_exact_line():
    x = np.arange(1.0, 6.0)
    data = DataMatrix.from_features(x, 2.0 * x)
    model, stats = fit_linear(data)
    np.testing.assert_allclose(model.beta, [0.0, 2.0], atol=1e-12)
    assert model.residual_norm <= 1e-9
    assert stats.iterations == 2  # gram round + residual round


def test_fit_linear_ledger_adds_its_two_rounds():
    x, beta, _ = random_matrix(3, n=40)
    data = DataMatrix.from_features(x, beta[0] + x @ beta[1:])
    _, stats = fit_linear(data, ClusterConfig(num_splits=4, iteration_mode="disk"))
    assert stats.records_read == 2 * 40
    assert stats.iterations == 2
    assert stats.records_shuffled == 8  # one partial per split, each round
    assert stats.records_written == 2 * (4 + 1)  # map partials and the round's output


def test_fit_linear_constant_intercept_only():
    data = DataMatrix(np.ones((4, 1)), np.full(4, 7.5))
    model, _ = fit_linear(data)
    np.testing.assert_allclose(model.beta, [7.5], atol=1e-12)


def test_fit_linear_residual_orthogonality():
    x, _, rng = random_matrix(8, n=300, p=5)
    y = x @ np.ones(5) + rng.normal(size=300)
    data = DataMatrix.from_features(x, y)
    model, _ = fit_linear(data)
    score = data.x.T @ (y - data.x @ model.beta)
    xty = data.x.T @ y
    assert np.max(np.abs(score)) <= 1e-6 * (1.0 + np.max(np.abs(xty)))


# ----------------------------------------------------------------- gradient


def test_gradient_at_zero_beta():
    x, _, rng = random_matrix(1, n=40, p=2)
    y = (rng.random(40) < 0.5).astype(float)
    data = DataMatrix.from_features(x, y)
    grad, _ = logistic_gradient_job(data, np.zeros(3))
    expected = data.x.T @ (0.5 - y)
    np.testing.assert_allclose(grad, expected, rtol=1e-12, atol=1e-12)


def test_gradient_symmetric_cancellation():
    data = DataMatrix(np.array([[1.0], [1.0]]), np.array([0.0, 1.0]))
    grad, _ = logistic_gradient_job(data, np.zeros(1))
    assert grad.tolist() == [0.0]


@pytest.mark.parametrize("seed", range(5))
def test_gradient_matches_finite_differences(seed):
    x, beta, rng = random_matrix(seed, n=30, p=3)
    y = (rng.random(30) < 0.5).astype(float)
    data = DataMatrix.from_features(x, y)
    grad, _ = logistic_gradient_job(data, beta)
    h = 1e-6
    for j in range(beta.size):
        e = np.zeros_like(beta)
        e[j] = h
        fd = (negative_log_likelihood(data, beta + e) - negative_log_likelihood(data, beta - e)) / (2 * h)
        assert grad[j] == pytest.approx(fd, rel=1e-5, abs=1e-7)


def test_gradient_rejects_non_binary_labels():
    data = DataMatrix(np.ones((3, 1)), np.array([0.0, 0.5, 1.0]))
    with pytest.raises(RowParseError) as err:
        logistic_gradient_job(data, np.zeros(1))
    assert err.value.row == 2


# ------------------------------------------------------------- fit_logistic


def oracle_descent(data, step, iters):
    beta = np.zeros(data.width)
    trail = []
    for _ in range(iters):
        z = data.x @ beta
        grad = data.x.T @ (1.0 / (1.0 + np.exp(-z)) - data.y)
        beta = beta - step / data.n * grad
        trail.append(beta.copy())
    return trail


def test_fit_logistic_matches_lockstep_oracle():
    x, _, rng = random_matrix(3, n=60, p=2)
    y = (x[:, 0] + 0.3 * rng.normal(size=60) > 0).astype(float)
    data = DataMatrix.from_features(x, y)
    history = []
    model, stats = fit_logistic(data, 0.5, 25, config=ClusterConfig(num_splits=3), history=history)
    oracle = oracle_descent(data, 0.5, 25)
    assert stats.iterations == 25
    for mine, ref in zip(history, oracle):
        np.testing.assert_allclose(mine, ref, atol=1e-9)
    np.testing.assert_allclose(model.beta, oracle[-1], atol=1e-9)


def test_fit_logistic_separable_reaches_perfect_training_accuracy():
    x = np.array([-2.0, -1.5, -1.0, 1.0, 1.5, 2.0])
    y = (x > 0).astype(float)
    data = DataMatrix.from_features(x, y)
    model, _ = fit_logistic(data, 0.5, 200)
    prob = 1.0 / (1.0 + np.exp(-(data.x @ model.beta)))
    assert np.array_equal(prob > 0.5, y.astype(bool))


def test_fit_logistic_nll_non_increasing_with_safe_step():
    x, _, rng = random_matrix(9, n=80, p=2)
    y = (rng.random(80) < 0.5).astype(float)
    data = DataMatrix.from_features(x, y)
    lipschitz = np.linalg.eigvalsh(data.x.T @ data.x).max() / data.n
    history = []
    fit_logistic(data, 4.0 / lipschitz, 30, history=history)
    nlls = [negative_log_likelihood(data, b) for b in history]
    assert all(b <= a + 1e-9 for a, b in zip(nlls, nlls[1:]))


def test_fit_logistic_tol_stops_early():
    data = DataMatrix.from_features([-1.0, 1.0], [0.0, 1.0])
    model, stats = fit_logistic(data, 0.1, 500, tol=1e9)
    assert stats.iterations == 1
    assert model.iterations == 1


def test_fit_logistic_parameter_errors():
    data = DataMatrix.from_features([-1.0, 1.0], [0.0, 1.0])
    with pytest.raises(ParameterError):
        fit_logistic(data, 0.0, 10)
    with pytest.raises(ParameterError):
        fit_logistic(data, 0.1, 0)


def test_fit_logistic_divergence_detected():
    # step large enough that the very first update overflows float64
    data = DataMatrix.from_features([-1e3, 1e3, 2e3], [0.0, 1.0, 1.0])
    with pytest.raises(DivergenceError) as err:
        fit_logistic(data, 1e306, 50)
    assert err.value.iteration == 1
    assert "diverged" in str(err.value)


def test_disk_mode_io_accounting_per_iteration():
    data = DataMatrix.from_features(np.arange(6.0), (np.arange(6.0) > 2).astype(float))
    _, disk = fit_logistic(data, 0.1, 4, config=ClusterConfig(iteration_mode="disk"))
    _, mem = fit_logistic(data, 0.1, 4, config=ClusterConfig(iteration_mode="memory"))
    assert disk.records_read == 4 * 6
    assert mem.records_read == 6
    # each disk round materializes one gradient partial per split plus the state
    assert disk.records_written == 4 * (1 + 1)
