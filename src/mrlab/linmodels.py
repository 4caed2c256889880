"""Linear and logistic regression expressed as MapReduce jobs.

Linear regression runs two MR rounds: one sums per-record outer products
into the Gram products X'X and X'y, whose normal equations X'X b = X'y
are solved in memory (the cross-products matrix is small even when n is
huge), and one sums the squared residuals of the fit. Logistic
regression runs gradient descent where every iteration is one MR round
summing per-record gradient contributions.

Every job splits the (n, d+1) block [X | y] and its mapper folds a whole
split at once: one vectorized pass over the split's rows, then one
``numerics.partial_sum`` to a single partial per split (in-mapper
combining). A partial holds the split's column sums exactly, as a few
rows of floats, and the reducer rounds once, so every sum, and with it
every fitted coefficient, has the same bits at any split count. Row
values are computed row by row, never by a BLAS matrix-vector product,
whose rounding depends on the rows around it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .encoding import f64s_value, parse_f64s
from .engine import ClusterConfig, InputSplit, JobSpec, RunStats, run_iterative, run_job
from .errors import DivergenceError, ParameterError, RowParseError, SingularMatrixError
from .numerics import partial_sum, sigmoid, sum_partials, sum_vectors_reduce

_PIVOT_RTOL = 1e-12


@dataclass(frozen=True)
class DataMatrix:
    """Design matrix with a leading intercept column, plus labels.

    Keep p small: the (p+1) x (p+1) cross-products matrix must fit in
    memory even though n-row data only ever streams through mappers.
    """

    x: np.ndarray  # (n, p+1), first column all ones
    y: Optional[np.ndarray] = None

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        object.__setattr__(self, "x", x)
        if x.ndim != 2 or x.shape[0] < 1:
            raise ParameterError(f"design matrix must be 2-D and non-empty, got shape {x.shape}")
        if not np.all(x[:, 0] == 1.0):
            raise ParameterError("first design-matrix column must be the all-ones intercept")
        bad = np.flatnonzero(~np.isfinite(x).all(axis=1))
        if bad.size:
            raise RowParseError(int(bad[0]) + 1, "non-finite feature value")
        if self.y is not None:
            y = np.asarray(self.y, dtype=float)
            object.__setattr__(self, "y", y)
            if y.shape != (x.shape[0],):
                raise ParameterError(f"labels shape {y.shape} does not match {x.shape[0]} rows")
            bad = np.flatnonzero(~np.isfinite(y))
            if bad.size:
                raise RowParseError(int(bad[0]) + 1, "non-finite label")

    @classmethod
    def from_features(cls, features, labels=None) -> "DataMatrix":
        features = np.asarray(features, dtype=float)
        if features.ndim == 1:
            features = features.reshape(-1, 1)
        ones = np.ones((features.shape[0], 1))
        return cls(np.hstack([ones, features]), labels)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def width(self) -> int:
        return self.x.shape[1]

    def block(self) -> np.ndarray:
        """The (n, d+1) dataset [X | y] the jobs split: one row per record."""
        if self.y is None:
            raise ParameterError("this operation needs labels")
        return np.column_stack([self.x, self.y])


@dataclass(frozen=True)
class GramPair:
    xtx: np.ndarray  # (p+1, p+1), symmetric PSD
    xty: np.ndarray  # (p+1,)


@dataclass(frozen=True)
class LinearModel:
    beta: np.ndarray
    iterations: int
    residual_norm: float  # linear: ||y - Xb||_2; logistic: final ||grad||_inf


def gram_job(
    data: DataMatrix, config: Optional[ClusterConfig] = None,
) -> tuple[GramPair, RunStats]:
    """One MR round computing X'X and X'y.

    Each split's mapper sums its records' outer products x x' and moments
    x*y, packed into one vector, to a single partial; the reducer sums
    the partials.
    """
    d = data.width

    def rows(x, y):
        outer = (x[:, :, None] * x[:, None, :]).reshape(len(x), d * d)
        return np.hstack([outer, x * y[:, None]])

    flat, stats = _sum_round(data.block(), rows, config, b"G")
    return GramPair(flat[: d * d].reshape(d, d), flat[d * d :]), stats


def solve_normal_equations(gram: GramPair) -> np.ndarray:
    """Solve X'X b = X'y by Cholesky factorization.

    A pivot at or below 1e-12 times its own column's diagonal entry means
    a (near-)singular system, e.g. duplicated feature columns; the error
    names the offending pivot index. Each pivot is judged in its column's
    units, so a column of small numbers beside one of large numbers is
    not mistaken for zero.
    """
    a = np.array(gram.xtx, dtype=float)
    b = np.array(gram.xty, dtype=float)
    d = a.shape[0]
    if a.shape != (d, d) or b.shape != (d,):
        raise ParameterError(f"shape mismatch: {a.shape} vs {b.shape}")
    lower = np.zeros_like(a)
    z = np.zeros(d)
    beta = np.zeros(d)
    # beyond the double range a pivot fails its check, a solution stays inf or nan
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(d):
            s = a[j, j] - float(lower[j, :j] @ lower[j, :j])
            if not s > _PIVOT_RTOL * a[j, j] or not math.isfinite(s):
                raise SingularMatrixError(j)
            lower[j, j] = math.sqrt(s)
            for i in range(j + 1, d):
                lower[i, j] = (a[i, j] - float(lower[i, :j] @ lower[j, :j])) / lower[j, j]
        for i in range(d):
            z[i] = (b[i] - float(lower[i, :i] @ z[:i])) / lower[i, i]
        for i in reversed(range(d)):
            beta[i] = (z[i] - float(lower[i + 1 :, i] @ beta[i + 1 :])) / lower[i, i]
    return beta


def fit_linear(
    data: DataMatrix, config: Optional[ClusterConfig] = None,
) -> tuple[LinearModel, RunStats]:
    """Least squares: one Gram round, an in-memory solve, one residual round."""
    gram, gram_stats = gram_job(data, config)
    beta = solve_normal_equations(gram)

    def rows(x, y):
        r = y - _rowdot(x, beta)
        return (r * r)[:, None]

    (rss,), residual_stats = _sum_round(data.block(), rows, config, b"R")
    stats = gram_stats + residual_stats
    return LinearModel(beta, stats.iterations, math.sqrt(max(float(rss), 0.0))), stats


def _xy(split: InputSplit) -> tuple[np.ndarray, np.ndarray]:
    """A split of ``DataMatrix.block`` as (x rows, labels)."""
    return split.records[:, :-1], split.records[:, -1]


def _rowdot(x: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """x @ beta one row at a time, so a row's value is the same in any split."""
    return np.einsum("ij,j->i", x, beta)


def _sum_mapper(rows, key: bytes):
    """A mapper emitting one partial: the column sums of rows(x, y) over its split."""

    def mapper(split):
        with np.errstate(over="ignore", invalid="ignore"):
            # a row value that overflows stays inf or nan, and so does its sum
            block = rows(*_xy(split))
        return [partial_sum(key, block)]

    return mapper


def _sum_round(block, rows, config, key: bytes) -> tuple[np.ndarray, RunStats]:
    """One MR round summing rows(x, y) over the whole block, with its ledger."""
    job = JobSpec(_sum_mapper(rows, key), sum_vectors_reduce)
    output, stats = run_job(job, block, config)
    return parse_f64s(output[0][1]).copy(), stats


def _binary_block(data: DataMatrix) -> np.ndarray:
    """``data.block()``, once every label is checked to be 0 or 1."""
    bad = np.flatnonzero((data.y != 0.0) & (data.y != 1.0))
    if bad.size:
        raise RowParseError(int(bad[0]) + 1, f"logistic label must be 0 or 1, got {data.y[bad[0]]}")
    return data.block()


def _gradient_rows(beta: np.ndarray):
    """Per-record gradient contributions (sigma(x'b) - y) x."""
    return lambda x, y: (sigmoid(_rowdot(x, beta)) - y)[:, None] * x


def logistic_gradient_job(
    data: DataMatrix, beta: np.ndarray, config: Optional[ClusterConfig] = None,
) -> tuple[np.ndarray, RunStats]:
    """One MR round summing per-record contributions (sigma(x'b) - y) x.

    The unnormalized sum is exactly the gradient of the negative
    log-likelihood at beta.
    """
    beta = np.asarray(beta, dtype=float)
    return _sum_round(_binary_block(data), _gradient_rows(beta), config, b"g")


def fit_logistic(
    data: DataMatrix,
    step_size: float,
    max_iters: int,
    tol: Optional[float] = None,
    config: Optional[ClusterConfig] = None,
    *,
    history: Optional[list] = None,
) -> tuple[LinearModel, RunStats]:
    """Gradient descent, one MR round per iteration.

    Update: b <- b - step_size * grad / n. Runs a fixed max_iters unless
    tol is given, which adds an early stop at ||grad||_inf < tol. The
    driver reads each round's (beta, grad) once and builds the next
    round from that beta. In disk mode each round re-reads all n
    records and re-writes its output.
    """
    if not step_size > 0:
        raise ParameterError(f"step_size must be positive, got {step_size}")
    if max_iters < 1:
        raise ParameterError(f"max_iters must be >= 1, got {max_iters}")
    d = data.width
    step = step_size / data.n
    beta, grad = np.zeros(d), None  # every round sets grad
    rounds = 0

    def job_factory(t: int) -> JobSpec:
        start = beta  # this round's model: converged rebinds beta

        def reducer(key, values):
            grad = sum_partials(values)
            with np.errstate(over="ignore", invalid="ignore"):
                # overflow to inf is caught by the divergence check
                new_beta = start - step * grad
            return [(b"B", f64s_value(np.concatenate([new_beta, grad])))]

        return JobSpec(_sum_mapper(_gradient_rows(start), b"g"), reducer)

    def converged(output) -> bool:
        nonlocal beta, grad, rounds
        rounds += 1
        flat = parse_f64s(output[0][1])
        beta, grad = flat[:d], flat[d:]
        if not np.all(np.isfinite(beta)):
            raise DivergenceError(rounds)
        if history is not None:
            history.append(beta.copy())
        return tol is not None and float(np.max(np.abs(grad))) < tol

    _output, stats = run_iterative(job_factory, max_iters, converged, _binary_block(data), config)
    return LinearModel(beta.copy(), stats.iterations, float(np.max(np.abs(grad)))), stats
