import collections
import dataclasses
import itertools
import json
import math

import numpy as np
import pytest

from mrlab import forest
from mrlab.encoding import parse_f64s, parse_u32_key
from mrlab.engine import ClusterConfig, InputSplit
from mrlab.errors import ParameterError
from mrlab.forest import (
    CLASSIFICATION,
    REGRESSION,
    ForestModel,
    ForestParams,
    TreeModel,
    fit_forest,
    poisson_count_block,
    poisson_counts,
    poisson_resample_split,
    predict_forest,
    train_tree_reduce,
)
from mrlab.rng import record_uniforms


def blobs(seed=0, n_per=1000, spread=0.6):
    rng = np.random.default_rng(seed)
    a = rng.normal((0.0, 0.0), spread, size=(n_per, 2))
    b = rng.normal((3.0, 3.0), spread, size=(n_per, 2))
    x = np.vstack([a, b])
    y = ["low"] * n_per + ["high"] * n_per
    return x, y


# -------------------------------------------------------------- parameters


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(trees=0, sample_size=1, mtry=1),
        dict(trees=1, sample_size=0, mtry=1),
        dict(trees=1, sample_size=1, mtry=0),
        dict(trees=1, sample_size=1, mtry=1, min_leaf=0),
        dict(trees=1, sample_size=1, mtry=1, max_depth=-1),
    ],
)
def test_params_validation(kwargs):
    with pytest.raises(ParameterError):
        ForestParams(**kwargs)


def test_mtry_larger_than_feature_count_rejected():
    x = np.zeros((5, 2))
    with pytest.raises(ParameterError):
        fit_forest(x, [0] * 5, ForestParams(trees=1, sample_size=5, mtry=3))


# ---------------------------------------------------------------- resample


def test_poisson_counts_deterministic():
    a = poisson_counts(7, 13, 5, 0.5)
    b = poisson_counts(7, 13, 5, 0.5)
    np.testing.assert_array_equal(a, b)
    assert a.min() >= 0


@pytest.mark.parametrize("rate", [1e-6, 0.025, 1.0, 10.0, 800.0])
def test_count_block_rows_equal_scalar_counts(rate):
    start, count, trees = 9_990, 40, 6
    block = poisson_count_block(4, start, count, trees, rate)
    assert block.shape == (count, trees) and block.dtype == np.int64
    scalar = np.stack([poisson_counts(4, start + r, trees, rate) for r in range(count)])
    assert np.array_equal(block, scalar)


def test_count_block_mean_and_variance_at_large_rate():
    # exp(-800) underflows: the CDF table must be built in log space
    rate, n = 800.0, 20_000
    draws = poisson_count_block(9, 17, n, 3, rate).ravel().astype(float)
    size = draws.size
    assert abs(draws.mean() - rate) <= 5 * math.sqrt(rate / size)
    # Var of the sample variance of Poisson draws: (rate + 2 rate^2) / size
    assert abs(draws.var(ddof=1) - rate) <= 5 * math.sqrt((rate + 2 * rate * rate) / size)


@pytest.mark.parametrize("rate", [0.0, -1.0, math.inf, math.nan])
def test_count_block_rejects_bad_rate(rate):
    with pytest.raises(ParameterError):
        poisson_count_block(0, 0, 3, 2, rate)


def test_resample_map_emits_each_pair_count_times():
    params = ForestParams(trees=8, sample_size=40, mtry=1, seed=3)
    rows = np.arange(15.0).reshape(5, 3)
    split = InputSplit(1, rows, (5, 9))
    counts = poisson_count_block(3, 5, 5, 8, 40 / 20)
    pairs = poisson_resample_split(split, params, 20)
    expected = [(r, j) for r in range(5) for j in range(8) for _ in range(counts[r, j])]
    assert len(pairs) == len(expected)  # record-major, trees ascending
    for (key, value), (r, j) in zip(pairs, expected):
        assert parse_u32_key(key) == j
        assert np.array_equal(parse_f64s(value), rows[r])


def test_per_tree_sample_size_concentrates_near_k():
    # sum of n Poisson(k/n) draws is Poisson(k)
    n, k = 2000, 100
    total = int(poisson_count_block(11, 0, n, 1, k / n).sum())
    assert abs(total - k) <= 3 * math.sqrt(k)


def test_never_sampled_fraction_tracks_poisson_zero_mass():
    n = 20_000
    counts = poisson_count_block(5, 0, n, 1, 1.0)  # k = n
    never = int(np.count_nonzero(counts[:, 0] == 0))
    assert never / n == pytest.approx(math.exp(-1.0), abs=0.02)


def test_fit_forest_grows_each_tree_from_its_growth_key(monkeypatch):
    # Tree j grows from its own key, which is not its Poisson stream's key.
    keys = []
    real = forest.train_tree_reduce
    monkeypatch.setattr(
        forest, "train_tree_reduce",
        lambda x, y, params, key, *rest: keys.append(key) or real(x, y, params, key, *rest),
    )
    x, y = blobs(seed=2, n_per=50)
    fit_forest(x, y, ForestParams(trees=6, sample_size=100, mtry=2, seed=4))
    assert sorted(keys) == sorted(forest._growth_key(4, j) for j in range(6))
    assert not set(keys) & {forest._tree_seed(4, j) for j in range(6)}


def test_growth_draws_do_not_reuse_the_poisson_stream():
    for seed in (0, 4, 2**64 - 1):
        for tree in range(8):
            root = record_uniforms(forest._growth_key(seed, tree), 0, 16)
            poisson = record_uniforms(forest._tree_seed(seed, tree), 0, 16)  # records 0..15
            assert not np.any(root == poisson)


# ------------------------------------------------------------ tree training


def test_pure_sample_gives_single_leaf():
    x = np.array([[0.0], [1.0], [2.0]])
    y = np.array([1.0, 1.0, 1.0])
    params = ForestParams(trees=1, sample_size=3, mtry=1)
    tree = train_tree_reduce(x, y, params, 0, CLASSIFICATION, n_classes=2)
    assert tree.nodes == [{"class": 1}]


def test_two_point_split_lands_at_midpoint():
    x = np.array([[0.0], [1.0]])
    y = np.array([0.0, 1.0])
    params = ForestParams(trees=1, sample_size=2, mtry=1)
    tree = train_tree_reduce(x, y, params, 0, CLASSIFICATION, n_classes=2)
    root = tree.nodes[0]
    assert root["feature"] == 0
    assert root["threshold"] == 0.5
    assert tree.predict([0.2]) == 0
    assert tree.predict([0.8]) == 1


def oracle_best_split(x, y, min_leaf, task, n_classes):
    """Exhaustive search over all features and midpoints, direct counting."""
    n = len(y)
    best = None
    for f in range(x.shape[1]):
        values = np.unique(x[:, f])
        for lo, hi in zip(values[:-1], values[1:]):
            t = (lo + hi) / 2.0
            left = y[x[:, f] <= t]
            right = y[x[:, f] > t]
            if len(left) < min_leaf or len(right) < min_leaf:
                continue
            if task == CLASSIFICATION:
                def gini(sub):
                    fracs = np.bincount(sub.astype(np.int64), minlength=n_classes) / len(sub)
                    return 1.0 - np.sum(fracs**2)
                score = len(left) / n * gini(left) + len(right) / n * gini(right)
            else:
                def var(sub):
                    return np.sum(sub * sub) / len(sub) - (np.sum(sub) / len(sub)) ** 2
                score = len(left) / n * var(left) + len(right) / n * var(right)
            if best is None or score < best[0]:
                best = (float(score), f, float(t))
    return best


@pytest.mark.parametrize("seed", range(6))
def test_root_split_matches_exhaustive_oracle_classification(seed):
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 6, size=(40, 3)).astype(float)  # discrete grid: plenty of ties
    y = rng.integers(0, 3, size=40).astype(float)
    params = ForestParams(trees=1, sample_size=40, mtry=3, max_depth=1, seed=seed)
    tree = train_tree_reduce(x, y, params, seed, CLASSIFICATION, n_classes=3)
    expected = oracle_best_split(x, y, 1, CLASSIFICATION, 3)
    root = tree.nodes[0]
    assert (root["feature"], root["threshold"]) == (expected[1], expected[2])


@pytest.mark.parametrize("seed", range(6))
def test_root_split_matches_exhaustive_oracle_regression(seed):
    rng = np.random.default_rng(100 + seed)
    x = rng.integers(0, 5, size=(30, 2)).astype(float)
    y = rng.integers(-10, 10, size=30).astype(float)  # integer labels: exact sums
    if np.all(y == y[0]):
        y[0] += 1.0
    params = ForestParams(trees=1, sample_size=30, mtry=2, max_depth=1, seed=seed)
    tree = train_tree_reduce(x, y, params, seed, REGRESSION)
    expected = oracle_best_split(x, y, 1, REGRESSION, 0)
    root = tree.nodes[0]
    if expected is None:
        assert "value" in root
    else:
        assert (root["feature"], root["threshold"]) == (expected[1], expected[2])


def test_max_depth_bounds_tree():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(200, 3))
    y = (x[:, 0] + x[:, 1] > 0).astype(float)
    params = ForestParams(trees=1, sample_size=200, mtry=3, max_depth=2)
    tree = train_tree_reduce(x, y, params, 1, CLASSIFICATION, n_classes=2)
    assert tree.depth() <= 2


def test_min_leaf_respected_by_every_split():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(80, 2))
    y = (x[:, 0] > 0).astype(float)
    params = ForestParams(trees=1, sample_size=80, mtry=2, min_leaf=7)
    tree = train_tree_reduce(x, y, params, 2, CLASSIFICATION, n_classes=2)

    def leaf_sizes(node_id, rows):
        node = tree.nodes[node_id]
        if "feature" not in node:
            return [len(rows)]
        mask = x[rows, node["feature"]] <= node["threshold"]
        return leaf_sizes(node["left"], rows[mask]) + leaf_sizes(node["right"], rows[~mask])

    assert min(leaf_sizes(0, np.arange(80))) >= 7


def subtree(tree, node_id):
    """The subtree under node_id as nested dicts, free of node numbering."""
    node = dict(tree.nodes[node_id])
    if "feature" in node:
        node["left"] = subtree(tree, node["left"])
        node["right"] = subtree(tree, node["right"])
    return node


@pytest.mark.parametrize("task", [CLASSIFICATION, REGRESSION])
def test_regrowing_from_a_node_reproduces_its_subtree(task):
    # A node's draws depend on its key alone, not on the order nodes grow in.
    rng = np.random.default_rng(12)
    x = rng.normal(size=(300, 4))
    if task == CLASSIFICATION:
        y, n_classes = (x[:, 0] + x[:, 1] > 0) + (x[:, 2] > 0.5).astype(float), 3
    else:
        y, n_classes = 2.0 * x[:, 0] + rng.normal(size=300), 0
    params = ForestParams(trees=1, sample_size=300, mtry=2, max_depth=8)
    tree = train_tree_reduce(x, y, params, 77, task, n_classes)
    internal = 0
    work = [(0, np.arange(300), 0, 77)]  # node, rows, depth, node key
    while work:
        node_id, rows, depth, key = work.pop(0)  # breadth-first
        node = tree.nodes[node_id]
        if "feature" not in node:
            continue
        internal += 1
        rest = dataclasses.replace(params, max_depth=params.max_depth - depth)
        regrown = train_tree_reduce(x[rows], y[rows], rest, key, task, n_classes)
        assert subtree(regrown, 0) == subtree(tree, node_id)
        mask = x[rows, node["feature"]] <= node["threshold"]
        left_key, right_key = forest._child_keys(key)
        work.append((node["left"], rows[mask], depth + 1, left_key))
        work.append((node["right"], rows[~mask], depth + 1, right_key))
    assert internal >= 10


@pytest.mark.parametrize("p, mtry", [(4, 2), (5, 3), (3, 1)])
def test_node_feature_subsets_are_uniform(p, mtry):
    trials = 10_000
    keys = [forest._growth_key(0, 0)]  # the keys of a tree's first 10^4 nodes
    for key in keys:
        if len(keys) >= trials:
            break
        keys.extend(forest._child_keys(key))
    counts = collections.Counter(
        tuple(sorted(forest._node_features(key, p, mtry).tolist())) for key in keys[:trials]
    )
    subsets = list(itertools.combinations(range(p), mtry))
    assert set(counts) == set(subsets)
    share = 1.0 / len(subsets)
    sigma = math.sqrt(trials * share * (1.0 - share))
    for subset in subsets:
        assert abs(counts[subset] - trials * share) <= 5 * sigma, subset


def test_empty_sample_rejected():
    params = ForestParams(trees=1, sample_size=1, mtry=1)
    with pytest.raises(ParameterError):
        train_tree_reduce(np.zeros((0, 1)), np.zeros(0), params, 0, REGRESSION)


# ------------------------------------------------------------------- forest


def test_forest_separates_blobs():
    x, y = blobs(seed=3)
    params = ForestParams(trees=10, sample_size=500, mtry=2, seed=7)
    model, stats = fit_forest(x, y, params)
    predictions = [predict_forest(model, row) for row in x]
    accuracy = np.mean([p == t for p, t in zip(predictions, y)])
    assert accuracy >= 0.95
    assert len(model.trees) == 10
    assert stats.iterations == 1  # a single MR round


def test_forest_deterministic_serialization():
    x, y = blobs(seed=4, n_per=150)
    params = ForestParams(trees=5, sample_size=100, mtry=1, seed=21)
    m1, _ = fit_forest(x, y, params)
    m2, _ = fit_forest(x, y, params)
    assert m1.to_json() == m2.to_json()


def test_forest_split_layout_invariant():
    x, y = blobs(seed=5, n_per=100)
    params = ForestParams(trees=4, sample_size=80, mtry=2, seed=2)
    base, base_stats = fit_forest(x, y, params, config=ClusterConfig(num_splits=1))
    for splits in (2, 3, 8):
        model, stats = fit_forest(x, y, params, config=ClusterConfig(num_splits=splits))
        assert model.to_json() == base.to_json()
        assert stats == base_stats


@pytest.mark.parametrize("k", [20, 200, 800])
def test_three_resampling_regimes_all_train(k):
    # k*m below, near and above n all go through the same code path
    x, y = blobs(seed=6, n_per=100)
    params = ForestParams(trees=3, sample_size=k, mtry=1, seed=1)
    model, _ = fit_forest(x, y, params)
    assert len(model.trees) == 3


def test_degenerate_trees_flagged_and_vote_majority():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(40, 1))
    y = [0] * 25 + [1] * 15  # majority class 0
    params = ForestParams(trees=30, sample_size=1, mtry=1, seed=13)  # rate 1/40
    model, _ = fit_forest(x, y, params)
    degenerate = [t for t in model.trees if t.degenerate]
    assert degenerate  # with rate 0.025 most trees see no records
    assert all(t.nodes == [{"class": 0}] for t in degenerate)


def test_regression_forest_predicts_mean_of_trees():
    leaf = lambda v: TreeModel(nodes=[{"value": v}])
    model = ForestModel([leaf(1.0), leaf(2.0), leaf(4.0)], REGRESSION)
    assert predict_forest(model, [0.0]) == pytest.approx(7.0 / 3.0)


def test_majority_vote_and_tie_rule():
    leaf = lambda c: TreeModel(nodes=[{"class": c}])
    model = ForestModel([leaf(0), leaf(1), leaf(1)], CLASSIFICATION, classes=["a", "b"])
    assert predict_forest(model, [0.0]) == "b"
    tied = ForestModel([leaf(0), leaf(1)], CLASSIFICATION, classes=["a", "b"])
    assert predict_forest(tied, [0.0]) == "a"  # tie -> smallest class index


def test_all_identical_trees_match_single_tree():
    x, y = blobs(seed=9, n_per=60)
    params = ForestParams(trees=1, sample_size=60, mtry=2, seed=5)
    single, _ = fit_forest(x, y, params)
    cloned = ForestModel(single.trees * 5, CLASSIFICATION, classes=single.classes)
    for row in x[:20]:
        assert predict_forest(cloned, row) == predict_forest(single, row)


def test_model_json_roundtrip():
    x, y = blobs(seed=10, n_per=80)
    params = ForestParams(trees=3, sample_size=60, mtry=1, seed=17)
    model, _ = fit_forest(x, y, params)
    assert json.loads(model.to_json()) == model.as_dict()
    restored = ForestModel.from_json(model.to_json())
    assert restored.task == model.task
    assert restored.classes == model.classes
    assert json.loads(restored.to_json()) == json.loads(model.to_json())
    for row in x[:10]:
        assert predict_forest(restored, row) == predict_forest(model, row)
