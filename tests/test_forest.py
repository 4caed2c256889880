import collections
import dataclasses
import hashlib
import itertools
import json
import math
import warnings

import numpy as np
import pytest

from mrlab import forest
from mrlab.encoding import f64s_value, parse_f64s, parse_u32_key
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
    poisson_resample_split,
    predict_forest,
    train_tree_reduce,
)
from mrlab.rng import record_uniforms

from references import counter_hash, poisson_counts, record_uniform, splitmix64


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


def test_poisson_rate_above_the_cap_rejected():
    # the CDF table grows with the rate k/n, so a huge sample_size would never finish
    x = np.zeros((5, 2))
    for k in (5 * forest.MAX_POISSON_RATE + 1, 10**20):
        with pytest.raises(ParameterError, match="Poisson rate above"):
            fit_forest(x, [0] * 5, ForestParams(trees=2, sample_size=k, mtry=1))


# ---------------------------------------------------------------- resample


def test_poisson_counts_deterministic():
    a = poisson_count_block(7, 13, 1, 5, 0.5)
    b = poisson_count_block(7, 13, 1, 5, 0.5)
    np.testing.assert_array_equal(a, b)
    assert a.min() >= 0


@pytest.mark.parametrize("rate", [1e-6, 0.025, 1.0, 10.0, 800.0])
def test_count_block_rows_equal_scalar_counts(rate):
    start, count, trees = 9_990, 40, 6
    block = poisson_count_block(4, start, count, trees, rate)
    assert block.shape == (count, trees) and block.dtype == np.int64
    scalar = np.stack([poisson_counts(4, start + r, trees, rate) for r in range(count)])
    assert np.array_equal(block, scalar)


@pytest.mark.parametrize(
    "seed, start, count, trees, rate",
    [(0, 0, 1, 1, 1.0), (2**64 + 4, 2**40, 7, 3, 0.5), (2**64 - 1, 123, 25, 11, 3.0), (9, 500, 64, 10, 1.0)],
)
def test_count_block_equals_scalar_counts_at_any_coordinates(seed, start, count, trees, rate):
    block = poisson_count_block(seed, start, count, trees, rate)
    scalar = np.stack([poisson_counts(seed, start + r, trees, rate) for r in range(count)])
    assert block.shape == (count, trees) and np.array_equal(block, scalar)


@pytest.mark.parametrize("seed", [0, 4, 2**64 - 1, 2**64 + 4, 2**70])
def test_tree_keys_are_the_counter_hash_of_seed_and_tree(seed):
    # a seed is taken mod 2**64, and the growth key's counter ~tree is negative
    for tree in range(5):
        assert forest._tree_seed(seed, tree) == counter_hash(seed, tree)
        assert forest._growth_key(seed, tree) == counter_hash(seed, ~tree)
        assert forest._growth_key(seed, tree) == counter_hash(seed % 2**64, 2**64 - 1 - tree)


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


def grow(x, y, params, key, task, n_classes=0):
    """The tree whose node table train_tree_reduce returns."""
    return TreeModel.from_table(train_tree_reduce(x, y, params, key, task, n_classes), task)


def test_pure_sample_gives_single_leaf():
    x = np.array([[0.0], [1.0], [2.0]])
    y = np.array([1.0, 1.0, 1.0])
    params = ForestParams(trees=1, sample_size=3, mtry=1)
    tree = grow(x, y, params, 0, CLASSIFICATION, n_classes=2)
    assert tree.nodes == [{"class": 1}]


def test_two_point_split_lands_at_midpoint():
    x = np.array([[0.0], [1.0]])
    y = np.array([0.0, 1.0])
    params = ForestParams(trees=1, sample_size=2, mtry=1)
    tree = grow(x, y, params, 0, CLASSIFICATION, n_classes=2)
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
    tree = grow(x, y, params, seed, CLASSIFICATION, n_classes=3)
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
    tree = grow(x, y, params, seed, REGRESSION)
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
    tree = grow(x, y, params, 1, CLASSIFICATION, n_classes=2)
    assert tree.depth() <= 2


def test_min_leaf_respected_by_every_split():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(80, 2))
    y = (x[:, 0] > 0).astype(float)
    params = ForestParams(trees=1, sample_size=80, mtry=2, min_leaf=7)
    tree = grow(x, y, params, 2, CLASSIFICATION, n_classes=2)

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
    tree = grow(x, y, params, 77, task, n_classes)
    internal = 0
    work = [(0, np.arange(300), 0, 77)]  # node, rows, depth, node key
    while work:
        node_id, rows, depth, key = work.pop(0)  # breadth-first
        node = tree.nodes[node_id]
        if "feature" not in node:
            continue
        internal += 1
        rest = dataclasses.replace(params, max_depth=params.max_depth - depth)
        regrown = grow(x[rows], y[rows], rest, key, task, n_classes)
        assert subtree(regrown, 0) == subtree(tree, node_id)
        mask = x[rows, node["feature"]] <= node["threshold"]
        left_key, right_key = forest._child_keys(np.array([key], dtype=np.uint64))[0].tolist()
        work.append((node["left"], rows[mask], depth + 1, left_key))
        work.append((node["right"], rows[~mask], depth + 1, right_key))
    assert internal >= 10


def first_node_keys(root: int, count: int) -> np.ndarray:
    """The keys of a tree's first ``count`` nodes, breadth-first, left child first."""
    keys = np.array([root], dtype=np.uint64)
    level = keys
    while keys.size < count:
        level = forest._child_keys(level).ravel()
        keys = np.concatenate([keys, level])
    return keys[:count]


def test_array_draws_equal_their_scalar_definition():
    keys = first_node_keys(forest._growth_key(3, 1), 10_000)
    children = forest._child_keys(keys)
    assert children.dtype == np.uint64 and children.shape == (keys.size, 2)
    for p, mtry in [(1, 1), (4, 2), (7, 7)]:
        features = forest._node_features(keys, p, mtry)
        assert features.shape == (keys.size, mtry)
        for key, (left, right), drawn in zip(keys.tolist(), children.tolist(), features.tolist()):
            assert (left, right) == (splitmix64(key ^ 1), splitmix64(key ^ 2))
            assert drawn == sorted(range(p), key=lambda f: record_uniform(key, f))[:mtry]


@pytest.mark.parametrize("p, mtry", [(4, 2), (5, 3), (3, 1)])
def test_node_feature_subsets_are_uniform(p, mtry):
    trials = 10_000
    keys = first_node_keys(forest._growth_key(0, 0), trials)
    counts = collections.Counter(
        tuple(sorted(row)) for row in forest._node_features(keys, p, mtry).tolist()
    )
    subsets = list(itertools.combinations(range(p), mtry))
    assert set(counts) == set(subsets)
    share = 1.0 / len(subsets)
    sigma = math.sqrt(trials * share * (1.0 - share))
    for subset in subsets:
        assert abs(counts[subset] - trials * share) <= 5 * sigma, subset


def depth_first_reference(x, y, params, key, task, n_classes=0):
    """The depth-first grower that level-by-level growth replaced, kept as an
    oracle: one node at a time from a work stack, each drawn feature sorted
    and scanned on its own."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    p = x.shape[1]
    mtry = min(params.mtry, p)

    def class_counts(labels):
        return np.bincount(labels.astype(np.int64), minlength=n_classes)

    def split_scores(cut, ys, n):
        sizes_l = cut.astype(float)
        sizes_r = n - sizes_l
        if task == CLASSIFICATION:
            onehot = (ys[:, None] == np.arange(n_classes)).astype(np.int64)
            left = np.cumsum(onehot, axis=0)[cut - 1]
            right = class_counts(ys) - left
            gini_l = 1.0 - np.sum((left / sizes_l[:, None]) ** 2, axis=1)
            gini_r = 1.0 - np.sum((right / sizes_r[:, None]) ** 2, axis=1)
            return sizes_l / n * gini_l + sizes_r / n * gini_r
        csum = np.cumsum(ys)
        csum2 = np.cumsum(ys * ys)
        sl, sl2 = csum[cut - 1], csum2[cut - 1]
        sr, sr2 = csum[-1] - sl, csum2[-1] - sl2
        var_l = sl2 / sizes_l - (sl / sizes_l) ** 2
        var_r = sr2 / sizes_r - (sr / sizes_r) ** 2
        return sizes_l / n * var_l + sizes_r / n * var_r

    def best_split(xs_all, ys_all, feature_ids):
        n = xs_all.shape[0]
        best = None
        for f in sorted(int(f) for f in feature_ids):
            order = np.argsort(xs_all[:, f], kind="stable")
            xs = xs_all[order, f]
            cut = np.flatnonzero(xs[:-1] < xs[1:]) + 1
            cut = cut[(cut >= params.min_leaf) & (n - cut >= params.min_leaf)]
            if cut.size == 0:
                continue
            scores = split_scores(cut, ys_all[order], n)
            row = int(np.argmin(scores))
            if best is None or float(scores[row]) < best[0]:
                best = (float(scores[row]), f, float((xs[cut[row] - 1] + xs[cut[row]]) / 2.0))
        return best

    nodes = [{}]
    stack = [(0, np.arange(x.shape[0]), 0, key)]
    while stack:
        node_id, rows, depth, node_key = stack.pop()
        sub_y = y[rows]
        split = None
        if (rows.size >= 2 * params.min_leaf and not np.all(sub_y == sub_y[0])
                and (params.max_depth is None or depth < params.max_depth)):
            drawn = sorted(range(p), key=lambda f: record_uniform(node_key, f))[:mtry]
            split = best_split(x[rows], sub_y, drawn)
        if split is None:
            if task == CLASSIFICATION:
                nodes[node_id] = {"class": int(np.argmax(class_counts(sub_y)))}
            else:
                nodes[node_id] = {"value": float(np.mean(sub_y))}
            continue
        _score, feat, threshold = split
        mask = x[rows, feat] <= threshold
        left_id, right_id = len(nodes), len(nodes) + 1
        nodes += [{}, {}]
        nodes[node_id] = {"feature": feat, "threshold": threshold, "left": left_id, "right": right_id}
        stack.append((right_id, rows[~mask], depth + 1, splitmix64(node_key ^ 2)))
        stack.append((left_id, rows[mask], depth + 1, splitmix64(node_key ^ 1)))
    return TreeModel(nodes=nodes)


def as_json(tree):
    return json.dumps(tree.as_dict(), sort_keys=True)


@pytest.mark.parametrize("task", [CLASSIFICATION, REGRESSION])
def test_level_growth_equals_the_depth_first_reference(task):
    # Rounded features tie often; up to 10 classes sums Gini terms pairwise.
    rng = np.random.default_rng(2024 if task == CLASSIFICATION else 2025)
    for case in range(120):
        n, p = int(rng.integers(1, 150)), int(rng.integers(1, 6))
        x = np.round(rng.normal(size=(n, p)) * 3, int(rng.integers(0, 3)))
        if task == CLASSIFICATION:
            n_classes = int(rng.integers(1, 11))
            y = rng.integers(0, n_classes, n).astype(float)
        else:
            n_classes = 0
            y = np.round(rng.normal(size=n) * 5, int(rng.integers(0, 4)))
        params = ForestParams(
            trees=1, sample_size=n, mtry=int(rng.integers(1, p + 1)),
            max_depth=[None, 0, 1, 3][case % 4], min_leaf=int(rng.integers(1, 5)),
        )
        key = int(rng.integers(0, 2**63))
        grown = grow(x, y, params, key, task, n_classes)
        reference = depth_first_reference(x, y, params, key, task, n_classes)
        assert as_json(grown) == as_json(reference), case


@pytest.mark.parametrize("columns", range(1, 8))
def test_class_order_fold_has_the_bits_of_the_row_sum(columns):
    # Below 8 classes _level_splits adds each class's squared shares into one
    # running total instead of summing the stacked columns row by row.
    rng = np.random.default_rng(7000 + columns)
    for length in [*range(1, 41), 2999, 4096]:
        cols = [(rng.integers(0, 97, length) / rng.integers(97, 200, length)) ** 2
                for _ in range(columns)]
        cols[-1][::3] *= 2.0 ** -30  # terms of very different sizes round differently by order
        total = np.zeros(length)
        for col in cols:
            total += col
        stacked = np.sum(np.column_stack(cols), axis=1)
        assert total.tobytes() == stacked.tobytes(), length


@pytest.mark.parametrize("n_classes", range(8, 13))
def test_level_growth_equals_the_reference_at_8_to_12_classes(n_classes):
    # A few distinct feature values and many classes make equal Gini scores
    # common, so the first minimum depends on the last bit of each class sum.
    rng = np.random.default_rng(3030 + n_classes)
    for case in range(40):
        n, p = int(rng.integers(n_classes, 120)), int(rng.integers(2, 6))
        x = rng.integers(0, int(rng.integers(2, 6)), size=(n, p)).astype(float)
        y = rng.integers(0, n_classes, n).astype(float)
        params = ForestParams(trees=1, sample_size=n, mtry=p, max_depth=[None, 2][case % 2])
        key = int(rng.integers(0, 2**63))
        grown = grow(x, y, params, key, CLASSIFICATION, n_classes)
        reference = depth_first_reference(x, y, params, key, CLASSIFICATION, n_classes)
        assert as_json(grown) == as_json(reference), case


@pytest.mark.parametrize("task", [CLASSIFICATION, REGRESSION])
def test_growth_on_poisson_copies_equals_the_depth_first_reference(task):
    # A reducer's rows hold each record's copies back to back. Growth weighs
    # each run of equal adjacent rows by its length; the reference grows on
    # the copies themselves.
    rng = np.random.default_rng(4040 if task == CLASSIFICATION else 4041)
    for case in range(96):
        n, p = int(rng.integers(1, 60)), int(rng.integers(1, 5))
        x = np.round(rng.normal(size=(n, p)) * 3, int(rng.integers(0, 3)))
        if task == CLASSIFICATION:
            n_classes = case % 12 + 1
            y = rng.integers(0, n_classes, n).astype(float)
        else:
            n_classes = 0
            y = np.round(rng.normal(size=n) * 5, int(rng.integers(0, 4)))
        counts = rng.poisson([0.5, 1.0, 3.0][case % 3], n)  # zeros drop records
        counts[0] += counts.sum() == 0
        x, y = np.repeat(x, counts, axis=0), np.repeat(y, counts)
        params = ForestParams(
            trees=1, sample_size=n, mtry=int(rng.integers(1, p + 1)),
            max_depth=[None, 0, 1, 3][case % 4], min_leaf=case // 4 % 4 + 1,
        )
        key = int(rng.integers(0, 2**63))
        grown = grow(x, y, params, key, task, n_classes)
        reference = depth_first_reference(x, y, params, key, task, n_classes)
        assert as_json(grown) == as_json(reference), case


@pytest.mark.parametrize("labels", [[-0.1, 2.1, -0.1], [0.3, 9.0, 0.3, 0.3, 9.0]])
def test_equal_rows_apart_are_not_merged(labels):
    # Equal rows that are not adjacent stay apart. A leaf's mean adds its
    # labels in row order; gathering the equal rows, in order of first
    # occurrence or sorted, makes the sum round differently.
    y = np.array(labels)
    x = np.zeros((y.size, 1))
    _, first, inverse = np.unique(y, return_index=True, return_inverse=True)
    for gathered in (y[np.argsort(first[inverse], kind="stable")], np.sort(y)):
        assert np.mean(gathered) != np.mean(y)
    params = ForestParams(trees=1, sample_size=y.size, mtry=1)
    tree = grow(x, y, params, 3, REGRESSION)
    assert tree.nodes == [{"value": float(np.mean(y))}]
    assert as_json(tree) == as_json(depth_first_reference(x, y, params, 3, REGRESSION))


@pytest.mark.parametrize("counts, splits", [((2, 2), True), ((1, 3), False), ((3, 1), False), ((2, 5), True)])
def test_min_leaf_counts_copies_not_distinct_rows(counts, splits):
    # Two distinct rows: the cut between them leaves min_leaf = 2 on each side
    # only when each row's copies are counted.
    x = np.repeat([[0.0], [1.0]], counts, axis=0)
    y = np.repeat([0.0, 1.0], counts)
    params = ForestParams(trees=1, sample_size=len(y), mtry=1, min_leaf=2)
    tree = grow(x, y, params, 9, CLASSIFICATION, 2)
    if splits:
        assert tree.nodes[0] == {"feature": 0, "threshold": 0.5, "left": 1, "right": 2}
        assert tree.nodes[1:] == [{"class": 0}, {"class": 1}]
    else:
        assert tree.nodes == [{"class": int(counts[1] > counts[0])}]
    assert as_json(tree) == as_json(depth_first_reference(x, y, params, 9, CLASSIFICATION, 2))


# SHA-256 of fit_forest(...).to_json(), recorded from the depth-first grower.
FIT_DIGESTS = {
    CLASSIFICATION: "5c0483089c78fe8ba93307d4b67b13b59cc0a8959078811ba09b8e2e89157dd4",
    REGRESSION: "f071def1a011357404ed8282f2a616257ab2f8651ded6feab8ac35f247ddc140",
}


@pytest.mark.parametrize("task", [CLASSIFICATION, REGRESSION])
def test_fitted_forests_are_pinned(task):
    if task == CLASSIFICATION:
        x, y = blobs(seed=11, n_per=150)
        model, _ = fit_forest(np.round(x, 2), y, ForestParams(trees=6, sample_size=300, mtry=1, seed=3))
    else:
        rng = np.random.default_rng(5)
        x = np.round(rng.normal(size=(250, 3)), 2)
        y = 2.0 * x[:, 0] - x[:, 1] ** 2 + np.round(rng.normal(scale=0.3, size=250), 3)
        params = ForestParams(trees=6, sample_size=250, mtry=2, min_leaf=2, seed=8)
        model, _ = fit_forest(x, y, params, REGRESSION)
    assert hashlib.sha256(model.to_json().encode("utf-8")).hexdigest() == FIT_DIGESTS[task]


def test_chain_tree_grows_and_reports_its_depth():
    # Every split peels one row off the alternating half: 999 levels deep.
    x = np.arange(2000.0)[:, None]
    y = np.zeros(2000)
    y[1000:] = np.arange(1000) % 2
    params = ForestParams(trees=1, sample_size=2000, mtry=1)
    tree = grow(x, y, params, 3, CLASSIFICATION, 2)
    assert len(tree.nodes) == 1999
    assert tree.depth() == 999


def test_split_between_adjacent_doubles_separates_them():
    # (b + c) / 2 rounds to c: a threshold of c would send every row left
    # and the same split would repeat below it without end.
    a = 1.0
    b = float(np.nextafter(a, 2.0))
    c = float(np.nextafter(b, 2.0))
    x = np.array([[a], [b], [c], [c]])
    y = np.array([0.0, 1.0, 0.0, 1.0])
    tree = grow(x, y, ForestParams(trees=1, sample_size=4, mtry=1), 5, CLASSIFICATION, 2)
    thresholds = sorted(node["threshold"] for node in tree.nodes if "feature" in node)
    assert thresholds == [a, b]


def test_midpoint_overflow_keeps_the_lower_value():
    x = np.array([[1.0e308], [1.7e308]])
    tree = grow(x, np.array([0.0, 1.0]), ForestParams(trees=1, sample_size=2, mtry=1),
                5, CLASSIFICATION, 2)
    assert tree.nodes[0]["threshold"] == 1.0e308
    assert [tree.predict(row) for row in x] == [0, 1]


def test_negative_midpoint_overflow_keeps_the_lower_value():
    # (lo + hi) / 2 is -inf here, which would send every row right, and
    # without a depth limit the same split would repeat without end
    x = np.array([[-1.7e308], [-1.0e308]])
    params = ForestParams(trees=1, sample_size=2, mtry=1, max_depth=3)
    tree = grow(x, np.array([0.0, 1.0]), params, 5, CLASSIFICATION, 2)
    assert tree.nodes[0]["threshold"] == -1.7e308
    assert [tree.predict(row) for row in x] == [0, 1]


def test_leaf_means_whose_sums_overflow_stay_finite():
    labels = [1.5e308, 1.6e308, 1.7e308, 1.7e308]
    y = np.array(labels)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        leaf = grow(np.zeros((4, 1)), y, ForestParams(trees=1, sample_size=4, mtry=1),
                    5, REGRESSION)
        both = forest._leaf_payloads(np.array([0, 0, 1, 1]), y, np.array([0, 1]), REGRESSION, 0)
        model, _ = fit_forest(np.zeros((4, 1)), labels, ForestParams(trees=3, sample_size=4, mtry=1,
                                                                     max_depth=0), REGRESSION)
        predicted = predict_forest(model, [0.0])
    assert leaf.nodes == [{"value": 1.625e308}]
    assert both.tolist() == [1.55e308, 1.7e308]
    assert all(math.isfinite(t.nodes[0]["value"]) for t in model.trees)
    assert 1.5e308 <= predicted <= 1.7e308
    json.loads(model.to_json())


def test_leaf_means_that_do_not_overflow_keep_their_bits():
    rng = np.random.default_rng(5)
    y = rng.normal(size=50) * 10.0 ** rng.integers(-300, 300, 50)
    nodes = rng.integers(0, 6, 50)
    leaves = np.unique(nodes)
    got = forest._leaf_payloads(nodes, y, leaves, REGRESSION, 0)
    assert got.tolist() == [float(np.mean(y[nodes == i])) for i in leaves]


def test_json_writers_refuse_non_finite_numbers():
    tree = TreeModel([{"value": math.nan}])
    with pytest.raises(ValueError):
        ForestModel([tree], REGRESSION).to_json()


def test_labels_whose_squares_overflow_still_train():
    x = np.arange(6.0)[:, None]
    y = np.array([1e200, -1e200, 3e200, 0.0, 2e200, 1.0])
    params = ForestParams(trees=1, sample_size=6, mtry=1, max_depth=2)
    tree = grow(x, y, params, 5, REGRESSION)
    assert tree.depth() <= 2 and "feature" in tree.nodes[0]


def test_labels_whose_squares_overflow_train_without_warnings():
    # The variances overflow; that must not reach a caller that turns
    # warnings into errors. The digest was recorded with the warnings suppressed.
    x = np.arange(6.0)[:, None]
    y = np.array([1e200, -1e200, 3e200, 0.0, 2e200, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model, _ = fit_forest(x, y, ForestParams(trees=3, sample_size=6, mtry=1, seed=4), REGRESSION)
    digest = hashlib.sha256(model.to_json().encode("utf-8")).hexdigest()
    assert digest == "15837a213ff94fd8c5de67b3b8d41a2c740f41d0601c6b66d23ead9f41ecf6dd"


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_sample_rejected(bad):
    params = ForestParams(trees=1, sample_size=3, mtry=1)
    x = np.array([[0.0], [1.0], [2.0]])
    y = np.array([0.0, 1.0, 2.0])
    with pytest.raises(ParameterError):
        train_tree_reduce(np.where(x == 1.0, bad, x), y, params, 0, REGRESSION)
    with pytest.raises(ParameterError):
        train_tree_reduce(x, np.where(y == 1.0, bad, y), params, 0, REGRESSION)


def test_featureless_sample_rejected():
    params = ForestParams(trees=1, sample_size=3, mtry=1)
    with pytest.raises(ParameterError):
        train_tree_reduce(np.zeros((3, 0)), np.array([0.0, 1.0, 1.0]), params, 0, CLASSIFICATION, 2)


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


# -------------------------------------------------------------- node tables


@pytest.mark.parametrize("task, table, nodes", [
    (CLASSIFICATION,
     [[1, 0.25, 1], [0, -3.5, 3], [-1, 2, -1], [-1, 0, -1], [-1, 1, -1]],
     [{"feature": 1, "threshold": 0.25, "left": 1, "right": 2},
      {"feature": 0, "threshold": -3.5, "left": 3, "right": 4},
      {"class": 2}, {"class": 0}, {"class": 1}]),
    (REGRESSION,
     [[0, 1.5, 1], [2, 1e-300, 3], [1, -7.25, 5],
      [-1, -0.0, -1], [-1, 5e-324, -1], [-1, 1.7e308, -1], [-1, -1.7e308, -1]],
     [{"feature": 0, "threshold": 1.5, "left": 1, "right": 2},
      {"feature": 2, "threshold": 1e-300, "left": 3, "right": 4},
      {"feature": 1, "threshold": -7.25, "left": 5, "right": 6},
      {"value": -0.0}, {"value": 5e-324}, {"value": 1.7e308}, {"value": -1.7e308}]),
], ids=["classification", "regression"])
def test_node_table_round_trips_through_the_float64_codec(task, table, nodes):
    value = f64s_value(np.array(table, dtype=float).ravel())
    assert len(value) == 4 + 24 * len(nodes)
    tree = TreeModel.from_table(parse_f64s(value).reshape(-1, 3), task)
    assert tree.nodes == nodes and not tree.degenerate
    text = json.dumps(tree.as_dict(), sort_keys=True)  # ids and classes stay ints: 2, not 2.0
    assert text == json.dumps({"degenerate": False, "nodes": nodes}, sort_keys=True)
    if task == REGRESSION:  # the sign of zero, the least subnormal and the largest magnitudes keep their bits
        assert [repr(n["value"]) for n in tree.nodes[3:]] == ["-0.0", "5e-324", "1.7e+308", "-1.7e+308"]
        assert '{"value": -0.0}' in text


@pytest.mark.parametrize("task", [CLASSIFICATION, REGRESSION])
def test_fit_forest_trees_are_the_reducers_node_tables(task):
    rng = np.random.default_rng(31)
    n = 120
    x = np.round(rng.normal(size=(n, 3)), 1)
    if task == CLASSIFICATION:
        labels, n_classes = rng.integers(0, 3, n).tolist(), 3  # class i is label i
    else:
        labels, n_classes = np.round(2.0 * x[:, 0] + rng.normal(size=n), 2).tolist(), 0
    y = np.array(labels, dtype=float)
    params = ForestParams(trees=5, sample_size=n, mtry=2, seed=6)
    model, _ = fit_forest(x, labels, params, task, ClusterConfig(num_splits=3))
    counts = poisson_count_block(params.seed, 0, n, params.trees, 1.0)
    for j, tree in enumerate(model.trees):
        rows = np.repeat(np.arange(n), counts[:, j])  # tree j's resampled rows, in record order
        key = forest._growth_key(params.seed, j)
        table = train_tree_reduce(x[rows], y[rows], params, key, task, n_classes)
        assert not tree.degenerate
        assert tree.as_dict() == TreeModel.from_table(table, task).as_dict(), j


@pytest.mark.parametrize("task", [CLASSIFICATION, REGRESSION])
@pytest.mark.parametrize("sample_size", [80, 2])
def test_forest_ledger_writes_each_tree_as_its_node_table(task, sample_size):
    x, labels = blobs(seed=12, n_per=40)
    if task == REGRESSION:
        labels = np.round(x[:, 0], 1).tolist()
    params = ForestParams(trees=12, sample_size=sample_size, mtry=1, seed=3)
    model, stats = fit_forest(x, labels, params, task, ClusterConfig(num_splits=3))
    trained = [t for t in model.trees if not t.degenerate]
    assert trained
    if sample_size == 2:
        assert len(trained) < len(model.trees)  # trees that drew no row write nothing
    map_pair = 4 + 4 + 8 * (x.shape[1] + 1)  # tree key, length prefix, features and label
    tables = sum(4 + 4 + 24 * len(t.nodes) for t in trained)  # tree key, length prefix, nodes
    assert stats.bytes_written == stats.records_shuffled * map_pair + tables
    assert stats.records_written == stats.records_shuffled + len(trained)


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
