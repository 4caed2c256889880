"""Random forests trained in one MapReduce round via Poisson resampling.

Drawing each record's replication count per tree from Poisson(k/n)
approximates m independent with-replacement samples of size k without
any coordination between mappers: the map step emits record copies
keyed by tree id, the shuffle routes each tree's multiset to a single
reducer, and the reducer grows a CART-style tree. The same machinery
covers undersampling (k*m < n), rebalancing (= n) and oversampling
(> n).

Replication counts are counter-based (Salmon et al., "Parallel Random
Numbers: As Easy as 1, 2, 3", SC 2011): tree j's uniform stream is keyed
by (seed, j) and indexed by the global record index, and each uniform is
turned into a count by inverse CDF. A count depends on (seed, record,
tree) alone, so resampling is independent of how records are laid out
across splits, and a map task draws its whole split in one block. Tree
growth draws the same way: each node's features come from uniforms keyed
by the node's key, which is fixed by the tree's growth key and the
node's left/right path from the root, not by the order nodes are grown.
"""

from __future__ import annotations

import bisect
import functools
import json
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .encoding import f64s_value, parse_f64s_rows, parse_u32_key, u32_key
from .engine import ClusterConfig, InputSplit, JobSpec, KeyValue, RunStats, run_job
from .errors import ParameterError
from .rng import record_uniform, record_uniforms, splitmix64

CLASSIFICATION = "classification"
REGRESSION = "regression"


@dataclass(frozen=True)
class ForestParams:
    trees: int  # m
    sample_size: int  # k, target records per tree
    mtry: int  # features drawn per node
    max_depth: Optional[int] = None
    min_leaf: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.trees < 1:
            raise ParameterError(f"trees must be >= 1, got {self.trees}")
        if self.sample_size < 1:
            raise ParameterError(f"sample_size must be >= 1, got {self.sample_size}")
        if self.mtry < 1:
            raise ParameterError(f"mtry must be >= 1, got {self.mtry}")
        if self.max_depth is not None and self.max_depth < 0:
            raise ParameterError(f"max_depth must be >= 0, got {self.max_depth}")
        if self.min_leaf < 1:
            raise ParameterError(f"min_leaf must be >= 1, got {self.min_leaf}")


@dataclass
class TreeModel:
    """Binary tree as a flat node list; node 0 is the root.

    Internal nodes: {"feature", "threshold", "left", "right"} with
    child node indices; records with value <= threshold go left.
    Leaves: {"class": int} or {"value": float}. degenerate marks trees
    that received no sample and fall back to the global prediction.
    """

    nodes: list = field(default_factory=list)
    degenerate: bool = False

    def predict(self, x) -> float:
        node = self.nodes[0]
        while "feature" in node:
            node = self.nodes[node["left"] if x[node["feature"]] <= node["threshold"] else node["right"]]
        return node["class"] if "class" in node else node["value"]

    def depth(self) -> int:
        def walk(i: int) -> int:
            node = self.nodes[i]
            if "feature" not in node:
                return 0
            return 1 + max(walk(node["left"]), walk(node["right"]))

        return walk(0)

    def as_dict(self) -> dict:
        """The serialized form shared by model files and shuffle values."""
        return {"degenerate": self.degenerate, "nodes": self.nodes}

    @classmethod
    def from_dict(cls, raw: dict) -> "TreeModel":
        return cls(raw["nodes"], raw["degenerate"])


@dataclass
class ForestModel:
    trees: list  # m TreeModels, indexed by tree id
    task: str
    classes: Optional[list] = None  # original labels, sorted; classification only

    def as_dict(self) -> dict:
        """The model as plain JSON types: the one form behind to_json and
        the CLI report."""
        return {
            "task": self.task,
            "classes": self.classes,
            "trees": [t.as_dict() for t in self.trees],
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ForestModel":
        raw = json.loads(text)
        trees = [TreeModel.from_dict(t) for t in raw["trees"]]
        return cls(trees, raw["task"], raw["classes"])


# A Poisson CDF table stops once the mass beyond it is below the
# resolution of a 53-bit uniform.
_TAIL = 2.0**-53


@functools.lru_cache(maxsize=32)
def _poisson_cdf(rate: float) -> tuple[float, ...]:
    """P(X <= k) for X ~ Poisson(rate), k = 0, 1, ... until P(X >= k) < 2**-53.

    Each mass is exp of its log (``lgamma``), so no term is derived from
    exp(-rate), which underflows to 0 for rates above about 745. Past the
    mean, P(X >= k) <= pmf(k) * (k + 1) / (k + 1 - rate) bounds the tail.
    """
    if not (rate > 0.0 and math.isfinite(rate)):
        raise ParameterError(f"Poisson rate must be positive and finite, got {rate}")
    log_rate = math.log(rate)
    cdf = []
    total = 0.0
    k = 0
    while True:
        mass = math.exp(k * log_rate - rate - math.lgamma(k + 1))
        total += mass
        cdf.append(total)
        if k + 1 > rate and mass * (k + 1) / (k + 1 - rate) < _TAIL:
            return tuple(cdf)
        k += 1


def _tree_seed(seed: int, tree: int) -> int:
    """The key of tree ``tree``'s uniform stream under ``seed``."""
    return splitmix64(splitmix64(seed) ^ tree)


def _growth_key(seed: int, tree: int) -> int:
    """The key of tree ``tree``'s root under ``seed``: the stream key of
    tree ``~tree`` (all bits flipped), a tree that no forest reaches, so
    growth never draws from a Poisson stream."""
    return _tree_seed(seed, ~tree)


def _child_keys(key: int) -> tuple[int, int]:
    """The keys of a node's left and right children, from its key alone."""
    return splitmix64(key ^ 1), splitmix64(key ^ 2)


def _node_features(key: int, p: int, mtry: int) -> np.ndarray:
    """A node's features: the mtry smallest of p uniforms keyed by the
    node, ties to the smaller index."""
    return np.argsort(record_uniforms(key, 0, p), kind="stable")[:mtry]


def poisson_counts(seed: int, record_index: int, trees: int, rate: float) -> np.ndarray:
    """Replication counts p_ij ~ Poisson(rate) for one record across all
    trees: the scalar form of ``poisson_count_block``, bit-identical to
    row ``record_index - start`` of any block that holds the record."""
    cdf = _poisson_cdf(rate)
    return np.array(
        [bisect.bisect_right(cdf, record_uniform(_tree_seed(seed, j), record_index))
         for j in range(trees)],
        dtype=np.int64,
    )


def poisson_count_block(seed: int, start: int, count: int, trees: int, rate: float) -> np.ndarray:
    """Replication counts of records start..start+count-1 across all trees,
    as a (count, trees) int64 array: the inverse Poisson CDF of each
    tree's counter-based uniforms."""
    cdf = np.array(_poisson_cdf(rate))
    out = np.empty((count, trees), dtype=np.int64)
    for j in range(trees):
        out[:, j] = np.searchsorted(cdf, record_uniforms(_tree_seed(seed, j), start, count), side="right")
    return out


def poisson_resample_split(split: InputSplit, params: ForestParams, n: int) -> list[KeyValue]:
    """Map one split of (features..., label) rows: emit (tree j, row)
    p_ij ~ Poisson(k/n) times, record by record, trees ascending."""
    rows = split.records
    counts = poisson_count_block(
        params.seed, split.origin_range[0], len(rows), params.trees, params.sample_size / n,
    )
    keys = [u32_key(j) for j in range(params.trees)]
    payloads = [f64s_value(row) for row in rows]
    out: list[KeyValue] = []
    records, trees = np.nonzero(counts)  # row-major: record, then tree
    for r, j, c in zip(records.tolist(), trees.tolist(), counts[records, trees].tolist()):
        out.extend([KeyValue(keys[j], payloads[r])] * c)
    return out


def _class_counts(y_idx: np.ndarray, n_classes: int) -> np.ndarray:
    return np.bincount(y_idx, minlength=n_classes)


def _split_scores(cut: np.ndarray, ys: np.ndarray, n: int, task: str, n_classes: int) -> np.ndarray:
    """Weighted impurity of splitting sorted labels ys at each left size in cut."""
    sizes_l = cut.astype(float)
    sizes_r = n - sizes_l
    if task == CLASSIFICATION:
        onehot = (ys[:, None] == np.arange(n_classes)).astype(np.int64)
        left = np.cumsum(onehot, axis=0)[cut - 1]
        right = _class_counts(ys.astype(np.int64), n_classes) - left
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


def _best_split(x: np.ndarray, y: np.ndarray, feature_ids, min_leaf: int, task: str, n_classes: int):
    """Best (feature, threshold) over midpoints of sorted distinct values.

    Returns (score, feature, threshold) or None when no candidate
    satisfies min_leaf. Features are scanned in ascending index order
    and only strictly better scores replace the incumbent, so ties go
    to the smallest feature index, then the smallest threshold.
    """
    n = x.shape[0]
    best = None
    for f in sorted(int(f) for f in feature_ids):
        order = np.argsort(x[:, f], kind="stable")
        xs = x[order, f]
        cut = np.flatnonzero(xs[:-1] < xs[1:]) + 1  # left sizes at distinct-value boundaries
        cut = cut[(cut >= min_leaf) & (n - cut >= min_leaf)]
        if cut.size == 0:
            continue
        scores = _split_scores(cut, y[order], n, task, n_classes)
        row = int(np.argmin(scores))  # first minimum = smallest threshold
        if best is None or float(scores[row]) < best[0]:
            threshold = (xs[cut[row] - 1] + xs[cut[row]]) / 2.0
            best = (float(scores[row]), f, float(threshold))
    return best


def _leaf_payload(y: np.ndarray, task: str, n_classes: int) -> dict:
    if task == CLASSIFICATION:
        counts = _class_counts(y.astype(np.int64), n_classes)
        return {"class": int(np.argmax(counts))}
    return {"value": float(np.mean(y))}


def _is_pure(y: np.ndarray) -> bool:
    return bool(np.all(y == y[0]))


def train_tree_reduce(
    x: np.ndarray,
    y: np.ndarray,
    params: ForestParams,
    key: int,
    task: str,
    n_classes: int = 0,
) -> TreeModel:
    """Grow one CART tree from a tree's resampled records.

    At each node, mtry features are drawn without replacement and the
    impurity-minimizing midpoint split is taken (Gini for
    classification, variance for regression); growth stops on purity,
    max_depth, min_leaf, or when no feature varies. ``key`` is the
    root's key; a node's draw depends on its key alone, so regrowing
    from a node's rows with its key and the depth left reproduces its
    subtree. Nodes are numbered depth-first, left child first.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape[0] == 0:
        raise ParameterError("cannot train a tree on an empty sample")
    p = x.shape[1]
    mtry = min(params.mtry, p)
    tree = TreeModel(nodes=[{}])
    # work items: (node index, row subset, depth, node key); right child pushed first
    stack = [(0, np.arange(x.shape[0]), 0, key)]
    while stack:
        node_id, rows, depth, node_key = stack.pop()
        sub_y = y[rows]
        can_split = (
            rows.size >= 2 * params.min_leaf
            and not _is_pure(sub_y)
            and (params.max_depth is None or depth < params.max_depth)
        )
        split = None
        if can_split:
            feature_ids = _node_features(node_key, p, mtry)
            split = _best_split(x[rows], sub_y, feature_ids, params.min_leaf, task, n_classes)
        if split is None:
            tree.nodes[node_id] = _leaf_payload(sub_y, task, n_classes)
            continue
        _score, feat, threshold = split
        mask = x[rows, feat] <= threshold
        left_id, right_id = len(tree.nodes), len(tree.nodes) + 1
        tree.nodes += [{}, {}]
        tree.nodes[node_id] = {
            "feature": int(feat), "threshold": float(threshold), "left": left_id, "right": right_id,
        }
        left_key, right_key = _child_keys(node_key)
        stack.append((right_id, rows[~mask], depth + 1, right_key))
        stack.append((left_id, rows[mask], depth + 1, left_key))
    return tree


def fit_forest(
    features,
    labels,
    params: ForestParams,
    task: str = CLASSIFICATION,
    config: Optional[ClusterConfig] = None,
) -> tuple[ForestModel, RunStats]:
    """One MR round: Poisson-resample map, shuffle by tree id, CART reduce.

    Classification labels may be arbitrary hashable values; they are
    mapped to the sorted class list carried by the model. Trees whose
    Poisson draws left them without a single record become degenerate
    single-leaf trees predicting the global majority/mean.
    """
    if task not in (CLASSIFICATION, REGRESSION):
        raise ParameterError(f"task must be classification or regression, got {task!r}")
    x = np.asarray(features, dtype=float)
    if x.ndim != 2 or x.shape[0] < 1:
        raise ParameterError("features must be a non-empty (n, p) array")
    n, p = x.shape
    if params.mtry > p:
        raise ParameterError(f"mtry={params.mtry} exceeds feature count {p}")
    labels = list(labels)
    if len(labels) != n:
        raise ParameterError(f"got {len(labels)} labels for {n} records")

    if task == CLASSIFICATION:
        classes = sorted(set(labels))
        class_index = {c: i for i, c in enumerate(classes)}
        y = np.array([class_index[v] for v in labels], dtype=float)
        n_classes = len(classes)
    else:
        classes = None
        y = np.asarray(labels, dtype=float)
        n_classes = 0

    def reducer(key, values):
        tree_id = parse_u32_key(key)
        rows = parse_f64s_rows(values)
        tree = train_tree_reduce(
            rows[:, :-1], rows[:, -1], params,
            _growth_key(params.seed, tree_id), task, n_classes,
        )
        return [KeyValue(key, tree_to_bytes(tree))]

    job = JobSpec(lambda split: poisson_resample_split(split, params, n), reducer)
    output, stats = run_job(job, np.column_stack([x, y]), config or ClusterConfig())

    trained = {parse_u32_key(k): tree_from_bytes(v) for k, v in output}
    fallback = _leaf_payload(y, task, n_classes)
    trees = [
        trained.get(j, TreeModel(nodes=[dict(fallback)], degenerate=True))
        for j in range(params.trees)
    ]
    return ForestModel(trees, task, classes), stats


def tree_to_bytes(tree: TreeModel) -> bytes:
    return json.dumps(tree.as_dict(), sort_keys=True).encode("utf-8")


def tree_from_bytes(data: bytes) -> TreeModel:
    return TreeModel.from_dict(json.loads(data.decode("utf-8")))


def predict_forest(model: ForestModel, record) -> object:
    """Majority vote over trees (ties to the smallest class index) or
    mean of tree outputs for regression."""
    x = np.asarray(record, dtype=float)
    outputs = [tree.predict(x) for tree in model.trees]
    if model.task == REGRESSION:
        return float(np.mean(outputs))
    votes = np.bincount(np.asarray(outputs, dtype=np.int64), minlength=len(model.classes))
    return model.classes[int(np.argmax(votes))]
