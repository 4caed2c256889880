"""Random forests trained in one MapReduce round via Poisson resampling.

Drawing each record's replication count per tree from Poisson(k/n)
approximates m independent with-replacement samples of size k without
any coordination between mappers: the map step emits record copies
keyed by tree id, the shuffle routes each tree's multiset to a single
reducer, and the reducer grows a CART-style tree. The same machinery
covers undersampling (k*m < n), rebalancing (= n) and oversampling
(> n).

Replication counts come from an RNG stream keyed by (seed, record
index, tree id), so resampling is independent of how records are laid
out across splits.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .encoding import f64s_value, parse_f64s, parse_u32_key, u32_key
from .engine import ClusterConfig, JobSpec, KeyValue, RunStats, run_job
from .errors import ParameterError
from .rng import substream

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

    def to_json(self) -> str:
        return json.dumps(
            {
                "task": self.task,
                "classes": self.classes,
                "trees": [t.as_dict() for t in self.trees],
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "ForestModel":
        raw = json.loads(text)
        trees = [TreeModel.from_dict(t) for t in raw["trees"]]
        return cls(trees, raw["task"], raw["classes"])


def poisson_counts(seed: int, record_index: int, trees: int, rate: float) -> np.ndarray:
    """Replication counts p_ij for one record across all trees."""
    return np.array(
        [int(substream(seed, record_index, j).poisson(rate)) for j in range(trees)],
        dtype=np.int64,
    )


def poisson_resample_map(record_index: int, record, params: ForestParams, n: int) -> list:
    """Emit (tree_id, record) exactly p_ij times, p_ij ~ Poisson(k/n)."""
    rate = params.sample_size / n
    counts = poisson_counts(params.seed, record_index, params.trees, rate)
    out = []
    for j in np.flatnonzero(counts):
        out.extend([(int(j), record)] * int(counts[j]))
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
    rng: np.random.Generator,
    task: str,
    n_classes: int = 0,
) -> TreeModel:
    """Grow one CART tree from a tree's resampled records.

    At each node, mtry features are drawn without replacement and the
    impurity-minimizing midpoint split is taken (Gini for
    classification, variance for regression); growth stops on purity,
    max_depth, min_leaf, or when no feature varies. Traversal is
    depth-first, left child first, which fixes the RNG draw order.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape[0] == 0:
        raise ParameterError("cannot train a tree on an empty sample")
    p = x.shape[1]
    mtry = min(params.mtry, p)
    tree = TreeModel()
    # work items: (node index, row subset); children pushed right first
    tree.nodes.append({})
    stack = [(0, np.arange(x.shape[0]))]
    while stack:
        node_id, rows = stack.pop()
        sub_y = y[rows]
        node_depth = tree.nodes[node_id].pop("_depth", 0)
        can_split = (
            rows.size >= 2 * params.min_leaf
            and not _is_pure(sub_y)
            and (params.max_depth is None or node_depth < params.max_depth)
        )
        split = None
        if can_split:
            feature_ids = rng.choice(p, size=mtry, replace=False)
            split = _best_split(x[rows], sub_y, feature_ids, params.min_leaf, task, n_classes)
        if split is None:
            tree.nodes[node_id].update(_leaf_payload(sub_y, task, n_classes))
            continue
        _score, feat, threshold = split
        mask = x[rows, feat] <= threshold
        left_id = len(tree.nodes)
        right_id = left_id + 1
        tree.nodes.append({"_depth": node_depth + 1})
        tree.nodes.append({"_depth": node_depth + 1})
        tree.nodes[node_id].update(
            {"feature": int(feat), "threshold": float(threshold), "left": left_id, "right": right_id}
        )
        stack.append((right_id, rows[~mask]))
        stack.append((left_id, rows[mask]))
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

    def mapper(indexed):
        i, row = indexed
        payload = f64s_value(np.append(x[i], y[i]))
        return [
            KeyValue(u32_key(j), payload)
            for j, _rec in poisson_resample_map(i, row, params, n)
        ]

    def reducer(key, values):
        tree_id = parse_u32_key(key)
        rows = np.stack([parse_f64s(v) for v in values])
        tree = train_tree_reduce(
            rows[:, :-1], rows[:, -1], params,
            substream(params.seed, tree_id), task, n_classes,
        )
        return [KeyValue(key, tree_to_bytes(tree))]

    job = JobSpec(mapper, reducer, name="forest")
    output, stats = run_job(job, list(enumerate(x)), config or ClusterConfig())

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
