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
by ``rng.counter_hash(seed, j)`` and indexed by the global record index,
and each uniform is turned into a count by inverse CDF. A count depends
on (seed, record, tree) alone, so resampling is independent of how
records are laid out across splits, and a map task draws its whole split
in one call. Tree growth draws by the same rule: each node's features
come from the draws keyed by the node's key, which is fixed by the tree's
growth key and its left/right path from the root, not by growth order.

A reducer grows its tree one level at a time over presorted feature
lists, as PLANET (Panda et al., VLDB 2009) expands one level per
MapReduce pass and SLIQ (Mehta, Agrawal and Rissanen, EDBT 1996) keeps
each attribute's rows presorted: the rows are argsorted once per feature,
each level finds the best split of all its nodes in one vectorized pass,
and one stable sort by child node regroups the lists for the next level.
A reducer receives each record's copies back to back and grows on its
distinct rows, each weighted by its run of adjacent copies, as online
bagging (Oza and Russell, AISTATS 2001) weights a record by its Poisson
count; the trees are the same as grown from the copies.
The trees are those a depth-first grower builds, numbered as it numbers
them: the root is 0, and the i-th node to split in a depth-first walk
that visits each left subtree before its right one (counting from 0)
takes ids 2i+1 for its left child and 2i+2 for its right child.

A reducer emits its tree as a node table, a float64 ``f64s_value`` with
three numbers a node (see ``TreeModel.from_table``), built by numpy from
the level arrays. The driver makes each tree's node dicts once, from its
table, and JSON is made once too, for the report or model file.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .encoding import f64s_row_blocks, f64s_value, parse_f64s, parse_f64s_rows, parse_u32_key, u32_key
from .engine import ClusterConfig, InputSplit, JobSpec, RunStats, run_job
from .errors import ParameterError
from .rng import counter_hash, record_draws, record_uniforms, splitmix64_array

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
        """Edges on the longest root-to-leaf path, counted level by level."""
        depth, level = 0, [self.nodes[0]]
        while True:
            level = [self.nodes[node[side]] for node in level if "feature" in node
                     for side in ("left", "right")]
            if not level:
                return depth
            depth += 1

    def as_dict(self) -> dict:
        """The tree as plain JSON types, the form model files and reports hold."""
        return {"degenerate": self.degenerate, "nodes": self.nodes}

    @classmethod
    def from_table(cls, table: np.ndarray, task: str) -> "TreeModel":
        """A tree from its node table, a (nodes, 3) float array whose row i
        holds node i's feature (-1 for a leaf), its threshold (a leaf's
        class id or mean) and its left child's id (-1 for a leaf); a right
        child's id is its left sibling's plus one."""
        feature, value, left = table.T
        if task == CLASSIFICATION:
            key, payloads = "class", np.where(feature < 0, value, 0.0).astype(np.int64).tolist()
        else:
            key, payloads = "value", value.tolist()
        return cls([
            {key: c} if f < 0 else {"feature": f, "threshold": t, "left": l, "right": l + 1}
            for f, t, l, c in zip(feature.astype(np.int64).tolist(), value.tolist(),
                                  left.astype(np.int64).tolist(), payloads)
        ])

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
        """The model as JSON; a non-finite number raises ValueError."""
        return json.dumps(self.as_dict(), sort_keys=True, allow_nan=False)

    @classmethod
    def from_json(cls, text: str) -> "ForestModel":
        raw = json.loads(text)
        trees = [TreeModel.from_dict(t) for t in raw["trees"]]
        return cls(trees, raw["task"], raw["classes"])


# A Poisson CDF table stops once the mass beyond it is below the
# resolution of a 53-bit uniform.
_TAIL = 2.0**-53

# The largest rate k/n a forest draws at. The CDF table has about rate
# entries, each a step of a Python loop, so the cap bounds its build time.
MAX_POISSON_RATE = 2**20


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
    return int(counter_hash(seed, tree)[0])


def _growth_key(seed: int, tree: int) -> int:
    """The key of tree ``tree``'s root under ``seed``: the stream key of
    tree ``~tree`` (all bits flipped), a tree that no forest reaches, so
    growth never draws from a Poisson stream."""
    return _tree_seed(seed, ~tree)


def _child_keys(keys: np.ndarray) -> np.ndarray:
    """The keys of each node's children, from its key alone: row k holds
    splitmix64(keys[k] ^ 1) (left) and splitmix64(keys[k] ^ 2) (right)."""
    return splitmix64_array(keys[:, None] ^ np.array([1, 2], dtype=np.uint64))


def _node_features(keys: np.ndarray, p: int, mtry: int) -> np.ndarray:
    """Each node's features, one row per key of a uint64 array: the mtry
    smallest of the p draws ``record_draws(key, 0, p)``, ties to the
    smaller index."""
    return np.argsort(record_draws(keys, 0, p), axis=1, kind="stable")[:, :mtry]


def poisson_count_block(seed: int, start: int, count: int, trees: int, rate: float) -> np.ndarray:
    """Replication counts of records start..start+count-1 across all trees,
    as a (count, trees) int64 array: the inverse Poisson CDF of each
    tree's counter-based uniforms, all drawn in one call."""
    keys = counter_hash(seed, np.arange(trees, dtype=np.uint64))  # every _tree_seed
    return np.searchsorted(np.array(_poisson_cdf(rate)), record_uniforms(keys, start, count), side="right").T


def poisson_resample_split(split: InputSplit, params: ForestParams, n: int) -> list[tuple[bytes, bytes]]:
    """Map one split of (features..., label) rows: emit (tree j, row)
    p_ij ~ Poisson(k/n) times, record by record, trees ascending."""
    rows = split.records
    counts = poisson_count_block(
        params.seed, split.origin_range[0], len(rows), params.trees, params.sample_size / n,
    )
    keys = [u32_key(j) for j in range(params.trees)]
    payloads = f64s_row_blocks(rows[:, None, :])  # one payload a row
    out: list[tuple[bytes, bytes]] = []
    records, trees = np.nonzero(counts)  # row-major: record, then tree
    for r, j, c in zip(records.tolist(), trees.tolist(), counts[records, trees].tolist()):
        out.extend([(keys[j], payloads[r])] * c)
    return out


def _level_splits(order, starts, sizes, feats, x, y, w, min_leaf, task, classes):
    """The best split of each node of one level, found for all of them at once.

    Node k's rows are ``order[f, starts[k]:starts[k] + sizes[k]]`` for every
    feature f, sorted by that feature; ``feats[k]`` are its drawn features in
    ascending order, and row r stands for ``w[r]`` copies of itself (a
    float64 integer). Candidates are the midpoints of sorted distinct values
    that leave ``min_leaf`` copies on each side, scored by weighted Gini
    impurity (classification) or variance (regression) over the copies. A
    node takes its first minimum over (feature, threshold) ascending, so
    ties go to the smallest feature, then the smallest threshold.

    Returns (nodes, features, thresholds) for the nodes with a candidate;
    a threshold t keeps its left part exactly, as x <= t.
    """
    mtry = feats.shape[1]
    # One segment per (node, drawn feature): node-major, features ascending.
    lens = np.repeat(sizes, mtry)
    seg_start = np.cumsum(lens) - lens
    src = (feats * order.shape[1] + starts[:, None]).ravel()
    rows = order.ravel()[np.arange(int(lens.sum())) + np.repeat(src - seg_start, lens)]
    xs = x[rows, np.repeat(feats.ravel(), lens)]
    ys, ws = y[rows], w[rows]
    weight = np.zeros(xs.size + 1)  # copies before each flat index, exact in float64
    np.cumsum(ws, out=weight[1:])

    # A cut is the flat index of its right part's first row, within a
    # segment. Those that leave under min_leaf copies on a side are dropped.
    is_cut = np.zeros(xs.size + 1, dtype=bool)
    np.less(xs[:-1], xs[1:], out=is_cut[1:-1])
    is_cut[seg_start] = False
    cut = np.flatnonzero(is_cut)
    seg = np.repeat(np.arange(lens.size), lens)[cut]
    seg_end = seg_start + lens
    before = weight[seg_start]
    size = (weight[seg_end] - before)[seg]
    sizes_l = weight[cut] - before[seg]
    sizes_r = size - sizes_l
    valid = np.flatnonzero((sizes_l >= min_leaf) & (sizes_r >= min_leaf))
    if valid.size < cut.size:
        cut, seg, size, sizes_l, sizes_r = cut[valid], seg[valid], size[valid], sizes_l[valid], sizes_r[valid]
    if cut.size == 0:
        return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp), np.zeros(0)
    if task == CLASSIFICATION:
        # Per class: its copies left of each cut, from one running count, and
        # its squared share of each side, written in place. The squares are
        # summed over the classes as np.sum(np.column_stack(...), axis=1)
        # would: numpy adds fewer than 8 terms of a row in order, so below 8
        # classes adding them class by class into sum_l and sum_r gives the
        # same bits; from 8 terms numpy sums pairwise, so 8 or more classes
        # keep their squares in columns and sum those rows.
        fold = classes < 8
        m = cut.size
        if fold:
            sum_l, sum_r = np.zeros(m), np.zeros(m)
            share_l, share_r = np.empty(m), np.empty(m)
        else:
            squares_l, squares_r = np.empty((m, classes)), np.empty((m, classes))
        is_c = np.empty(ys.size, dtype=bool)
        w_c = np.empty(ys.size)
        running = np.zeros(ys.size + 1)
        at_cut, at_base, at_end = np.empty((3, m))
        for c in range(classes):
            np.multiply(np.equal(ys, c, out=is_c), ws, out=w_c)
            np.cumsum(w_c, out=running[1:])
            # mode="clip" takes without a buffer; no index is out of range.
            np.take(running, cut, out=at_cut, mode="clip")
            np.take(running[seg_start], seg, out=at_base, mode="clip")
            np.take(running[seg_end], seg, out=at_end, mode="clip")
            if not fold:
                share_l, share_r = squares_l[:, c], squares_r[:, c]
            np.subtract(at_cut, at_base, out=share_l)
            share_l /= sizes_l
            share_l *= share_l
            np.subtract(at_end, at_cut, out=share_r)
            share_r /= sizes_r
            share_r *= share_r
            if fold:
                sum_l += share_l
                sum_r += share_r
        if not fold:
            sum_l, sum_r = np.sum(squares_l, axis=1), np.sum(squares_r, axis=1)
        gini_l = np.subtract(1.0, sum_l, out=sum_l)
        gini_r = np.subtract(1.0, sum_r, out=sum_r)
        gini_l *= np.divide(sizes_l, size, out=sizes_l)
        gini_r *= np.divide(sizes_r, size, out=sizes_r)
        score = np.add(gini_l, gini_r, out=gini_l)
    else:
        # Prefix sums run over every copy, as repeated additions, and restart
        # at each segment: a running sum minus an offset would round
        # differently. Labels beyond about 1e154 overflow their squares; the
        # nan scores that follow are never the best.
        with np.errstate(over="ignore", invalid="ignore"):
            expanded = np.repeat(ys, ws.astype(np.intp))
            terms = np.column_stack([expanded, expanded * expanded])
            copy_start, copy_end = before.astype(np.intp), weight[seg_end].astype(np.intp)  # per segment
            sums = np.concatenate([
                np.cumsum(terms[a:b], axis=0) for a, b in zip(copy_start.tolist(), copy_end.tolist())
            ])
            at_cut, at_end = weight[cut].astype(np.intp) - 1, copy_end[seg] - 1
            sl, sl2 = sums[at_cut].T
            sr, sr2 = (sums[at_end] - sums[at_cut]).T
            var_l = sl2 / sizes_l - (sl / sizes_l) ** 2
            var_r = sr2 / sizes_r - (sr / sizes_r) ** 2
            score = sizes_l / size * var_l + sizes_r / size * var_r
        score[np.isnan(score)] = np.inf

    bounds = np.searchsorted(seg, np.arange(len(feats) + 1) * mtry)  # each node's candidates
    nodes = np.flatnonzero(bounds[1:] > bounds[:-1])
    runs = bounds[nodes]
    low = np.repeat(np.minimum.reduceat(score, runs), bounds[nodes + 1] - runs)
    hits = np.flatnonzero(score == low)
    first = hits[np.searchsorted(hits, runs)]  # each node's first minimum
    lo, hi = xs[cut[first] - 1], xs[cut[first]]
    # Between adjacent doubles the midpoint can round up to hi, and near the
    # largest double it overflows to inf (every row would go left) or to
    # -inf (every row would go right), so those nodes keep lo.
    with np.errstate(over="ignore"):
        mid = (lo + hi) / 2.0
    return nodes, feats.ravel()[seg[first]], np.where((lo <= mid) & (mid < hi), mid, lo)


def train_tree_reduce(
    x: np.ndarray,
    y: np.ndarray,
    params: ForestParams,
    key: int,
    task: str,
    n_classes: int = 0,
) -> np.ndarray:
    """Grow one CART tree from a tree's resampled records, one level at a
    time, and return its node table (see ``TreeModel.from_table``).

    At each node, mtry features are drawn without replacement and the
    impurity-minimizing midpoint split is taken (Gini for
    classification, variance for regression); growth stops on purity,
    max_depth, min_leaf, or when no drawn feature varies. ``key`` is the
    root's key; a node's draw depends on its key alone, so regrowing
    from a node's rows with its key and the depth left reproduces its
    subtree.

    The rows are argsorted once per feature (stably, so ties keep row
    order). Each level searches all its nodes in one pass over these
    lists, then regroups every list by child node with one stable sort on
    the child's slot, which keeps each child's rows sorted. Node ids
    follow a depth-first walk that visits each left subtree before its
    right one: the root is 0, and the i-th node to split in that walk
    (counting from 0) takes ids 2i+1 (left child) and 2i+2 (right child).
    Features and labels must be finite.

    Growth runs on the distinct rows: each run of adjacent rows equal bit
    for bit, features and label, as a record's Poisson copies arrive, is
    grown as one row weighted by the run's length. Node sizes, min_leaf
    and class counts add up the weights, and regression prefix sums and
    leaf means run over every copy in row order, so the tree is the one
    grown from the copies. Equal rows that are not adjacent stay apart.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape[0] == 0:
        raise ParameterError("cannot train a tree on an empty sample")
    if x.shape[1] == 0:
        raise ParameterError("cannot train a tree without features")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ParameterError("cannot train a tree on non-finite features or labels")
    classes = max(n_classes, int(y.max()) + 1) if task == CLASSIFICATION else 0
    x_bits, y_bits = x.view(np.uint64), y.view(np.uint64)
    new_run = np.ones(len(y), dtype=bool)
    np.any(x_bits[1:] != x_bits[:-1], axis=1, out=new_run[1:])
    new_run[1:] |= y_bits[1:] != y_bits[:-1]
    first = np.flatnonzero(new_run)
    return _grow(x[first], y[first], np.diff(np.append(first, len(y))), params, key, task, classes)


def _grow(x, y, w, params, key, task, classes) -> np.ndarray:
    """``train_tree_reduce``'s grower: row r stands for ``w[r] >= 1``
    adjacent copies of itself (an integer array), and the tree is the one
    grown from the copies."""
    n, p = x.shape
    mtry = min(params.mtry, p)
    copies = w.astype(float)  # exact: sums of copies stay below 2**53

    def may_split(sizes, depth):  # min_leaf copies fit on each side, max_depth not reached
        return (sizes >= 2 * params.min_leaf) & (params.max_depth is None or depth < params.max_depth)

    # The open nodes of a level are those that may split: their indices in
    # the level, row counts and keys. order[f] holds their rows grouped by
    # node, each group sorted by feature f.
    open_ids = np.flatnonzero(may_split(np.array([w.sum()]), 0))
    sizes, keys = np.full(open_ids.size, n), np.full(open_ids.size, key % 2**64, dtype=np.uint64)
    order = np.ascontiguousarray(np.argsort(x, axis=0, kind="stable").T)
    node_of_row = np.zeros(n, dtype=np.intp)  # breadth-first index of each row's node
    levels = []  # per level: (width, split node indices, features, thresholds)
    internal = []  # breadth-first indices of the split nodes
    width, first, depth = 1, 0, 0
    while True:
        starts = np.cumsum(sizes) - sizes
        ys = y[order[0]]
        impure = np.flatnonzero(np.minimum.reduceat(ys, starts) < np.maximum.reduceat(ys, starts))
        feats = np.sort(_node_features(keys[impure], p, mtry), axis=1)
        found, feat, threshold = _level_splits(
            order, starts[impure], sizes[impure], feats, x, y, copies, params.min_leaf, task, classes,
        )
        split = impure[found]  # indices into the open nodes
        levels.append((width, open_ids[split], feat, threshold))
        internal.append(first + open_ids[split])
        if split.size == 0:
            break

        # Route the split nodes' rows to their children.
        rank = np.full(open_ids.size, -1)
        rank[split] = np.arange(split.size)
        row_rank = np.repeat(rank, sizes)
        moved = row_rank >= 0
        rows, r = order[0][moved], row_rank[moved]
        child = 2 * r + (x[rows, feat[r]] > threshold[r])
        node_of_row[rows] = first + width + child
        first, width, depth = first + width, 2 * split.size, depth + 1

        # Children that may split are the next open nodes; regroup the lists by child.
        can_split = may_split(np.bincount(child, weights=copies[rows], minlength=width), depth)
        open_ids = np.flatnonzero(can_split)
        sizes = np.bincount(child, minlength=width)[open_ids]
        keys = _child_keys(keys[split]).ravel()[open_ids]
        stays = np.zeros(n, dtype=bool)
        stays[rows] = can_split[child]
        slot = np.zeros(n, dtype=np.min_scalar_type(max(open_ids.size - 1, 0)))
        slot[rows] = (np.cumsum(can_split) - 1)[child]
        kept = order[stays[order]].reshape(p, -1)
        regrouped = np.argsort(slot[kept], axis=1, kind="stable")  # radix sort: 8 or 16 bit keys
        regrouped += np.arange(p)[:, None] * kept.shape[1]
        order = kept.ravel()[regrouped]
    is_leaf = np.ones(first + width, dtype=bool)
    is_leaf[np.concatenate(internal)] = False
    payloads = _leaf_payloads(node_of_row, y, np.flatnonzero(is_leaf), task, classes, w)
    return _node_table(levels, is_leaf, payloads)


def _leaf_payloads(node_of_row, y, leaves, task, classes, w=None) -> np.ndarray:
    """The payloads of the nodes ``leaves`` (ascending breadth-first
    indices), given the node each row ends in and its copies ``w`` (one
    each if None): the majority class, ties to the smallest, or the mean
    label over the node's copies in row order."""
    count = int(leaves[-1]) + 1
    if task == CLASSIFICATION:
        counts = np.bincount(node_of_row * classes + y.astype(np.intp), weights=w, minlength=count * classes)
        return counts.reshape(count, classes)[leaves].argmax(axis=1).astype(float)
    bounds = np.cumsum(np.bincount(node_of_row, weights=w, minlength=count)).astype(np.int64).tolist()
    order = np.argsort(node_of_row, kind="stable")
    ys = y[order] if w is None else np.repeat(y[order], w[order])
    with np.errstate(over="ignore"):
        return np.array([_mean(ys[(bounds[i - 1] if i else 0):bounds[i]]) for i in leaves.tolist()])


def _mean(values: np.ndarray) -> float:
    """``np.mean`` of finite values, run with overflow ignored; a sum that
    overflows is redone on values / 2**k, 2**k >= their count, scaled back."""
    mean = np.mean(values)
    if np.isinf(mean):
        scale = 2.0 ** len(values).bit_length()
        mean = np.mean(values / scale) * scale
    return float(mean)


def _node_table(levels, is_leaf: np.ndarray, payloads: np.ndarray) -> np.ndarray:
    """Lay out a tree grown level by level as its node table, rows in
    depth-first id order.

    ``levels`` holds, per level, its width and the indices, features and
    thresholds of its split nodes; the children of a level's s-th split
    are nodes 2s and 2s+1 of the next level. ``is_leaf`` marks the leaves
    in breadth-first order, and ``payloads`` are theirs in that order.
    """
    # Bottom up: the splits inside each node's subtree.
    inside, below = [], np.zeros(0, dtype=np.intp)
    for width, split, _feat, _threshold in reversed(levels):
        count = np.zeros(width, dtype=np.intp)
        count[split] = 1 + below[0::2] + below[1::2]
        inside.append(count)
        below = count
    inside.reverse()
    # Top down: the splits before each node in depth-first order.
    level_before = [np.zeros(1, dtype=np.intp)]
    for below, (_width, split, _feat, _threshold) in zip(inside[1:], levels):
        r = level_before[-1][split] + 1
        level_before.append(np.column_stack([r, r + below[0::2]]).ravel())
    # The s-th split in breadth-first order has children 2s+1 and 2s+2, and
    # the i-th split in depth-first order has children 2i+1 and 2i+2.
    split = np.flatnonzero(~is_leaf)
    ids = np.zeros(is_leaf.size, dtype=np.intp)  # by breadth-first index
    ids[1:] = (2 * np.concatenate(level_before)[split] + 1).repeat(2)
    ids[2::2] += 1
    table = np.full((ids.size, 3), -1.0)
    table[ids[split]] = np.column_stack([
        np.concatenate([level[2] for level in levels]),
        np.concatenate([level[3] for level in levels]),
        ids[1::2],
    ])
    table[ids[is_leaf], 1] = payloads
    return table


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
    single-leaf trees predicting the global majority/mean. A rate k/n
    above ``MAX_POISSON_RATE`` raises ParameterError.
    """
    if task not in (CLASSIFICATION, REGRESSION):
        raise ParameterError(f"task must be classification or regression, got {task!r}")
    x = np.asarray(features, dtype=float)
    if x.ndim != 2 or x.shape[0] < 1:
        raise ParameterError("features must be a non-empty (n, p) array")
    n, p = x.shape
    if params.mtry > p:
        raise ParameterError(f"mtry={params.mtry} exceeds feature count {p}")
    if params.sample_size > n * MAX_POISSON_RATE:
        raise ParameterError(
            f"sample_size={params.sample_size} over {n} records is a Poisson rate above {MAX_POISSON_RATE}"
        )
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
        table = train_tree_reduce(
            rows[:, :-1], rows[:, -1], params,
            _growth_key(params.seed, tree_id), task, n_classes,
        )
        return [(key, f64s_value(table.ravel()))]

    job = JobSpec(lambda split: poisson_resample_split(split, params, n), reducer)
    output, stats = run_job(job, np.column_stack([x, y]), config)

    trained = {parse_u32_key(k): TreeModel.from_table(parse_f64s(v).reshape(-1, 3), task) for k, v in output}
    fallback = _leaf_payloads(np.zeros(n, dtype=np.intp), y, np.zeros(1, dtype=np.intp), task, n_classes)
    leaf = TreeModel.from_table(np.array([[-1.0, fallback[0], -1.0]]), task).nodes[0]
    trees = [
        trained.get(j, TreeModel(nodes=[dict(leaf)], degenerate=True))
        for j in range(params.trees)
    ]
    return ForestModel(trees, task, classes), stats


def predict_forest(model: ForestModel, record) -> object:
    """Majority vote over trees (ties to the smallest class index) or
    mean of tree outputs for regression."""
    x = np.asarray(record, dtype=float)
    outputs = [tree.predict(x) for tree in model.trees]
    if model.task == REGRESSION:
        with np.errstate(over="ignore"):
            return _mean(np.array(outputs, dtype=float))
    votes = np.bincount(np.asarray(outputs, dtype=np.int64), minlength=len(model.classes))
    return model.classes[int(np.argmax(votes))]
