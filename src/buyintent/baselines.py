"""Logistic regression and random forest baselines.

Both are trained from scratch on numpy. The logistic model standardizes
its inputs internally and keeps the stats; trees split on Gini impurity
with midpoint thresholds and grow to full depth.

A forest's trees grow in lockstep: each round takes from every tree the
next node of its preorder that needs a split, and scores those nodes in
one vectorised search per SEARCH_BUDGET (row, candidate feature) pairs,
so numpy's per-call cost is paid per round rather than per node. Each
tree draws from its own RNG substream in the order of a grower that
finishes one tree before starting the next, so the trees are the same.

A forest scores its rows in one level-synchronous walk: the trees' nodes
are stacked into one table, and every (row, tree) pair of a block of at
most SCORE_BUDGET pairs moves one level down per pass, so numpy's
per-call cost is paid per level rather than per node of every tree.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .dataset import Dataset, Standardizer, scaler_from_dict
from .util import TrainingDiverged, as_rng, check_epochs, sigmoid, softplus, substream_seed

MINIBATCH = 128


@dataclass(eq=False)
class LogisticModel:
    weights: np.ndarray
    bias: float
    scaler: Standardizer | None = None

    def to_dict(self) -> dict:
        return {
            "weights": self.weights.tolist(),
            "bias": self.bias,
            "scaler": self.scaler.to_dict() if self.scaler is not None else None,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "LogisticModel":
        return cls(
            weights=np.array(d["weights"], dtype=float),
            bias=float(d["bias"]),
            scaler=scaler_from_dict(d.get("scaler")),
        )


def logistic_loss(weights, bias, X, y, l2: float) -> float:
    """Mean cross-entropy plus (l2/2)||w||^2.

    The per-row loss is softplus(z) - y z for z = w.x + b, which equals
    the cross-entropy of sigmoid(z) without ever forming log(p).
    """
    z = X @ weights + bias
    return float(np.mean(softplus(z) - y * z) + 0.5 * l2 * weights @ weights)


def logistic_gradients(weights, bias, X, y, l2: float):
    """Exact gradients of logistic_loss in the weights and in the bias."""
    resid = (sigmoid(X @ weights + bias) - y) / len(y)
    return X.T @ resid + l2 * weights, float(resid.sum())


def train_logistic(
    train: Dataset,
    learning_rate: float = 0.1,
    epochs: int = 100,
    l2: float = 0.0,
    seed: int = 0,
) -> LogisticModel:
    """Seeded mini-batch gradient descent on regularized cross-entropy.

    The full-dataset loss is checked after every epoch; a non-finite
    loss aborts with the epoch named.
    """
    check_epochs(epochs)
    if train.n == 0:
        raise ValueError("cannot train on an empty dataset")
    scaler = Standardizer().fit(train.rows)
    X = scaler.transform(train.rows)
    y = train.labels.astype(float)
    n, d = X.shape
    w = np.zeros(d)
    b = 0.0
    rng = as_rng(seed)
    bs = min(MINIBATCH, n)
    for epoch in range(epochs):
        order = rng.permutation(n)
        for i in range(0, n, bs):
            idx = order[i : i + bs]
            gw, gb = logistic_gradients(w, b, X[idx], y[idx], l2)
            w -= learning_rate * gw
            b -= learning_rate * gb
        if not np.isfinite(logistic_loss(w, b, X, y, l2)):
            raise TrainingDiverged(epoch, "logistic cross-entropy")
    return LogisticModel(weights=w, bias=b, scaler=scaler)


def predict_logistic(model: LogisticModel, x: np.ndarray):
    """Buy probability sigmoid(w.x + b); accepts one row or a batch."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    X = np.atleast_2d(x)
    if X.shape[1] != len(model.weights):
        raise ValueError(f"input has {X.shape[1]} features, model expects {len(model.weights)}")
    if model.scaler is not None:
        X = model.scaler.transform(X)
    p = sigmoid(X @ model.weights + model.bias)
    return float(p[0]) if single else p


@dataclass(eq=False)
class Tree:
    """Nodes in growth order as parallel lists; node 0 is the root.

    A split node k sends rows with x[feature[k]] <= threshold[k] to
    left[k] and the rest to right[k], both larger ids than k. A leaf has
    feature, left and right -1 and scores n_pos / n_total.
    """

    feature: list[int]
    threshold: list[float]
    left: list[int]
    right: list[int]
    n_pos: list[int]
    n_total: list[int]

    def add_leaf(self, n_pos: int, n_total: int) -> int:
        """Append a leaf of n_pos positives in n_total rows; return its id."""
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.n_pos.append(n_pos)
        self.n_total.append(n_total)
        return len(self.feature) - 1

    def to_dict(self) -> dict:
        return dict(vars(self))

    @classmethod
    def from_dict(cls, d: dict, n_features: int) -> "Tree":
        """A tree from its saved lists, checked so that scoring it ends,
        stays in range and never divides by zero."""
        tree = cls(**{column.name: list(d[column.name]) for column in fields(cls)})
        n = len(tree.feature)
        if n == 0 or any(len(column) != n for column in vars(tree).values()):
            raise ValueError("tree node lists must be non-empty and of equal length")
        for k, (f, lo, hi, pos, total) in enumerate(
            zip(tree.feature, tree.left, tree.right, tree.n_pos, tree.n_total)
        ):
            if not 0 <= pos <= total or total < 1:
                raise ValueError(f"tree node {k} has {pos} of {total} rows positive")
            if f != -1 and not (0 <= f < n_features and k < lo < n and k < hi < n):
                raise ValueError(f"tree node {k} splits on feature {f} into nodes {lo} and {hi}")
        return tree


def _column_ranks(X):
    """Dense rank of every value within its column: equal values, -0.0
    and 0.0 among them, share a rank, and a larger value has a larger one."""
    order = np.argsort(X, axis=0)
    xs = np.take_along_axis(X, order, axis=0)
    sorted_ranks = np.zeros(X.shape, dtype=np.int64)
    np.cumsum(xs[1:] > xs[:-1], axis=0, out=sorted_ranks[1:])
    ranks = np.empty_like(sorted_ranks)
    np.put_along_axis(ranks, order, sorted_ranks, axis=0)
    return ranks


def _split_search(X, ranks, y, nodes):
    """Lowest weighted-Gini split of each (rows, candidate features) node,
    all in one vectorised search: None when nothing splits or the best
    split's threshold sends every row to one side, else
    (impurity, feature, threshold, left child, right child) with each
    child as (rows, positives).

    Rows index X, y and ranks and may repeat; every node has two or more
    rows and the same number of candidates. Each (node, candidate)
    segment of the flat layout is sorted by rank, and each boundary
    between two ranks is scored from label prefix sums. The first minimum
    in (feature id, boundary) order wins: the tie rule of a loop over
    sorted features and then boundaries with a strict comparison. A score
    counts the rows at or below a value, and a threshold adds two unequal
    values, so neither depends on the order of tied rows, and an unstable
    sort serves.
    """
    feats = np.sort([f for _, f in nodes], axis=1)
    n_nodes, mtry = feats.shape
    n = np.array([len(rows) for rows, _ in nodes])
    seg_len = np.repeat(n, mtry)  # segment j * mtry + c holds node j's rows for candidate c
    seg_end = np.cumsum(seg_len)
    seg_start = seg_end - seg_len
    seg = np.repeat(np.arange(n_nodes * mtry), seg_len)
    local = np.arange(seg_end[-1]) - seg_start[seg]
    row = np.concatenate([rows for rows, _ in nodes])[(np.cumsum(n) - n)[seg // mtry] + local]
    rank = ranks[row, feats.ravel()[seg]]
    # The key is below segments * len(X). A call holds at most one node
    # per tree, so segments <= MAX_TREES * X.shape[1], and the key is below
    # MAX_TREES * X.size: far from 2**63 for any X that fits in memory.
    order = np.argsort(seg * len(X) + rank)
    row, rank = row[order], rank[order]
    cum = np.zeros(len(row) + 1, dtype=np.int64)  # cum[k]: positives among the first k sorted rows
    np.cumsum(y[row], out=cum[1:])
    step = rank[1:] > rank[:-1]
    step[seg_end[:-1] - 1] = False
    b = np.flatnonzero(step)
    s = seg[b]
    i = local[b] + 1
    nn = seg_len[s]
    left_pos = cum[b + 1] - cum[seg_start[s]]
    right_pos = cum[seg_end[s]] - cum[b + 1]
    p = left_pos / i
    gl = 2.0 * p * (1.0 - p)
    p = right_pos / (nn - i)
    gr = 2.0 * p * (1.0 - p)
    score = (i * gl + (nn - i) * gr) / nn
    node = s // mtry
    best = np.full(n_nodes, np.inf)
    np.minimum.at(best, node, score)
    hit = np.flatnonzero(score == best[node])
    pick = hit[np.searchsorted(node[hit], np.flatnonzero(best < np.inf))]
    q, s = b[pick], s[pick]
    f = feats.ravel()[s]
    thr = (X[row[q], f] + X[row[q + 1], f]) / 2.0
    splits = [None] * n_nodes
    for j, impurity, feature, threshold, start, stop in zip(
        node[pick].tolist(), score[pick].tolist(), f.tolist(), thr.tolist(), seg_start[s].tolist(),
        seg_end[s].tolist(),
    ):
        # The segment is in value order, so the rows with x <= threshold
        # are a prefix; it can end past the boundary, as the midpoint of
        # two adjacent doubles may round up to the larger, and a sum near
        # the float maximum overflows to ±inf. A threshold that sends
        # every row to one side splits nothing, and the node stays a leaf.
        cut = start + int(np.count_nonzero(X[row[start:stop], feature] <= threshold))
        if cut in (start, stop):
            continue
        left, right = int(cum[cut] - cum[start]), int(cum[stop] - cum[cut])
        splits[j] = (impurity, feature, threshold, (row[start:cut].copy(), left), (row[cut:stop].copy(), right))
    return splits


# the most (row, candidate feature) pairs one _split_search call holds: it
# caps the search's working arrays, so a round over many trees with large
# roots does not raise the peak memory of training
SEARCH_BUDGET = 2**14


def _grow(X, y, roots, mtry: int, rngs) -> list[Tree]:
    """Grow one tree per (root rows, rng), all in lockstep rounds.

    Each tree walks its own preorder from an explicit stack, so depth is
    not bounded by the interpreter's recursion limit. A round takes from
    every tree the next node that needs a split (a pure node stays a leaf
    and draws nothing) and draws that node's features from the tree's own
    rng, so every rng sees the draws of a grower that finishes one tree
    before the next. The round's nodes are then searched together in
    calls of at most SEARCH_BUDGET pairs; a node that alone holds more is
    searched by itself. A split appends its two children, so every
    child's id is larger than its parent's.
    """
    ranks = _column_ranks(X)
    trees, stacks = [], []
    for rows in roots:
        tree = Tree(feature=[], threshold=[], left=[], right=[], n_pos=[], n_total=[])
        stacks.append([(tree.add_leaf(int(y[rows].sum()), len(rows)), rows)])
        trees.append(tree)
    while True:
        calls, pairs = [[]], 0
        for tree, stack, rng in zip(trees, stacks, rngs):
            while stack:
                k, rows = stack.pop()
                if tree.n_pos[k] in (0, tree.n_total[k]):
                    continue
                if calls[-1] and pairs + len(rows) * mtry > SEARCH_BUDGET:
                    calls.append([])
                    pairs = 0
                pairs += len(rows) * mtry
                calls[-1].append((tree, stack, k, rows, rng.choice(X.shape[1], size=mtry, replace=False)))
                break
        if not calls[-1]:
            return trees
        for call in calls:
            splits = _split_search(X, ranks, y, [(rows, feats) for *_, rows, feats in call])
            for (tree, stack, k, _, _), split in zip(call, splits):
                if split is None:
                    continue
                _, tree.feature[k], tree.threshold[k], (left, left_pos), (right, right_pos) = split
                tree.left[k] = tree.add_leaf(left_pos, len(left))
                tree.right[k] = tree.add_leaf(right_pos, len(right))
                stack.append((tree.right[k], right))
                stack.append((tree.left[k], left))


def default_mtry(d: int) -> int:
    return int(np.ceil(np.sqrt(d)))


@dataclass(eq=False)
class Forest:
    trees: list[Tree]
    mtry: int
    seed: int
    bootstrap: bool
    n_features: int

    def to_dict(self) -> dict:
        return {
            "mtry": self.mtry,
            "seed": self.seed,
            "bootstrap": self.bootstrap,
            "n_features": self.n_features,
            "trees": [t.to_dict() for t in self.trees],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Forest":
        return cls(
            trees=[Tree.from_dict(t, d["n_features"]) for t in d["trees"]],
            mtry=d["mtry"],
            seed=d["seed"],
            bootstrap=d["bootstrap"],
            n_features=d["n_features"],
        )


# the most trees train_forest grows: far past the default of 100, so a
# count read from a file cannot start a run that never ends
MAX_TREES = 10_000


def check_n_trees(n_trees: int) -> None:
    if n_trees < 1:
        raise ValueError("n_trees must be at least 1")
    if n_trees > MAX_TREES:
        raise ValueError(f"n_trees must be at most {MAX_TREES}, got {n_trees}")


def train_forest(
    train: Dataset,
    n_trees: int = 100,
    mtry: int | None = None,
    seed: int = 0,
    bootstrap: bool = True,
) -> Forest:
    """Bootstrap-aggregated unpruned Gini trees, mtry features redrawn at
    every node. Each tree draws its bootstrap rows and then its features
    from its own RNG substream, so results do not depend on training
    order, and the trees grow together (see _grow)."""
    check_n_trees(n_trees)
    if train.n == 0:
        raise ValueError("cannot grow a tree on an empty sample")
    mtry = default_mtry(train.d) if mtry is None else mtry
    if not 1 <= mtry <= train.d:
        raise ValueError(f"mtry must be in [1, {train.d}], got {mtry}")
    rngs = [as_rng(substream_seed(seed, 301, t)) for t in range(n_trees)]
    roots = [rng.integers(0, train.n, size=train.n) if bootstrap else np.arange(train.n) for rng in rngs]
    trees = _grow(train.rows, train.labels.astype(np.int64), roots, mtry, rngs)
    return Forest(trees=trees, mtry=mtry, seed=seed, bootstrap=bootstrap, n_features=train.d)


def _slot_table(trees: list[Tree]):
    """The trees' nodes stacked with global ids, as tables over slots.

    Node k of the stack has slots 2k and 2k + 1. A pair at node k holds
    slot 2k and moves to child[2k + (x[column[2k]] <= threshold[2k])],
    the next node's slot; a leaf's slots lead back to its own, and
    value[2k] is node k's n_pos / n_total. Returns (root slot of each
    tree, child, column, threshold, leaf, value).
    """
    sizes = [len(tree.feature) for tree in trees]
    roots = np.cumsum([0, *sizes], dtype=np.intp)[:-1]
    shift = np.repeat(roots, sizes)
    feature = np.array([f for tree in trees for f in tree.feature], dtype=np.intp)
    left = np.array([k for tree in trees for k in tree.left], dtype=np.intp) + shift
    right = np.array([k for tree in trees for k in tree.right], dtype=np.intp) + shift
    leaf = feature == -1
    itself = np.arange(len(feature))
    child = 2 * np.column_stack([np.where(leaf, itself, right), np.where(leaf, itself, left)]).ravel()
    threshold = np.array([v for tree in trees for v in tree.threshold], dtype=float)
    value = np.array([pos / total for tree in trees for pos, total in zip(tree.n_pos, tree.n_total)])
    column = np.where(leaf, 0, feature)
    return (2 * roots, child, *(np.repeat(a, 2) for a in (column, threshold, leaf, value)))


# the most (row, tree) pairs forest_scores walks at once: it caps the
# walk's working arrays near the size of the rows x trees matrix that the
# scores are averaged from, while keeping each pass's numpy calls long
SCORE_BUDGET = 2**16


def forest_scores(forest: Forest, X: np.ndarray) -> np.ndarray:
    """Mean of per-tree leaf probabilities for each row.

    Every (row, tree) pair of a block of at most SCORE_BUDGET pairs steps
    one level down the stacked trees per pass (see _slot_table). Pairs at
    a leaf step in place until they are half of those walked, and are
    then written out and dropped. Each block fills its rows of a
    C-contiguous rows x trees matrix. Its mean along axis 1 adds each
    row's tree probabilities in the same order as np.mean over that row's
    list, so scores do not depend on how many rows are scored together.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n, d = X.shape
    if d != forest.n_features:
        raise ValueError(f"input has {d} features, forest expects {forest.n_features}")
    n_trees = len(forest.trees)
    roots, child, column, threshold, leaf, value = _slot_table(forest.trees)
    flat = X.ravel()
    probs = np.empty((n, n_trees))
    rows_per_block = max(1, SCORE_BUDGET // max(1, n_trees))
    for start in range(0, n, rows_per_block):
        block = probs[start : start + rows_per_block]
        out = block.reshape(-1)  # pair j: row start + j // n_trees, tree j % n_trees
        slot = np.tile(roots, len(block))
        base = np.repeat(np.arange(start, start + len(block)) * d, n_trees)
        pair = np.arange(len(slot))
        while True:
            done = leaf[slot]
            if 2 * np.count_nonzero(done) >= len(slot):
                out[pair] = value[slot]
                keep = np.flatnonzero(~done)
                if not keep.size:
                    break
                pair, slot, base = pair[keep], slot[keep], base[keep]
            slot = child[slot + (flat[base + column[slot]] <= threshold[slot])]
    return probs.mean(axis=1)
