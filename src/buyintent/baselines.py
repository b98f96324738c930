"""Logistic regression and random forest baselines.

Both are trained from scratch on numpy. The logistic model standardizes
its inputs internally and keeps the stats; trees split on Gini impurity
with midpoint thresholds and grow to full depth.
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
            scaler=scaler_from_dict(d["scaler"]) if d.get("scaler") else None,
        )


def logistic_loss_and_gradients(weights, bias, X, y, l2: float):
    """Mean cross-entropy plus (l2/2)||w||^2, with its exact gradients.

    The per-row loss is softplus(z) - y z for z = w.x + b, which equals
    the cross-entropy of sigmoid(z) without ever forming log(p).
    """
    z = X @ weights + bias
    p = sigmoid(z)
    loss = float(np.mean(softplus(z) - y * z) + 0.5 * l2 * weights @ weights)
    resid = (p - y) / len(y)
    return loss, X.T @ resid + l2 * weights, float(resid.sum())


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
            _, gw, gb = logistic_loss_and_gradients(w, b, X[idx], y[idx], l2)
            w -= learning_rate * gw
            b -= learning_rate * gb
        loss, _, _ = logistic_loss_and_gradients(w, b, X, y, l2)
        if not np.isfinite(loss):
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

    def add_leaf(self, y) -> int:
        """Append a leaf for the labels y and return its id."""
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.n_pos.append(int(y.sum()))
        self.n_total.append(len(y))
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


def _best_split(X, y, feature_ids):
    """Lowest weighted-Gini split of two or more rows over one or more
    candidate features, as (impurity, feature, threshold); None when
    nothing splits.

    Every (boundary, feature) pair is scored at once from label prefix
    sums down each sorted column. Positions between equal values are set
    to inf, and argmin over the feature-major ravel picks the first
    minimum in (feature, boundary) order, the tie rule of a loop over
    features and then boundaries with a strict comparison.
    """
    n = len(y)
    Xf = X[:, feature_ids]
    order = np.argsort(Xf, axis=0, kind="mergesort")
    xs = np.take_along_axis(Xf, order, axis=0)
    left_pos = np.cumsum(y[order], axis=0)[:-1]
    right_pos = int(y.sum()) - left_pos
    i = np.arange(1, n)[:, None]
    p = left_pos / i
    gl = 2.0 * p * (1.0 - p)
    p = right_pos / (n - i)
    gr = 2.0 * p * (1.0 - p)
    score = (i * gl + (n - i) * gr) / n
    score[~(xs[1:] > xs[:-1])] = np.inf
    f, b = divmod(int(np.argmin(score.T)), n - 1)
    if score[b, f] == np.inf:
        return None
    thr = (xs[b, f] + xs[b + 1, f]) / 2.0
    return float(score[b, f]), int(feature_ids[f]), float(thr)


def _grow(X, y, mtry: int, rng) -> Tree:
    """Grow in preorder from an explicit stack: each node draws its
    features before its left subtree is grown, and depth is not bounded
    by the interpreter's recursion limit. A split appends its two
    children, so every child's id is larger than its parent's."""
    tree = Tree(feature=[], threshold=[], left=[], right=[], n_pos=[], n_total=[])
    stack = [(tree.add_leaf(y), X, y)]
    while stack:
        k, X, y = stack.pop()
        if tree.n_pos[k] in (0, tree.n_total[k]):
            continue
        feats = np.sort(rng.choice(X.shape[1], size=mtry, replace=False))
        best = _best_split(X, y, feats)
        if best is None:
            continue
        _, f, thr = best
        mask = X[:, f] <= thr
        tree.feature[k] = f
        tree.threshold[k] = thr
        tree.left[k] = tree.add_leaf(y[mask])
        tree.right[k] = tree.add_leaf(y[~mask])
        stack.append((tree.right[k], X[~mask], y[~mask]))
        stack.append((tree.left[k], X[mask], y[mask]))
    return tree


def default_mtry(d: int) -> int:
    return int(np.ceil(np.sqrt(d)))


def train_tree(sample: Dataset, mtry: int | None = None, seed=0) -> Tree:
    """Unpruned Gini tree; mtry features are redrawn at every node."""
    if sample.n == 0:
        raise ValueError("cannot grow a tree on an empty sample")
    mtry = default_mtry(sample.d) if mtry is None else mtry
    if not 1 <= mtry <= sample.d:
        raise ValueError(f"mtry must be in [1, {sample.d}], got {mtry}")
    return _grow(sample.rows, sample.labels.astype(int), mtry, as_rng(seed))


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
    """Bootstrap-aggregated unpruned trees, one RNG substream per tree
    so results do not depend on training order."""
    check_n_trees(n_trees)
    mtry = default_mtry(train.d) if mtry is None else mtry
    trees = []
    for t in range(n_trees):
        rng = as_rng(substream_seed(seed, 301, t))
        sample = train.take(rng.integers(0, train.n, size=train.n)) if bootstrap else train
        trees.append(train_tree(sample, mtry, rng))
    return Forest(trees=trees, mtry=mtry, seed=seed, bootstrap=bootstrap, n_features=train.d)


def forest_scores(forest: Forest, X: np.ndarray) -> np.ndarray:
    """Mean of per-tree leaf probabilities for each row.

    Rows go down one tree at a time in index blocks and fill a
    C-contiguous rows x trees matrix. Its mean along axis 1 adds each
    row's tree probabilities in the same order as np.mean over that row's
    list, so scores do not depend on how many rows are scored together.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != forest.n_features:
        raise ValueError(f"input has {X.shape[1]} features, forest expects {forest.n_features}")
    probs = np.empty((X.shape[0], len(forest.trees)))
    for t, tree in enumerate(forest.trees):
        stack = [(0, np.arange(X.shape[0]))]
        while stack:
            k, idx = stack.pop()
            f = tree.feature[k]
            if f == -1:
                probs[idx, t] = tree.n_pos[k] / tree.n_total[k]
                continue
            go_left = X[idx, f] <= tree.threshold[k]
            for child, rows in ((tree.left[k], idx[go_left]), (tree.right[k], idx[~go_left])):
                if rows.size:
                    stack.append((child, rows))
    return probs.mean(axis=1)
