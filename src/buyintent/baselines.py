"""Logistic regression and random forest baselines.

Both are trained from scratch on numpy. The logistic model standardizes
its inputs internally and keeps the stats; trees split on Gini impurity
with midpoint thresholds and grow to full depth by default.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dataset import Dataset, Standardizer, scaler_from_dict
from .util import TrainingDiverged, as_rng, sigmoid, softplus, substream_seed

MINIBATCH = 128


@dataclass(eq=False)
class LogisticModel:
    weights: np.ndarray
    bias: float
    scaler: Standardizer | None = None
    loss_trace: list[float] = field(default_factory=list)

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
    batch_size: int | None = MINIBATCH,
) -> LogisticModel:
    """Seeded mini-batch gradient descent on regularized cross-entropy.

    batch_size None means full-batch updates. The trace records the
    full-dataset loss after every epoch; a non-finite loss aborts with
    the epoch named.
    """
    if epochs < 0:
        raise ValueError("epochs must be nonnegative")
    if train.n == 0:
        raise ValueError("cannot train on an empty dataset")
    scaler = Standardizer().fit(train.rows)
    X = scaler.transform(train.rows)
    y = train.labels.astype(float)
    n, d = X.shape
    w = np.zeros(d)
    b = 0.0
    rng = as_rng(seed)
    bs = n if batch_size is None else min(batch_size, n)
    trace: list[float] = []
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
        trace.append(loss)
    return LogisticModel(weights=w, bias=b, scaler=scaler, loss_trace=trace)


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
class TreeNode:
    """Split node (feature, threshold, children) or leaf (counts only)."""

    n_pos: int
    n_total: int
    feature: int | None = None
    threshold: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.feature is None

    @property
    def prob(self) -> float:
        return self.n_pos / self.n_total

    def to_dict(self) -> dict:
        if self.is_leaf:
            return {"n_pos": self.n_pos, "n_total": self.n_total}
        return {
            "n_pos": self.n_pos,
            "n_total": self.n_total,
            "feature": self.feature,
            "threshold": self.threshold,
            "left": self.left.to_dict(),
            "right": self.right.to_dict(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TreeNode":
        node = cls(n_pos=d["n_pos"], n_total=d["n_total"])
        if "feature" in d:
            node.feature = d["feature"]
            node.threshold = d["threshold"]
            node.left = cls.from_dict(d["left"])
            node.right = cls.from_dict(d["right"])
        return node


def _gini(n_pos: int, n: int) -> float:
    p = n_pos / n
    return 2.0 * p * (1.0 - p)


def _best_split(X, y, feature_ids):
    """Lowest weighted-Gini split over the candidate features, as
    (impurity, feature, threshold); None when nothing splits."""
    n = len(y)
    best = None
    for f in feature_ids:
        xs = X[:, f]
        order = np.argsort(xs, kind="mergesort")
        xs_sorted = xs[order]
        pos_prefix = np.cumsum(y[order])
        boundaries = np.flatnonzero(xs_sorted[1:] > xs_sorted[:-1]) + 1
        for i in boundaries:
            left_pos = int(pos_prefix[i - 1])
            right_pos = int(pos_prefix[-1]) - left_pos
            score = (i * _gini(left_pos, i) + (n - i) * _gini(right_pos, n - i)) / n
            if best is None or score < best[0]:
                thr = (xs_sorted[i - 1] + xs_sorted[i]) / 2.0
                best = (score, int(f), float(thr))
    return best


def _grow(X, y, mtry: int, min_leaf: int, rng) -> TreeNode:
    n_pos = int(y.sum())
    n = len(y)
    node = TreeNode(n_pos=n_pos, n_total=n)
    if n_pos in (0, n) or n < min_leaf:
        return node
    feats = np.sort(rng.choice(X.shape[1], size=mtry, replace=False))
    best = _best_split(X, y, feats)
    if best is None:
        return node
    _, f, thr = best
    mask = X[:, f] <= thr
    node.feature = f
    node.threshold = thr
    node.left = _grow(X[mask], y[mask], mtry, min_leaf, rng)
    node.right = _grow(X[~mask], y[~mask], mtry, min_leaf, rng)
    return node


def default_mtry(d: int) -> int:
    return int(np.ceil(np.sqrt(d)))


def train_tree(sample: Dataset, mtry: int | None = None, min_leaf: int = 1, seed=0) -> TreeNode:
    """Unpruned Gini tree; mtry features are redrawn at every node."""
    if sample.n == 0:
        raise ValueError("cannot grow a tree on an empty sample")
    mtry = default_mtry(sample.d) if mtry is None else mtry
    if not 1 <= mtry <= sample.d:
        raise ValueError(f"mtry must be in [1, {sample.d}], got {mtry}")
    return _grow(sample.rows, sample.labels.astype(int), mtry, min_leaf, as_rng(seed))


def tree_prob(node: TreeNode, x: np.ndarray) -> float:
    while not node.is_leaf:
        node = node.left if x[node.feature] <= node.threshold else node.right
    return node.prob


@dataclass(eq=False)
class Forest:
    trees: list[TreeNode]
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
            trees=[TreeNode.from_dict(t) for t in d["trees"]],
            mtry=d["mtry"],
            seed=d["seed"],
            bootstrap=d["bootstrap"],
            n_features=d["n_features"],
        )


def train_forest(
    train: Dataset,
    n_trees: int = 100,
    mtry: int | None = None,
    seed: int = 0,
    min_leaf: int = 1,
    bootstrap: bool = True,
) -> Forest:
    """Bootstrap-aggregated unpruned trees, one RNG substream per tree
    so results do not depend on training order."""
    if n_trees < 1:
        raise ValueError("n_trees must be at least 1")
    mtry = default_mtry(train.d) if mtry is None else mtry
    trees = []
    for t in range(n_trees):
        rng = as_rng(substream_seed(seed, 301, t))
        sample = train.take(rng.integers(0, train.n, size=train.n)) if bootstrap else train
        trees.append(train_tree(sample, mtry, min_leaf, rng))
    return Forest(trees=trees, mtry=mtry, seed=seed, bootstrap=bootstrap, n_features=train.d)


def forest_scores(forest: Forest, X: np.ndarray) -> np.ndarray:
    """Mean of per-tree leaf probabilities for each row."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != forest.n_features:
        raise ValueError(f"input has {X.shape[1]} features, forest expects {forest.n_features}")
    out = np.zeros(X.shape[0])
    for i, x in enumerate(X):
        out[i] = np.mean([tree_prob(t, x) for t in forest.trees])
    return out

