"""Scalar references for the random forest's batched code.

best_split_loop scores one boundary of one feature at a time, and
grow_recursive grows a tree depth-first by recursion into the nested
dict the first model format saved; nested converts a flat Tree to that
dict without recursion. tree_prob_walk sends one row down one tree, and
forest_scores_walk averages one row's per-tree probabilities with
np.mean. The package's batched split search (several nodes per call),
lockstep grower (every tree of a forest grown together) and stacked
level-by-level scorer (every tree of a forest walked together) must
match them bit for bit. A threshold is the midpoint of the two values
either side of its boundary, or the lower value where the midpoint is
not strictly between them.
"""

from __future__ import annotations

import numpy as np


def gini(n_pos: int, n: int) -> float:
    p = n_pos / n
    return 2.0 * p * (1.0 - p)


def best_split_loop(X, y, feature_ids):
    """Lowest weighted-Gini split as (impurity, feature, threshold), with
    the first strict minimum over features and then boundaries; None when
    nothing splits."""
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
            score = (i * gini(left_pos, i) + (n - i) * gini(right_pos, n - i)) / n
            if best is None or score < best[0]:
                lo, hi = xs_sorted[i - 1], xs_sorted[i]
                thr = (lo + hi) / 2.0
                best = (score, int(f), float(thr if lo < thr < hi else lo))
    return best


def grow_recursive(X, y, mtry: int, rng) -> dict:
    """A leaf is {n_pos, n_total}; a split adds feature, threshold and
    its left and right subtrees."""
    n_pos = int(y.sum())
    n = len(y)
    node = {"n_pos": n_pos, "n_total": n}
    if n_pos in (0, n):
        return node
    feats = np.sort(rng.choice(X.shape[1], size=mtry, replace=False))
    best = best_split_loop(X, y, feats)
    if best is None:
        return node
    _, f, thr = best
    mask = X[:, f] <= thr
    node["feature"] = f
    node["threshold"] = thr
    node["left"] = grow_recursive(X[mask], y[mask], mtry, rng)
    node["right"] = grow_recursive(X[~mask], y[~mask], mtry, rng)
    return node


def nested(tree) -> dict:
    """grow_recursive's dict for a flat Tree, linked in one pass."""
    nodes = [{"n_pos": pos, "n_total": total} for pos, total in zip(tree.n_pos, tree.n_total)]
    for k, f in enumerate(tree.feature):
        if f != -1:
            nodes[k].update(
                feature=f, threshold=tree.threshold[k], left=nodes[tree.left[k]], right=nodes[tree.right[k]]
            )
    return nodes[0]


def depth(tree) -> int:
    """Levels below the root of a Tree's deepest leaf."""
    level = [0] * len(tree.feature)
    for k, f in enumerate(tree.feature):
        if f != -1:
            level[tree.left[k]] = level[tree.right[k]] = level[k] + 1
    return max(level)


def tree_prob_walk(tree, x: np.ndarray) -> float:
    k = 0
    while tree.feature[k] != -1:
        k = tree.left[k] if x[tree.feature[k]] <= tree.threshold[k] else tree.right[k]
    return tree.n_pos[k] / tree.n_total[k]


def forest_scores_walk(forest, X: np.ndarray) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    out = np.zeros(X.shape[0])
    for i, x in enumerate(X):
        out[i] = np.mean([tree_prob_walk(t, x) for t in forest.trees])
    return out
