"""Logistic regression and random forest training, prediction, errors."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from buyintent import baselines
from buyintent.baselines import (
    Forest,
    LogisticModel,
    Tree,
    _column_ranks,
    _split_search,
    default_mtry,
    forest_scores,
    logistic_gradients,
    logistic_loss,
    predict_logistic,
    train_forest,
    train_logistic,
)
from buyintent.dataset import Dataset
from buyintent.evaluation import auc
from buyintent.util import TrainingDiverged, as_rng, substream_seed
from logistic_oracles import train_logistic_loop
from tree_oracles import best_split_loop, depth, forest_scores_walk, grow_recursive, nested


def make_ds(rows, labels):
    rows = np.asarray(rows, dtype=float)
    return Dataset(
        rows=rows,
        labels=np.asarray(labels, dtype=np.uint8),
        feature_names=[f"f{i}" for i in range(rows.shape[1])],
        aggregation="weekly",
        category_count=0,
        n_base_cols=rows.shape[1],
    )


def separable_ds(n=80, seed=0, margin=2.0):
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, n)
    X = rng.normal(size=(n, 3)) * 0.3
    X[:, 0] += np.where(y == 1, margin, -margin)
    return make_ds(X, y)


def xor_ds():
    rows = [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]
    return make_ds(rows, [0, 1, 1, 0])


def grow_one(ds, mtry=None, seed=0):
    """The one tree of a forest of one, grown on every row."""
    return train_forest(ds, n_trees=1, mtry=mtry, seed=seed, bootstrap=False).trees[0]


def one_tree(node, n_features):
    return Forest(trees=[node], mtry=1, seed=0, bootstrap=False, n_features=n_features)


def leaf_tree(n_pos, n_total):
    return Tree(feature=[-1], threshold=[0.0], left=[-1], right=[-1], n_pos=[n_pos], n_total=[n_total])


def chain_tree(levels):
    """A tree whose split nodes form one path: node 2i sends x[0] up to an
    ascending threshold in [-3, 3] to leaf 2i + 1 and the rest on down,
    so a row's value sets how deep it goes, and +inf and NaN go to the
    bottom leaf, `levels` splits below the root."""
    feature, threshold, left, right = [], [], [], []
    for i in range(levels):
        feature += [0, -1]
        threshold += [-3.0 + 6.0 * i / levels, 0.0]
        left += [2 * i + 1, -1]
        right += [2 * i + 2, -1]
    n = len(feature) + 1
    return Tree(
        feature=[*feature, -1],
        threshold=[*threshold, 0.0],
        left=[*left, -1],
        right=[*right, -1],
        n_pos=[k % 8 for k in range(n)],
        n_total=[7] * n,
    )


class TestLogisticGradients:
    def test_matches_central_differences(self):
        rng = np.random.default_rng(13)
        for trial in range(5):
            X = rng.normal(size=(5, 4))
            y = rng.integers(0, 2, 5).astype(float)
            w = rng.normal(size=4) * 0.5
            b = float(rng.normal())
            l2 = 0.1
            gw, gb = logistic_gradients(w, b, X, y, l2)
            eps = 1e-6
            for j in range(4):
                wp, wm = w.copy(), w.copy()
                wp[j] += eps
                wm[j] -= eps
                fd = (logistic_loss(wp, b, X, y, l2) - logistic_loss(wm, b, X, y, l2)) / (2 * eps)
                assert gw[j] == pytest.approx(fd, rel=1e-6, abs=1e-9)
            lp = logistic_loss(w, b + eps, X, y, l2)
            lm = logistic_loss(w, b - eps, X, y, l2)
            assert gb == pytest.approx((lp - lm) / (2 * eps), rel=1e-6, abs=1e-9)

    def test_zero_parameters_loss_is_log_two(self):
        X = np.random.default_rng(1).normal(size=(6, 3))
        y = np.array([0, 1, 0, 1, 1, 0], dtype=float)
        _, gb = logistic_gradients(np.zeros(3), 0.0, X, y, 0.0)
        assert logistic_loss(np.zeros(3), 0.0, X, y, 0.0) == pytest.approx(np.log(2.0))
        assert gb == pytest.approx(0.5 - y.mean())


class TestTrainLogistic:
    def test_untrained_model_predicts_half(self):
        model = LogisticModel(weights=np.zeros(3), bias=0.0)
        assert predict_logistic(model, np.zeros(3)) == 0.5

    def test_separable_data_reaches_auc_one(self):
        ds = separable_ds()
        model = train_logistic(ds, learning_rate=0.5, epochs=200, seed=0)
        scores = predict_logistic(model, ds.rows)
        assert auc(scores, ds.labels) == 1.0

    def test_full_batch_small_step_descends(self):
        # 60 rows fit in one minibatch, so every epoch is one full-batch step.
        ds = separable_ds(n=60, seed=3)
        y = ds.labels.astype(float)
        trace = []
        for epochs in range(1, 51):
            model = train_logistic(ds, learning_rate=1e-3, epochs=epochs, seed=0)
            X = model.scaler.transform(ds.rows)
            trace.append(logistic_loss(model.weights, model.bias, X, y, 0.0))
        trace = np.array(trace)
        assert np.all(np.diff(trace) <= 1e-12)
        assert trace[-1] < trace[0]

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_divergence_names_epoch(self):
        ds = separable_ds(n=20, seed=5)
        with pytest.raises(TrainingDiverged) as exc:
            train_logistic(ds, learning_rate=1e160, epochs=5, l2=0.01, seed=0)
        assert exc.value.epoch == 0
        assert "epoch 0" in str(exc.value)

    def test_l2_shrinks_weights(self):
        ds = separable_ds(n=100, seed=7)
        free = train_logistic(ds, learning_rate=0.3, epochs=150, seed=0)
        tied = train_logistic(ds, learning_rate=0.3, epochs=150, l2=0.5, seed=0)
        assert np.linalg.norm(tied.weights) < np.linalg.norm(free.weights)

    def test_deterministic_per_seed(self):
        ds = separable_ds(n=50, seed=9)
        a = train_logistic(ds, epochs=20, seed=4)
        b = train_logistic(ds, epochs=20, seed=4)
        c = train_logistic(ds, epochs=20, seed=5)
        assert np.array_equal(a.weights, b.weights) and a.bias == b.bias
        assert not np.array_equal(a.weights, c.weights)

    def test_predict_shapes(self):
        ds = separable_ds(n=30, seed=2)
        model = train_logistic(ds, epochs=10, seed=0)
        batch = predict_logistic(model, ds.rows[:4])
        assert batch.shape == (4,)
        one = predict_logistic(model, ds.rows[0])
        assert isinstance(one, float)
        assert one == pytest.approx(batch[0])

    def test_predict_dimension_mismatch(self):
        model = LogisticModel(weights=np.zeros(3), bias=0.0)
        with pytest.raises(ValueError, match="features"):
            predict_logistic(model, np.zeros(5))

    @settings(max_examples=60, deadline=None)
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @given(
        st.integers(1, 300),
        st.integers(1, 4),
        st.integers(1, 6),
        st.sampled_from([1e-3, 0.1, 1.0, 1e40, 1e160]),
        st.sampled_from([0.0, 0.01, 1.0]),
        st.integers(0, 2**16),
    )
    def test_equals_the_loop_that_computed_every_loss(self, n, d, epochs, learning_rate, l2, seed):
        # Rows past one minibatch give several steps per epoch. With l2 > 0
        # a learning rate of 1e160 diverges in epoch 0, and 1e40 in epochs
        # 1 to 4, as the weights grow past the square root of the float
        # maximum.
        rng = np.random.default_rng(seed)
        ds = make_ds(np.round(rng.normal(size=(n, d)) * 3.0, 1), rng.integers(0, 2, n))

        def outcome(trainer):
            try:
                model = trainer(ds, learning_rate, epochs, l2, seed)
            except TrainingDiverged as exc:
                return ("diverged", exc.epoch)
            return (model.weights.tobytes(), np.float64(model.bias).tobytes(), json.dumps(model.to_dict()))

        assert outcome(train_logistic) == outcome(train_logistic_loop)

    def test_model_without_a_scaler_loads_without_one(self):
        # A saved null scaler and a missing one both load as None.
        model = LogisticModel(weights=np.array([0.5, -1.0]), bias=0.25)
        saved = json.loads(json.dumps(model.to_dict()))
        assert saved["scaler"] is None
        for d in (saved, {"weights": saved["weights"], "bias": saved["bias"]}):
            clone = LogisticModel.from_dict(d)
            assert clone.scaler is None
            assert predict_logistic(clone, np.ones(2)) == predict_logistic(model, np.ones(2))

    def test_round_trip_preserves_predictions(self):
        ds = separable_ds(n=40, seed=11)
        model = train_logistic(ds, epochs=15, seed=0)
        clone = LogisticModel.from_dict(model.to_dict())
        assert np.allclose(
            predict_logistic(model, ds.rows), predict_logistic(clone, ds.rows)
        )


class TestDecisionTree:
    def test_pure_sample_stays_leaf(self):
        ds = make_ds([[0.0], [1.0], [2.0]], [0, 0, 0])
        tree = grow_one(ds)
        assert tree.to_dict() == leaf_tree(0, 3).to_dict()

    def test_two_point_split_uses_midpoint(self):
        ds = make_ds([[0.0], [1.0]], [0, 1])
        tree = grow_one(ds, mtry=1)
        assert tree.to_dict() == {
            "feature": [0, -1, -1],
            "threshold": [0.5, 0.0, 0.0],
            "left": [1, -1, -1],
            "right": [2, -1, -1],
            "n_pos": [1, 0, 1],
            "n_total": [2, 1, 1],
        }

    def test_xor_memorized_with_all_features(self):
        ds = xor_ds()
        node = grow_one(ds, mtry=2)
        assert (forest_scores(one_tree(node, 2), ds.rows) == ds.labels).all()

    def test_constant_features_give_leaf(self):
        ds = make_ds([[1.0, 2.0]] * 4, [0, 1, 0, 1])
        tree = grow_one(ds, mtry=2)
        assert tree.to_dict() == leaf_tree(2, 4).to_dict()

    def test_mtry_bounds_checked(self):
        ds = xor_ds()
        with pytest.raises(ValueError, match=r"mtry must be in \[1, 2\], got 0"):
            train_forest(ds, n_trees=1, mtry=0)
        with pytest.raises(ValueError, match=r"mtry must be in \[1, 2\], got 3"):
            train_forest(ds, n_trees=1, mtry=3)

    def test_empty_sample_rejected(self):
        ds = make_ds(np.zeros((0, 2)), [])
        for bootstrap in (True, False):
            with pytest.raises(ValueError, match="cannot grow a tree on an empty sample"):
                train_forest(ds, n_trees=3, bootstrap=bootstrap)

    def test_serialization_round_trip(self):
        rng = np.random.default_rng(31)
        ds = make_ds(rng.normal(size=(40, 3)), rng.integers(0, 2, 40))
        tree = grow_one(ds, seed=2)
        clone = Tree.from_dict(json.loads(json.dumps(tree.to_dict())), 3)
        probe = rng.normal(size=(25, 3))
        assert forest_scores(one_tree(clone, 3), probe).tobytes() == forest_scores(one_tree(tree, 3), probe).tobytes()

    def test_tree_deeper_than_the_recursion_limit_trains_and_scores(self):
        # Sorted rows with alternating labels: every split peels off one
        # row, so the tree is as deep as the sample is long.
        n = 3000
        ds = make_ds(np.arange(float(n))[:, None], np.arange(n) % 2)
        tree = grow_one(ds, mtry=1)
        assert depth(tree) == n - 1
        assert (forest_scores(one_tree(tree, 1), ds.rows) == ds.labels).all()

    def test_threshold_sending_every_row_one_way_ends_the_branch(self):
        # The midpoint of 0.15 and the next double rounds up to the larger.
        # A threshold at that midpoint sent all three rows of the root's
        # left child left, and a grower that took that split grew the same
        # node for ever, so a fresh interpreter runs it under a timeout.
        # The threshold is now 0.15 itself: the root makes the split it
        # scored, and both children are pure.
        src = str(Path(baselines.__file__).resolve().parents[1])
        code = (
            "import json, numpy as np\n"
            "from buyintent.baselines import train_forest\n"
            "from buyintent.dataset import Dataset\n"
            "X = np.array([[0.15], [0.15000000000000002], [0.15000000000000002], [1.0]])\n"
            "ds = Dataset(rows=X, labels=np.array([0, 1, 1, 1], dtype=np.uint8), feature_names=['f0'],\n"
            "             aggregation='weekly', category_count=0, n_base_cols=1)\n"
            "print(json.dumps(train_forest(ds, n_trees=1, bootstrap=False).trees[0].to_dict()))\n"
        )
        ran = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))},
        )
        assert ran.returncode == 0, ran.stderr
        assert json.loads(ran.stdout) == {
            "feature": [0, -1, -1],
            "threshold": [0.15, 0.0, 0.0],
            "left": [1, -1, -1],
            "right": [2, -1, -1],
            "n_pos": [3, 0, 3],
            "n_total": [4, 1, 3],
        }

    def test_threshold_sending_every_row_one_way_leaves_no_empty_leaf(self):
        # A threshold at the rounded-up midpoint sent every row of the root
        # left, and a grower that took it kept an empty right leaf, which
        # no saved tree may hold and no score may divide by. At 0.15 the
        # root splits the two values apart; its left child, whose one
        # drawn feature is constant there, stays a leaf.
        X = np.array([[0.15, 0], [0.15000000000000002, 1], [0.15000000000000002, 0], [0.15, 1]])
        forest = train_forest(make_ds(X, [0, 1, 0, 1]), n_trees=1, mtry=1, seed=0, bootstrap=False)
        tree = forest.trees[0]
        assert (tree.feature, tree.threshold) == ([0, -1, 1, -1, -1], [0.15, 0.0, 0.5, 0.0, 0.0])
        assert (tree.n_pos, tree.n_total) == ([2, 1, 1, 0, 1], [4, 2, 2, 1, 1])
        clone = Forest.from_dict(json.loads(json.dumps(forest.to_dict())))
        expected = np.array([0.5, 1.0, 0.0, 0.5]).tobytes()
        assert forest_scores(clone, X).tobytes() == forest_scores_walk(forest, X).tobytes() == expected

    def test_default_mtry_is_sqrt_rounded_up(self):
        assert default_mtry(4) == 2
        assert default_mtry(5) == 3
        assert default_mtry(318) == 18


class TestForestTraining:
    def test_single_tree_without_bootstrap_matches_plain_tree(self):
        # With every feature a candidate at every node, the seed draws
        # nothing that shapes the tree: it is the plain tree on all rows.
        rng = np.random.default_rng(41)
        X, y = rng.normal(size=(30, 3)), rng.integers(0, 2, 30)
        forest = train_forest(make_ds(X, y), n_trees=1, mtry=3, seed=8, bootstrap=False)
        assert nested(forest.trees[0]) == grow_recursive(X, y, 3, as_rng(99))

    def test_separable_data_reaches_auc_one(self):
        ds = separable_ds(n=60, seed=1)
        forest = train_forest(ds, n_trees=20, seed=0)
        assert auc(forest_scores(forest, ds.rows), ds.labels) == 1.0

    def test_same_seed_same_forest(self):
        ds = separable_ds(n=40, seed=2)
        a = train_forest(ds, n_trees=5, seed=3)
        b = train_forest(ds, n_trees=5, seed=3)
        assert a.to_dict() == b.to_dict()

    def test_different_seed_differs(self):
        ds = separable_ds(n=40, seed=2)
        a = train_forest(ds, n_trees=5, seed=3)
        b = train_forest(ds, n_trees=5, seed=4)
        assert a.to_dict() != b.to_dict()

    def test_xor_with_full_mtry_and_no_bootstrap(self):
        ds = xor_ds()
        forest = train_forest(ds, n_trees=3, mtry=2, seed=0, bootstrap=False)
        assert np.array_equal(forest_scores(forest, ds.rows), ds.labels.astype(float))

    def test_n_trees_validated(self):
        with pytest.raises(ValueError, match="n_trees"):
            train_forest(separable_ds(n=10), n_trees=0)

    def test_round_trip_preserves_scores(self):
        ds = separable_ds(n=30, seed=6)
        forest = train_forest(ds, n_trees=4, seed=1)
        clone = Forest.from_dict(json.loads(json.dumps(forest.to_dict())))
        assert forest_scores(clone, ds.rows).tobytes() == forest_scores(forest, ds.rows).tobytes()


def stump_dict(**changes):
    """A saved one-split tree on feature 1 of 2, with some lists replaced."""
    d = {
        "feature": [1, -1, -1],
        "threshold": [0.5, 0.0, 0.0],
        "left": [1, -1, -1],
        "right": [2, -1, -1],
        "n_pos": [3, 0, 3],
        "n_total": [5, 2, 3],
    }
    return {**d, **changes}


class TestTreeLoading:
    def test_valid_tree_loads(self):
        assert Tree.from_dict(stump_dict(), 2).to_dict() == stump_dict()

    @pytest.mark.parametrize(
        "changes, named",
        [
            ({"left": [0, -1, -1]}, "into nodes 0 and 2"),
            ({"right": [2, -1, -1], "left": [3, -1, -1]}, "into nodes 3 and 2"),
            ({"feature": [2, -1, -1]}, "feature 2"),
            ({"n_pos": [0, 0, 0], "n_total": [5, 0, 3]}, "node 1 has 0 of 0"),
            ({"threshold": [0.5, 0.0]}, "equal length"),
            ({name: [] for name in stump_dict()}, "non-empty"),
        ],
        ids=["self-loop-child", "child-out-of-range", "feature-out-of-range", "zero-total", "unequal-lengths",
             "empty"],
    )
    def test_malformed_tree_is_rejected(self, changes, named):
        with pytest.raises(ValueError, match=named):
            Tree.from_dict(stump_dict(**changes), 2)

    def test_forest_checks_each_tree_against_its_feature_count(self):
        d = {"mtry": 1, "seed": 0, "bootstrap": False, "n_features": 1, "trees": [stump_dict()]}
        with pytest.raises(ValueError, match="feature 1"):
            Forest.from_dict(d)

    def test_forest_without_trees_is_rejected(self):
        # it would score every row NaN, with numpy's "Mean of empty slice"
        d = {"mtry": 1, "seed": 0, "bootstrap": False, "n_features": 2, "trees": []}
        with pytest.raises(ValueError, match="forest has no trees"):
            Forest.from_dict(d)


class TestForestPrediction:
    def hand_forest(self, probs):
        return Forest(
            trees=[leaf_tree(int(p * 10), 10) for p in probs],
            mtry=1,
            seed=0,
            bootstrap=False,
            n_features=2,
        )

    def test_probability_is_mean_of_leaf_probs(self):
        forest = self.hand_forest([1.0, 0.0, 1.0, 1.0])
        assert forest_scores(forest, np.zeros(2))[0] == pytest.approx(0.75)

    def test_duplicated_trees_do_not_change_the_call(self):
        single = self.hand_forest([1.0])
        doubled = self.hand_forest([1.0, 1.0])
        x = np.zeros(2)
        assert forest_scores(single, x)[0] == forest_scores(doubled, x)[0]

    def test_dimension_mismatch_rejected(self):
        forest = self.hand_forest([1.0])
        with pytest.raises(ValueError, match="features"):
            forest_scores(forest, np.zeros(3))
        with pytest.raises(ValueError, match="features"):
            forest_scores(forest, np.zeros((2, 3)))

    def test_scores_agree_with_single_row_calls(self):
        ds = separable_ds(n=25, seed=14)
        forest = train_forest(ds, n_trees=7, seed=2)
        batch = forest_scores(forest, ds.rows)
        for i, x in enumerate(ds.rows):
            assert batch[i] == forest_scores(forest, x)[0]


# Rounded draws give tied values, and both signed zeros appear, so the
# split search meets runs of equal values that are not boundaries.
tied_values = st.one_of(
    st.sampled_from([-0.0, 0.0]),
    st.floats(-3.0, 3.0).map(lambda v: round(v, 1)),
)

# The midpoint of 0.15 and the next double rounds up to the larger, and
# the sum of two values near the float maximum overflows: the threshold
# then equals or passes a boundary value, so the rows x <= threshold sends
# left end past the boundary the split was scored at.
HALF_UP = (0.15, float(np.nextafter(0.15, 1.0)))
assert (HALF_UP[0] + HALF_UP[1]) / 2.0 == HALF_UP[1]
edge_values = st.one_of(
    tied_values,
    st.sampled_from([*HALF_UP, 1.7e308, -1.7e308, float(np.finfo(float).max), -float(np.finfo(float).max)]),
)


@st.composite
def split_problems(draw, values=tied_values):
    """(X, y, candidate features) with ties, signed zeros, an optional
    constant column and optionally duplicated rows. A node with fewer
    than two rows is pure, so the split search never sees one."""
    n = draw(st.integers(2, 14))
    d = draw(st.integers(1, 4))
    X = np.array(draw(st.lists(values, min_size=n * d, max_size=n * d))).reshape(n, d)
    if draw(st.booleans()):
        X[:, draw(st.integers(0, d - 1))] = draw(values)
    if draw(st.booleans()):
        X[n // 2 :] = X[: n - n // 2]
    y = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), dtype=int)
    feats = np.sort(draw(st.lists(st.integers(0, d - 1), min_size=1, max_size=d, unique=True)))
    return X, y, feats


@st.composite
def search_problems(draw):
    """(X, y, nodes) for one batched search: split_problems' X and y, and
    one to six nodes, each of two or more rows drawn with repeats and the
    same number of candidate features in drawn order."""
    X, y, _ = draw(split_problems(edge_values))
    n, d = X.shape
    mtry = draw(st.integers(1, d))
    nodes = []
    for _ in range(draw(st.integers(1, 6))):
        rows = np.array(draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2 * n)))
        nodes.append((rows, np.array(draw(st.permutations(range(d)))[:mtry])))
    return X, y, nodes


def split_bits(best):
    if best is None:
        return None
    score, feature, threshold = best[:3]
    return np.float64(score).tobytes(), feature, np.float64(threshold).tobytes()


class TestAgainstScalarOracles:
    @settings(max_examples=300, deadline=None)
    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @given(search_problems())
    def test_split_equals_the_per_feature_loop(self, problem):
        X, y, nodes = problem
        splits = _split_search(X, _column_ranks(X), y, nodes)
        assert len(splits) == len(nodes)
        for (rows, feats), split in zip(nodes, splits):
            best = best_split_loop(X[rows], y[rows], np.sort(feats))
            assert split_bits(split) == split_bits(best)
            if split is not None:
                _, f, thr, (left, left_pos), (right, right_pos) = split
                assert [type(v) for v in split[:3]] == [float, int, float]
                goes_left = X[rows, f] <= thr
                assert goes_left.any() and not goes_left.all()
                assert sorted(left) == sorted(rows[goes_left]) and sorted(right) == sorted(rows[~goes_left])
                assert (left_pos, right_pos) == (y[left].sum(), y[right].sum())

    @settings(max_examples=150, deadline=None)
    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @given(split_problems(edge_values), st.integers(1, 12), st.integers(0, 2**16), st.booleans())
    def test_tree_equals_the_recursive_grower(self, problem, n_trees, seed, bootstrap):
        # Every tree of the lockstep grower is the recursive grower's tree
        # on that tree's own sample, drawn from its own substream.
        X, y, _ = problem
        n, d = X.shape
        mtry = 1 + seed % d
        oracles = []
        for t in range(n_trees):
            rng = as_rng(substream_seed(seed, 301, t))
            rows = rng.integers(0, n, size=n) if bootstrap else np.arange(n)
            oracles.append(grow_recursive(X[rows], y[rows], mtry, rng))
        forest = train_forest(make_ds(X, y), n_trees=n_trees, mtry=mtry, seed=seed, bootstrap=bootstrap)
        assert len(forest.trees) == n_trees
        for tree, oracle in zip(forest.trees, oracles):
            assert json.dumps(nested(tree), sort_keys=True) == json.dumps(oracle, sort_keys=True)

    @settings(max_examples=100, deadline=None)
    @given(
        split_problems(), st.integers(1, 20), st.integers(0, 2**16), st.booleans(), st.sampled_from([0, 1, 2000]),
        st.integers(1, 64),
    )
    def test_forest_scores_equal_the_per_row_walk(self, problem, n_trees, seed, bootstrap, chain, budget):
        # Probe rows also take values at the trees' thresholds, both signed
        # zeros, the infinities and NaN. A chain tree, if drawn, joins the
        # forest, so its trees differ in depth by up to 2,000 levels. Any
        # block budget gives the same bytes: one pair per block, or a few
        # rows per block with a part-filled last block.
        X, y, _ = problem
        n, d = X.shape
        forest = train_forest(make_ds(X, y), n_trees=n_trees, mtry=1, seed=seed, bootstrap=bootstrap)
        rng = np.random.default_rng(seed)
        special = [v for tree in forest.trees for v in tree.threshold] + [0.0, -0.0, np.inf, -np.inf, np.nan]
        probe = np.vstack([X, rng.normal(size=(5, d)) * 2.0, rng.choice(special, size=(8, d))])
        if chain:
            forest.trees.insert(seed % (n_trees + 1), chain_tree(chain))
        expected = forest_scores_walk(forest, probe).tobytes()
        assert forest_scores(forest, probe).tobytes() == expected
        with mock.patch.object(baselines, "SCORE_BUDGET", budget):
            assert forest_scores(forest, probe).tobytes() == expected
        assert forest_scores(forest, probe[:0]).shape == (0,)
        assert forest_scores(forest, probe[-1]).tobytes() == forest_scores_walk(forest, probe[-1:]).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 300), st.integers(0, 2**16))
    def test_many_tree_means_equal_the_per_row_walk(self, n_trees, seed):
        # Stumps with uneven leaf counts: the per-row sums cross numpy's
        # pairwise-summation blocks once there are 8 or more trees.
        rng = np.random.default_rng(seed)
        trees = []
        for _ in range(n_trees):
            totals = [int(t) for t in rng.integers(1, 50, size=2)]
            pos = [int(rng.integers(0, t + 1)) for t in totals]
            trees.append(
                Tree(
                    feature=[0, -1, -1],
                    threshold=[float(rng.normal()), 0.0, 0.0],
                    left=[1, -1, -1],
                    right=[2, -1, -1],
                    n_pos=[sum(pos), *pos],
                    n_total=[sum(totals), *totals],
                )
            )
        forest = Forest(trees=trees, mtry=1, seed=0, bootstrap=False, n_features=1)
        probe = rng.normal(size=(30, 1))
        assert forest_scores(forest, probe).tobytes() == forest_scores_walk(forest, probe).tobytes()


def golden_grid_ds(seed):
    """Rounded (tied) values, a constant, a binary and a signed-zero
    column, and a duplicated second half of the rows."""
    rng = np.random.default_rng(seed)
    n = 40 + 17 * seed
    X = np.round(rng.normal(size=(n, 5)), 1)
    X[:, 1] = 3.0
    X[:, 2] = rng.integers(0, 2, n)
    X[:, 3] = np.where(rng.random(n) < 0.5, -0.0, 0.0) + np.where(rng.random(n) < 0.3, 1.0, 0.0)
    X[n // 2 :] = X[: n - n // 2]
    y = (X[:, 0] + 0.5 * X[:, 2] + rng.normal(size=n) > 0).astype(np.uint8)
    return make_ds(X, y)


# Computed at commit 107549a, whose forest searched splits one feature and
# one boundary at a time, grew trees by recursion, saved them as nested
# dicts and scored one row per tree at a time. Trees are hashed in that
# nested form, so any change to tree or score bytes fails here.
GOLDEN_GRID_SHA256 = "36b1f080f9fdfc0dbfa8fa0f1e3f42719f789e929864b33829f14bb91c007667"


def test_seeded_forest_grid_keeps_its_bytes():
    h = hashlib.sha256()
    for seed in range(3):
        ds = golden_grid_ds(seed)
        for mtry in (None, 1, ds.d):
            for bootstrap in (True, False):
                forest = train_forest(ds, n_trees=9, mtry=mtry, seed=seed, bootstrap=bootstrap)
                doc = {**forest.to_dict(), "trees": [nested(t) for t in forest.trees]}
                h.update(json.dumps(doc, sort_keys=True).encode())
                h.update(forest_scores(forest, ds.rows).tobytes())
    assert h.hexdigest() == GOLDEN_GRID_SHA256


def test_forest_bytes_do_not_depend_on_the_search_budget(monkeypatch):
    calls = []

    def recorded(X, ranks, y, nodes):
        calls.append(len(nodes))
        return search(X, ranks, y, nodes)

    search = baselines._split_search
    monkeypatch.setattr(baselines, "_split_search", recorded)

    def grid():
        for seed in range(3):
            ds = golden_grid_ds(seed)
            for mtry in (None, 1, ds.d):
                for bootstrap in (True, False):
                    forest = train_forest(ds, n_trees=9, mtry=mtry, seed=seed, bootstrap=bootstrap)
                    yield json.dumps(forest.to_dict(), sort_keys=True)

    batched = list(grid())
    assert max(calls) > 1
    calls.clear()
    monkeypatch.setattr(baselines, "SEARCH_BUDGET", 1)
    assert list(grid()) == batched
    assert set(calls) == {1}


class TestOnFixture:
    def test_logistic_beats_chance_on_balanced_data(self, balanced_dataset):
        model = train_logistic(balanced_dataset, epochs=60, seed=0)
        scores = predict_logistic(model, balanced_dataset.rows)
        assert auc(scores, balanced_dataset.labels) > 0.6

    def test_forest_beats_chance_on_balanced_data(self, balanced_dataset):
        forest = train_forest(balanced_dataset, n_trees=30, seed=0)
        scores = forest_scores(forest, balanced_dataset.rows)
        assert auc(scores, balanced_dataset.labels) > 0.6
