"""AUC exactness, split protocols, report invariants, random search."""

from __future__ import annotations

import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from buyintent import evaluation
from buyintent.dataset import Dataset
from buyintent.evaluation import (
    MAX_BUDGET,
    EvalReport,
    SearchSpace,
    auc,
    cross_validate,
    cv_protocol,
    holdout_evaluate,
    holdout_protocol,
    kfold_split,
    random_search,
)
from buyintent.neural import Hyperparams
from buyintent.util import TrainingDiverged, dumps
from evaluation_oracles import cross_validate_loop, holdout_evaluate_loop
from network_oracles import assert_in_search_space


def pairwise_auc(scores, labels):
    """O(n^2) reference: wins plus half ties over all pos/neg pairs."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=int)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


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


def signal_ds(n=64, seed=0):
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, n)
    X = rng.normal(size=(n, 3)) * 0.4
    X[:, 0] += y * 2.0
    return make_ds(X, y)


def constant_trainer(train, seed):
    return lambda rows: np.full(np.atleast_2d(rows).shape[0], 0.5)


def first_column_trainer(train, seed):
    return lambda rows: np.atleast_2d(np.asarray(rows, dtype=float))[:, 0]


class TestAuc:
    def test_perfect_ranking(self):
        assert auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_reversed_ranking(self):
        assert auc([0.1, 0.2, 0.8, 0.9], [1, 1, 0, 0]) == 0.0

    def test_half_for_interleaved(self):
        assert auc([0.4, 0.3, 0.2, 0.1], [1, 0, 1, 0]) == 0.75

    def test_all_tied_scores_give_exactly_half(self):
        assert auc(np.zeros(10), [1, 0] * 5) == 0.5

    def test_matches_pairwise_oracle_bit_for_bit(self):
        rng = np.random.default_rng(99)
        for _ in range(40):
            n = int(rng.integers(2, 60))
            labels = rng.integers(0, 2, n)
            if labels.sum() in (0, n):
                labels[0] = 1 - labels[0]
            # coarse grid of scores forces plenty of ties
            scores = rng.integers(0, 5, n) / 4.0
            assert auc(scores, labels) == pairwise_auc(scores, labels)

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(100)
        scores = rng.random(50)
        labels = rng.integers(0, 2, 50)
        labels[0], labels[1] = 0, 1
        assert auc(scores, labels) == auc(np.exp(3 * scores), labels)

    def test_complement_identity(self):
        rng = np.random.default_rng(101)
        scores = rng.random(30)
        labels = rng.integers(0, 2, 30)
        labels[0], labels[1] = 0, 1
        assert auc(scores, labels) + auc(-scores, labels) == pytest.approx(1.0)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="both classes"):
            auc([0.1, 0.2], [1, 1])
        with pytest.raises(ValueError, match="both classes"):
            auc([0.1, 0.2], [0, 0])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="equal-length"):
            auc([0.1, 0.2, 0.3], [1, 0])


class TestKfoldSplit:
    def test_partitions_every_index_once(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(10, 200))
            k = int(rng.integers(2, min(n, 12)))
            seed = int(rng.integers(0, 10_000))
            folds = kfold_split(n, k, seed)
            assert len(folds) == k
            joined = np.concatenate(folds)
            assert sorted(joined.tolist()) == list(range(n))
            sizes = [len(f) for f in folds]
            assert max(sizes) - min(sizes) <= 1

    def test_deterministic(self):
        a = kfold_split(50, 5, seed=3)
        b = kfold_split(50, 5, seed=3)
        c = kfold_split(50, 5, seed=4)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        assert any(not np.array_equal(x, y) for x, y in zip(a, c))

    def test_too_few_rows_rejected(self):
        with pytest.raises(ValueError, match="at least"):
            kfold_split(5, 10)

    def test_bad_k_rejected(self):
        with pytest.raises(ValueError, match="k must be"):
            kfold_split(10, 1)


class TestHoldoutProtocol:
    def test_sizes(self):
        plan = holdout_protocol(100, seed=0)
        assert len(plan) == 4
        assert all(list(scored) == ["validation", "test"] for _, scored in plan)
        assert all(len(scored["test"]) == 25 for _, scored in plan)
        assert sum(len(scored["validation"]) for _, scored in plan) == 75

    def test_partition_property(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            n = int(rng.integers(8, 300))
            plan = holdout_protocol(n, seed=int(rng.integers(0, 1000)))
            test = plan[0][1]["test"]
            assert all(np.array_equal(scored["test"], test) for _, scored in plan)
            joined = np.concatenate([test] + [scored["validation"] for _, scored in plan])
            assert sorted(joined.tolist()) == list(range(n))

    def test_each_fold_trains_on_the_other_folds(self):
        plan = holdout_protocol(40, seed=1)
        train, scored = plan[2]
        val, test = scored["validation"], scored["test"]
        assert not set(train) & set(val)
        assert not set(train) & set(test)
        assert set(train) == set(range(40)) - set(test) - set(val)
        others = [plan[i][1]["validation"] for i in (0, 1, 3)]
        assert np.array_equal(train, np.concatenate(others))

    def test_accepts_dataset(self):
        ds = signal_ds(n=16)
        plan = holdout_protocol(ds, seed=0)
        assert len(plan[0][1]["test"]) == 4

    def test_too_small_rejected(self):
        with pytest.raises(ValueError, match="at least 8"):
            holdout_protocol(7)


class TestCvProtocol:
    def test_validation_sets_are_the_kfold_split(self):
        plan = cv_protocol(50, 5, seed=3)
        folds = kfold_split(50, 5, seed=3)
        assert [list(scored) for _, scored in plan] == [["validation"]] * 5
        for i, (train, scored) in enumerate(plan):
            assert np.array_equal(scored["validation"], folds[i])
            assert np.array_equal(train, np.concatenate(folds[:i] + folds[i + 1 :]))


class TestEvalReport:
    def test_mean_invariant_enforced(self):
        with pytest.raises(ValueError, match="mean"):
            EvalReport(
                model="lr",
                dataset="d",
                protocol="cv2",
                seed=0,
                fold_aucs=[0.5, 0.7],
                auc=0.9,
            )

    def test_json_excludes_wall_clock(self):
        rep = EvalReport(
            model="m", dataset="d", protocol="cv2", seed=0,
            fold_aucs=[0.5], auc=0.5,
        )
        assert "wall" not in rep.to_json()

    def test_json_is_canonical(self):
        rep = EvalReport(
            model="m", dataset="d", protocol="cv2", seed=0, fold_aucs=[0.5], auc=0.5
        )
        text = rep.to_json()
        assert text == rep.to_json()
        assert ": " not in text and ", " not in text


class TestCrossValidate:
    def test_constant_scores_give_half_everywhere(self):
        ds = signal_ds(n=60, seed=1)
        rep = cross_validate(constant_trainer, ds, k=5, seed=0)
        assert rep.fold_aucs == [0.5] * 5
        assert rep.auc == 0.5
        assert rep.protocol == "cv5"

    def test_oracle_feature_scores_high(self):
        ds = signal_ds(n=80, seed=2)
        rep = cross_validate(first_column_trainer, ds, k=4, seed=0)
        assert rep.auc > 0.9

    def test_deterministic_and_seed_sensitive(self):
        rng = np.random.default_rng(3)
        y = rng.integers(0, 2, 50)
        X = rng.normal(size=(50, 3))
        X[:, 0] += y * 0.8  # weak signal, fold AUCs vary with the split
        ds = make_ds(X, y)
        a = cross_validate(first_column_trainer, ds, k=5, seed=7)
        b = cross_validate(first_column_trainer, ds, k=5, seed=7)
        c = cross_validate(first_column_trainer, ds, k=5, seed=8)
        assert a.fold_aucs == b.fold_aucs
        assert a.fold_aucs != c.fold_aucs

    @pytest.mark.parametrize(
        ("evaluate", "n_test"),
        [
            (lambda trainer, ds: cross_validate(trainer, ds, k=4, seed=0), 0),
            (lambda trainer, ds: holdout_evaluate(trainer, ds, seed=0), 10),
        ],
        ids=["cross_validate", "holdout_evaluate"],
    )
    def test_trainer_sees_only_training_rows(self, evaluate, n_test):
        base = signal_ds(n=40, seed=4)
        rows = base.rows.copy()
        rows[:, 0] = np.arange(base.n)  # a unique id per row
        ds = make_ds(rows, base.labels)
        fits = []  # per trained model: the ids it trained on, the ids it scored

        def spy_trainer(train, seed):
            trained, scored = set(train.rows[:, 0]), set()
            fits.append((trained, scored))

            def score(X):
                scored.update(X[:, 0])
                return X[:, 1]

            return score

        evaluate(spy_trainer, ds)
        assert len(fits) == 4
        # every holdout model scores the one test quarter; cv has none
        test = set.intersection(*(scored for _, scored in fits))
        assert len(test) == n_test
        for trained, scored in fits:
            assert trained.isdisjoint(scored)
            assert trained | (scored - test) == set(range(ds.n)) - test


class TestHoldoutEvaluate:
    def test_reports_test_mean_with_validation_extras(self):
        ds = signal_ds(n=80, seed=5)
        rep = holdout_evaluate(first_column_trainer, ds, seed=0)
        assert rep.protocol == "holdout25x4"
        assert len(rep.fold_aucs) == 4
        assert len(rep.extras["validation_aucs"]) == 4
        assert rep.auc == pytest.approx(float(np.mean(rep.fold_aucs)))
        assert rep.auc > 0.9

    def test_test_aucs_identical_for_deterministic_trainer(self):
        # the same scoring function is applied to one fixed test set,
        # so all four test AUCs must coincide
        ds = signal_ds(n=64, seed=6)
        rep = holdout_evaluate(first_column_trainer, ds, seed=1)
        assert len(set(rep.fold_aucs)) == 1

    def test_deterministic(self):
        ds = signal_ds(n=48, seed=7)
        a = holdout_evaluate(first_column_trainer, ds, seed=2)
        b = holdout_evaluate(first_column_trainer, ds, seed=2)
        assert a.to_json() == b.to_json()


class TestSearchSpace:
    def test_samples_respect_bounds(self):
        space = SearchSpace(depth_choices=(1, 2), with_input_noise=True)
        rng = np.random.default_rng(0)
        for _ in range(200):
            hp = space.sample(rng)
            assert len(hp.hidden_units) in (1, 2)
            assert_in_search_space(hp)

    def test_learning_rate_is_log_spread(self):
        space = SearchSpace()
        rng = np.random.default_rng(1)
        draws = [space.sample(rng).initial_learning_rate for _ in range(400)]
        below = sum(1 for x in draws if x < 0.0158)  # geometric midpoint
        assert 120 < below < 280

    def test_noise_disabled_by_default(self):
        space = SearchSpace()
        rng = np.random.default_rng(2)
        assert all(space.sample(rng).input_noise_level == 0.0 for _ in range(20))

    def test_deep_draws_allow_more_epochs(self):
        space = SearchSpace(depth_choices=(2,))
        rng = np.random.default_rng(3)
        epochs = [space.sample(rng).epochs for _ in range(300)]
        assert max(epochs) > 100


class TestRandomSearch:
    def trainer_factory(self, hp):
        def trainer(train, seed):
            return lambda rows: np.atleast_2d(rows)[:, 0]

        return trainer

    def test_budget_one(self):
        ds = signal_ds(n=40, seed=8)
        out = random_search(SearchSpace(), self.trainer_factory, ds, budget=1, seed=0)
        assert len(out.trials) == 1
        assert out.trials[0]["status"] == "ok"
        assert out.best_report.protocol == "holdout25x4"

    def test_best_has_highest_validation_auc(self):
        ds = signal_ds(n=40, seed=9)
        calls = []

        def factory(hp):
            def trainer(train, seed):
                quality = hp.initial_learning_rate
                calls.append(quality)
                noise_rng = np.random.default_rng(int(quality * 1e6))

                def score(rows):
                    rows = np.atleast_2d(rows)
                    return rows[:, 0] * quality + noise_rng.random(len(rows))

                return score

            return trainer

        out = random_search(SearchSpace(), factory, ds, budget=5, seed=3)
        oks = [t for t in out.trials if t["status"] == "ok"]
        best_val = max(t["validation_auc"] for t in oks)
        assert float(np.mean(out.best_report.extras["validation_aucs"])) == best_val

    def test_deterministic(self):
        ds = signal_ds(n=40, seed=10)
        a = random_search(SearchSpace(), self.trainer_factory, ds, budget=3, seed=5)
        b = random_search(SearchSpace(), self.trainer_factory, ds, budget=3, seed=5)
        assert a.best_hyperparams == b.best_hyperparams
        assert a.best_report.to_json() == b.best_report.to_json()

    def test_diverged_trials_recorded_and_skipped(self):
        ds = signal_ds(n=40, seed=11)
        count = [0]

        def flaky_factory(hp):
            trial = count[0]
            count[0] += 1

            def trainer(train, seed):
                if trial % 2 == 0:
                    raise TrainingDiverged(0, "synthetic blowup")
                return lambda rows: np.atleast_2d(rows)[:, 0]

            return trainer

        out = random_search(SearchSpace(), flaky_factory, ds, budget=4, seed=6)
        statuses = [t["status"] for t in out.trials]
        assert "constraint_violation" in statuses
        assert "ok" in statuses
        bad = next(t for t in out.trials if t["status"] == "constraint_violation")
        assert "hyperparams" in bad and "detail" in bad

    def test_all_diverged_is_an_error(self):
        ds = signal_ds(n=40, seed=12)

        def doomed_factory(hp):
            def trainer(train, seed):
                raise TrainingDiverged(0, "always")

            return trainer

        with pytest.raises(TrainingDiverged, match="every search trial"):
            random_search(SearchSpace(), doomed_factory, ds, budget=3, seed=7)

    def test_budget_validated(self):
        ds = signal_ds(n=40, seed=13)
        with pytest.raises(ValueError, match="budget"):
            random_search(SearchSpace(), self.trainer_factory, ds, budget=0, seed=0)

    def test_budget_past_its_ceiling_is_refused_before_any_trial(self):
        def factory(hp):
            raise AssertionError("a trial started")

        ds = signal_ds(n=40, seed=13)
        with pytest.raises(ValueError, match=f"budget must be at most {MAX_BUDGET}, got {MAX_BUDGET + 1}"):
            random_search(SearchSpace(), factory, ds, budget=MAX_BUDGET + 1, seed=0)

    def test_budget_at_its_ceiling_is_admitted(self):
        class FirstTrial(Exception):
            pass

        def factory(hp):
            raise FirstTrial

        with pytest.raises(FirstTrial):
            random_search(SearchSpace(), factory, signal_ds(n=40, seed=13), budget=MAX_BUDGET, seed=0)

    def test_network_trainer_round_trip(self, balanced_dataset):
        """One real end-to-end trial with the actual network trainer."""
        from buyintent.neural import train_mlp, network_predict

        def factory(hp):
            small = Hyperparams(
                hidden_units=(8,),
                activation=hp.activation,
                initial_learning_rate=hp.initial_learning_rate,
                epochs=10,
            )

            def trainer(train, seed):
                net = train_mlp(train, small, seed)
                return lambda rows: network_predict(net, np.atleast_2d(rows))

            return trainer

        out = random_search(
            SearchSpace(), factory, balanced_dataset, budget=2, seed=1
        )
        assert len(out.trials) == 2
        assert all(t["status"] == "ok" for t in out.trials)
        assert 0.0 <= out.best_report.auc <= 1.0


def trainer_with_state(train, seed, scale=1.0):
    """A model whose scores hang on its training rows and their order,
    its seed and the order it is asked to score in: the first column
    weighted by the first training row's second column, plus noise drawn
    from its seed on every call."""
    rng = np.random.default_rng(seed)
    weight = scale * float(train.rows[0, 1])

    def score(rows):
        return rows[:, 0] * weight + rng.random(len(rows))

    return score


@st.composite
def evaluation_problems(draw):
    """A dataset of 8 to 160 rows with a weak signal, a k and a seed.
    Small folds often hold one class, so both sides then raise."""
    n = draw(st.integers(8, 160))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    y = rng.integers(0, 2, n)
    X = rng.normal(size=(n, 3))
    X[:, 0] += y
    return make_ds(X, y), draw(st.integers(2, 10)), draw(st.integers(0, 2**32 - 1))


def outcome(run):
    """What a run returns, as bytes, or the error it raises."""
    try:
        return run()
    except (ValueError, TrainingDiverged) as err:
        return type(err).__name__, str(err)


# what the fold loops raised on a scored set of one class, after training
# every fold before it
LOOP_SINGLE_CLASS = ("ValueError", "labels must contain both classes")


def recording(calls):
    """trainer_with_state, noting each call's seed in calls."""

    def trainer(train, seed):
        calls.append(seed)
        return trainer_with_state(train, seed)

    return trainer


def assert_names_the_first_single_class_set(message, protocol, plan, labels):
    """message names the plan's first scored set of one class, in the
    fold loop's order, with its class counts."""
    m = re.fullmatch(
        r"(\S+) fold (\d+): the (\w+) set holds (\d+) buy and (\d+) non-buy rows; its AUC needs both classes",
        message,
    )
    assert m and m[1] == protocol
    bad = [(i, name) for i, (_, scored) in enumerate(plan) for name, idx in scored.items()
           if labels[idx].min() == labels[idx].max()]
    assert bad[0] == (int(m[2]), m[3])
    named = labels[plan[int(m[2])][1][m[3]]]
    assert (int(m[4]), int(m[5])) == (named.sum(), len(named) - named.sum())


class TestProtocolsAgainstTheFoldLoops:
    """cv, holdout and search reports keep the bytes of the two loops in
    evaluation_oracles. Where a loop raised on a scored set of one class,
    the package refuses the plan before any model trains, naming that
    set."""

    @settings(max_examples=150, deadline=None)
    @given(evaluation_problems())
    def test_cross_validate(self, problem):
        ds, k, seed = problem
        calls = []
        got = outcome(lambda: cross_validate(recording(calls), ds, k, seed, "m", "d").to_json())
        want = outcome(lambda: cross_validate_loop(trainer_with_state, ds, k, seed, "m", "d").to_json())
        if want == LOOP_SINGLE_CLASS:
            assert got[0] == "SingleClassSet" and calls == []
            assert_names_the_first_single_class_set(got[1], f"cv{k}", cv_protocol(ds.n, k, seed), ds.labels)
        else:
            assert got == want and len(calls) == (k if isinstance(got, str) else 0)

    @settings(max_examples=150, deadline=None)
    @given(evaluation_problems())
    def test_holdout_evaluate(self, problem):
        ds, _, seed = problem
        calls = []
        got = outcome(lambda: holdout_evaluate(recording(calls), ds, seed, "m", "d").to_json())
        want = outcome(lambda: holdout_evaluate_loop(trainer_with_state, ds, seed, "m", "d").to_json())
        if want == LOOP_SINGLE_CLASS:
            assert got[0] == "SingleClassSet" and calls == []
            assert_names_the_first_single_class_set(got[1], "holdout25x4", holdout_protocol(ds, seed), ds.labels)
        else:
            assert got == want and len(calls) == (4 if isinstance(got, str) else 0)

    @settings(max_examples=60, deadline=None)
    @given(evaluation_problems())
    def test_random_search(self, problem):
        ds, budget, seed = problem

        def factory(hp):
            def trainer(train, seed):
                if hp.momentum > 0.6:
                    raise TrainingDiverged(0, "synthetic blowup")
                return trainer_with_state(train, seed, hp.initial_learning_rate)

            return trainer

        def steady_factory(hp):
            return lambda train, seed: trainer_with_state(train, seed, hp.initial_learning_rate)

        def search(make_trainer):
            def run():
                result = random_search(SearchSpace(), make_trainer, ds, budget // 2, seed, "m", "d")
                return result.best_hyperparams, result.best_report.to_json(), dumps(result.trials)

            return outcome(run)

        got = search(factory)
        with mock.patch.object(evaluation, "holdout_evaluate", holdout_evaluate_loop):
            want = search(factory)
            # A trial that diverged before its first single-class set never
            # reached it in the loop. With trainers that never diverge, the
            # loop raises exactly when some trial's plan holds such a set.
            reaches_single_class = search(steady_factory) == LOOP_SINGLE_CLASS
        assert (got[0] == "SingleClassSet") == reaches_single_class
        if not reaches_single_class:
            assert got == want
