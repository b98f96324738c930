"""AUC, the split plans of k-fold cv and the 25%/4-fold holdout, the one
fold loop that runs them, and seeded network hyperparameter search.

A trainer here is any callable (train: Dataset, seed) -> score_fn,
where score_fn maps raw feature rows to buy probabilities. Models that
need input scaling carry their own scaler, so evaluation never has to
know about it.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .dataset import Dataset
from .neural import BOUNDS, MAX_UNITS, Hyperparams
from .util import TrainingDiverged, as_rng, dumps, substream_seed

# the most trials random_search runs: far past the default of 20, so a
# mistyped budget is refused before the first trial trains
MAX_BUDGET = 10_000


def auc(scores, labels) -> float:
    """Exact rank-based AUC: the probability a random positive outscores
    a random negative, ties counted half. Matches the all-pairs count
    bit for bit because ranks are computed in integer arithmetic.
    """
    s = np.asarray(scores, dtype=float)
    y = np.asarray(labels).astype(int)
    if s.shape != y.shape or s.ndim != 1:
        raise ValueError("scores and labels must be equal-length vectors")
    n_pos = int(y.sum())
    n_neg = len(y) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("labels must contain both classes")
    _, inverse, counts = np.unique(s, return_inverse=True, return_counts=True)
    upto = np.cumsum(counts)
    start = upto - counts + 1
    avg_rank = (start + upto) / 2.0
    rank_sum = float(avg_rank[inverse][y == 1].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def kfold_split(n: int, k: int = 10, seed=0) -> list[np.ndarray]:
    """Seeded permutation of range(n) cut into k near-equal folds."""
    if n < k:
        raise ValueError(f"need at least k={k} rows, got {n}")
    if k < 2:
        raise ValueError("k must be at least 2")
    perm = as_rng(seed).permutation(n)
    return list(np.array_split(perm, k))


def _rotate(folds: list[np.ndarray], **fixed: np.ndarray) -> list[tuple]:
    """A split plan: one (train, scored) pair per model, the rows it
    trains on and the named row sets it then scores, in order. Each fold
    in turn is scored as the validation set while the others, in order,
    are trained on; every model then also scores the fixed sets (the
    holdout's test rows)."""
    return [
        (np.concatenate(folds[:i] + folds[i + 1 :]), {"validation": val, **fixed})
        for i, val in enumerate(folds)
    ]


def cv_protocol(n: int, k: int = 10, seed=0) -> list[tuple]:
    """k-fold cross-validation: each fold of kfold_split held out once."""
    return _rotate(kfold_split(n, k, seed))


def holdout_protocol(data, seed=0) -> list[tuple]:
    """25% of rows out as the test set, the remaining 75% split into
    four validation folds. Accepts a Dataset or a row count."""
    n = data.n if isinstance(data, Dataset) else int(data)
    if n < 8:
        raise ValueError(f"holdout protocol needs at least 8 rows, got {n}")
    perm = as_rng(seed).permutation(n)
    n_test = n // 4
    return _rotate(list(np.array_split(perm[n_test:], 4)), test=perm[:n_test])


@dataclass(eq=False)
class EvalReport:
    model: str
    dataset: str
    protocol: str
    seed: int
    fold_aucs: list[float]
    auc: float
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.fold_aucs and not math.isclose(self.auc, float(np.mean(self.fold_aucs))):
            raise ValueError("report auc must equal the mean of fold aucs")

    def to_json(self) -> str:
        """Canonical bytes for hashing and golden comparisons; the
        wall-clock lives in the run manifest, not here."""
        return dumps(asdict(self))


class SingleClassSet(ValueError):
    """A row set a split plan scores holds one class only, so its AUC is
    undefined."""


def _evaluate(trainer, ds: Dataset, plan: list[tuple], seed, key: int, reported: str, **names) -> EvalReport:
    """The one fold loop. Every scored set of the plan is checked for
    both classes before the first model trains. Fold i's model then
    trains on its rows under substream_seed(seed, key, i) and scores each
    of its row sets in order. The reported set's AUCs are the report's
    fold AUCs; those of every other set ride along in extras as
    <name>_aucs."""
    for i, (_, scored) in enumerate(plan):
        for name, idx in scored.items():
            n_pos = int(ds.labels[idx].sum())
            if n_pos in (0, len(idx)):
                raise SingleClassSet(
                    f"{names['protocol']} fold {i}: the {name} set holds {n_pos} buy and "
                    f"{len(idx) - n_pos} non-buy rows; its AUC needs both classes"
                )
    aucs: dict[str, list[float]] = {}
    for i, (train, scored) in enumerate(plan):
        score = trainer(ds.take(train), substream_seed(seed, key, i))
        for name, idx in scored.items():
            aucs.setdefault(name, []).append(auc(score(ds.rows[idx]), ds.labels[idx]))
    fold_aucs = aucs.pop(reported)
    extras = {f"{name}_aucs": v for name, v in aucs.items()}
    return EvalReport(seed=int(seed), fold_aucs=fold_aucs, auc=float(np.mean(fold_aucs)), extras=extras, **names)


def cross_validate(trainer, ds: Dataset, k: int = 10, seed=0, model_name: str = "model", dataset_name: str = "dataset") -> EvalReport:
    """k-fold CV: train on k-1 folds, score the held-out fold."""
    return _evaluate(trainer, ds, cv_protocol(ds.n, k, seed), seed, 401, "validation",
                     model=model_name, dataset=dataset_name, protocol=f"cv{k}")


def holdout_evaluate(trainer, ds: Dataset, seed=0, model_name: str = "model", dataset_name: str = "dataset") -> EvalReport:
    """Train four models, each with one fold held out for validation,
    and report the mean of their test-set AUCs. Per-fold validation
    AUCs ride along in extras for model selection."""
    return _evaluate(trainer, ds, holdout_protocol(ds, seed), seed, 402, "test",
                     model=model_name, dataset=dataset_name, protocol="holdout25x4")


@dataclass(frozen=True)
class SearchSpace:
    """Sampling ranges for the network trainers: each float from its
    neural.BOUNDS range, the learning rate log-uniformly and the rest
    uniformly. Hidden layers have 16 (one layer) or 64 (deeper) to
    MAX_UNITS units, and epochs run 10..100 (one layer) or 10..150."""

    depth_choices: tuple[int, ...] = (1,)
    activations: tuple[str, ...] = ("sigmoid", "relu")
    with_input_noise: bool = False

    def sample(self, rng) -> Hyperparams:
        rng = as_rng(rng)
        depth = int(rng.choice(self.depth_choices))
        sizes = []
        for i in range(depth):
            floor = 16 if (i == 0 and depth == 1) else 64
            sizes.append(int(rng.integers(floor, MAX_UNITS + 1)))
        epochs_hi = 150 if depth > 1 else 100
        lr_lo, lr_hi = BOUNDS["initial_learning_rate"]
        return Hyperparams(
            hidden_units=tuple(sizes),
            activation=str(rng.choice(list(self.activations))),
            initial_learning_rate=float(np.exp(rng.uniform(np.log(lr_lo), np.log(lr_hi)))),
            momentum=float(rng.uniform(*BOUNDS["momentum"])),
            l2_weight_cost=float(rng.uniform(*BOUNDS["l2_weight_cost"])),
            dropout_fraction=float(rng.uniform(*BOUNDS["dropout_fraction"])),
            epochs=int(rng.integers(10, epochs_hi + 1)),
            annealing_delay_fraction=float(rng.uniform(*BOUNDS["annealing_delay_fraction"])),
            input_noise_level=float(rng.uniform(*BOUNDS["input_noise_level"])) if self.with_input_noise else 0.0,
        )


@dataclass(eq=False)
class SearchResult:
    best_hyperparams: Hyperparams
    best_report: EvalReport
    trials: list[dict]


def random_search(
    space: SearchSpace,
    make_trainer,
    ds: Dataset,
    budget: int = 20,
    seed=0,
    model_name: str = "model",
    dataset_name: str = "dataset",
) -> SearchResult:
    """Sample budget configurations, score each by mean validation AUC
    under the holdout protocol, and return the argmax. Diverged runs are
    recorded as constraint violations and skipped; if every trial
    diverges there is nothing to return and that is an error.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    if budget > MAX_BUDGET:
        raise ValueError(f"budget must be at most {MAX_BUDGET}, got {budget}")
    rng = as_rng(seed)
    trials: list[dict] = []
    best: tuple[float, Hyperparams, EvalReport] | None = None
    for t in range(budget):
        hp = space.sample(rng)
        entry = {"trial": t, "hyperparams": hp.to_dict()}
        try:
            report = holdout_evaluate(
                make_trainer(hp), ds, substream_seed(seed, 501, t),
                model_name=model_name, dataset_name=dataset_name,
            )
        except TrainingDiverged as exc:
            entry["status"] = "constraint_violation"
            entry["detail"] = str(exc)
            trials.append(entry)
            continue
        val_auc = float(np.mean(report.extras["validation_aucs"]))
        entry["status"] = "ok"
        entry["validation_auc"] = val_auc
        entry["test_auc"] = report.auc
        trials.append(entry)
        if best is None or val_auc > best[0]:
            best = (val_auc, hp, report)
    if best is None:
        raise TrainingDiverged(-1, "every search trial diverged")
    return SearchResult(best_hyperparams=best[1], best_report=best[2], trials=trials)
