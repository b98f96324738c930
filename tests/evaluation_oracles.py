"""The two fold loops the evaluation protocols were first written with.

cross_validate_loop trains on all folds of kfold_split but one and
scores that one, fold i's model seeded by substream_seed(seed, 401, i).
holdout_evaluate_loop draws one seeded permutation, keeps its first
quarter as the test rows and cuts the rest into four validation folds;
fold i's model, seeded by substream_seed(seed, 402, i), trains on the
other three folds and scores its validation fold, then the test rows.
The package runs both protocols through one loop over split plans, and
its reports must keep these loops' bytes.
"""

from __future__ import annotations

import numpy as np

from buyintent.evaluation import EvalReport, auc, kfold_split
from buyintent.util import as_rng, substream_seed


def cross_validate_loop(trainer, ds, k=10, seed=0, model_name="model", dataset_name="dataset"):
    folds = kfold_split(ds.n, k, seed)
    fold_aucs = []
    for i, val_idx in enumerate(folds):
        train_idx = np.concatenate([f for j, f in enumerate(folds) if j != i])
        score = trainer(ds.take(train_idx), substream_seed(seed, 401, i))
        fold_aucs.append(auc(score(ds.rows[val_idx]), ds.labels[val_idx]))
    return EvalReport(
        model=model_name,
        dataset=dataset_name,
        protocol=f"cv{k}",
        seed=int(seed),
        fold_aucs=fold_aucs,
        auc=float(np.mean(fold_aucs)),
    )


def holdout_evaluate_loop(trainer, ds, seed=0, model_name="model", dataset_name="dataset"):
    if ds.n < 8:
        raise ValueError(f"holdout protocol needs at least 8 rows, got {ds.n}")
    perm = as_rng(seed).permutation(ds.n)
    n_test = ds.n // 4
    test_idx, folds = perm[:n_test], list(np.array_split(perm[n_test:], 4))
    test_rows, test_labels = ds.rows[test_idx], ds.labels[test_idx]
    test_aucs, val_aucs = [], []
    for i, val_idx in enumerate(folds):
        train_idx = np.concatenate([f for j, f in enumerate(folds) if j != i])
        score = trainer(ds.take(train_idx), substream_seed(seed, 402, i))
        val_aucs.append(auc(score(ds.rows[val_idx]), ds.labels[val_idx]))
        test_aucs.append(auc(score(test_rows), test_labels))
    return EvalReport(
        model=model_name,
        dataset=dataset_name,
        protocol="holdout25x4",
        seed=int(seed),
        fold_aucs=test_aucs,
        auc=float(np.mean(test_aucs)),
        extras={"validation_aucs": val_aucs},
    )
