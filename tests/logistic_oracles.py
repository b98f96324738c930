"""The logistic trainer as first written, for the package to match.

logistic_loss_and_gradients computes a batch's loss with its gradients,
and train_logistic_loop runs it on every minibatch and, after every
epoch, on all rows, testing only the loss for finiteness. The package's
train_logistic computes the gradients alone per minibatch and the loss
alone per epoch, and must give the same model bytes and raise
TrainingDiverged at the same epoch.
"""

from __future__ import annotations

import numpy as np

from buyintent.baselines import MINIBATCH, LogisticModel
from buyintent.dataset import Standardizer
from buyintent.util import TrainingDiverged, as_rng, sigmoid, softplus


def logistic_loss_and_gradients(weights, bias, X, y, l2: float):
    z = X @ weights + bias
    p = sigmoid(z)
    loss = float(np.mean(softplus(z) - y * z) + 0.5 * l2 * weights @ weights)
    resid = (p - y) / len(y)
    return loss, X.T @ resid + l2 * weights, float(resid.sum())


def train_logistic_loop(train, learning_rate: float, epochs: int, l2: float, seed: int) -> LogisticModel:
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
