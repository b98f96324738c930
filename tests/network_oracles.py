"""Per-batch references for the network trainers.

sigmoid_masked is the logistic function as the package first wrote it:
split the array with a boolean mask, evaluate each half on its own
overflow-safe side and write both back. The three training loops run
the package's own step bodies (cd1_update, corrupt with
ae_layer_gradients, network_gradients) over the shared minibatch
schedule, but check every minibatch first: 2-D, non-empty, of the
layer's width, rows and targets of one length and, for CD-1, inside
[0, 1]. The package's trainers check their inputs once per stage and
must match these loops bit for bit, and raise where they raise.

assert_in_search_space states the rules of the network search space
apart from SearchSpace.sample, which is where they live in the package.
"""

from __future__ import annotations

import numpy as np

from buyintent.neural import (
    BOUNDS,
    MAX_UNITS,
    _epochs,
    _one_hot,
    ae_layer_gradients,
    build_network,
    corrupt,
    init_layer,
    network_gradients,
)
from buyintent.rbm import cd1_update
from buyintent.util import TrainingDiverged, as_rng
from rbm_oracles import normal_init


def sigmoid_masked(x):
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    if out.ndim == 0:
        return float(out)
    return out


def check_batch(layer, rows, targets):
    """What the trainers establish once per stage, checked here on
    every minibatch: 2-D, non-empty, the layer's width, and one target
    row per input row."""
    if rows.ndim != 2 or rows.shape[0] == 0:
        raise ValueError("batch must be a non-empty 2-D array")
    if rows.shape[1] != layer.W.shape[1]:
        raise ValueError(f"input has {rows.shape[1]} features, layer expects {layer.W.shape[1]}")
    if len(targets) != len(rows):
        raise ValueError(f"shape mismatch {rows.shape} vs {targets.shape}")


def train_rbm_loop(X, n_hidden, hp, seed):
    X = np.atleast_2d(np.asarray(X, dtype=float))
    rng = as_rng(seed)
    rbm = normal_init(X.shape[1], n_hidden, rng)
    for batches in _epochs(X.shape[0], hp, rng):
        for idx, lr in batches:
            V = X[idx]
            check_batch(rbm, V, V)
            if V.min() < 0.0 or V.max() > 1.0:
                raise ValueError("batch entries must lie in [0, 1]")
            rbm = cd1_update(rbm, V, lr, rng)
    return rbm


def train_ae_layer_loop(X, n_hidden, hp, seed):
    X = np.atleast_2d(np.asarray(X, dtype=float))
    rng = as_rng(seed)
    layer = init_layer(X.shape[1], n_hidden, rng)
    vel_W = np.zeros_like(layer.W)
    vel_b = np.zeros_like(layer.b)
    vel_c = np.zeros_like(layer.c)
    for epoch, batches in enumerate(_epochs(X.shape[0], hp, rng)):
        epoch_loss = 0.0
        for idx, lr in batches:
            xb = X[idx]
            xc = corrupt(xb, hp.input_noise_level, rng)
            check_batch(layer, xc, xb)
            if xc.shape != xb.shape:
                raise ValueError(f"shape mismatch {xb.shape} vs {xc.shape}")
            g = ae_layer_gradients(layer, xb, xc, hp.activation)
            vel_W = hp.momentum * vel_W - lr * (g.weights[0] + hp.l2_weight_cost * layer.W)
            vel_b = hp.momentum * vel_b - lr * g.biases[0]
            vel_c = hp.momentum * vel_c - lr * g.biases[1]
            layer.W += vel_W
            layer.b += vel_b
            layer.c += vel_c
            epoch_loss += g.loss * len(idx)
        if not np.isfinite(epoch_loss):
            raise TrainingDiverged(epoch, "autoencoder reconstruction loss")
    return layer


def finetune_loop(stack, X, y, hp, seed):
    X = np.atleast_2d(np.asarray(X, dtype=float))
    rng = as_rng(seed)
    net = build_network(stack, 2, hp, rng)
    T = _one_hot(y)
    vel_W = [np.zeros_like(l.W) for l in net.layers]
    vel_b = [np.zeros_like(l.b) for l in net.layers]
    keep = 1.0 - hp.dropout_fraction
    for epoch, batches in enumerate(_epochs(X.shape[0], hp, rng)):
        epoch_loss = 0.0
        for idx, lr in batches:
            masks = None
            if hp.dropout_fraction > 0.0:
                masks = [
                    (rng.random((len(idx), l.W.shape[0])) < keep) / keep
                    for l in net.layers[:-1]
                ]
            xb, tb = X[idx], T[idx]
            check_batch(net.layers[0], xb, tb)
            g = network_gradients(net, xb, tb, masks)
            if not np.isfinite(g.loss):
                raise TrainingDiverged(epoch, "cross-entropy loss")
            for i, layer in enumerate(net.layers):
                vel_W[i] = hp.momentum * vel_W[i] - lr * (g.weights[i] + hp.l2_weight_cost * layer.W)
                vel_b[i] = hp.momentum * vel_b[i] - lr * g.biases[i]
                layer.W += vel_W[i]
                layer.b += vel_b[i]
            epoch_loss += g.loss * len(idx)
        if not np.isfinite(epoch_loss):
            raise TrainingDiverged(epoch, "cross-entropy loss")
    return net


def assert_in_search_space(hp) -> None:
    """One layer has 16 to MAX_UNITS units and 10..100 epochs; every
    layer of a deeper stack has 64 to MAX_UNITS units and 10..150
    epochs. The learning rate is at least 0.001 and every float lies in
    its BOUNDS range."""
    deep = len(hp.hidden_units) > 1
    assert all((64 if deep else 16) <= h <= MAX_UNITS for h in hp.hidden_units), hp
    assert 10 <= hp.epochs <= (150 if deep else 100), hp
    assert hp.initial_learning_rate >= 0.001, hp
    for name, (lo, hi) in BOUNDS.items():
        assert lo <= getattr(hp, name) <= hi, (name, hp)
