"""Per-call references for the network trainers' unchecked inner steps.

sigmoid_masked is the logistic function as the package first wrote it:
split the array with a boolean mask, evaluate each half on its own
overflow-safe side and write both back. The three training loops drive
the public, fully checked step functions (cd1_update, corrupt with
ae_layer_gradients, network_gradients) over the shared minibatch
schedule, re-checking every minibatch. The package's trainers check
their inputs once per stage and must match these loops bit for bit.
"""

from __future__ import annotations

import numpy as np

from buyintent.neural import (
    _epochs,
    _one_hot,
    ae_layer_gradients,
    build_network,
    corrupt,
    init_ae_layer,
    network_gradients,
)
from buyintent.rbm import cd1_update, init_rbm
from buyintent.util import TrainingDiverged, as_rng


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


def train_rbm_loop(X, n_hidden, hp, seed):
    X = np.atleast_2d(np.asarray(X, dtype=float))
    rng = as_rng(seed)
    rbm = init_rbm(X.shape[1], n_hidden, rng)
    for batches in _epochs(X.shape[0], hp, rng):
        for idx, lr in batches:
            rbm = cd1_update(rbm, X[idx], lr, rng)
    return rbm


def train_ae_layer_loop(X, n_hidden, hp, seed):
    X = np.atleast_2d(np.asarray(X, dtype=float))
    rng = as_rng(seed)
    layer = init_ae_layer(X.shape[1], n_hidden, hp.activation, rng)
    vel_W = np.zeros_like(layer.W)
    vel_b = np.zeros_like(layer.b)
    vel_bp = np.zeros_like(layer.b_prime)
    for epoch, batches in enumerate(_epochs(X.shape[0], hp, rng)):
        epoch_loss = 0.0
        for idx, lr in batches:
            xb = X[idx]
            g = ae_layer_gradients(layer, xb, corrupt(xb, hp.input_noise_level, rng))
            vel_W = hp.momentum * vel_W - lr * (g.weights[0] + hp.l2_weight_cost * layer.W)
            vel_b = hp.momentum * vel_b - lr * g.biases[0]
            vel_bp = hp.momentum * vel_bp - lr * g.biases[1]
            layer.W += vel_W
            layer.b += vel_b
            layer.b_prime += vel_bp
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
            g = network_gradients(net, X[idx], T[idx], masks)
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
