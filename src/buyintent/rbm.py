"""Restricted Boltzmann machines: CD-1 training over neural.Layer, and
DBN training as neural.pretrain_stack over RBM layers, then fine-tuning.

Energy(v, h) = -b'h - c'v - h'Wv with hidden offsets b and visible
offsets c. Inputs are expected in [0,1] and treated as Bernoulli
probabilities. P(h=1 | v) is neural.up and P(v=1 | h) is neural.down.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np

from .dataset import Dataset
from .neural import Hyperparams, Layer, Network, _epochs, down, pretrain_stack, train_network, up
from .util import as_rng


def cd1_update(rbm: Layer, V: np.ndarray, learning_rate: float, rng) -> Layer:
    """One contrastive-divergence step on a 2-D, non-empty float batch
    inside [0, 1], returning a new Layer; rng is a numpy Generator.

    The chain runs v -> sampled h -> sampled v' -> hidden probabilities;
    both correlation terms use hidden probabilities rather than samples,
    and everything is averaged over the batch. A sum over rows divided by
    n is what mean(axis=0) computes, without its Python wrapper.
    """
    n = V.shape[0]
    p_h0 = up(rbm, V)
    h0 = (rng.random(p_h0.shape) < p_h0).astype(float)
    p_v1 = down(rbm, h0)
    v1 = (rng.random(p_v1.shape) < p_v1).astype(float)
    p_h1 = up(rbm, v1)
    grad_W = (p_h0.T @ V - p_h1.T @ v1) / n
    grad_b = (p_h0 - p_h1).sum(axis=0) / n
    grad_c = (V - v1).sum(axis=0) / n
    return Layer(
        W=rbm.W + learning_rate * grad_W,
        b=rbm.b + learning_rate * grad_b,
        c=rbm.c + learning_rate * grad_c,
    )


def reconstruction_cross_entropy(rbm: Layer, V: np.ndarray) -> float:
    """Mean-field one-step reconstruction error, per row."""
    V = np.atleast_2d(np.asarray(V, dtype=float))
    p = np.clip(down(rbm, up(rbm, V)), 1e-12, 1.0 - 1e-12)
    return float(-np.sum(V * np.log(p) + (1.0 - V) * np.log(1.0 - p)) / V.shape[0])


def train_rbm(X: np.ndarray, n_hidden: int, hp: Hyperparams, seed) -> Layer:
    """Minibatch CD-1 over hp.epochs with the shared annealing schedule,
    from W ~ N(0, 0.01) and zero biases. X is checked against [0, 1]
    once, and only when some batch will train on it."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if hp.epochs > 0 and X.shape[0] > 0 and (X.min() < 0.0 or X.max() > 1.0):
        raise ValueError("batch entries must lie in [0, 1]")
    n, n_visible = X.shape
    rng = as_rng(seed)
    rbm = Layer(
        W=rng.normal(0.0, 0.01, size=(n_hidden, n_visible)),
        b=np.zeros(n_hidden),
        c=np.zeros(n_visible),
    )
    for batches in _epochs(n, hp, rng):
        for idx, lr in batches:
            rbm = cd1_update(rbm, X[idx], lr, rng)
    return rbm


def train_dbn(ds: Dataset, hp: Hyperparams, seed) -> Network:
    """Hidden layers pretrained greedily as RBMs. RBM units are sigmoid
    by construction, so the codes pretrain_stack sends up and the
    network's activation are pinned to sigmoid whatever hp.activation
    says; RBM training never reads it."""
    hp = dataclasses.replace(hp, activation="sigmoid")
    return train_network(ds, hp, seed, functools.partial(pretrain_stack, train_layer=train_rbm, key=201))
