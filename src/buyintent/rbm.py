"""Restricted Boltzmann machines: CD-1 training, greedy stacking, and
stack-initialized fine-tuning.

Energy(v, h) = -b'h - c'v - h'Wv with hidden offsets b and visible
offsets c. Inputs are expected in [0,1] and treated as Bernoulli
probabilities.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .neural import Hyperparams, Network, _epochs, train_network
from .util import as_rng, sigmoid, substream_seed


@dataclass(eq=False)
class Rbm:
    W: np.ndarray
    b: np.ndarray
    c: np.ndarray

    @property
    def n_hidden(self) -> int:
        return self.W.shape[0]

    @property
    def n_visible(self) -> int:
        return self.W.shape[1]


def init_rbm(n_visible: int, n_hidden: int, rng, scale: float = 0.01) -> Rbm:
    rng = as_rng(rng)
    return Rbm(
        W=rng.normal(0.0, scale, size=(n_hidden, n_visible)),
        b=np.zeros(n_hidden),
        c=np.zeros(n_visible),
    )


def _check_v(rbm: Rbm, v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape[-1] != rbm.n_visible:
        raise ValueError(f"v has {v.shape[-1]} units, RBM expects {rbm.n_visible}")
    return v


def hidden_probs(rbm: Rbm, v: np.ndarray) -> np.ndarray:
    return sigmoid(_check_v(rbm, v) @ rbm.W.T + rbm.b)


def visible_probs(rbm: Rbm, h: np.ndarray) -> np.ndarray:
    h = np.asarray(h, dtype=float)
    return sigmoid(h @ rbm.W + rbm.c)


def _check_unit_interval(V: np.ndarray) -> None:
    if V.min() < 0.0 or V.max() > 1.0:
        raise ValueError("batch entries must lie in [0, 1]")


def cd1_update(rbm: Rbm, batch: np.ndarray, learning_rate: float, seed) -> Rbm:
    """One contrastive-divergence step, returning a new Rbm.

    The chain runs v -> sampled h -> sampled v' -> hidden probabilities;
    both correlation terms use hidden probabilities rather than samples,
    and everything is averaged over the batch.
    """
    V = np.atleast_2d(_check_v(rbm, batch))
    if V.shape[0] == 0:
        raise ValueError("batch must be non-empty")
    _check_unit_interval(V)
    return _cd1_step(rbm, V, learning_rate, as_rng(seed))


def _cd1_step(rbm: Rbm, V: np.ndarray, learning_rate: float, rng) -> Rbm:
    """cd1_update on a batch already known to be 2-D, non-empty and
    inside [0, 1]. A sum over rows divided by n is what mean(axis=0)
    computes, without its Python wrapper."""
    n = V.shape[0]
    p_h0 = hidden_probs(rbm, V)
    h0 = (rng.random(p_h0.shape) < p_h0).astype(float)
    p_v1 = visible_probs(rbm, h0)
    v1 = (rng.random(p_v1.shape) < p_v1).astype(float)
    p_h1 = hidden_probs(rbm, v1)
    grad_W = (p_h0.T @ V - p_h1.T @ v1) / n
    grad_b = (p_h0 - p_h1).sum(axis=0) / n
    grad_c = (V - v1).sum(axis=0) / n
    return Rbm(
        W=rbm.W + learning_rate * grad_W,
        b=rbm.b + learning_rate * grad_b,
        c=rbm.c + learning_rate * grad_c,
    )


def reconstruction_cross_entropy(rbm: Rbm, V: np.ndarray) -> float:
    """Mean-field one-step reconstruction error, per row."""
    V = np.atleast_2d(_check_v(rbm, V))
    p = np.clip(visible_probs(rbm, hidden_probs(rbm, V)), 1e-12, 1.0 - 1e-12)
    return float(-np.sum(V * np.log(p) + (1.0 - V) * np.log(1.0 - p)) / V.shape[0])


def train_rbm(X: np.ndarray, n_hidden: int, hp: Hyperparams, seed) -> Rbm:
    """Minibatch CD-1 over hp.epochs with the shared annealing schedule.
    X is checked against [0, 1] once, and only when some batch will
    train on it, which is when cd1_update would have checked it."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if hp.epochs > 0 and X.shape[0] > 0:
        _check_unit_interval(X)
    rng = as_rng(seed)
    rbm = init_rbm(X.shape[1], n_hidden, rng)
    for batches in _epochs(X.shape[0], hp, rng):
        for idx, lr in batches:
            rbm = _cd1_step(rbm, X[idx], lr, rng)
    return rbm


def dbn_pretrain(X: np.ndarray, layer_sizes, hp: Hyperparams, seed) -> list[Rbm]:
    """Greedy stack training: the first RBM sees the data, every later
    RBM sees the hidden activation probabilities of the one below."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    layers: list[Rbm] = []
    data = X
    for k, size in enumerate(layer_sizes):
        rbm = train_rbm(data, size, hp, substream_seed(seed, 201, k))
        layers.append(rbm)
        data = hidden_probs(rbm, data)
    return layers


def train_dbn(ds: Dataset, hp: Hyperparams, seed) -> Network:
    """Hidden layers pretrained greedily as RBMs. RBM units are sigmoid
    by construction, so the network's activation is pinned to sigmoid
    whatever hp.activation says; RBM training never reads it."""
    return train_network(ds, dataclasses.replace(hp, activation="sigmoid"), seed, dbn_pretrain)
