"""Restricted Boltzmann machines with exact small-scale oracles, CD-1
training, greedy stacking, and stack-initialized fine-tuning.

Energy(v, h) = -b'h - c'v - h'Wv with hidden offsets b and visible
offsets c. Free energy marginalizes the hidden units in closed form,
and exact_partition enumerates every joint state, which keeps tiny
models fully checkable against brute force. Inputs are expected in
[0,1] and treated as Bernoulli probabilities.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .neural import Hyperparams, Network, _epochs, train_network
from .util import as_rng, sigmoid, softplus, substream_seed

ENUMERATION_LIMIT = 20


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


def energy(rbm: Rbm, v: np.ndarray, h: np.ndarray) -> float:
    v = _check_v(rbm, v)
    h = np.asarray(h, dtype=float)
    if h.shape[-1] != rbm.n_hidden:
        raise ValueError(f"h has {h.shape[-1]} units, RBM expects {rbm.n_hidden}")
    return float(-rbm.b @ h - rbm.c @ v - h @ rbm.W @ v)


def free_energy(rbm: Rbm, v: np.ndarray):
    """F(v) = -c'v - sum_i softplus(b_i + W_i v); P(v) is proportional
    to e^{-F(v)}. Accepts one vector or a batch of rows."""
    v = _check_v(rbm, v)
    pre = v @ rbm.W.T + rbm.b
    out = -(v @ rbm.c) - softplus(pre).sum(axis=-1)
    return float(out) if np.ndim(out) == 0 else out


def _all_states(n: int) -> np.ndarray:
    """All 2^n binary vectors of length n, row-ordered by integer value."""
    ints = np.arange(2**n)
    return ((ints[:, None] >> np.arange(n - 1, -1, -1)) & 1).astype(float)


def exact_partition(rbm: Rbm) -> float:
    """Z by exhaustive enumeration of every (v, h) joint state."""
    if rbm.n_visible + rbm.n_hidden > ENUMERATION_LIMIT:
        raise ValueError(
            f"enumeration over {rbm.n_visible}+{rbm.n_hidden} units exceeds "
            f"the {ENUMERATION_LIMIT}-unit guard"
        )
    V = _all_states(rbm.n_visible)
    H = _all_states(rbm.n_hidden)
    neg_energy = (H @ rbm.b)[:, None] + (V @ rbm.c)[None, :] + H @ rbm.W @ V.T
    return float(np.exp(neg_energy).sum())


def exact_log_likelihood(rbm: Rbm, V: np.ndarray) -> float:
    """Mean log P(v) over the rows of V, via the enumeration guard."""
    V = np.atleast_2d(_check_v(rbm, V))
    log_z = np.log(exact_partition(rbm))
    return float(np.mean(-free_energy(rbm, V) - log_z))


def hidden_probs(rbm: Rbm, v: np.ndarray) -> np.ndarray:
    return sigmoid(_check_v(rbm, v) @ rbm.W.T + rbm.b)


def visible_probs(rbm: Rbm, h: np.ndarray) -> np.ndarray:
    h = np.asarray(h, dtype=float)
    return sigmoid(h @ rbm.W + rbm.c)


def sample_h_given_v(rbm: Rbm, v: np.ndarray, seed) -> np.ndarray:
    """Bernoulli sample of every hidden unit given v; seeded."""
    rng = as_rng(seed)
    p = hidden_probs(rbm, v)
    return (rng.random(p.shape) < p).astype(float)


def sample_v_given_h(rbm: Rbm, h: np.ndarray, seed) -> np.ndarray:
    rng = as_rng(seed)
    p = visible_probs(rbm, h)
    return (rng.random(p.shape) < p).astype(float)


def cd1_update(rbm: Rbm, batch: np.ndarray, learning_rate: float, seed) -> Rbm:
    """One contrastive-divergence step, returning a new Rbm.

    The chain runs v -> sampled h -> sampled v' -> hidden probabilities;
    both correlation terms use hidden probabilities rather than samples,
    and everything is averaged over the batch.
    """
    V = np.atleast_2d(_check_v(rbm, batch))
    if V.shape[0] == 0:
        raise ValueError("batch must be non-empty")
    if V.min() < 0.0 or V.max() > 1.0:
        raise ValueError("batch entries must lie in [0, 1]")
    rng = as_rng(seed)
    n = V.shape[0]
    p_h0 = hidden_probs(rbm, V)
    h0 = (rng.random(p_h0.shape) < p_h0).astype(float)
    p_v1 = visible_probs(rbm, h0)
    v1 = (rng.random(p_v1.shape) < p_v1).astype(float)
    p_h1 = hidden_probs(rbm, v1)
    grad_W = (p_h0.T @ V - p_h1.T @ v1) / n
    grad_b = (p_h0 - p_h1).mean(axis=0)
    grad_c = (V - v1).mean(axis=0)
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
    """Minibatch CD-1 over hp.epochs with the shared annealing schedule."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    rng = as_rng(seed)
    rbm = init_rbm(X.shape[1], n_hidden, rng)
    for batches in _epochs(X.shape[0], hp, rng):
        for idx, lr in batches:
            rbm = cd1_update(rbm, X[idx], lr, rng)
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
