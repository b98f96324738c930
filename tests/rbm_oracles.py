"""Exact small-scale RBM references for the tests.

Energy(v, h) = -b'h - c'v - h'Wv with hidden offsets b and visible
offsets c of a neural.Layer. Free energy marginalizes the hidden units
in closed form, and exact_partition enumerates every joint state, which
keeps tiny models fully checkable against brute force. Each reference
checks the widths of its inputs itself; normal_init is the initial
state train_rbm draws.
"""

from __future__ import annotations

import numpy as np

from buyintent.neural import Layer
from buyintent.util import softplus

ENUMERATION_LIMIT = 20


def normal_init(n_visible: int, n_hidden: int, rng, scale: float = 0.01) -> Layer:
    """W ~ N(0, scale) and zero biases, drawn as train_rbm draws them."""
    return Layer(
        W=rng.normal(0.0, scale, size=(n_hidden, n_visible)),
        b=np.zeros(n_hidden),
        c=np.zeros(n_visible),
    )


def _units(x, n: int, name: str) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != n:
        raise ValueError(f"{name} has {x.shape[-1]} units, RBM expects {n}")
    return x


def energy(rbm: Layer, v: np.ndarray, h: np.ndarray) -> float:
    v = _units(v, rbm.W.shape[1], "v")
    h = _units(h, rbm.W.shape[0], "h")
    return float(-rbm.b @ h - rbm.c @ v - h @ rbm.W @ v)


def free_energy(rbm: Layer, v: np.ndarray):
    """F(v) = -c'v - sum_i softplus(b_i + W_i v); P(v) is proportional
    to e^{-F(v)}. Accepts one vector or a batch of rows."""
    v = _units(v, rbm.W.shape[1], "v")
    pre = v @ rbm.W.T + rbm.b
    out = -(v @ rbm.c) - softplus(pre).sum(axis=-1)
    return float(out) if np.ndim(out) == 0 else out


def _all_states(n: int) -> np.ndarray:
    """All 2^n binary vectors of length n, row-ordered by integer value."""
    ints = np.arange(2**n)
    return ((ints[:, None] >> np.arange(n - 1, -1, -1)) & 1).astype(float)


def exact_partition(rbm: Layer) -> float:
    """Z by exhaustive enumeration of every (v, h) joint state."""
    n_hidden, n_visible = rbm.W.shape
    if n_visible + n_hidden > ENUMERATION_LIMIT:
        raise ValueError(
            f"enumeration over {n_visible}+{n_hidden} units exceeds "
            f"the {ENUMERATION_LIMIT}-unit guard"
        )
    V = _all_states(n_visible)
    H = _all_states(n_hidden)
    neg_energy = (H @ rbm.b)[:, None] + (V @ rbm.c)[None, :] + H @ rbm.W @ V.T
    return float(np.exp(neg_energy).sum())


def exact_log_likelihood(rbm: Layer, V: np.ndarray) -> float:
    """Mean log P(v) over the rows of V, via the enumeration guard."""
    V = np.atleast_2d(_units(V, rbm.W.shape[1], "v"))
    log_z = np.log(exact_partition(rbm))
    return float(np.mean(-free_energy(rbm, V) - log_z))
