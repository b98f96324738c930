"""Exact small-scale RBM references for the tests.

Energy(v, h) = -b'h - c'v - h'Wv with hidden offsets b and visible
offsets c. Free energy marginalizes the hidden units in closed form,
and exact_partition enumerates every joint state, which keeps tiny
models fully checkable against brute force.
"""

from __future__ import annotations

import numpy as np

from buyintent.rbm import Rbm, _check_v
from buyintent.util import softplus

ENUMERATION_LIMIT = 20


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
