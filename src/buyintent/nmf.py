"""Nonnegative matrix factorization with multiplicative updates.

V (n x d) is factored as W (n x rank) times H (rank x d) under the
Frobenius objective. Both update rules divide elementwise, so a small
constant keeps denominators away from zero; with nonnegative init the
iterates stay nonnegative and the reconstruction error never increases.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .dataset import Dataset
from .util import as_rng

EPS = 1e-12

# the most sweeps nmf_factorize and nmf_transform run
MAX_ITERS = 100_000


@dataclass(eq=False)
class NmfFactors:
    W: np.ndarray
    H: np.ndarray
    rank: int
    n_iters: int
    error_trace: list[float] = field(default_factory=list)

    @property
    def error(self) -> float:
        return self.error_trace[-1]


def _residual_norm(V, WH) -> float:
    """Frobenius norm of V - WH, for WH the product W @ H."""
    R = V - WH
    return float(np.sqrt(np.sum(R * R)))


def _init_factors(V, rank, rng):
    scale = np.sqrt(max(float(V.mean()), EPS) / rank)
    W = rng.uniform(0.0, 1.0, size=(V.shape[0], rank)) * scale
    H = rng.uniform(0.0, 1.0, size=(rank, V.shape[1])) * scale
    return W, H


def _check_max_iters(max_iters: int) -> None:
    # With no sweep the factors are only their random initialization.
    if max_iters < 1:
        raise ValueError(f"max_iters must be at least 1, got {max_iters}")
    if max_iters > MAX_ITERS:
        raise ValueError(f"max_iters must be at most {MAX_ITERS}, got {max_iters}")


def nmf_factorize(
    V: np.ndarray,
    rank: int,
    seed,
    max_iters: int = 500,
    tol: float = 1e-5,
) -> NmfFactors:
    """Factor V >= 0 into W H by alternating multiplicative updates.

    Stops when the relative improvement of the Frobenius error drops
    below tol or after max_iters sweeps, whichever comes first.
    """
    V = np.asarray(V, dtype=float)
    if V.ndim != 2:
        raise ValueError("V must be a matrix")
    if np.any(V < 0):
        raise ValueError("V must be nonnegative")
    if not 1 <= rank <= min(V.shape):
        raise ValueError(f"rank must be in [1, {min(V.shape)}], got {rank}")
    _check_max_iters(max_iters)
    rng = as_rng(seed)
    W, H = _init_factors(V, rank, rng)
    trace = [_residual_norm(V, W @ H)]
    for it in range(1, max_iters + 1):
        H *= (W.T @ V) / (W.T @ W @ H + EPS)
        W *= (V @ H.T) / (W @ H @ H.T + EPS)
        err = _residual_norm(V, W @ H)
        prev = trace[-1]
        trace.append(err)
        if prev > 0 and (prev - err) / prev < tol:
            break
    return NmfFactors(W=W, H=H, rank=rank, n_iters=it, error_trace=trace)


def nmf_transform(V: np.ndarray, H: np.ndarray, seed, max_iters: int = 500, tol: float = 1e-5) -> np.ndarray:
    """Project new rows onto a fixed H: update W only, same rule."""
    V = np.asarray(V, dtype=float)
    H = np.asarray(H, dtype=float)
    if np.any(V < 0):
        raise ValueError("V must be nonnegative")
    if V.shape[1] != H.shape[1]:
        raise ValueError(f"V has {V.shape[1]} columns, H expects {H.shape[1]}")
    _check_max_iters(max_iters)
    rng = as_rng(seed)
    rank = H.shape[0]
    scale = np.sqrt(max(float(V.mean()), EPS) / rank)
    W = rng.uniform(0.0, 1.0, size=(V.shape[0], rank)) * scale
    # H is fixed, so V H^T is the same every sweep, and the W H of one
    # sweep's error is the W H of the next sweep's update.
    VHt = V @ H.T
    WH = W @ H
    prev = _residual_norm(V, WH)
    for _ in range(max_iters):
        W *= VHt / (WH @ H.T + EPS)
        WH = W @ H
        err = _residual_norm(V, WH)
        if prev > 0 and (prev - err) / prev < tol:
            break
        prev = err
    return W


def reduce_dataset(
    ds: Dataset, rank: int, seed, max_iters: int = 500, tol: float = 1e-5
) -> tuple[Dataset, NmfFactors]:
    """Replace the aggregation columns of ds with their rank-dim NMF
    representation; engineered columns pass through untouched."""
    if ds.n_base_cols >= ds.d:
        raise ValueError("dataset has no aggregation columns to reduce")
    agg = ds.rows[:, ds.n_base_cols :]
    factors = nmf_factorize(agg, rank, seed, max_iters=max_iters, tol=tol)
    rows = np.hstack([ds.rows[:, : ds.n_base_cols], factors.W])
    names = ds.feature_names[: ds.n_base_cols] + [f"nmf_{i}" for i in range(rank)]
    return replace(ds, rows=rows, labels=ds.labels.copy(), feature_names=names), factors
