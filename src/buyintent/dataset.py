"""Dense labeled feature matrices and their on-disk container.

A Dataset is written as a single self-describing binary file: magic,
length-prefixed JSON header (feature names, aggregation scheme, category
count, seed), then raw little-endian float64 rows and uint8 labels.
Saving and reloading is bit-exact.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, replace

import numpy as np

from .util import dumps

MAGIC = b"BYDS1\n"


@dataclass(eq=False)
class Dataset:
    """Feature matrix with binary buy labels (1 = buy).

    n_base_cols counts the leading engineered-feature columns (scalars
    plus description dims); columns from n_base_cols on are the
    category/time-bucket aggregation block NMF may replace.
    """

    rows: np.ndarray
    labels: np.ndarray
    feature_names: list[str]
    aggregation: str = "weekly"
    category_count: int = 0
    seed: int | None = None
    n_base_cols: int = 0

    def __post_init__(self):
        self.rows = np.asarray(self.rows, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.uint8)
        if not np.isfinite(self.rows).all():
            raise ValueError("rows must be finite")
        if self.labels.shape != (self.rows.shape[0],):
            raise ValueError("label count must equal row count")
        if not (self.labels <= 1).all():
            raise ValueError("labels must be binary")
        if len(self.feature_names) != self.rows.shape[1]:
            raise ValueError("feature_names length must equal column count")
        if self.aggregation not in ("weekly", "semiweekly"):
            raise ValueError(f"unknown aggregation scheme '{self.aggregation}'")

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    @property
    def d(self) -> int:
        return self.rows.shape[1]

    def take(self, idx) -> "Dataset":
        """Row subset as a new Dataset (metadata preserved)."""
        idx = np.asarray(idx)
        return replace(self, rows=self.rows[idx], labels=self.labels[idx], feature_names=list(self.feature_names))


def dataset_header(ds: Dataset) -> dict:
    """The JSON header save_dataset writes ahead of the rows; load_dataset
    accepts a header with exactly these keys."""
    return {
        "format": "buyintent-dataset",
        "version": 1,
        "n": ds.n,
        "d": ds.d,
        "feature_names": ds.feature_names,
        "aggregation": ds.aggregation,
        "category_count": ds.category_count,
        "seed": ds.seed,
        "n_base_cols": ds.n_base_cols,
    }


_HEADER_KEYS = dataset_header(Dataset(rows=np.zeros((0, 0)), labels=[], feature_names=[])).keys()


def save_dataset(ds: Dataset, path) -> None:
    payload = dumps(dataset_header(ds)).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<Q", len(payload)))
        fh.write(payload)
        fh.write(np.ascontiguousarray(ds.rows, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(ds.labels, dtype=np.uint8).tobytes())


def load_dataset(path) -> Dataset:
    """Read a file written by save_dataset. A file that is not one raises
    ValueError naming the path. Only what reading needs is checked: the
    header's keys, the counts and names that size and index the rows,
    and that every row and label byte is there."""
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.startswith(MAGIC):
        raise ValueError(f"{path}: not a dataset file")
    try:
        return _read_dataset(data)
    except ValueError as exc:
        raise ValueError(f"{path}: malformed dataset: {exc}") from None


def _read_dataset(data: bytes) -> Dataset:
    start = len(MAGIC) + 8
    if len(data) < start:
        raise ValueError("the header length is missing")
    end = start + struct.unpack_from("<Q", data, len(MAGIC))[0]
    if len(data) < end:
        raise ValueError("the header runs past the end of the file")
    header = json.loads(data[start:end].decode("utf-8"))
    if not isinstance(header, dict) or header.keys() != _HEADER_KEYS:
        raise ValueError(f"the header must be an object with keys {sorted(_HEADER_KEYS)}")
    for key in ("n", "d", "n_base_cols"):
        if type(header[key]) is not int or header[key] < 0:
            raise ValueError(f"'{key}' must be a non-negative integer, got {header[key]!r}")
    n, d, names = header["n"], header["d"], header["feature_names"]
    if type(names) is not list or len(names) != d or not all(type(name) is str for name in names):
        raise ValueError(f"'feature_names' must be a list of {d} strings")
    if len(data) < end + n * d * 8 + n:
        raise ValueError(f"the file ends before its {n} rows of {d} floats and {n} labels")
    rows = np.frombuffer(data, dtype="<f8", count=n * d, offset=end).reshape(n, d).copy()
    labels = np.frombuffer(data, dtype=np.uint8, count=n, offset=end + n * d * 8).copy()
    fields = {k: v for k, v in header.items() if k not in ("format", "version", "n", "d")}
    return Dataset(rows=rows, labels=labels, **fields)


@dataclass(eq=False)
class Standardizer:
    """Per-column zero-mean unit-variance scaling, fit on training data
    only. Constant columns pass through unscaled."""

    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def fit(cls, X: np.ndarray) -> "Standardizer":
        X = np.asarray(X, dtype=float)
        std = X.std(axis=0)
        std[std == 0.0] = 1.0
        return cls(mean=X.mean(axis=0), std=std)

    def transform(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.shape[-1] != self.mean.shape[0]:
            raise ValueError("column count does not match fitted statistics")
        return (X - self.mean) / self.std

    def to_dict(self) -> dict:
        return {"kind": "standardize", "mean": self.mean.tolist(), "std": self.std.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "Standardizer":
        return cls(mean=np.asarray(d["mean"], dtype=float), std=np.asarray(d["std"], dtype=float))


@dataclass(eq=False)
class RangeScaler:
    """Min-max scaling to [0, 1], fit on training data only.

    Sigmoid autoencoder and RBM trainers need inputs inside the unit
    interval; unseen data is clipped back into it after scaling.
    """

    lo: np.ndarray
    span: np.ndarray

    @classmethod
    def fit(cls, X: np.ndarray) -> "RangeScaler":
        X = np.asarray(X, dtype=float)
        lo = X.min(axis=0)
        span = X.max(axis=0) - lo
        span[span == 0.0] = 1.0
        return cls(lo=lo, span=span)

    def transform(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.shape[-1] != self.lo.shape[0]:
            raise ValueError("column count does not match fitted statistics")
        return np.clip((X - self.lo) / self.span, 0.0, 1.0)

    def to_dict(self) -> dict:
        return {"kind": "range01", "lo": self.lo.tolist(), "span": self.span.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "RangeScaler":
        return cls(lo=np.asarray(d["lo"], dtype=float), span=np.asarray(d["span"], dtype=float))


def scaler_from_dict(d: dict | None):
    """The scaler a model file saved, or None where it saved none."""
    if d is None:
        return None
    if d["kind"] == "standardize":
        return Standardizer.from_dict(d)
    if d["kind"] == "range01":
        return RangeScaler.from_dict(d)
    raise ValueError(f"unknown scaler kind '{d['kind']}'")
