"""Small numeric helpers shared across modules."""

from __future__ import annotations

import json

import numpy as np

# the most epochs any trainer accepts: far past any run in use (the
# acceptance suite trains 1,000), so a count read from a file cannot
# start a run that never ends
MAX_EPOCHS = 100_000

# json.dumps builds a new encoder on every call that passes options;
# one shared encoder gives the same bytes without that cost
_COMPACT = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def dumps(obj) -> str:
    """Canonical compact JSON: sorted keys, no whitespace, ASCII only."""
    return _COMPACT.encode(obj)


def check_epochs(epochs: int) -> None:
    if epochs < 0:
        raise ValueError("epochs must be nonnegative")
    if epochs > MAX_EPOCHS:
        raise ValueError(f"epochs must be at most {MAX_EPOCHS}, got {epochs}")


def text_lines(path):
    """Each (line number, line) of a UTF-8 text file, read in text mode.
    A line that is not UTF-8 raises ValueError naming path:line."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, start=1):
            try:
                line.encode("utf-8")  # an undecodable byte was read as a lone surrogate
            except UnicodeEncodeError:
                raise ValueError(f"{path}:{line_no}: line is not valid UTF-8") from None
            yield line_no, line


class TrainingDiverged(RuntimeError):
    """Raised when a training loss goes non-finite.

    Searches treat this as a constraint violation and skip the trial.
    """

    def __init__(self, epoch: int, detail: str = ""):
        self.epoch = epoch
        msg = f"training diverged at epoch {epoch}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


def sigmoid(x):
    """Elementwise logistic function, overflow-safe for large |x|.

    With e = exp(-|x|) it is 1 / (1 + e) where x >= 0 and e / (1 + e)
    below, the same IEEE operations as 1 / (1 + exp(-x)) and
    exp(x) / (1 + exp(x)) on each side, without splitting the array.
    """
    x = np.asarray(x, dtype=float)
    e = np.exp(-np.abs(x))
    out = np.where(x >= 0, 1.0, e) / (1.0 + e)
    if out.ndim == 0:
        return float(out)
    return out


def softplus(x):
    """ln(1 + e^x) without overflow; softplus(700) stays finite."""
    return np.logaddexp(0.0, np.asarray(x, dtype=float))


def relu(x):
    return np.maximum(np.asarray(x, dtype=float), 0.0)


def as_rng(seed) -> np.random.Generator:
    """Accept an int seed, a seed sequence list, or a Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def substream_seed(seed: int, *keys: int) -> int:
    """Derive a child seed from (seed, keys), independent per key tuple."""
    ss = np.random.SeedSequence([int(seed), *[int(k) for k in keys]])
    return int(ss.generate_state(1)[0])
