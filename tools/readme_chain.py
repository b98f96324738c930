"""Run the README pipeline chain and print the sha256 of every file it writes.

    python3 tools/readme_chain.py OUT

The chain is the README walkthrough (synth, ingest, featurize, reduce),
then train and holdout-evaluate lr, rf, sda, dbn and mlp with the
networks at --epochs 20, a 3-fold cv of the rf model and a 2-trial
search for sda and dbn. It runs the package under src/ next to this
script's directory, inside OUT, which must not exist yet.

The first line, `platform {...}`, names what the bytes were made on:
numpy's version, the kernel numpy's bundled OpenBLAS picked for this CPU
(`openblas_core`, null where that library does not export
`scipy_openblas_get_corename64_`) and `OPENBLAS_CORETYPE` where it is
set. Then each file but the manifests (they hold wall-clock times) is
printed as `sha256  path`, the format of sha256sum, in path order. The
last line is the sha256 of that listing, one digest for the whole chain:
two trees that write the same bytes print the same listing.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import io
import os
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from buyintent import cli  # noqa: E402
from buyintent.util import dumps  # noqa: E402

NETWORKS = ("sda", "dbn", "mlp")


def chain() -> list[list[str]]:
    steps = [
        ["synth", "--users", "600", "--categories", "12", "--buy-rate", "0.05", "--signal", "0.8",
         "--nonlinear", "--weeks", "2", "--seed", "7", "--out", "corpus"],
        ["ingest", "--input", "corpus/events.jsonl", "--out", "store.json"],
        ["featurize", "--store", "store.json", "--embeddings", "corpus/embeddings.tsv",
         "--scheme", "weekly", "--categories", "12", "--balance-seed", "5", "--out", "full.dataset"],
        ["reduce", "--in", "full.dataset", "--rank", "12", "--seed", "3", "--out", "reduced.dataset"],
    ]
    for kind in ("lr", "rf", *NETWORKS):
        epochs = ["--epochs", "20"] if kind in NETWORKS else []
        steps.append(["train", "--model", kind, "--in", "reduced.dataset", "--seed", "2",
                      "--out", f"{kind}.model", *epochs])
        steps.append(["evaluate", "--model", f"{kind}.model", "--in", "reduced.dataset",
                      "--protocol", "holdout", "--seed", "9", "--report", f"{kind}.report.json"])
    steps.append(["evaluate", "--model", "rf.model", "--in", "reduced.dataset", "--cv", "3",
                  "--seed", "4", "--report", "rf.cv3.report.json"])
    for kind in ("sda", "dbn"):
        steps.append(["search", "--model", kind, "--in", "reduced.dataset", "--budget", "2",
                      "--seed", "1", "--report", f"{kind}.search.json"])
    return steps


def listing(root: Path) -> list[str]:
    files = sorted(
        p.relative_to(root).as_posix()
        for p in root.rglob("*")
        if p.is_file() and "manifest" not in p.name
    )
    return [f"{hashlib.sha256((root / f).read_bytes()).hexdigest()}  {f}" for f in files]


def openblas_core() -> str | None:
    """The kernel name numpy's bundled OpenBLAS reports, or None."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        corename = getattr(ctypes.CDLL(str(path)), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.argtypes, corename.restype = [], ctypes.c_char_p
            return corename().decode()
    return None


def platform() -> dict:
    record = {"numpy": np.__version__, "openblas_core": openblas_core()}
    if "OPENBLAS_CORETYPE" in os.environ:
        record["OPENBLAS_CORETYPE"] = os.environ["OPENBLAS_CORETYPE"]
    return record


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        sys.stderr.write(__doc__)
        return 2
    out = Path(argv[0]).resolve()
    out.mkdir(parents=True)
    os.chdir(out)
    for step in chain():
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = cli.main(step)
        if rc != 0:
            sys.stderr.write(f"{' '.join(step)} exited {rc}: {stderr.getvalue()}")
            return 1
    lines = listing(out)
    print("platform", dumps(platform()))
    print("\n".join(lines))
    print(hashlib.sha256(("\n".join(lines) + "\n").encode()).hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
