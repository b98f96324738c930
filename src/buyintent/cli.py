"""Command-line pipeline: synth, ingest, featurize, reduce, train,
evaluate, search.

Each command body returns a Ran; one runner, _run, times it, writes
its manifest beside its first output (command, flags, input and output
digests, seed, version, wall-clock) and prints its one summary line. So
any artifact can be reproduced bit-exactly from its manifest. Seeds are
explicit flags everywhere; nothing is seeded from the clock.

Exit codes: 0 success, 1 failure with one structured JSON error line on
stderr that names the file at fault, 2 usage errors (from argument
parsing).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
import time
from typing import Callable, NamedTuple, get_type_hints

from . import __version__
from .baselines import (
    Forest,
    LogisticModel,
    check_n_trees,
    forest_scores,
    predict_logistic,
    train_forest,
    train_logistic,
)
from .dataset import Dataset, dataset_header, load_dataset, save_dataset
from .evaluation import (
    SearchSpace,
    SingleClassSet,
    cross_validate,
    holdout_evaluate,
    random_search,
)
from .features import FeaturizeError, constant_columns, featurize_store, load_embedding_table
from .ingest import ingest_events, load_store, parse_events, save_store
from .neural import Hyperparams, Network, network_predict, train_mlp, train_sda
from .nmf import reduce_dataset
from .rbm import train_dbn
from .synth import SynthConfig, generate
from .util import TrainingDiverged, check_epochs, dumps, text_lines

MODEL_FORMAT = "buyintent-model"
MODEL_VERSION = 2


def _digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


class Ran(NamedTuple):
    """What a command body did: the files it read and wrote, the seed
    its manifest records, and the JSON summary it prints."""

    inputs: list[str]
    outputs: list[str]
    seed: int | None
    summary: str


def _run(args) -> int:
    """Run the command's body, write the manifest beside its first
    output (a run that writes no file gets none) and print its summary.
    A scored set of one class (evaluate, search) is named after the
    dataset path."""
    started = time.time()
    try:
        ran = args.func(args)
    except SingleClassSet as exc:
        raise ValueError(f"{args.infile}: {exc}") from None
    if ran.outputs:
        manifest = {
            "command": args.command,
            "flags": {k: v for k, v in sorted(vars(args).items()) if k not in ("func", "command")},
            "inputs": {p: _digest(p) for p in ran.inputs},
            "outputs": {p: _digest(p) for p in ran.outputs},
            "seed": ran.seed,
            "version": __version__,
            "wall_seconds": round(time.time() - started, 3),
        }
        _write_text(ran.outputs[0] + ".manifest.json", dumps(manifest) + "\n")
    print(ran.summary)
    return 0


def _write_text(path: str, text: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _cmd_synth(args) -> Ran:
    cfg = SynthConfig(
        n_users=args.users,
        n_categories=args.categories,
        buy_rate=args.buy_rate,
        signal_strength=args.signal,
        nonlinear=args.nonlinear,
        weeks=args.weeks,
        seed=args.seed,
    )
    result = generate(cfg, args.out)
    outputs = [result.events_path, result.truth_path, result.embeddings_path, result.config_path]
    summary = {
        "n_sessions": result.n_sessions,
        "n_buy_sessions": result.n_buy_sessions,
        "bayes_auc": result.bayes_auc,
        "events": result.events_path,
    }
    return Ran([], outputs, args.seed, dumps(summary))


def _cmd_ingest(args) -> Ran:
    horizon_ms = args.horizon_hours * 3_600_000
    if not 1 <= horizon_ms < math.inf:
        raise ValueError(f"--horizon-hours must be finite and at least 1 ms, got {args.horizon_hours}")
    with open(args.input, "rb") as fh:
        parsed = parse_events(fh)
    store, report = ingest_events(parsed, min_clicks=args.min_clicks, horizon_ms=int(horizon_ms))
    save_store(store, args.out)
    report_path = args.out + ".report.json"
    _write_text(report_path, report.to_json())
    return Ran([args.input], [args.out, report_path], None, dumps(vars(report)))


def _cmd_featurize(args) -> Ran:
    store = load_store(args.store)
    table = load_embedding_table(args.embeddings)
    try:
        ds = featurize_store(store, table, scheme=args.scheme, n_categories=args.categories,
                             balance_seed=args.balance_seed)
    except FeaturizeError as exc:
        raise ValueError(f"{args.store}: {exc}") from None
    save_dataset(ds, args.out)
    meta = {k: v for k, v in dataset_header(ds).items() if k not in ("format", "version")}
    meta["positives"] = int(ds.labels.sum())
    meta_path = args.out + ".meta.json"
    _write_text(meta_path, dumps(meta) + "\n")
    summary = dumps({"n": ds.n, "d": ds.d, "positives": meta["positives"],
                     "constant_columns": len(constant_columns(ds))})
    return Ran([args.store, args.embeddings], [args.out, meta_path], args.balance_seed, summary)


def _cmd_reduce(args) -> Ran:
    ds = load_dataset(args.infile)
    reduced, factors = reduce_dataset(ds, args.rank, args.seed, max_iters=args.max_iters, tol=args.tol)
    save_dataset(reduced, args.out)
    factors_path = args.out + ".factors.json"
    _write_text(
        factors_path,
        dumps(
            {
                "rank": factors.rank,
                "n_iters": factors.n_iters,
                "error_trace": factors.error_trace,
                "H": factors.H.tolist(),
            }
        )
        + "\n",
    )
    summary = dumps({"rank": factors.rank, "n_iters": factors.n_iters, "final_error": factors.error})
    return Ran([args.infile], [args.out, factors_path], args.seed, summary)


def _parse_layers(text: str) -> tuple[int, ...]:
    """Comma-separated hidden layer sizes."""
    sizes = tuple(int(p) for p in text.split(",") if p.strip())
    if not sizes:
        raise ValueError("expected at least one layer size")
    return sizes


# every Hyperparams field but hidden_units, with its type: the parser of
# an hp file line and the JSON type a model config must hold
_HP_FIELD_TYPES = {k: t for k, t in get_type_hints(Hyperparams).items() if k != "hidden_units"}
_HP_PARSERS = {"hidden_units": _parse_layers, **_HP_FIELD_TYPES}


def _load_hp_file(path: str) -> dict:
    """Flat `key = value` lines, # comments allowed. A line that cannot
    be read raises ValueError naming path:line and the key."""
    out: dict = {}
    for line_no, line in text_lines(path):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{line_no}: expected 'key = value'")
        key, val = (part.strip() for part in line.split("=", 1))
        if key not in _HP_PARSERS:
            raise ValueError(f"{path}:{line_no}: unknown hyperparameter '{key}'")
        try:
            out[key] = _HP_PARSERS[key](val)
        except ValueError as exc:
            raise ValueError(f"{path}:{line_no}: {key}: {exc}") from None
    return out


def _model_payload(kind: str, seed: int, config: dict, params: dict) -> str:
    return dumps(
        {
            "format": MODEL_FORMAT,
            "version": MODEL_VERSION,
            "kind": kind,
            "seed": seed,
            "config": config,
            "params": params,
        }
    )


class ModelKind(NamedTuple):
    """One model family: fit(ds, config, seed) -> model, score(model, X),
    load(params) -> model, the JSON type of each config field (see
    _has_type), check(config), which raises ValueError for a value its
    trainer refuses or ignores, the flags of _OPTIONAL_FLAGS its `train`
    reads, and the space `search` samples, if it tunes the kind."""

    fit: Callable
    score: Callable
    load: Callable
    config: dict
    check: Callable
    flags: tuple[str, ...]
    search_space: SearchSpace | None = None


# train's flags that default to None; a kind refuses those it does not
# read. --trees and --l2 are not among them: their defaults are in every
# train manifest.
_OPTIONAL_FLAGS = ("mtry", "lr", "epochs", "layers", "hp")


def _network_kind(kind: str, train, search_space=None, **pinned) -> ModelKind:
    """A network family; pinned holds each Hyperparams field its trainer
    does not read, with the one value its config may record."""

    def check(cfg):
        Hyperparams.from_dict(cfg)
        for name, value in pinned.items():
            if cfg[name] != value:
                raise ValueError(f"{name} {cfg[name]!r} does not apply to {kind} models, which use {value!r}")

    return ModelKind(
        fit=lambda ds, cfg, seed: train(ds, Hyperparams.from_dict(cfg), seed),
        score=network_predict,
        load=Network.from_dict,
        config={"hidden_units": [int], **_HP_FIELD_TYPES},
        check=check,
        flags=("lr", "epochs", "layers", "hp"),
        search_space=search_space,
    )


MODEL_KINDS = {
    "lr": ModelKind(
        fit=lambda ds, cfg, seed: train_logistic(ds, cfg["learning_rate"], cfg["epochs"], cfg["l2"], seed),
        score=predict_logistic,
        load=LogisticModel.from_dict,
        config={"learning_rate": float, "epochs": int, "l2": float},
        check=lambda cfg: check_epochs(cfg["epochs"]),
        flags=("lr", "epochs"),
    ),
    "rf": ModelKind(
        fit=lambda ds, cfg, seed: train_forest(ds, n_trees=cfg["n_trees"], mtry=cfg["mtry"], seed=seed),
        score=forest_scores,
        load=Forest.from_dict,
        config={"n_trees": int, "mtry": (int, type(None))},
        check=lambda cfg: check_n_trees(cfg["n_trees"]),
        flags=("mtry",),
    ),
    "sda": _network_kind("sda", train_sda, SearchSpace(depth_choices=(1, 2), with_input_noise=True)),
    "dbn": _network_kind("dbn", train_dbn, SearchSpace(depth_choices=(1, 2), activations=("sigmoid",)),
                         activation="sigmoid", input_noise_level=0.0),
    "mlp": _network_kind("mlp", train_mlp, input_noise_level=0.0),
}


def _train_config(args) -> dict:
    """The saved config for `train`'s flags; fit trains from this dict.
    A flag of _OPTIONAL_FLAGS the kind does not read is refused."""
    for name in _OPTIONAL_FLAGS:
        if getattr(args, name) is not None and name not in MODEL_KINDS[args.model].flags:
            raise ValueError(f"--{name} does not apply to --model {args.model}")
    if args.model == "lr":
        return {"learning_rate": args.lr if args.lr is not None else 0.1,
                "epochs": args.epochs if args.epochs is not None else 100,
                "l2": args.l2}
    if args.model == "rf":
        return {"n_trees": args.trees, "mtry": args.mtry}
    fields = _load_hp_file(args.hp) if args.hp is not None else {}
    if args.layers is not None:
        try:
            fields["hidden_units"] = _parse_layers(args.layers)
        except ValueError as exc:
            raise ValueError(f"bad --layers value '{args.layers}': {exc}") from None
    fields.setdefault("hidden_units", (64,))
    if args.epochs is not None:
        fields["epochs"] = args.epochs
    if args.lr is not None:
        fields["initial_learning_rate"] = args.lr
    return Hyperparams(**fields).to_dict()


def _cmd_train(args) -> Ran:
    ds = load_dataset(args.infile)
    config, entry = _train_config(args), MODEL_KINDS[args.model]
    entry.check(config)
    model = entry.fit(ds, config, args.seed)
    _write_text(args.out, _model_payload(args.model, args.seed, config, model.to_dict()) + "\n")
    return Ran([args.infile], [args.out], args.seed, dumps({"kind": args.model, "out": args.out}))


def load_model(path: str) -> dict:
    """A model file's document, once its format, version, kind and
    config fields check out (see _model_kind). Every failure names the
    path; JSON nested past the recursion limit stays a RecursionError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
            if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
                raise ValueError("not a model file")
            if doc.get("version") != MODEL_VERSION:
                raise ValueError(f"unsupported model version {doc.get('version')}")
            _model_kind(doc)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        except RecursionError as exc:
            raise RecursionError(f"{path}: {exc}") from None
    return doc


def _has_type(value, typ) -> bool:
    """JSON type check: bools are not numbers, ints pass as floats, and
    a one-element list [t] means a list of t."""
    if isinstance(typ, list):
        return isinstance(value, list) and all(_has_type(v, typ[0]) for v in value)
    return not isinstance(value, bool) and isinstance(value, (int, float) if typ is float else typ)


def _model_kind(doc: dict) -> ModelKind:
    """The registry entry for a model document, after checking that its
    config holds exactly the kind's fields, each of its declared type
    and with a value its trainer accepts and reads."""
    kind = doc.get("kind")
    if kind not in MODEL_KINDS:
        raise ValueError(f"unknown model kind '{kind}'")
    entry = MODEL_KINDS[kind]
    config = doc.get("config")
    if not isinstance(config, dict):
        raise ValueError(f"{kind} model config must be an object")
    stray = sorted(config.keys() ^ entry.config.keys())
    if stray:
        raise ValueError(f"{kind} model config field '{stray[0]}' is unknown or missing")
    for name, typ in entry.config.items():
        if not _has_type(config[name], typ):
            raise ValueError(f"{kind} model config field '{name}' has the wrong type: {config[name]!r}")
    entry.check(config)
    return entry


def scorer_from_model(doc: dict):
    """A score function over raw feature rows for a loaded model file."""
    entry = _model_kind(doc)
    return functools.partial(entry.score, entry.load(doc["params"]))


def trainer_from_model(doc: dict):
    """A (dataset, seed) -> score_fn trainer matching a model file's
    kind and configuration, for per-fold retraining."""
    entry, config = _model_kind(doc), doc["config"]

    def train(ds: Dataset, seed):
        return functools.partial(entry.score, entry.fit(ds, config, seed))

    return train


def _cmd_evaluate(args) -> Ran:
    if args.protocol == "holdout" and args.cv is not None:
        raise ValueError("--cv does not apply to --protocol holdout")
    ds = load_dataset(args.infile)
    doc = load_model(args.model)
    trainer = trainer_from_model(doc)
    names = dict(model_name=doc["kind"], dataset_name=args.infile.rsplit("/", 1)[-1])
    if args.protocol == "holdout":
        report = holdout_evaluate(trainer, ds, args.seed, **names)
    else:
        report = cross_validate(trainer, ds, k=args.cv if args.cv is not None else 10, seed=args.seed, **names)
    _write_text(args.report, report.to_json() + "\n")
    return Ran([args.model, args.infile], [args.report], args.seed, report.to_json())


def _cmd_search(args) -> Ran:
    ds = load_dataset(args.infile)
    result = random_search(
        MODEL_KINDS[args.model].search_space,
        lambda hp: trainer_from_model({"kind": args.model, "config": hp.to_dict()}),
        ds, budget=args.budget, seed=args.seed,
        model_name=args.model, dataset_name=args.infile.rsplit("/", 1)[-1],
    )
    body = dumps(
        {
            "best_hyperparams": result.best_hyperparams.to_dict(),
            "best_report": json.loads(result.best_report.to_json()),
            "trials": result.trials,
        }
    )
    if args.report:
        _write_text(args.report, body + "\n")
    return Ran([args.infile], [args.report] if args.report else [], args.seed, body)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="buyintent",
        description="Purchase-intent pipeline: synthesize, ingest, featurize, reduce, train, evaluate, search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a seeded clickstream corpus with planted signal")
    p.add_argument("--users", type=int, required=True)
    p.add_argument("--categories", type=int, default=257)
    p.add_argument("--buy-rate", type=float, default=0.03)
    p.add_argument("--signal", type=float, default=0.8)
    p.add_argument("--nonlinear", action="store_true")
    p.add_argument("--weeks", type=int, default=3)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("ingest", help="parse and sessionize an event log")
    p.add_argument("--input", required=True)
    p.add_argument("--min-clicks", type=int, default=10)
    p.add_argument("--horizon-hours", type=float, default=24.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("featurize", help="build the labeled feature dataset from a session store")
    p.add_argument("--store", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--scheme", choices=("weekly", "semiweekly"), default="weekly")
    p.add_argument("--categories", type=int, default=257)
    p.add_argument("--balance-seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_featurize)

    p = sub.add_parser("reduce", help="replace aggregation columns with their NMF representation")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--max-iters", type=int, default=500)
    p.add_argument("--tol", type=float, default=1e-5)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("train", help="train a model on a dataset")
    p.add_argument("--model", choices=tuple(MODEL_KINDS), required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--trees", type=int, default=100)
    p.add_argument("--mtry", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--l2", type=float, default=0.0)
    p.add_argument("--layers", default=None, help="comma-separated hidden sizes, e.g. 300,150")
    p.add_argument("--hp", default=None, help="key = value hyperparameter file")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("evaluate", help="cross-validate a model configuration on a dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--cv", type=int, default=None, help="folds of --protocol cv (default 10)")
    p.add_argument("--protocol", choices=("cv", "holdout"), default="cv")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--report", required=True)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("search", help="random hyperparameter search for the network models")
    searchable = [k for k, e in MODEL_KINDS.items() if e.search_space is not None]
    p.add_argument("--model", choices=searchable, required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--budget", type=int, default=20)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--report", default=None)
    p.set_defaults(func=_cmd_search)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except (ValueError, OSError, TrainingDiverged, KeyError, RecursionError) as exc:
        sys.stderr.write(
            dumps({"error": type(exc).__name__, "detail": str(exc)}) + "\n"
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())
