"""Closed-loop benchmark of the buyintent pipeline.

    python3 bench/run.py --workload fit-forest --seed 1 --seconds 10 --trace 0

One client in one process, with no threads of its own, repeats a cycle
of operations and starts each only when the previous one has finished.
A cycle is the paper's whole loop: the README prep chain (ingest ->
featurize -> reduce through ``buyintent.cli.main``), one holdout
evaluation per model family (lr, rf, sda, dbn, mlp), and scoring the
corpus's sessions with an rf and a dbn fitted during setup. Every
workload runs every operation, so every workload reports every
end-to-end metric; the workloads differ in input and model sizes, which
decides the stage that dominates (see WORKLOADS, and BENCHMARK.json for
why each workload is there).

Inputs come from ``synth.generate`` seeded by ``--seed`` during setup.
Setup runs SETUP_REPEATS times and ``setup_s`` is the median. The timed
loop runs whole cycles until ``--seconds`` have passed, and at least
AUC_CYCLES cycles. Each timing metric is the median of its operation's
calibrated samples (see CALIBRATION_ITER_S); the sample count, tail
percentile and uncalibrated figures are printed beside it. Every
operation is checked; a failed check or an exception counts as a failed
operation.

With ``--trace 1`` a plain client and a traced one (every function in
TRACED wrapped, see spans.py) set up once each and run their cycles in
turn; the run prints the per-layer metrics of the traced client and the
tracing overhead instead of the end-to-end metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import dataclasses  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
NPROC = len(os.sched_getaffinity(0))

# OpenBLAS reads this once, when numpy loads it. The matrices here are
# at most a few hundred rows by 73 columns, too small to gain from BLAS
# threads; on a 2-core machine two threads made operation times spread
# by 15-30% (quartile distance over median) against 1-3% with one.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

import spans  # noqa: E402

SETUP_REPEATS = 3
# Holdout seeds cycle with this period. The auc metrics are the median
# over the first AUC_CYCLES cycles, so they are fixed by --seed, and a
# later cycle must reproduce the AUC of the cycle AUC_CYCLES before it.
AUC_CYCLES = 3
FAMILIES = ("lr", "rf", "sda", "dbn", "mlp")
SCORERS = ("rf", "dbn")
BALANCE_SEED, NMF_SEED, TRANSFORM_SEED, SCORER_SEED = 5, 3, 11, 2
# Fixed work per operation, so that operation times vary with the
# machine and the program, not with how a seed's corpus turned out: the
# models train on the first TRAIN_ROWS balanced rows, and scoring runs
# TRANSFORM_SWEEPS NMF sweeps (tol 0) instead of stopping at a tolerance.
# The prep chain reads only the first `log_events` events of its log that
# fall inside the log's window (the log's event count varies by 8%
# between seeds, and on some seeds sessions run past the window's end and
# add a week of aggregation columns), and its reduce runs
# PREP_NMF_SWEEPS sweeps (tol -inf): at its default tolerance it stopped
# after 90 to 330 sweeps, by seed.
TRAIN_ROWS = 240
TRANSFORM_SWEEPS = 100
PREP_NMF_SWEEPS = 60
# Other tenants of a shared machine slow this process by up to 1.5-2x.
# The slow spells come and go every few tens of milliseconds, and how
# much of the time they fill drifts over seconds to minutes, which no
# run length here averages out. So a fixed calibration kernel that calls
# no buyintent code is timed right before and after every timed
# operation, and every SAMPLE_EVERY_S while it runs (from a SIGALRM
# handler, whose time is taken out of the operation's). Each sample is
# scaled to the kernel's nominal speed:
# seconds x CALIBRATION_ITER_S / mean seconds per kernel iteration.
# Kernel readings taken only before and after an operation missed the
# spells inside it; on operations of 0.2 s or longer, the medians of
# runs then spread 10-28%. The kernel is small dense algebra plus a dict
# loop, the same mix as the network trainers. Each operation repeats
# back to back in each cycle, MIN_REPEATS times or until MIN_BATCH_S
# calibrated seconds are filled, so that every metric has at least 6
# samples in a run's 3 cycles: one calibrated sample still varies by
# 5-12%, so medians of 3 samples spread too widely.
CALIBRATION_ITER_S = 1.2e-4
EDGE_ITERS, SAMPLE_ITERS = 10, 2
SAMPLE_EVERY_S = 0.005
MIN_BATCH_S = 0.25
MIN_REPEATS, MAX_REPEATS = 2, 16

# Planted corpus the models train on, on every workload. It is the
# acceptance suite's nonlinear SynthConfig with fewer users, a higher buy
# rate and full signal strength: over TRAIN_ROWS balanced rows x 73
# columns (2 minibatches per epoch) for less generation time, with every
# family's holdout AUC clear of chance on every seed.
TRAIN_CORPUS = dict(
    n_users=1200, n_categories=12, buy_rate=0.08, signal_strength=1.0,
    nonlinear=True, weeks=1, impulsive_fraction=0.0,
)
# Log for the prep chain where prep is not the stage under study.
SMALL_LOG = dict(
    n_users=150, n_categories=12, buy_rate=0.1, signal_strength=0.6,
    nonlinear=True, weeks=1, impulsive_fraction=0.0,
)
# Paper-shaped log: 257 categories over 3 weeks gives a wide weekly
# aggregation block for NMF at rank 24.
WIDE_LOG = dict(
    n_users=600, n_categories=257, buy_rate=0.05, signal_strength=0.6,
    nonlinear=True, weeks=3, impulsive_fraction=0.1,
)
NET_HP = dict(initial_learning_rate=0.25, momentum=0.9, l2_weight_cost=0.001)
# (hidden layers, epochs) per network family. The small set is the
# least training that keeps each AUC clear of chance on every seed; the
# full set is the acceptance suite's sda, dbn_deep and mlp_deep at 100
# of its 1000 epochs, short enough for several samples per run, except
# that mlp_deep, which has no pretraining, gets 200: at 100 epochs one
# holdout of seed 17 scored an AUC of 0.499 (lowest over seeds 11-60 and
# holdout seeds 0-2: 0.544 at 200 epochs).
NETS_SMALL = {"sda": ((16,), 40), "dbn": ((16,), 40), "mlp": ((16,), 40)}
NETS_FULL = {"sda": ((16,), 100), "dbn": ((32, 16), 100), "mlp": ((32, 16), 200)}


@dataclasses.dataclass(frozen=True)
class Workload:
    log: dict = dataclasses.field(default_factory=lambda: SMALL_LOG)  # SynthConfig fields of the prep chain's log
    log_events: int = 3000  # events of that log the prep chain reads
    rank: int = 6  # NMF rank of the prep chain
    trees: int = 4  # rf trees in the holdouts
    nets: dict = dataclasses.field(default_factory=lambda: NETS_SMALL)  # holdout networks and the scoring dbn
    score_trees: int = 4  # trees of the scoring forest fitted in setup
    score_rows: int | None = 500  # sessions scored per operation; None for all


# Every workload runs every operation; the defaults above are the small
# sizes, and each workload raises one stage to full size.
WORKLOADS = {
    "prep": Workload(log=WIDE_LOG, log_events=14000, rank=24),
    "fit-forest": Workload(trees=20),
    "fit-nets": Workload(nets=NETS_FULL),
    "score-all": Workload(score_trees=30, score_rows=None),
}

END_TO_END = (
    [("setup_s", "s"), ("peak_rss_mb", "MB"), ("prep_s", "s")]
    + [(f"holdout_s.{f}", "s") for f in FAMILIES]
    + [(f"score_rows_per_s.{m}", "rows/s") for m in SCORERS]
    + [(f"auc.{f}", "auc") for f in FAMILIES]
)


class CheckFailed(Exception):
    pass


def _import_package():
    """Import buyintent from this checkout's src/ and nowhere else."""
    sys.path.insert(0, SRC)
    try:
        import buyintent
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import buyintent from {SRC}: {exc}")
    if os.path.dirname(os.path.abspath(buyintent.__file__)) != os.path.join(SRC, "buyintent"):
        raise SystemExit(f"bench: buyintent imported from {buyintent.__file__}, not from {SRC}")
    from buyintent import (  # noqa: F401  (all are traced, see TRACED)
        baselines, cli, dataset, evaluation, features, ingest, neural, nmf, rbm, synth, util,
    )
    logging.getLogger("buyintent").setLevel(logging.ERROR)
    return sys.modules


def blas_threads() -> int:
    """Threads of the OpenBLAS numpy loaded, or 0 if it is not found."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            if hasattr(lib, name):
                fn = getattr(lib, name)
                fn.restype = ctypes.c_int
                return int(fn())
    return 0


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "machine": platform.machine(),
    }


_CAL_RNG = np.random.default_rng(0)
_CAL_X, _CAL_W = _CAL_RNG.random((128, 73)), _CAL_RNG.random((73, 32)) - 0.5


def kernel_s(iters: int) -> float:
    """Seconds per iteration of the calibration kernel, run `iters`
    times now (see CALIBRATION_ITER_S)."""
    start = time.perf_counter()
    for _ in range(iters):
        y = 1.0 / (1.0 + np.exp(-(_CAL_X @ _CAL_W)))
        _CAL_X.T @ (y - 0.5)
        counts: dict[int, int] = {}
        for j in range(300):
            counts[j % 17] = counts.get(j % 17, 0) + j
    return (time.perf_counter() - start) / iters


def calibrated(operation, sample: bool = True):
    """Run `operation`; return its result, its seconds scaled to the
    calibration kernel's nominal speed, and its raw seconds. With
    `sample` off, the kernel runs only before and after it."""
    reads = [kernel_s(EDGE_ITERS)]
    in_handler = [0.0]

    def on_alarm(signum, frame):
        start = time.perf_counter()
        reads.append(kernel_s(SAMPLE_ITERS))
        in_handler[0] += time.perf_counter() - start

    if sample:
        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
    start = time.perf_counter()
    try:
        result = operation()
    finally:
        if sample:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)
        elapsed = time.perf_counter() - start - in_handler[0]
    reads.append(kernel_s(EDGE_ITERS))
    return result, elapsed * CALIBRATION_ITER_S / statistics.fmean(reads), elapsed


# ------------------------------------------------------------------ setup


@dataclasses.dataclass
class Setup:
    log_events: str
    log_embeddings: str
    train: object  # balanced, reduced Dataset the holdouts train on
    score_base: object  # engineered columns of the scored sessions
    score_agg: object  # aggregation block of the scored sessions
    score_labels: object
    H: object  # NMF basis fitted on the training rows
    forest: object
    dbn: object


def setup(pkg, wl: Workload, seed: int, out_dir: str) -> Setup:
    """Generate the corpora and fit the scoring models, all through the
    package's public functions."""
    synth, ingest, features, nmf = pkg["buyintent.synth"], pkg["buyintent.ingest"], \
        pkg["buyintent.features"], pkg["buyintent.nmf"]
    baselines, rbm = pkg["buyintent.baselines"], pkg["buyintent.rbm"]
    log = synth.generate(synth.SynthConfig(seed=seed, **wl.log), os.path.join(out_dir, "log"))
    window_end = synth.WINDOW_BASE_MS + wl.log["weeks"] * 7 * synth.MS_PER_DAY
    corpus = synth.generate(synth.SynthConfig(seed=seed + 1, **TRAIN_CORPUS), os.path.join(out_dir, "train"))
    with open(corpus.events_path, "r", encoding="utf-8") as fh:
        parsed = ingest.parse_events(fh)
    store, _ = ingest.ingest_events(parsed)
    table = features.load_embedding_table(corpus.embeddings_path)
    full = features.featurize_store(
        store, table, scheme="weekly", n_categories=TRAIN_CORPUS["n_categories"]
    )
    # On some seeds, sessions that start in the window's last hours spill
    # into a second ISO week and double the aggregation block, and with it
    # the NMF work. Keeping the window's week (the first block of
    # columns) gives every seed the same width.
    width = full.n_base_cols + TRAIN_CORPUS["n_categories"]
    full = dataclasses.replace(full, rows=full.rows[:, :width], feature_names=full.feature_names[:width])
    balanced = features.balance(full, BALANCE_SEED)
    balanced = balanced.take(np.arange(min(TRAIN_ROWS, balanced.n)))
    train, factors = nmf.reduce_dataset(balanced, TRAIN_CORPUS["n_categories"], NMF_SEED)
    rows = slice(None, wl.score_rows)
    return Setup(
        log_events=log_head(log.events_path, wl.log_events, window_end),
        log_embeddings=log.embeddings_path,
        train=train,
        score_base=full.rows[rows, : full.n_base_cols],
        score_agg=full.rows[rows, full.n_base_cols :],
        score_labels=full.labels[rows],
        H=factors.H,
        forest=baselines.train_forest(train, n_trees=wl.score_trees, seed=SCORER_SEED),
        dbn=rbm.train_dbn(train, net_hp(pkg, "dbn", wl), SCORER_SEED),
    )


def log_head(path: str, n: int, end_ms: int) -> str:
    """Copy the first `n` events of a log stamped before `end_ms` beside
    it; return the copy's path."""
    head = os.path.join(os.path.dirname(path), f"first-{n}-{os.path.basename(path)}")
    kept = 0
    with open(path, "rb") as src, open(head, "wb") as dst:
        for line in src:
            if kept == n:
                break
            if json.loads(line)["timestamp"] < end_ms:
                dst.write(line)
                kept += 1
    return head


def net_hp(pkg, family: str, wl: Workload):
    layers, epochs = wl.nets[family]
    extra = {"input_noise_level": 0.1} if family == "sda" else {}
    return pkg["buyintent.neural"].Hyperparams(hidden_units=layers, epochs=epochs, **NET_HP, **extra)


def trainer(pkg, family: str, wl: Workload):
    """(train set, seed) -> score function, as holdout_evaluate expects.
    Functions are looked up on their modules at call time, so a traced
    run sees the wrapped ones."""
    baselines, neural, rbm = pkg["buyintent.baselines"], pkg["buyintent.neural"], pkg["buyintent.rbm"]
    if family == "lr":
        def fit(train, seed):
            model = baselines.train_logistic(train, 0.1, 60, 0.001, seed)
            return lambda X: baselines.predict_logistic(model, X)
    elif family == "rf":
        def fit(train, seed):
            forest = baselines.train_forest(train, n_trees=wl.trees, seed=seed)
            return lambda X: baselines.forest_scores(forest, X)
    else:
        hp = net_hp(pkg, family, wl)
        module = rbm if family == "dbn" else neural

        def fit(train, seed):
            net = getattr(module, f"train_{family}")(train, hp, seed)
            return lambda X: neural.network_predict(net, X)
    return fit


# ------------------------------------------------------------------ client


class Client:
    """Runs and checks operations; one sample list per operation.

    With `timed` off, as in the trace run, the calibration kernel runs
    only before and after each operation, as its handler's time would
    land in the spans, and an operation of MIN_BATCH_S or more runs once
    a cycle, as the per-layer metrics need no spread.
    """

    def __init__(self, pkg, wl: Workload, seed: int, ctx: Setup, work: str, tracer=None, timed=True):
        self.pkg, self.wl, self.seed, self.ctx, self.work = pkg, wl, seed, ctx, work
        self.tracer, self.timed = tracer, timed
        self.samples: dict[str, list[float]] = {}
        self.raw_samples: dict[str, list[float]] = {}
        self.aucs: dict[str, list[float]] = {f: [] for f in FAMILIES}
        self.prep_bytes: bytes | None = None
        self.attempted = self.failed = self.diverged = 0
        self.failures: list[str] = []
        self.repeats: dict[str, int] = {}
        self.trainers = {f: trainer(pkg, f, wl) for f in FAMILIES}

    def _run(self, name: str, operation, check) -> None:
        """Time an operation and check each result outside the timing.

        The first call of an operation is a warm-up: it fixes how many
        times the operation repeats back to back in each cycle, and the
        repetitions follow at once.
        """
        def in_span():
            with self.tracer.op(name) if self.tracer else contextlib.nullcontext():
                return operation()

        times, raw = [], []
        for _ in range(self.repeats.get(name, 1)):
            self.attempted += 1
            try:
                result, seconds, raw_seconds = calibrated(in_span, self.timed)
                times.append(seconds)
                raw.append(raw_seconds)
                check(result)
            except CheckFailed as exc:
                self._fail(name, str(exc))
                return
            except Exception as exc:  # an operation that raises is a failed operation
                if isinstance(exc, self.pkg["buyintent.util"].TrainingDiverged):
                    self.diverged += 1
                self._fail(name, f"{type(exc).__name__}: {exc}")
                return
        if name not in self.repeats:
            least = MIN_REPEATS if self.timed else 1
            self.repeats[name] = max(least, min(MAX_REPEATS, math.ceil(MIN_BATCH_S / times[0])))
            self._run(name, operation, check)
            return
        self.samples.setdefault(name, []).extend(times)
        self.raw_samples.setdefault(name, []).extend(raw)

    def _fail(self, name: str, detail: str) -> None:
        self.failed += 1
        self.failures.append(f"{name}: {detail}")

    def cycle(self, i: int) -> None:
        self.prep(i)
        for family in FAMILIES:
            self.holdout(family, i)
        for model in SCORERS:
            self.score(model, i)

    def loop(self, seconds: float) -> tuple[int, float]:
        """Whole cycles until `seconds` have passed, and at least AUC_CYCLES."""
        start = time.perf_counter()
        i = 0
        while i < AUC_CYCLES or time.perf_counter() - start < seconds:
            self.cycle(i)
            i += 1
        return i, time.perf_counter() - start

    def prep(self, i: int) -> None:
        cli = self.pkg["buyintent.cli"]
        out = os.path.join(self.work, f"prep-{i}")
        store, full, reduced = (os.path.join(out, n) for n in ("store.json", "full.dataset", "reduced.dataset"))
        chain = [
            ["ingest", "--input", self.ctx.log_events, "--out", store],
            ["featurize", "--store", store, "--embeddings", self.ctx.log_embeddings,
             "--scheme", "weekly", "--categories", str(self.wl.log["n_categories"]),
             "--balance-seed", str(BALANCE_SEED), "--out", full],
            ["reduce", "--in", full, "--rank", str(self.wl.rank), "--seed", str(NMF_SEED),
             "--max-iters", str(PREP_NMF_SWEEPS), "--tol=-inf", "--out", reduced],
        ]

        def run_chain():
            os.makedirs(out)
            errors = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(errors):
                return [cli.main(argv) for argv in chain], errors.getvalue()

        def check(result):
            codes, errors = result
            if codes != [0, 0, 0]:
                raise CheckFailed(f"cli.main exit codes {codes}: {errors.strip()}")
            with open(reduced, "rb") as fh:
                data = fh.read()
            if self.prep_bytes is None:
                ds = self.pkg["buyintent.dataset"].load_dataset(reduced)
                if ds.n == 0 or ds.d != ds.n_base_cols + self.wl.rank or 2 * int(ds.labels.sum()) != ds.n:
                    raise CheckFailed(f"reduced dataset has shape {ds.n}x{ds.d}")
                self.prep_bytes = data
            elif data != self.prep_bytes:
                raise CheckFailed("reduced dataset differs from the first pass")
            shutil.rmtree(out)

        self._run("prep", run_chain, check)

    def holdout(self, family: str, i: int) -> None:
        evaluation = self.pkg["buyintent.evaluation"]
        holdout_seed = self.seed * 1000 + i % AUC_CYCLES

        def check(report):
            value = report.auc
            if not (math.isfinite(value) and value > 0.5):
                raise CheckFailed(f"auc {value} not above chance")
            seen = self.aucs[family]
            if len(seen) == i:
                seen.append(value)
            earlier = seen[i - AUC_CYCLES] if i >= AUC_CYCLES else seen[i]
            if value != earlier:
                raise CheckFailed(f"auc {value} != {earlier} for the same seed")

        self._run(
            f"holdout.{family}",
            lambda: evaluation.holdout_evaluate(self.trainers[family], self.ctx.train, seed=holdout_seed),
            check,
        )

    def score(self, model: str, i: int) -> None:
        nmf, evaluation = self.pkg["buyintent.nmf"], self.pkg["buyintent.evaluation"]
        baselines, neural = self.pkg["buyintent.baselines"], self.pkg["buyintent.neural"]
        ctx = self.ctx

        def run_score():
            W = nmf.nmf_transform(ctx.score_agg, ctx.H, TRANSFORM_SEED, max_iters=TRANSFORM_SWEEPS, tol=0.0)
            rows = np.hstack([ctx.score_base, W])
            if model == "rf":
                scores = baselines.forest_scores(ctx.forest, rows)
            else:
                scores = neural.network_predict(ctx.dbn, rows)
            return scores, evaluation.auc(scores, ctx.score_labels)

        def check(result):
            scores, value = result
            if np.shape(scores) != (len(ctx.score_labels),) or not np.isfinite(scores).all():
                raise CheckFailed(f"{np.shape(scores)} scores for {len(ctx.score_labels)} rows")
            if not (math.isfinite(value) and value > 0.5):
                raise CheckFailed(f"in-sample auc {value} not above chance")

        self._run(f"score.{model}", run_score, check)

    def end_to_end(self, setup_s: float) -> dict[str, float]:
        median = {name: statistics.median(s) for name, s in self.samples.items()}
        rows = len(self.ctx.score_labels)
        values = {
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "prep_s": median.get("prep", math.nan),
        }
        values.update({f"holdout_s.{f}": median.get(f"holdout.{f}", math.nan) for f in FAMILIES})
        values.update({f"score_rows_per_s.{m}": rows / median[f"score.{m}"] if f"score.{m}" in median else math.nan
                       for m in SCORERS})
        values.update({f"auc.{f}": statistics.median(self.aucs[f][:AUC_CYCLES]) if self.aucs[f] else math.nan
                       for f in FAMILIES})
        return values


def distribution(samples: list[float], raw: list[float]) -> str:
    """Sample count, the highest percentile with at least ten samples
    beyond it, and the uncalibrated median and fastest sample."""
    n = len(samples)
    if n == 0:
        return "n=0"
    text = f"median of n={n}"
    if n >= 20:
        p = math.floor(100 * (n - 10) / n)
        text += f", p{p} {statistics.quantiles(samples, n=100, method='inclusive')[p - 1]:.6g} s"
    return text + f"; raw median {statistics.median(raw):.6g} s, raw fastest {min(raw):.6g} s"


# ------------------------------------------------------------------ tracing

def _count_lines(counts, args, out):
    with open(out.events_path, "rb") as fh:
        counts["synth.events"] += sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b""))


def _ingest_report(counts, args, out):
    report = out[1]
    counts["ingest.events"] += report.events_parsed
    counts["ingest.parse_errors"] += report.parse_errors
    counts["ingest.sessions_usable"] += report.sessions - report.unusable_buy_sessions
    counts["ingest.sessions_seen"] += report.sessions + report.sessions_removed_min_clicks


def _feature_rows(counts, args, out):
    counts["features.rows"] += len(out)


def _balance(counts, args, out):
    counts["features.balance_in"] += args["ds"].n
    counts["features.balance_out"] += out.n


def _saved_bytes(counts, args, out):
    counts["dataset.bytes"] += os.path.getsize(args["path"])


def _nmf_iters(counts, args, out):
    if args["tol"] < 0:  # the caller fixed the sweep count; it says nothing of convergence
        return
    counts["nmf.factorize_calls"] += 1
    counts["nmf.iters"] += out.n_iters
    counts["nmf.max_iters"] += args["max_iters"]
    counts["nmf.converged"] += out.n_iters < args["max_iters"]


def _tree_nodes(node) -> int:
    count, stack = 0, [node]
    while stack:
        node = stack.pop()
        count += 1
        stack.extend(child for child in (node.left, node.right) if child is not None)
    return count


def _forest_nodes(counts, args, out):
    counts["baselines.nodes"] += sum(_tree_nodes(tree) for tree in out.trees)


def _tree_visits(counts, args, out):
    counts["baselines.tree_visits"] += len(out) * len(args["forest"].trees)


def _cli_failed(counts, args, out):
    counts["cli.failed"] += out != 0


# (module, function, span name, hook). Spans are named <layer>.<function>
# with the module's own prefix dropped (nmf.nmf_factorize -> nmf.factorize).
TRACED = [
    ("cli", "main", "cli.main", _cli_failed),
    ("synth", "generate", "synth.generate", _count_lines),
    ("ingest", "parse_events", "ingest.parse_events", None),
    ("ingest", "ingest_events", "ingest.ingest_events", _ingest_report),
    ("ingest", "save_store", "ingest.save_store", None),
    ("ingest", "load_store", "ingest.load_store", None),
    ("features", "load_embedding_table", "features.load_embedding_table", None),
    ("features", "featurize_store", "features.featurize_store", None),
    ("features", "compute_session_features", "features.compute_session_features", _feature_rows),
    ("features", "aggregate_pageviews", "features.aggregate_pageviews", None),
    ("features", "balance", "features.balance", _balance),
    ("dataset", "save_dataset", "dataset.save_dataset", _saved_bytes),
    ("dataset", "load_dataset", "dataset.load_dataset", None),
    ("nmf", "reduce_dataset", "nmf.reduce_dataset", None),
    ("nmf", "nmf_factorize", "nmf.factorize", _nmf_iters),
    ("nmf", "nmf_transform", "nmf.transform", None),
    ("baselines", "train_logistic", "baselines.train_logistic", None),
    ("baselines", "predict_logistic", "baselines.predict_logistic", None),
    ("baselines", "train_forest", "baselines.train_forest", _forest_nodes),
    ("baselines", "forest_scores", "baselines.forest_scores", _tree_visits),
    ("neural", "ae_layer_gradients", "neural.ae_layer_gradients", None),
    ("neural", "network_gradients", "neural.network_gradients", None),
    ("neural", "finetune", "neural.finetune", None),
    ("neural", "network_predict", "neural.network_predict", None),
    ("rbm", "cd1_update", "rbm.cd1_update", None),
    ("rbm", "reconstruction_cross_entropy", "rbm.reconstruction_cross_entropy", None),
    ("util", "sigmoid", "util.sigmoid", None),
    ("evaluation", "holdout_evaluate", "evaluation.holdout_evaluate", None),
    ("evaluation", "auc", "evaluation.auc", None),
]
COUNTS = [
    "synth.events", "ingest.events", "ingest.parse_errors", "features.rows", "dataset.bytes",
    "baselines.nodes", "baselines.tree_visits", "cli.failed",
]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tracer: spans.Tracer, diverged: int, overhead: float, env: dict) -> dict[str, float]:
    values: dict[str, float] = {}
    for _, _, span, _ in TRACED:
        values[f"{span}_s"] = tracer.self_s.get(span, 0.0)
        values[f"{span}.calls"] = tracer.calls.get(span, 0)
    c = tracer.counts
    values.update({name: c.get(name, 0) for name in COUNTS})
    values["ingest.sessions_kept_ratio"] = _ratio(c["ingest.sessions_usable"], c["ingest.sessions_seen"])
    values["features.balance_kept_ratio"] = _ratio(c["features.balance_out"], c["features.balance_in"])
    values["nmf.iters"] = _ratio(c["nmf.iters"], c["nmf.factorize_calls"])
    values["nmf.max_iters"] = _ratio(c["nmf.max_iters"], c["nmf.factorize_calls"])
    values["nmf.converged"] = _ratio(c["nmf.converged"], c["nmf.factorize_calls"])
    values["evaluation.diverged"] = diverged
    dbn_total = tracer.op_total_s.get("holdout.dbn", 0.0)
    values["dbn.sigmoid_share"] = _ratio(tracer.op_self_s[("holdout.dbn", "util.sigmoid")], dbn_total)
    values["dbn.recon_ce_share"] = _ratio(
        tracer.op_self_s[("holdout.dbn", "rbm.reconstruction_cross_entropy")], dbn_total
    )
    values["trace.overhead"] = overhead
    values["trace.absent"] = len(tracer.absent)
    values["env.nproc"] = env["nproc"]
    values["env.blas_threads"] = env["blas_threads"]
    return values


# ------------------------------------------------------------------ main


def timed_setups(pkg, wl: Workload, seed: int, work: str, repeats: int, timed=True) -> tuple[Setup, list[float]]:
    """Set up `repeats` times; the last setup and every calibrated time."""
    durations, ctx = [], None
    for k in range(repeats):
        ctx, seconds, _ = calibrated(lambda: setup(pkg, wl, seed, os.path.join(work, f"setup-{k}")), timed)
        durations.append(seconds)
    return ctx, durations


def run(args, pkg, imports_s: float, work: str) -> tuple[dict, list[str]]:
    env = environment()
    wl = WORKLOADS[args.workload]
    lines = [f"env {json.dumps(env, sort_keys=True)}", f"workload {args.workload}"]

    if not args.trace:
        ctx, setups = timed_setups(pkg, wl, args.seed, work, SETUP_REPEATS)
        client = Client(pkg, wl, args.seed, ctx, work)
        cycles, loop_s = client.loop(args.seconds)
        lines.append(f"setup passes {[round(s, 4) for s in setups]} s, imports {imports_s:.4f} s; "
                     f"{cycles} cycles in {loop_s:.3f} s")
        values = client.end_to_end(imports_s + statistics.median(setups))
        units = dict(END_TO_END)
        for name, op in [("prep_s", "prep")] + [(f"holdout_s.{f}", f"holdout.{f}") for f in FAMILIES] \
                + [(f"score_rows_per_s.{m}", f"score.{m}") for m in SCORERS]:
            lines.append(f"{name:24s} {values[name]:.6g} {units[name]}  ("
                         f"{distribution(client.samples.get(op, []), client.raw_samples.get(op, []))}; "
                         f"{client.repeats.get(op, 1)} per cycle)")
        for name in ["setup_s", "peak_rss_mb"] + [f"auc.{f}" for f in FAMILIES]:
            lines.append(f"{name:24s} {values[name]:.6g} {units[name]}")
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        clients = [client]
    else:
        # One plain and one traced client, with a setup each, run their
        # cycles in turn, so that a change in machine speed during the
        # run reaches both and the overhead compares like with like.
        tracer = spans.Tracer("buyintent", TRACED)
        ctx, _ = timed_setups(pkg, wl, args.seed, os.path.join(work, "plain"), 1, timed=False)
        with tracer:
            traced_ctx, _ = timed_setups(pkg, wl, args.seed, os.path.join(work, "traced"), 1, timed=False)
        client = Client(pkg, wl, args.seed, ctx, os.path.join(work, "plain"), timed=False)
        traced = Client(pkg, wl, args.seed, traced_ctx, os.path.join(work, "traced"), tracer, timed=False)
        start, i = time.perf_counter(), 0
        while i < AUC_CYCLES or time.perf_counter() - start < args.seconds:
            client.cycle(i)
            with tracer:
                traced.cycle(i)
            i += 1
        lines.append(f"{i} plain and {i} traced cycles in {time.perf_counter() - start:.3f} s")
        overhead = sum(statistics.median(traced.samples[op]) for op in client.samples) / sum(
            statistics.median(samples) for samples in client.samples.values()
        ) - 1.0
        values = per_layer(tracer, client.diverged + traced.diverged, overhead, env)
        if tracer.absent:
            lines.append(f"absent from the package or changed shape, not traced or not counted: "
                         f"{', '.join(tracer.absent)}")
        for name, value in values.items():
            lines.append(f"{name:44s} {value:.6g}")
        metrics = {name: {"value": value, "unit": _layer_unit(name)} for name, value in values.items()}
        clients = [client, traced]
    attempted = sum(c.attempted for c in clients)
    failed = sum(c.failed for c in clients)
    failures = [f for c in clients for f in c.failures]
    for failure in failures:
        lines.append(f"FAILED {failure}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}, lines


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name == "dataset.bytes":
        return "bytes"
    if name.endswith(("_ratio", "_share", ".converged", ".overhead")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    pkg = _import_package()
    imports_s = time.perf_counter() - STARTED
    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=os.path.join(ROOT, ".bench_work"))
    try:
        result, lines = run(args, pkg, imports_s, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("\n".join(lines))
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
