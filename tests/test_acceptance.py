"""Acceptance checks for the whole toolkit.

Each test prints one machine-greppable verdict line of the form
``[acceptance N] name: PASS (...)`` and then asserts, so running with
``pytest -s`` reads as a scoreboard. The expensive corpus for the
ordering checks is built once per session and shared.
"""

from __future__ import annotations

import dataclasses
import statistics
import time

import numpy as np
import pytest

from buyintent import cli
from buyintent.baselines import (
    forest_scores,
    predict_logistic,
    train_forest,
    train_logistic,
)
from buyintent.evaluation import auc, cv_protocol, holdout_evaluate, holdout_protocol, kfold_split
from buyintent.features import balance, featurize_store, load_embedding_table
from buyintent.ingest import ingest_events, parse_events
from buyintent.neural import (
    Hyperparams,
    ae_layer_gradients,
    build_network,
    corrupt,
    down,
    init_layer,
    init_stack,
    network_gradients,
    network_predict,
    reconstruction_loss,
    train_mlp,
    train_sda,
    up,
)
from buyintent.nmf import nmf_factorize, reduce_dataset
from buyintent.rbm import train_dbn, train_rbm
from buyintent.synth import SynthConfig, generate
from buyintent.util import as_rng
from rbm_oracles import exact_log_likelihood, exact_partition, free_energy, normal_init


def verdict(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[acceptance {num}] {name}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)


# ---------------------------------------------------------------- corpus

# Planted-signal corpus for the ordering and pretraining checks: about
# 5000 sessions at a 3% buy rate, nonlinear drivers on, signal strength
# tuned so the intent ceiling sits at 0.90 AUC.
CORPUS = SynthConfig(
    n_users=3200,
    n_categories=12,
    buy_rate=0.03,
    signal_strength=0.6,
    nonlinear=True,
    weeks=1,
    seed=20,
    impulsive_fraction=0.0,
)
EVAL_SEEDS = range(5)
NET_HP = dict(
    hidden_units=(16,),
    initial_learning_rate=0.25,
    momentum=0.9,
    l2_weight_cost=0.001,
    epochs=1000,
)
# Two-layer twin pair for the pretraining comparison. Depth is where
# layerwise initialization earns its keep; a single 16-unit layer trains
# fine from random weights and the comparison would measure noise.
DEEP_HP = dict(NET_HP, hidden_units=(32, 16))


def lr_trainer(train, seed):
    model = train_logistic(train, 0.1, 60, 0.001, seed)
    return lambda X: predict_logistic(model, X)


def rf_trainer(train, seed):
    forest = train_forest(train, seed=seed)
    return lambda X: forest_scores(forest, X)


def net_trainer(train_fn, **kw):
    hp = Hyperparams(**kw)

    def trainer(train, seed):
        model = train_fn(train, hp, seed)
        return lambda X: network_predict(model, X)

    return trainer


def build_corpus(cfg: SynthConfig, out_dir: str):
    """generate -> ingest -> featurize -> balance -> reduce, timed."""
    res = generate(cfg, out_dir)
    with open(res.events_path, "r", encoding="utf-8") as fh:
        parsed = parse_events(fh)
    store, _ = ingest_events(parsed)
    table = load_embedding_table(res.embeddings_path)
    ds = featurize_store(store, table, scheme="weekly", n_categories=cfg.n_categories)
    reduced, _ = reduce_dataset(balance(ds, 0), 12, 0)
    return res, reduced


@pytest.fixture(scope="module")
def ordering_runs(tmp_path_factory):
    """Median AUCs of every model family on the planted corpus, plus the
    zero-signal control and the evaluation reports the pretraining
    comparison reuses."""
    t0 = time.time()
    res, reduced = build_corpus(CORPUS, str(tmp_path_factory.mktemp("corpus")))

    reports = {
        name: [holdout_evaluate(tr, reduced, s) for s in EVAL_SEEDS]
        for name, tr in (
            ("lr", lr_trainer),
            ("rf", rf_trainer),
            ("sda", net_trainer(train_sda, input_noise_level=0.1, **NET_HP)),
            ("dbn", net_trainer(train_dbn, **NET_HP)),
            ("dbn_deep", net_trainer(train_dbn, **DEEP_HP)),
            ("mlp_deep", net_trainer(train_mlp, **DEEP_HP)),
        )
    }
    medians = {
        name: statistics.median(r.auc for r in runs) for name, runs in reports.items()
    }

    _, null_reduced = build_corpus(
        dataclasses.replace(CORPUS, signal_strength=0.0),
        str(tmp_path_factory.mktemp("control")),
    )
    null_medians = {
        name: statistics.median(holdout_evaluate(tr, null_reduced, s).auc for s in EVAL_SEEDS)
        for name, tr in (
            ("lr", lr_trainer),
            ("rf", rf_trainer),
            ("sda", net_trainer(train_sda, input_noise_level=0.1, **NET_HP)),
            ("dbn", net_trainer(train_dbn, **NET_HP)),
        )
    }
    return {
        "bayes": res.bayes_auc,
        "reports": reports,
        "medians": medians,
        "null_medians": null_medians,
        "elapsed": time.time() - t0,
    }


# ------------------------------------------------------- 1: gradients


def test_gradients_match_central_differences():
    """Hand-derived autoencoder and classifier gradients agree with
    central finite differences on random small shapes."""
    t0 = time.time()
    eps = 1e-5
    worst = 0.0

    def scaled_gap(grad, fd):
        return float(np.max(np.abs(grad - fd) / np.maximum(1.0, np.abs(fd))))

    for seed in range(20):
        rng = as_rng(9000 + seed)
        n_vis = int(rng.integers(2, 9))
        n_hid = int(rng.integers(1, 7))
        n_rows = int(rng.integers(2, 9))
        activation = ["sigmoid", "relu"][seed % 2]

        layer = init_layer(n_vis, n_hid, rng)
        t = rng.random((n_rows, n_vis))
        xc = corrupt(t, 0.1, seed=seed)
        g = ae_layer_gradients(layer, t, xc, activation)

        def ae_loss():
            return reconstruction_loss(t, down(layer, up(layer, xc, activation)))

        for arr, grad in [
            (layer.W, g.weights[0]),
            (layer.b, g.biases[0]),
            (layer.c, g.biases[1]),
        ]:
            fd = np.zeros_like(arr)
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                i = it.multi_index
                keep = arr[i]
                arr[i] = keep + eps
                hi = ae_loss()
                arr[i] = keep - eps
                lo = ae_loss()
                arr[i] = keep
                fd[i] = (hi - lo) / (2 * eps)
            worst = max(worst, scaled_gap(grad, fd))

        n_classes = int(rng.integers(2, 9))
        hp = Hyperparams(hidden_units=(n_hid,), activation=activation)
        stack = init_stack(n_vis, (n_hid,), seed)
        net = build_network(stack, n_classes, hp, seed)
        X = rng.random((n_rows, n_vis))
        T = np.eye(n_classes)[rng.integers(0, n_classes, n_rows)]
        g = network_gradients(net, X, T)

        def net_loss():
            a = X
            for hidden in net.layers[:-1]:
                z = a @ hidden.W.T + hidden.b
                a = 1.0 / (1.0 + np.exp(-z)) if activation == "sigmoid" else np.maximum(z, 0.0)
            logits = a @ net.layers[-1].W.T + net.layers[-1].b
            shifted = logits - logits.max(axis=1, keepdims=True)
            log_p = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
            return float(-np.sum(T * log_p) / len(X))

        for li, lay in enumerate(net.layers):
            for arr, grad in [(lay.W, g.weights[li]), (lay.b, g.biases[li])]:
                fd = np.zeros_like(arr)
                it = np.nditer(arr, flags=["multi_index"])
                for _ in it:
                    i = it.multi_index
                    keep = arr[i]
                    arr[i] = keep + eps
                    hi = net_loss()
                    arr[i] = keep - eps
                    lo = net_loss()
                    arr[i] = keep
                    fd[i] = (hi - lo) / (2 * eps)
                worst = max(worst, scaled_gap(grad, fd))

    elapsed = time.time() - t0
    ok = worst < 1e-6 and elapsed < 10.0
    verdict(1, "gradient checks", ok, f"max scaled error {worst:.2e}, {elapsed:.1f}s")
    assert worst < 1e-6
    assert elapsed < 10.0


# ------------------------------------------------ 2: rbm exactness


def test_rbm_probabilities_and_training():
    """Free-energy marginals match brute-force enumeration, and CD-1
    training raises the exact likelihood of a tiny model."""
    t0 = time.time()
    worst = 0.0
    for seed in range(20):
        rng = as_rng(7000 + seed)
        n_vis = int(rng.integers(1, 8))
        n_hid = int(rng.integers(1, min(8, 15 - n_vis)))
        rbm = normal_init(n_vis, n_hid, rng, scale=0.7)
        z = exact_partition(rbm)
        for _ in range(8):
            v = (rng.random(n_vis) < 0.5).astype(float)
            via_free_energy = float(np.exp(-free_energy(rbm, v))) / z
            brute = 0.0
            for h_bits in range(2**n_hid):
                h = np.array([(h_bits >> j) & 1 for j in range(n_hid)], dtype=float)
                brute += float(np.exp(h @ rbm.b + v @ rbm.c + h @ rbm.W @ v))
            brute /= z
            worst = max(worst, abs(via_free_energy - brute))

    patterns = np.repeat(np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]), 20, axis=0)
    hp = Hyperparams(initial_learning_rate=0.25, epochs=500)
    improved = 0
    for seed in range(20):
        before = exact_log_likelihood(normal_init(3, 2, as_rng(seed)), patterns)
        rbm = train_rbm(patterns, 2, hp, seed)
        improved += exact_log_likelihood(rbm, patterns) > before

    elapsed = time.time() - t0
    ok = worst < 1e-10 and improved >= 18 and elapsed < 30.0
    verdict(
        2,
        "rbm exactness",
        ok,
        f"marginal gap {worst:.2e}, likelihood up {improved}/20, {elapsed:.1f}s",
    )
    assert worst < 1e-10
    assert improved >= 18
    assert elapsed < 30.0


# ------------------------------------------------------ 3: auc oracle


def test_auc_matches_pairwise_counting():
    """The rank-based AUC equals all-pairs counting exactly, ties
    included."""
    t0 = time.time()
    rng = as_rng(31)
    for _ in range(1000):
        n = int(rng.integers(2, 201))
        labels = rng.integers(0, 2, size=n)
        labels[0] = 1
        labels[-1] = 0
        # coarse grid forces plenty of tied scores
        scores = np.round(rng.random(n), 2)
        pos = scores[labels == 1][:, None]
        neg = scores[labels == 0][None, :]
        wins = float(np.sum(pos > neg) + 0.5 * np.sum(pos == neg))
        oracle = wins / (pos.size * neg.size)
        assert auc(scores, labels) == oracle
    elapsed = time.time() - t0
    ok = elapsed < 5.0
    verdict(3, "auc oracle", ok, f"1000 instances bit-exact, {elapsed:.1f}s")
    assert elapsed < 5.0


# ------------------------------------------------------------- 4: nmf


def test_nmf_convergence_and_recovery():
    """Factorization error never rises along a trace, and a rank-1
    matrix is recovered to numerical accuracy."""
    t0 = time.time()
    worst_rise = 0.0
    for seed in range(10):
        rng = as_rng(4000 + seed)
        V = rng.random((int(rng.integers(6, 30)), int(rng.integers(4, 20)))) + 0.01
        factors = nmf_factorize(V, rank=int(rng.integers(1, 5)), seed=seed)
        trace = np.asarray(factors.error_trace)
        if len(trace) > 1:
            worst_rise = max(worst_rise, float(np.max(trace[1:] - trace[:-1])))

    rng = as_rng(44)
    V = np.outer(rng.random(25) + 0.1, rng.random(12) + 0.1)
    factors = nmf_factorize(V, rank=1, seed=1, max_iters=500)
    rel = float(
        np.linalg.norm(V - factors.W @ factors.H) / np.linalg.norm(V)
    )

    elapsed = time.time() - t0
    ok = worst_rise <= 0.0 and rel < 1e-6 and elapsed < 5.0
    verdict(
        4,
        "nmf convergence",
        ok,
        f"max trace rise {worst_rise:.2e}, rank-1 error {rel:.2e}, {elapsed:.1f}s",
    )
    assert worst_rise <= 0.0
    assert rel < 1e-6
    assert elapsed < 5.0


# ------------------------------------------- 5: model family ordering


def test_model_family_ordering_on_planted_corpus(ordering_runs):
    """On the nonlinear planted corpus the linear baseline trails the
    forest, the forest does not beat the best network by more than a
    whisker, and everything collapses to chance without signal."""
    med = ordering_runs["medians"]
    null = ordering_runs["null_medians"]
    best_net = max(med["dbn"], med["sda"])
    elapsed = ordering_runs["elapsed"]

    checks = [
        med["lr"] < med["rf"],
        med["rf"] <= best_net + 0.02,
        med["sda"] >= 0.75,
        med["lr"] >= 0.55,
        all(m > 0.5 for m in (med["lr"], med["rf"], med["sda"], med["dbn"])),
        all(abs(m - 0.5) <= 0.03 for m in null.values()),
        elapsed < 600.0,
    ]
    detail = (
        f"bayes {ordering_runs['bayes']:.3f}, "
        f"lr {med['lr']:.3f} rf {med['rf']:.3f} sda {med['sda']:.3f} "
        f"dbn {med['dbn']:.3f}, null devs "
        + " ".join(f"{k}{v - 0.5:+.3f}" for k, v in null.items())
        + f", {elapsed:.0f}s"
    )
    verdict(5, "model family ordering", all(checks), detail)
    assert med["lr"] < med["rf"]
    assert med["rf"] <= best_net + 0.02
    assert med["sda"] >= 0.75
    assert med["lr"] >= 0.55
    for m in (med["lr"], med["rf"], med["sda"], med["dbn"]):
        assert m > 0.5
    for name, m in null.items():
        assert abs(m - 0.5) <= 0.03, f"{name} null median {m}"
    assert elapsed < 600.0


# -------------------------------------------- 6: pretraining benefit


def test_pretraining_beats_random_initialization(ordering_runs):
    """Layerwise generative pretraining should not hurt: the pretrained
    two-layer network's median validation AUC at least matches the same
    architecture trained from random weights, seed for seed."""
    reports = ordering_runs["reports"]

    def med_val(runs):
        return statistics.median(
            float(np.mean(r.extras["validation_aucs"])) for r in runs
        )

    pretrained = med_val(reports["dbn_deep"])
    random_init = med_val(reports["mlp_deep"])
    ok = pretrained >= random_init
    verdict(
        6,
        "pretraining benefit",
        ok,
        f"pretrained {pretrained:.3f} vs random {random_init:.3f}",
    )
    assert pretrained >= random_init


# -------------------------------------------- 7: protocol partitions


def test_split_protocols_partition_exactly():
    """Quarter holdout plus four folds, and 10-fold splits, are exact
    partitions for arbitrary sizes and seeds, and each plan's fold trains
    on the other folds."""
    rng = as_rng(77)
    for _ in range(100):
        n = int(rng.integers(10, 600))
        seed = int(rng.integers(0, 10_000))

        folds = kfold_split(n, 10, seed)
        assert len(folds) == 10
        joined = np.concatenate(folds)
        assert len(joined) == n
        assert np.array_equal(np.sort(joined), np.arange(n))
        sizes = [len(f) for f in folds]
        assert max(sizes) - min(sizes) <= 1
        for i, (train, scored) in enumerate(cv_protocol(n, 10, seed)):
            assert np.array_equal(scored["validation"], folds[i])
            assert np.array_equal(train, np.concatenate(folds[:i] + folds[i + 1 :]))

        plan = holdout_protocol(n, seed)
        test = plan[0][1]["test"]
        assert len(test) == n // 4
        assert len(plan) == 4
        val = [scored["validation"] for _, scored in plan]
        joined = np.concatenate([test] + val)
        assert len(joined) == n
        assert np.array_equal(np.sort(joined), np.arange(n))
        sizes = [len(f) for f in val]
        assert max(sizes) - min(sizes) <= 1
        for i, (train, scored) in enumerate(plan):
            assert np.array_equal(scored["test"], test)
            assert np.array_equal(train, np.concatenate(val[:i] + val[i + 1 :]))

        again = holdout_protocol(n, seed)
        assert np.array_equal(test, again[0][1]["test"])
    verdict(7, "split protocols", True, "100 sizes partition exactly")


# ------------------------------------------------- 8: determinism


def test_pipeline_reruns_are_byte_identical(tmp_path):
    """The chained pipeline, run twice with the same seeds, writes the
    same dataset, model, and report bytes."""

    def run_chain(root):
        root.mkdir()
        corpus = root / "corpus"
        feats = root / "features.bin"
        reduced = root / "reduced.bin"
        model = root / "model.json"
        report = root / "eval.json"
        store = root / "store.json"
        chain = [
            ["synth", "--users", "150", "--categories", "12", "--buy-rate", "0.25",
             "--signal", "1.0", "--weeks", "2", "--seed", "11", "--out", str(corpus)],
            ["ingest", "--input", str(corpus / "events.jsonl"), "--out", str(store)],
            ["featurize", "--store", str(store), "--embeddings",
             str(corpus / "embeddings.tsv"), "--categories", "12",
             "--balance-seed", "5", "--out", str(feats)],
            ["reduce", "--in", str(feats), "--rank", "4", "--seed", "3",
             "--out", str(reduced)],
            ["train", "--model", "lr", "--in", str(reduced), "--seed", "2",
             "--out", str(model)],
            ["evaluate", "--model", str(model), "--in", str(reduced),
             "--cv", "4", "--seed", "9", "--report", str(report)],
        ]
        for argv in chain:
            assert cli.main(argv) == 0
        return [feats, reduced, model, report]

    first = run_chain(tmp_path / "a")
    second = run_chain(tmp_path / "b")
    same = [x.read_bytes() == y.read_bytes() for x, y in zip(first, second)]
    verdict(
        8,
        "pipeline determinism",
        all(same),
        "dataset, reduced dataset, model, report byte-identical",
    )
    assert all(same)
