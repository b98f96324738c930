"""End-to-end tests for the command-line pipeline.

Each artifact command is exercised through cli.main with real files in
a temp directory, including the sidecar and manifest outputs, the
structured error path, and byte-identical reruns.
"""

import contextlib
import hashlib
import io
import json

import numpy as np
import pytest

import buyintent
from buyintent import cli
from buyintent.baselines import Forest
from buyintent.dataset import load_dataset, save_dataset
from buyintent.ingest import load_store
from buyintent.neural import Hyperparams, Network


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def file_sha(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def stderr_error(err: str) -> dict:
    doc = json.loads(err.strip().splitlines()[-1])
    assert set(doc) == {"error", "detail"}
    return doc


SYNTH_FLAGS = [
    "--users", "150", "--categories", "12", "--buy-rate", "0.25",
    "--signal", "1.0", "--weeks", "2", "--seed", "11",
]


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """One synth corpus pushed through ingest and featurize, shared by
    the command tests below."""
    root = tmp_path_factory.mktemp("cliwork")
    corpus = root / "corpus"
    rc, synth_out, _ = run_cli(["synth", *SYNTH_FLAGS, "--out", str(corpus)])
    assert rc == 0

    store = root / "store.json"
    rc, ingest_out, _ = run_cli(
        ["ingest", "--input", str(corpus / "events.jsonl"), "--out", str(store)]
    )
    assert rc == 0

    plain = root / "plain.bin"
    rc, _, _ = run_cli(
        ["featurize", "--store", str(store), "--embeddings",
         str(corpus / "embeddings.tsv"), "--categories", "12", "--out", str(plain)]
    )
    assert rc == 0

    balanced = root / "balanced.bin"
    rc, feat_out, _ = run_cli(
        ["featurize", "--store", str(store), "--embeddings",
         str(corpus / "embeddings.tsv"), "--categories", "12",
         "--balance-seed", "5", "--out", str(balanced)]
    )
    assert rc == 0

    return {
        "root": root,
        "corpus": corpus,
        "store": store,
        "plain": plain,
        "balanced": balanced,
        "synth_out": synth_out,
        "ingest_out": ingest_out,
        "feat_out": feat_out,
    }


@pytest.fixture(scope="module")
def lr_model(work):
    path = work["root"] / "lr.model.json"
    rc, _, _ = run_cli(
        ["train", "--model", "lr", "--in", str(work["balanced"]),
         "--seed", "1", "--out", str(path)]
    )
    assert rc == 0
    return path


class TestSynth:
    def test_writes_corpus_and_summary(self, work):
        for name in ("events.jsonl", "truth.jsonl", "embeddings.tsv", "config.json"):
            assert (work["corpus"] / name).exists()
        summary = json.loads(work["synth_out"])
        assert summary["n_sessions"] > 0
        assert 0 < summary["n_buy_sessions"] < summary["n_sessions"]
        assert 0.5 < summary["bayes_auc"] <= 1.0
        truth_lines = (work["corpus"] / "truth.jsonl").read_text().strip().splitlines()
        assert len(truth_lines) == summary["n_sessions"]

    def test_manifest_digests_match_outputs(self, work):
        manifest = json.loads((work["corpus"] / "events.jsonl.manifest.json").read_text())
        assert manifest["command"] == "synth"
        assert manifest["seed"] == 11
        assert manifest["version"] == buyintent.__version__
        assert manifest["inputs"] == {}
        assert manifest["wall_seconds"] >= 0
        assert len(manifest["outputs"]) == 4
        for path_str, digest in manifest["outputs"].items():
            assert digest == hashlib.sha256(open(path_str, "rb").read()).hexdigest()

    def test_manifest_flags_echo_the_invocation(self, work):
        manifest = json.loads((work["corpus"] / "events.jsonl.manifest.json").read_text())
        flags = manifest["flags"]
        assert flags["users"] == 150
        assert flags["buy_rate"] == 0.25
        assert flags["nonlinear"] is False
        assert "func" not in flags
        assert "command" not in flags

    def test_rerun_is_byte_identical(self, work, tmp_path):
        again = tmp_path / "again"
        rc, _, _ = run_cli(["synth", *SYNTH_FLAGS, "--out", str(again)])
        assert rc == 0
        for name in ("events.jsonl", "truth.jsonl", "embeddings.tsv"):
            assert (again / name).read_bytes() == (work["corpus"] / name).read_bytes()


class TestIngest:
    def test_store_loads_and_report_sidecar_written(self, work):
        store = load_store(work["store"])
        assert len(store) > 0
        sidecar = json.loads((work["root"] / "store.json.report.json").read_text())
        assert sidecar["users"] == 150
        assert sidecar["parse_errors"] == 0
        assert sidecar == json.loads(work["ingest_out"])

    def test_manifest_records_input_digest(self, work):
        manifest = json.loads((work["root"] / "store.json.manifest.json").read_text())
        events = str(work["corpus"] / "events.jsonl")
        assert manifest["command"] == "ingest"
        assert manifest["inputs"][events] == file_sha(work["corpus"] / "events.jsonl")
        assert str(work["store"]) in manifest["outputs"]

    def test_missing_input_is_a_structured_error(self, tmp_path):
        rc, _, err = run_cli(
            ["ingest", "--input", str(tmp_path / "absent.jsonl"),
             "--out", str(tmp_path / "s.json")]
        )
        assert rc == 1
        assert stderr_error(err)["error"] == "FileNotFoundError"

    def test_rerun_is_byte_identical(self, work, tmp_path):
        again = tmp_path / "store2.json"
        rc, _, _ = run_cli(
            ["ingest", "--input", str(work["corpus"] / "events.jsonl"), "--out", str(again)]
        )
        assert rc == 0
        assert again.read_bytes() == work["store"].read_bytes()


class TestFeaturize:
    def test_meta_sidecar_describes_the_dataset(self, work):
        ds = load_dataset(work["balanced"])
        meta = json.loads((work["root"] / "balanced.bin.meta.json").read_text())
        assert meta["n"] == ds.n
        assert meta["d"] == ds.d
        assert meta["n_base_cols"] == 61
        assert meta["positives"] == int(ds.labels.sum())
        assert meta["feature_names"] == ds.feature_names
        assert meta["seed"] == 5

    def test_balance_seed_equalizes_classes(self, work):
        ds = load_dataset(work["balanced"])
        assert int(ds.labels.sum()) * 2 == ds.n
        summary = json.loads(work["feat_out"])
        assert summary["positives"] * 2 == summary["n"]

    def test_unbalanced_dataset_keeps_every_usable_session(self, work):
        plain = load_dataset(work["plain"])
        store = load_store(work["store"])
        usable = sum(1 for s in store.sessions.values() if s.usable)
        assert plain.n == usable
        assert np.isfinite(plain.rows).all()

    def test_rerun_is_byte_identical(self, work, tmp_path):
        again = tmp_path / "bal2.bin"
        rc, _, _ = run_cli(
            ["featurize", "--store", str(work["store"]), "--embeddings",
             str(work["corpus"] / "embeddings.tsv"), "--categories", "12",
             "--balance-seed", "5", "--out", str(again)]
        )
        assert rc == 0
        assert again.read_bytes() == work["balanced"].read_bytes()


@pytest.fixture(scope="module")
def reduced(work):
    path = work["root"] / "reduced.bin"
    rc, out, _ = run_cli(
        ["reduce", "--in", str(work["plain"]), "--rank", "4",
         "--seed", "3", "--out", str(path)]
    )
    assert rc == 0
    return path, json.loads(out)


class TestReduce:
    def test_reduced_dataset_swaps_aggregation_for_components(self, work, reduced):
        path, _ = reduced
        ds = load_dataset(path)
        assert ds.d == 61 + 4
        assert ds.feature_names[-4:] == ["nmf_0", "nmf_1", "nmf_2", "nmf_3"]
        assert load_dataset(work["plain"]).n == ds.n

    def test_factors_sidecar_traces_the_fit(self, work, reduced):
        path, summary = reduced
        factors = json.loads((work["root"] / "reduced.bin.factors.json").read_text())
        assert factors["rank"] == 4
        assert factors["n_iters"] == summary["n_iters"]
        trace = factors["error_trace"]
        assert len(trace) == factors["n_iters"] + 1
        assert all(b <= a + 1e-10 for a, b in zip(trace, trace[1:]))
        plain = load_dataset(work["plain"])
        H = np.asarray(factors["H"])
        assert H.shape == (4, plain.d - 61)

    def test_bad_rank_is_a_structured_error(self, work, tmp_path):
        rc, _, err = run_cli(
            ["reduce", "--in", str(work["plain"]), "--rank", "0",
             "--seed", "3", "--out", str(tmp_path / "r.bin")]
        )
        assert rc == 1
        doc = stderr_error(err)
        assert doc["error"] == "ValueError"
        assert "rank" in doc["detail"]


TRAIN_FLAGS = {
    "lr": ["--epochs", "20"],
    "rf": ["--trees", "5"],
    "sda": ["--layers", "12", "--epochs", "10", "--lr", "0.2"],
    "dbn": ["--layers", "12,8", "--epochs", "10", "--lr", "0.2"],
    "mlp": ["--layers", "12", "--epochs", "10", "--lr", "0.2"],
}


class TestTrain:
    def test_lr_model_file_round_trips(self, work, lr_model):
        doc = cli.load_model(str(lr_model))
        assert doc["format"] == "buyintent-model"
        assert doc["version"] == 1
        assert doc["kind"] == "lr"
        assert doc["seed"] == 1

    def test_rf_model_file_round_trips(self, work, tmp_path):
        path = tmp_path / "rf.model.json"
        rc, _, _ = run_cli(
            ["train", "--model", "rf", "--in", str(work["balanced"]),
             "--seed", "2", "--out", str(path), "--trees", "5"]
        )
        assert rc == 0
        doc = cli.load_model(str(path))
        assert doc["config"] == {"n_trees": 5, "mtry": None}
        forest = Forest.from_dict(doc["params"])
        assert len(forest.trees) == 5

    @pytest.mark.parametrize("kind", sorted(TRAIN_FLAGS))
    def test_saved_parameters_score_like_a_retrain(self, work, tmp_path, kind):
        path = tmp_path / f"{kind}.model.json"
        rc, _, _ = run_cli(
            ["train", "--model", kind, "--in", str(work["balanced"]),
             "--seed", "2", "--out", str(path), *TRAIN_FLAGS[kind]]
        )
        assert rc == 0
        doc = cli.load_model(str(path))
        ds = load_dataset(work["balanced"])
        saved = cli.scorer_from_model(doc)(ds.rows)
        retrained = cli.trainer_from_model(doc)(ds, doc["seed"])(ds.rows)
        assert saved.shape == (ds.n,)
        assert np.all((saved >= 0) & (saved <= 1))
        assert np.array_equal(saved, retrained)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kind", sorted(TRAIN_FLAGS))
    def test_zero_rows_is_a_structured_error(self, work, tmp_path, kind):
        empty = tmp_path / "empty.bin"
        save_dataset(load_dataset(work["balanced"]).take(np.arange(0)), empty)
        out = tmp_path / f"{kind}.model.json"
        rc, _, err = run_cli(
            ["train", "--model", kind, "--in", str(empty), "--seed", "2",
             "--out", str(out), *TRAIN_FLAGS[kind]]
        )
        assert rc == 1
        assert len(err.strip().splitlines()) == 1
        detail = stderr_error(err)["detail"]
        if kind == "rf":
            assert detail == "cannot grow a tree on an empty sample"
        else:
            assert detail == "cannot train on an empty dataset"
        assert not out.exists()

    def test_lr_negative_epochs_is_a_structured_error(self, work, tmp_path):
        out = tmp_path / "lr.model.json"
        rc, _, err = run_cli(
            ["train", "--model", "lr", "--in", str(work["balanced"]), "--seed", "2",
             "--out", str(out), "--epochs", "-4"]
        )
        assert rc == 1
        assert stderr_error(err)["detail"] == "epochs must be nonnegative"
        assert not out.exists()

    def test_sda_model_records_architecture(self, work, tmp_path):
        path = tmp_path / "sda.model.json"
        rc, _, _ = run_cli(
            ["train", "--model", "sda", "--in", str(work["balanced"]),
             "--seed", "2", "--out", str(path),
             "--layers", "16", "--epochs", "12", "--lr", "0.25"]
        )
        assert rc == 0
        doc = cli.load_model(str(path))
        hp = Hyperparams.from_dict(doc["config"])
        assert hp.hidden_units == (16,)
        assert hp.epochs == 12
        assert hp.initial_learning_rate == 0.25
        net = Network.from_dict(doc["params"])
        assert net.hidden_count == 1
        assert net.layers[0].W.shape[0] == 16

    @pytest.mark.parametrize("kind", ["mlp", "dbn"])
    def test_other_network_kinds_train(self, work, tmp_path, kind):
        path = tmp_path / f"{kind}.model.json"
        rc, out, _ = run_cli(
            ["train", "--model", kind, "--in", str(work["balanced"]),
             "--seed", "2", "--out", str(path),
             "--layers", "12", "--epochs", "10", "--lr", "0.2"]
        )
        assert rc == 0
        assert json.loads(out)["kind"] == kind
        assert cli.load_model(str(path))["kind"] == kind

    def test_rerun_is_byte_identical(self, work, lr_model, tmp_path):
        again = tmp_path / "lr2.model.json"
        rc, _, _ = run_cli(
            ["train", "--model", "lr", "--in", str(work["balanced"]),
             "--seed", "1", "--out", str(again)]
        )
        assert rc == 0
        assert again.read_bytes() == lr_model.read_bytes()

    def test_unknown_kind_is_a_usage_error(self, work, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            run_cli(["train", "--model", "svm", "--in", str(work["balanced"]),
                     "--seed", "1", "--out", str(tmp_path / "m.json")])
        assert excinfo.value.code == 2

    def test_load_model_rejects_other_json(self, work):
        manifest = str(work["corpus"] / "events.jsonl.manifest.json")
        with pytest.raises(ValueError, match="not a model file"):
            cli.load_model(manifest)

    def test_load_model_rejects_future_version(self, tmp_path):
        path = tmp_path / "future.json"
        path.write_text(json.dumps({"format": "buyintent-model", "version": 99}))
        with pytest.raises(ValueError, match="unsupported model version"):
            cli.load_model(str(path))

    def test_scorer_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown model kind"):
            cli.scorer_from_model({"kind": "zz"})
        with pytest.raises(ValueError, match="unknown model kind"):
            cli.trainer_from_model({"kind": "zz"})


def model_doc(kind, config):
    return {"format": "buyintent-model", "version": 1, "kind": kind,
            "seed": 1, "config": config, "params": {}}


NET_CONFIG = Hyperparams(hidden_units=(8,), epochs=5).to_dict()


@pytest.mark.parametrize(
    "doc, named",
    [
        ([model_doc("lr", {})], "not a model file"),
        (model_doc("sda", {**NET_CONFIG, "epochs": "x"}), "'epochs'"),
        (model_doc("lr", {"learning_rate": 0.1, "epochs": "x", "l2": 0.0}), "'epochs'"),
        (model_doc("rf", {"n_trees": "x", "mtry": None}), "'n_trees'"),
        (model_doc("lr", [0.1, 100, 0.0]), "config must be an object"),
        (model_doc("mlp", {**NET_CONFIG, "learning_rate": 0.1}), "'learning_rate'"),
        (model_doc("lr", {"learning_rate": 0.1, "epochs": -4, "l2": 0.0}),
         "epochs must be nonnegative"),
    ],
    ids=["json-list", "sda-epochs-str", "lr-epochs-str", "rf-n_trees-str",
         "lr-config-list", "mlp-unknown-key", "lr-epochs-negative"],
)
def test_malformed_model_file_is_a_structured_error(work, tmp_path, doc, named):
    path = tmp_path / "bad.model.json"
    path.write_text(json.dumps(doc))
    rc, _, err = run_cli(
        ["evaluate", "--model", str(path), "--in", str(work["balanced"]),
         "--protocol", "holdout", "--seed", "9", "--report", str(tmp_path / "r.json")]
    )
    assert rc == 1
    error = stderr_error(err)
    assert error["error"] == "ValueError"
    assert named in error["detail"]


class TestHyperparamFiles:
    def write_hp(self, tmp_path, text):
        path = tmp_path / "net.hp"
        path.write_text(text)
        return str(path)

    def test_file_values_reach_the_model(self, work, tmp_path):
        hp_file = self.write_hp(
            tmp_path,
            "# finetune settings\n"
            "hidden_units = 24,12\n"
            "epochs = 11   # passes over the training set\n"
            "momentum = 0.5\n"
            "\n"
            "initial_learning_rate = 0.2\n",
        )
        out = tmp_path / "mlp.model.json"
        rc, _, _ = run_cli(
            ["train", "--model", "mlp", "--in", str(work["balanced"]),
             "--seed", "3", "--out", str(out), "--hp", hp_file]
        )
        assert rc == 0
        hp = Hyperparams.from_dict(cli.load_model(str(out))["config"])
        assert hp.hidden_units == (24, 12)
        assert hp.epochs == 11
        assert hp.momentum == 0.5
        assert hp.initial_learning_rate == 0.2

    def test_flags_override_the_file(self, work, tmp_path):
        hp_file = self.write_hp(tmp_path, "hidden_units = 24,12\nepochs = 11\n")
        out = tmp_path / "mlp.model.json"
        rc, _, _ = run_cli(
            ["train", "--model", "mlp", "--in", str(work["balanced"]),
             "--seed", "3", "--out", str(out), "--hp", hp_file,
             "--layers", "16", "--epochs", "10"]
        )
        assert rc == 0
        hp = Hyperparams.from_dict(cli.load_model(str(out))["config"])
        assert hp.hidden_units == (16,)
        assert hp.epochs == 10

    def test_unknown_key_is_a_structured_error(self, work, tmp_path):
        hp_file = self.write_hp(tmp_path, "learning_rate = 0.1\n")
        rc, _, err = run_cli(
            ["train", "--model", "mlp", "--in", str(work["balanced"]),
             "--seed", "3", "--out", str(tmp_path / "m.json"), "--hp", hp_file]
        )
        assert rc == 1
        assert "unknown hyperparameter" in stderr_error(err)["detail"]

    def test_line_without_equals_is_a_structured_error(self, work, tmp_path):
        hp_file = self.write_hp(tmp_path, "epochs 11\n")
        rc, _, err = run_cli(
            ["train", "--model", "mlp", "--in", str(work["balanced"]),
             "--seed", "3", "--out", str(tmp_path / "m.json"), "--hp", hp_file]
        )
        assert rc == 1
        assert "key = value" in stderr_error(err)["detail"]

    def test_bad_layers_value_is_a_structured_error(self, work, tmp_path):
        rc, _, err = run_cli(
            ["train", "--model", "mlp", "--in", str(work["balanced"]),
             "--seed", "3", "--out", str(tmp_path / "m.json"), "--layers", "a,b"]
        )
        assert rc == 1
        assert "bad --layers" in stderr_error(err)["detail"]


class TestEvaluate:
    def test_cv_report(self, work, lr_model, tmp_path):
        report_path = tmp_path / "cv.report.json"
        rc, out, _ = run_cli(
            ["evaluate", "--model", str(lr_model), "--in", str(work["balanced"]),
             "--cv", "4", "--seed", "9", "--report", str(report_path)]
        )
        assert rc == 0
        report = json.loads(report_path.read_text())
        assert report == json.loads(out)
        assert report["protocol"] == "cv4"
        assert report["model"] == "lr"
        assert len(report["fold_aucs"]) == 4
        assert report["auc"] == pytest.approx(np.mean(report["fold_aucs"]))
        manifest = json.loads((tmp_path / "cv.report.json.manifest.json").read_text())
        assert str(lr_model) in manifest["inputs"]

    def test_holdout_report(self, work, lr_model, tmp_path):
        report_path = tmp_path / "holdout.report.json"
        rc, _, _ = run_cli(
            ["evaluate", "--model", str(lr_model), "--in", str(work["balanced"]),
             "--protocol", "holdout", "--seed", "9", "--report", str(report_path)]
        )
        assert rc == 0
        report = json.loads(report_path.read_text())
        assert report["protocol"] == "holdout25x4"
        assert len(report["fold_aucs"]) == 4
        assert len(report["extras"]["validation_aucs"]) == 4

    def test_rerun_is_byte_identical(self, work, lr_model, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            rc, _, _ = run_cli(
                ["evaluate", "--model", str(lr_model), "--in", str(work["balanced"]),
                 "--cv", "4", "--seed", "9", "--report", str(path)]
            )
            assert rc == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_seed_changes_the_folds(self, work, lr_model, tmp_path):
        reports = []
        for seed in ("9", "10"):
            path = tmp_path / f"s{seed}.json"
            rc, _, _ = run_cli(
                ["evaluate", "--model", str(lr_model), "--in", str(work["balanced"]),
                 "--cv", "4", "--seed", seed, "--report", str(path)]
            )
            assert rc == 0
            reports.append(json.loads(path.read_text()))
        assert reports[0]["fold_aucs"] != reports[1]["fold_aucs"]


class TestSearch:
    def test_small_budget_search(self, work, tmp_path):
        report_path = tmp_path / "search.json"
        rc, out, _ = run_cli(
            ["search", "--model", "sda", "--in", str(work["balanced"]),
             "--budget", "2", "--seed", "3", "--report", str(report_path)]
        )
        assert rc == 0
        doc = json.loads(report_path.read_text())
        assert doc == json.loads(out)
        assert len(doc["trials"]) == 2
        finished = [t for t in doc["trials"] if t["status"] == "ok"]
        assert finished
        best_val = max(t["validation_auc"] for t in finished)
        assert doc["best_report"]["extras"]["validation_aucs"]
        assert np.mean(doc["best_report"]["extras"]["validation_aucs"]) == pytest.approx(best_val)
        hp = Hyperparams.from_dict(doc["best_hyperparams"])
        assert hp.validate_ranges() is hp
        manifest = json.loads((tmp_path / "search.json.manifest.json").read_text())
        assert manifest["command"] == "search"

    def test_zero_budget_is_a_structured_error(self, work, tmp_path):
        rc, _, err = run_cli(
            ["search", "--model", "sda", "--in", str(work["balanced"]),
             "--budget", "0", "--seed", "3"]
        )
        assert rc == 1
        assert "budget" in stderr_error(err)["detail"]


class TestUsageAndErrors:
    def test_missing_required_flag_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            run_cli(["synth", "--users", "10"])
        assert excinfo.value.code == 2

    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            run_cli(["transmogrify"])
        assert excinfo.value.code == 2

    def test_wrong_file_type_is_a_structured_error(self, work, tmp_path):
        rc, _, err = run_cli(
            ["train", "--model", "lr", "--in", str(work["store"]),
             "--seed", "1", "--out", str(tmp_path / "m.json")]
        )
        assert rc == 1
        assert "not a dataset file" in stderr_error(err)["detail"]


class TestPipelineReproducibility:
    def test_chain_rerun_from_the_same_corpus_is_byte_identical(self, work, tmp_path):
        corpus = work["corpus"]
        outputs = {}
        for tag in ("one", "two"):
            base = tmp_path / tag
            base.mkdir()
            store = base / "store.json"
            ds = base / "ds.bin"
            reduced = base / "red.bin"
            model = base / "lr.model.json"
            report = base / "report.json"
            for argv in (
                ["ingest", "--input", str(corpus / "events.jsonl"), "--out", str(store)],
                ["featurize", "--store", str(store), "--embeddings",
                 str(corpus / "embeddings.tsv"), "--categories", "12",
                 "--balance-seed", "5", "--out", str(ds)],
                ["reduce", "--in", str(ds), "--rank", "4", "--seed", "3",
                 "--out", str(reduced)],
                ["train", "--model", "lr", "--in", str(reduced), "--seed", "1",
                 "--out", str(model)],
                ["evaluate", "--model", str(model), "--in", str(reduced),
                 "--cv", "4", "--seed", "9", "--report", str(report)],
            ):
                rc, _, _ = run_cli(argv)
                assert rc == 0
            outputs[tag] = [p.read_bytes() for p in (store, ds, reduced, model, report)]
        assert outputs["one"] == outputs["two"]
