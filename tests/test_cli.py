"""End-to-end tests for the command-line pipeline.

Each artifact command is exercised through cli.main with real files in
a temp directory, including the sidecar and manifest outputs, the
structured error path, and byte-identical reruns.
"""

import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import buyintent
from buyintent import baselines, cli, evaluation, neural, nmf
from buyintent.baselines import MAX_TREES
from buyintent.baselines import Forest
from buyintent.dataset import Dataset, dataset_header, load_dataset, save_dataset
from buyintent.evaluation import MAX_BUDGET
from buyintent.features import balanced_index, constant_columns
from buyintent.ingest import ParseIssue, load_store, parse_events
from buyintent.neural import Hyperparams, Network
from buyintent.nmf import MAX_ITERS
from buyintent.util import MAX_EPOCHS, check_epochs
from network_oracles import assert_in_search_space
from tree_oracles import depth, nested


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

    def test_report_sidecar_ends_in_one_newline(self, work):
        text = (work["root"] / "store.json.report.json").read_text()
        assert text.endswith("}\n")
        assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"

    def test_duplicate_event_is_counted_and_stderr_stays_empty(self, work, tmp_path):
        # a fresh interpreter, so nothing the test runner set up (such as
        # its log capture) stands between the command and its stderr
        lines = (work["corpus"] / "events.jsonl").read_text().splitlines(True)
        k = next(i for i, line in enumerate(lines) if '"event_type":"pageview"' in line)
        log = tmp_path / "events.jsonl"
        log.write_text("".join(lines[: k + 1] + lines[k:]))
        out = tmp_path / "s.json"
        src = str(Path(buyintent.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        ran = subprocess.run(
            [sys.executable, "-m", "buyintent.cli", "ingest", "--input", str(log), "--out", str(out)],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert ran.returncode == 0
        assert ran.stderr == ""
        assert json.loads(ran.stdout)["duplicates_dropped"] == 1
        assert load_store(out).duplicates_dropped == 1

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

    @pytest.mark.parametrize(
        "field, raw",
        [("timestamp", "1e400"), ("timestamp", "-Infinity"), ("timestamp", "NaN"),
         ("timestamp", str(10**20)), ("timestamp", "253402300800000"), ("price", "NaN"),
         ("price", "Infinity")],
    )
    def test_one_unrepresentable_value_is_one_parse_error(self, work, tmp_path, field, raw):
        lines = (work["corpus"] / "events.jsonl").read_text().splitlines(True)
        k = next(i for i, line in enumerate(lines) if f'"{field}":' in line)
        lines[k] = re.sub(rf'"{field}":[0-9.]+', f'"{field}":{raw}', lines[k])
        log = tmp_path / "events.jsonl"
        log.write_text("".join(lines))
        store = tmp_path / "store.json"
        rc, out, _ = run_cli(["ingest", "--input", str(log), "--out", str(store)])
        assert rc == 0
        assert json.loads(out)["parse_errors"] == 1
        json.loads(store.read_text(), parse_constant=lambda name: pytest.fail(f"{name} in store"))
        rc, _, _ = run_cli(
            ["featurize", "--store", str(store), "--embeddings",
             str(work["corpus"] / "embeddings.tsv"), "--categories", "12",
             "--out", str(tmp_path / "plain.bin")]
        )
        assert rc == 0

    @pytest.mark.parametrize("hours", ["inf", "0", "-5"])
    @pytest.mark.parametrize("empty", [True, False])
    def test_bad_horizon_is_a_structured_error(self, work, tmp_path, hours, empty):
        log = tmp_path / "empty.jsonl"
        log.write_bytes(b"")
        out = tmp_path / "s.json"
        rc, _, err = run_cli(
            ["ingest", "--input", str(log if empty else work["corpus"] / "events.jsonl"),
             "--horizon-hours", hours, "--out", str(out)]
        )
        assert rc == 1
        assert len(err.strip().splitlines()) == 1
        assert "--horizon-hours" in stderr_error(err)["detail"]
        assert not out.exists()

    def test_invalid_utf8_line_is_a_parse_error(self, work, tmp_path):
        lines = (work["corpus"] / "events.jsonl").read_bytes().splitlines(keepends=True)
        log = tmp_path / "events.jsonl"
        log.write_bytes(b"".join(lines[:5] + [b"\xff\n"] + lines[5:]))
        out = tmp_path / "s.json"
        rc, stdout, _ = run_cli(["ingest", "--input", str(log), "--out", str(out)])
        assert rc == 0
        assert json.loads(stdout)["parse_errors"] == 1
        assert out.read_bytes() == work["store"].read_bytes()

    def test_line_nested_past_the_recursion_limit_is_a_parse_error(self, work, tmp_path):
        log = tmp_path / "events.jsonl"
        log.write_bytes((work["corpus"] / "events.jsonl").read_bytes() + b"[" * 100_000 + b"\n")
        out = tmp_path / "s.json"
        rc, stdout, _ = run_cli(["ingest", "--input", str(log), "--out", str(out)])
        assert rc == 0
        assert json.loads(stdout)["parse_errors"] == 1
        assert out.read_bytes() == work["store"].read_bytes()

    @pytest.mark.parametrize("line", [b"[1, 2]", b'"pageview"', b"17", b"null"])
    def test_json_line_that_is_not_an_object_is_a_parse_error(self, work, tmp_path, line):
        lines = (work["corpus"] / "events.jsonl").read_bytes().splitlines(keepends=True)
        log = tmp_path / "events.jsonl"
        log.write_bytes(b"".join(lines[:5] + [line + b"\n"] + lines[5:]))
        with open(log, "rb") as fh:
            assert parse_events(fh).errors == [ParseIssue(6, "line is not a JSON object")]
        out = tmp_path / "s.json"
        rc, stdout, _ = run_cli(["ingest", "--input", str(log), "--out", str(out)])
        assert rc == 0
        assert json.loads(stdout)["parse_errors"] == 1
        assert out.read_bytes() == work["store"].read_bytes()


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

    def test_meta_sidecar_is_the_dataset_header_with_positives(self, work):
        ds = load_dataset(work["balanced"])
        meta = json.loads((work["root"] / "balanced.bin.meta.json").read_text())
        header = {k: v for k, v in dataset_header(ds).items() if k not in ("format", "version")}
        assert meta == {**header, "positives": int(ds.labels.sum())}

    def test_balance_seed_equalizes_classes(self, work):
        ds = load_dataset(work["balanced"])
        assert int(ds.labels.sum()) * 2 == ds.n
        summary = json.loads(work["feat_out"])
        assert summary["positives"] * 2 == summary["n"]

    def test_summary_counts_the_written_constant_columns(self, work):
        summary = json.loads(work["feat_out"])
        assert summary["constant_columns"] == len(constant_columns(load_dataset(work["balanced"])))

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

    def test_store_nested_past_the_recursion_limit_is_a_structured_error(self, work, tmp_path):
        # json.load recurses once per nesting level, well-formed or not
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 10_000 + "]" * 10_000)
        out = tmp_path / "deep.bin"
        rc, stdout, err = run_cli(
            ["featurize", "--store", str(deep), "--embeddings", str(work["corpus"] / "embeddings.tsv"),
             "--categories", "12", "--out", str(out)]
        )
        assert (rc, stdout) == (1, "")
        assert len(err.splitlines()) == 1
        error = stderr_error(err)
        assert error["error"] == "RecursionError"
        assert error["detail"].startswith(f"{deep}: maximum recursion depth exceeded")
        assert not out.exists()

    def test_blank_embeddings_line_is_skipped(self, work, tmp_path):
        lines = (work["corpus"] / "embeddings.tsv").read_bytes().splitlines(keepends=True)
        table = tmp_path / "embeddings.tsv"
        table.write_bytes(b"".join(lines[:2] + [b"\n"] + lines[2:] + [b"\n"]))
        out = tmp_path / "bal2.bin"
        rc, _, _ = run_cli(
            ["featurize", "--store", str(work["store"]), "--embeddings", str(table), "--categories", "12",
             "--balance-seed", "5", "--out", str(out)]
        )
        assert rc == 0
        assert out.read_bytes() == work["balanced"].read_bytes()

    @pytest.mark.parametrize("width", [1, 50, 52])
    def test_wrong_width_embeddings_line_names_its_line(self, work, tmp_path, width):
        lines = (work["corpus"] / "embeddings.tsv").read_bytes().splitlines(keepends=True)
        parts = lines[3].rstrip(b"\n").split(b"\t")
        lines[3] = b"\t".join((parts * 2)[:width]) + b"\n"
        table = tmp_path / "embeddings.tsv"
        table.write_bytes(b"".join(lines))
        out = tmp_path / "bad.bin"
        rc, stdout, err = run_cli(
            ["featurize", "--store", str(work["store"]), "--embeddings", str(table), "--categories", "12",
             "--out", str(out)]
        )
        assert (rc, stdout) == (1, "")
        assert len(err.splitlines()) == 1
        assert stderr_error(err) == {"error": "ValueError", "detail": f"{table}:4: expected 51 columns, got {width}"}
        assert not out.exists()

    @pytest.mark.parametrize("count", ["-3", "0"])
    def test_category_count_below_one_is_a_structured_error(self, work, tmp_path, count):
        out = tmp_path / "bad.bin"
        rc, _, err = run_cli(
            ["featurize", "--store", str(work["store"]), "--embeddings",
             str(work["corpus"] / "embeddings.tsv"), "--categories", count, "--out", str(out)]
        )
        assert rc == 1
        assert len(err.strip().splitlines()) == 1
        assert stderr_error(err)["detail"] == f"category count must be at least 1, got {count}"
        assert not out.exists()

    @pytest.mark.parametrize("scheme, last_column", [("weekly", "cat_c_9999w52"), ("semiweekly", "cat_c_9999w52_h2")])
    def test_events_in_the_final_week_of_9999_featurize(self, work, tmp_path, scheme, last_column):
        # Monday 9999-12-27 and the last representable millisecond,
        # Friday 9999-12-31T23:59:59.999Z
        last = 253_402_300_799_999
        stamps = [last - 4 * 86_400_000 - k * 60_000 for k in range(6)] + [last - k * 60_000 for k in range(6)]
        events = tmp_path / "events.jsonl"
        events.write_text("".join(
            json.dumps({"user_id": "u", "session_id": f"s{k // 6}", "timestamp": ts,
                        "event_type": "pageview", "item_id": f"i{k}", "category_id": "c"}) + "\n"
            for k, ts in enumerate(stamps)
        ))
        store, out = tmp_path / "store.json", tmp_path / "late.bin"
        assert run_cli(["ingest", "--input", str(events), "--out", str(store)])[0] == 0
        rc, _, err = run_cli(
            ["featurize", "--store", str(store), "--embeddings", str(work["corpus"] / "embeddings.tsv"),
             "--scheme", scheme, "--categories", "1", "--out", str(out)]
        )
        assert (rc, err) == (0, "")
        ds = load_dataset(out)
        assert ds.feature_names[61:][-1] == last_column
        assert ds.rows[:, 61:].sum() == 12

    def test_week_span_past_the_column_cap_is_a_structured_error(self, work, tmp_path):
        # one session from Monday 2015-03-02 and one from Monday
        # 9999-12-27: 416,629 ISO weeks times 4 categories
        starts = [1_425_254_400_000, 253_402_300_799_999 - 4 * 86_400_000 - 86_399_999]
        events = tmp_path / "events.jsonl"
        events.write_text("".join(
            json.dumps({"user_id": f"u{s}", "session_id": f"s{s}", "timestamp": start + k * 60_000,
                        "event_type": "pageview", "item_id": f"i{k}", "category_id": f"c{k % 4}"}) + "\n"
            for s, start in enumerate(starts) for k in range(12)
        ))
        store, out = tmp_path / "store.json", tmp_path / "span.bin"
        assert run_cli(["ingest", "--input", str(events), "--out", str(store)])[0] == 0
        rc, _, err = run_cli(
            ["featurize", "--store", str(store), "--embeddings", str(work["corpus"] / "embeddings.tsv"),
             "--out", str(out)]
        )
        assert rc == 1
        assert len(err.strip().splitlines()) == 1
        assert stderr_error(err) == {
            "error": "ValueError",
            "detail": "feature events from ISO week 2015-W10 to 9999-W52 over 4 categories need "
                      f"{416_629 * 4} aggregation columns, more than {2**20}",
        }
        assert not out.exists()


def _featurize_log(tmp_path, work, sessions, *flags):
    """Ingest a log of sessions, {session id: [(event type, price)]}, all
    of one user and each a minute per event after the last, and featurize
    it with flags: the store path and run_cli's result."""
    events, ts = tmp_path / "events.jsonl", 1_425_254_400_000
    with open(events, "w") as fh:
        for sid, evs in sessions.items():
            for k, (etype, price) in enumerate(evs):
                ts += 60_000
                rec = {"user_id": "u", "session_id": sid, "timestamp": ts, "event_type": etype,
                       "item_id": f"i{k}", "category_id": "c"}
                if price is not None:
                    rec["price"] = price
                fh.write(json.dumps(rec) + "\n")
    store = tmp_path / "store.json"
    # a 36 s prediction window keeps the pageview a minute before a buy
    assert run_cli(["ingest", "--input", str(events), "--min-clicks", "1", "--horizon-hours", "0.01",
                    "--out", str(store)])[0] == 0
    argv = ["featurize", "--store", str(store), "--embeddings", str(work["corpus"] / "embeddings.tsv"),
            "--categories", "1", "--out", str(tmp_path / "out.bin"), *flags]
    return store, run_cli(argv)


# one buy session and two non-buy ones, the last of whose basketview
# prices are finite but overflow their mean
OVERFLOW_LOG = {
    "b": [("pageview", None), ("buy", 5.0)],
    "n1": [("pageview", None), ("pageview", None)],
    "n2": [("basketview", 1.7e308), ("basketview", 1.7e308)],
}


def _seed_keeping(n2_kept: bool) -> int:
    # rows b, n1, n2 in session-id order; n2 is row 2
    return next(s for s in range(100) if (2 in balanced_index(np.array([1, 0, 0]), s)) == n2_kept)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("flags", [[], ["--balance-seed", str(_seed_keeping(True))]], ids=["all-rows", "kept"])
def test_overflowing_price_mean_names_the_store_and_session(work, tmp_path, flags):
    store, (rc, stdout, err) = _featurize_log(tmp_path, work, OVERFLOW_LOG, *flags)
    assert (rc, stdout) == (1, "")
    assert len(err.splitlines()) == 1
    assert stderr_error(err) == {
        "error": "ValueError",
        "detail": f"{store}: session 'n2': feature price is not finite "
                  "(a sum of its finite inputs overflows float64)",
    }
    assert not (tmp_path / "out.bin").exists()


@pytest.mark.filterwarnings("error")
def test_overflowing_row_that_balance_drops_is_not_built(work, tmp_path):
    seed = _seed_keeping(False)
    _, (rc, stdout, err) = _featurize_log(tmp_path, work, OVERFLOW_LOG, "--balance-seed", str(seed))
    assert (rc, err) == (0, "")
    ds = load_dataset(tmp_path / "out.bin")
    assert (ds.n, int(ds.labels.sum()), ds.seed) == (2, 1, seed)


def test_balancing_a_store_without_buys_names_the_store_and_counts(work, tmp_path):
    log = {"n1": [("pageview", None)], "n2": [("pageview", None), ("basketview", 3.0)]}
    store, (rc, _, err) = _featurize_log(tmp_path, work, log, "--balance-seed", "1")
    assert rc == 1
    assert stderr_error(err) == {
        "error": "ValueError",
        "detail": f"{store}: cannot balance a dataset with no positives (0 buy and 2 non-buy rows)",
    }


EVENT_COLUMNS = ("timestamp", "event_type", "item_id", "category_id", "price", "description")


def _session_events(doc) -> list[tuple[str, slice]]:
    """Each session's id and the slice of the event columns its events fill."""
    ends = itertools.accumulate(doc["n_events"])
    return [(sid, slice(end - n, end)) for sid, n, end in zip(doc["session_id"], doc["n_events"], ends)]


def _usable_sessions(doc) -> list[tuple[str, slice]]:
    """_session_events of the sessions with an event that is not a buy."""
    buy = doc["event_types"].index("buy")
    return [(sid, events) for sid, events in _session_events(doc) if any(c != buy for c in doc["event_type"][events])]


def _corrupt(doc, probe):
    """The store document doc with one malformation."""
    first = _session_events(doc)[0][1]
    basketview = doc["event_type"].index(doc["event_types"].index("basketview"))
    if probe == "extra-event-key":
        doc["extra"] = [1] * len(doc["timestamp"])
    elif probe == "missing-timestamp":
        del doc["timestamp"]
    elif probe == "sessions-not-a-list":
        doc["session_id"] = 5
    elif probe == "top-level-list":
        return [doc]
    elif probe == "usable-session-without-events":
        sid, events = _usable_sessions(doc)[0]
        for name in EVENT_COLUMNS:
            del doc[name][events]
        doc["n_events"][doc["session_id"].index(sid)] = 0
    elif probe == "string-timestamp":
        doc["timestamp"][0] = str(doc["timestamp"][0])
    elif probe == "repeated-session":
        doc["session_id"][1] = doc["session_id"][0]
    elif probe == "reversed-events":
        for name in EVENT_COLUMNS:
            doc[name][first] = doc[name][first][::-1]
    elif probe == "negative-price":
        doc["price"][basketview] = -5.0
    elif probe == "nan-price":
        doc["price"][basketview] = math.nan
    return doc


@pytest.mark.parametrize(
    "probe",
    ["extra-event-key", "missing-timestamp", "sessions-not-a-list", "top-level-list",
     "usable-session-without-events", "string-timestamp", "repeated-session", "reversed-events",
     "negative-price", "nan-price"],
)
def test_malformed_store_is_a_structured_error(work, tmp_path, probe):
    bad = tmp_path / "bad.store.json"
    doc = json.loads(work["store"].read_text())
    sessions = _session_events(doc)
    usable_sid = _usable_sessions(doc)[0][0]
    bad.write_text(json.dumps(_corrupt(doc, probe)))
    out = tmp_path / "bad.bin"
    rc, _, err = run_cli(
        ["featurize", "--store", str(bad), "--embeddings", str(work["corpus"] / "embeddings.tsv"),
         "--categories", "12", "--out", str(out)]
    )
    assert rc == 1
    assert len(err.strip().splitlines()) == 1
    error = stderr_error(err)
    assert error["error"] == "ValueError"
    assert error["detail"].startswith(f"{bad}: ")
    if probe == "reversed-events":
        assert f"session {sessions[0][0]!r} has events out of time order" in error["detail"]
    if probe == "usable-session-without-events":
        assert error["detail"] == f"{bad}: malformed session store: session {usable_sid!r} has no events"
    if probe == "repeated-session":
        assert error["detail"] == f"{bad}: malformed session store: session {sessions[0][0]!r} appears twice"
    if probe in ("negative-price", "nan-price"):
        assert error["detail"] == f"{bad}: malformed session store: event prices must be finite and at least 0"
    assert not out.exists()


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

    @pytest.mark.parametrize("sweeps", ["0", "-5"])
    def test_no_nmf_sweeps_is_a_structured_error(self, work, tmp_path, sweeps):
        out = tmp_path / "r.bin"
        rc, _, err = run_cli(
            ["reduce", "--in", str(work["plain"]), "--rank", "4", "--max-iters", sweeps,
             "--seed", "3", "--out", str(out)]
        )
        assert rc == 1
        assert len(err.strip().splitlines()) == 1
        assert stderr_error(err) == {"error": "ValueError", "detail": f"max_iters must be at least 1, got {sweeps}"}
        assert not out.exists()

    @pytest.mark.parametrize("sweeps", [str(MAX_ITERS + 1), str(10**12)])
    def test_sweeps_past_the_ceiling_are_refused_before_any_sweep(self, work, tmp_path, monkeypatch, sweeps):
        monkeypatch.setattr(nmf, "_init_factors", _no_training)
        out = tmp_path / "r.bin"
        rc, _, err = run_cli(
            ["reduce", "--in", str(work["plain"]), "--rank", "4", "--max-iters", sweeps, "--tol=-inf",
             "--seed", "3", "--out", str(out)]
        )
        assert rc == 1
        assert len(err.strip().splitlines()) == 1
        assert stderr_error(err) == {"error": "ValueError", "detail": f"max_iters must be at most {MAX_ITERS}, got {sweeps}"}
        assert not out.exists()

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
        assert doc["version"] == cli.MODEL_VERSION
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

    def test_rf_model_without_trees_does_not_load(self, work, tmp_path):
        path = tmp_path / "rf.model.json"
        rc, _, _ = run_cli(
            ["train", "--model", "rf", "--in", str(work["balanced"]),
             "--seed", "2", "--out", str(path), "--trees", "2"]
        )
        assert rc == 0
        doc = cli.load_model(str(path))
        doc["params"]["trees"] = []
        with pytest.raises(ValueError, match="forest has no trees"):
            cli.MODEL_KINDS["rf"].load(doc["params"])
        with pytest.raises(ValueError, match="forest has no trees"):
            cli.scorer_from_model(doc)

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

    @pytest.mark.parametrize("kind", ["sda", "dbn", "mlp"])
    def test_saved_network_refuses_rows_of_another_width(self, work, tmp_path, kind):
        # network_predict scales the rows before it checks their width
        path = tmp_path / f"{kind}.model.json"
        rc, _, _ = run_cli(
            ["train", "--model", kind, "--in", str(work["balanced"]),
             "--seed", "2", "--out", str(path), *TRAIN_FLAGS[kind]]
        )
        assert rc == 0
        score = cli.scorer_from_model(cli.load_model(str(path)))
        rows = load_dataset(work["balanced"]).rows
        for narrow in (rows[:, :-1], rows[0, 1:]):
            with pytest.raises(ValueError, match="^column count does not match fitted statistics$"):
                score(narrow)

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

    def test_tree_deeper_than_the_recursion_limit_saves_and_scores_like_a_retrain(self, tmp_path):
        # One feature, alternating labels, and runs that shrink from
        # 2*sqrt(1000) rows to 2: bootstrap keeps the peel-one-run-per-split
        # shape, so the tree is 994 levels deep: too deep for a nested JSON
        # document from a shallow stack. The saved node lists and the walks
        # over them are flat, so such a tree saves, loads and scores.
        runs = np.ceil(2 * np.sqrt(np.arange(1000, 0, -1))).astype(int)
        ds = Dataset(
            rows=np.repeat(np.arange(1000.0), runs)[:, None],
            labels=np.repeat(np.arange(1000) % 2, runs),
            feature_names=["x"],
            n_base_cols=1,
        )
        data = tmp_path / "deep.bin"
        save_dataset(ds, data)
        out = tmp_path / "rf.model.json"
        rc, _, err = run_cli(
            ["train", "--model", "rf", "--trees", "1", "--in", str(data),
             "--seed", "0", "--out", str(out)]
        )
        assert rc == 0, err
        doc = cli.load_model(str(out))
        tree = Forest.from_dict(doc["params"]).trees[0]
        assert depth(tree) == 994
        with pytest.raises(RecursionError):
            json.dumps(nested(tree))
        saved = cli.scorer_from_model(doc)(ds.rows)
        retrained = cli.trainer_from_model(doc)(ds, doc["seed"])(ds.rows)
        assert saved.tobytes() == retrained.tobytes()

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
        assert len(net.layers) == 2
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

    def test_first_format_model_is_a_structured_error(self, work, tmp_path):
        path = tmp_path / "v1.model.json"
        doc = model_doc("rf", {"n_trees": 1, "mtry": None})
        doc.update(version=1, params={"trees": [{"n_pos": 1, "n_total": 2}]})
        path.write_text(json.dumps(doc))
        rc, _, err = run_cli(
            ["evaluate", "--model", str(path), "--in", str(work["balanced"]),
             "--seed", "1", "--report", str(tmp_path / "r.json")]
        )
        assert rc == 1
        assert stderr_error(err) == {"error": "ValueError", "detail": f"{path}: unsupported model version 1"}

    def test_json_nested_past_the_recursion_limit_is_a_structured_error(self, work, tmp_path):
        # json.load itself recurses once per nesting level.
        path = tmp_path / "nested.model.json"
        path.write_text("[" * 100_000)
        report = tmp_path / "r.json"
        rc, _, err = run_cli(
            ["evaluate", "--model", str(path), "--in", str(work["balanced"]),
             "--seed", "1", "--report", str(report)]
        )
        assert rc == 1
        assert len(err.strip().splitlines()) == 1
        assert stderr_error(err)["error"] == "RecursionError"
        assert not report.exists()

    def test_scorer_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown model kind"):
            cli.scorer_from_model({"kind": "zz"})
        with pytest.raises(ValueError, match="unknown model kind"):
            cli.trainer_from_model({"kind": "zz"})


def model_doc(kind, config):
    return {"format": "buyintent-model", "version": cli.MODEL_VERSION, "kind": kind,
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

    @pytest.mark.parametrize("source", ["flag", "file", "empty-flag"])
    def test_empty_layer_list_is_a_structured_error(self, work, tmp_path, source):
        if source == "flag":
            flags, detail = ["--layers", ","], "bad --layers value ',': expected at least one layer size"
        elif source == "empty-flag":  # a value given, not the flag left out
            flags, detail = ["--layers", ""], "bad --layers value '': expected at least one layer size"
        else:
            hp_file = self.write_hp(tmp_path, "hidden_units = ,\n")
            flags, detail = ["--hp", hp_file], f"{hp_file}:1: hidden_units: expected at least one layer size"
        out = tmp_path / "m.json"
        rc, stdout, err = run_cli(
            ["train", "--model", "mlp", "--in", str(work["balanced"]),
             "--seed", "3", "--out", str(out), *flags]
        )
        assert (rc, stdout) == (1, "")
        assert len(err.splitlines()) == 1
        assert stderr_error(err) == {"error": "ValueError", "detail": detail}
        assert not out.exists()

    def test_empty_hp_path_is_a_structured_error(self, work, tmp_path, monkeypatch):
        # a value given, not the flag left out
        monkeypatch.setitem(cli.MODEL_KINDS, "mlp", cli.MODEL_KINDS["mlp"]._replace(fit=_no_training))
        out = tmp_path / "m.json"
        rc, stdout, err = run_cli(
            ["train", "--model", "mlp", "--in", str(work["balanced"]), "--seed", "3", "--out", str(out), "--hp", ""]
        )
        assert (rc, stdout) == (1, "")
        assert len(err.splitlines()) == 1
        assert stderr_error(err) == {"error": "FileNotFoundError", "detail": "[Errno 2] No such file or directory: ''"}
        assert not out.exists()

    @pytest.mark.parametrize(
        "model, line, detail",
        [
            ("dbn", "activation = relu", "activation 'relu' does not apply to dbn models, which use 'sigmoid'"),
            ("dbn", "input_noise_level = 0.1", "input_noise_level 0.1 does not apply to dbn models, which use 0.0"),
            ("mlp", "input_noise_level = 0.1", "input_noise_level 0.1 does not apply to mlp models, which use 0.0"),
        ],
    )
    def test_value_the_trainer_ignores_is_refused_before_training(self, work, tmp_path, monkeypatch, model, line,
                                                                   detail):
        monkeypatch.setitem(cli.MODEL_KINDS, model, cli.MODEL_KINDS[model]._replace(fit=_no_training))
        out = tmp_path / "m.json"
        rc, stdout, err = run_cli(
            ["train", "--model", model, "--in", str(work["balanced"]), "--seed", "3", "--out", str(out),
             "--layers", "4", "--hp", self.write_hp(tmp_path, line + "\n")]
        )
        assert (rc, stdout) == (1, "")
        assert len(err.splitlines()) == 1
        assert stderr_error(err) == {"error": "ValueError", "detail": detail}
        assert not out.exists()

    def test_model_file_with_a_value_its_trainer_ignores_is_refused(self, work, tmp_path, monkeypatch):
        for name in ("cross_validate", "holdout_evaluate"):
            monkeypatch.setattr(cli, name, _no_training)
        model = tmp_path / "dbn.model.json"
        model.write_text(cli._model_payload("dbn", 1, Hyperparams((4,), activation="relu").to_dict(), {}) + "\n")
        report = tmp_path / "r.json"
        rc, stdout, err = run_cli(["evaluate", "--model", str(model), "--in", str(work["balanced"]), "--seed", "1",
                                   "--report", str(report)])
        assert (rc, stdout) == (1, "")
        assert len(err.splitlines()) == 1
        assert stderr_error(err) == {
            "error": "ValueError",
            "detail": f"{model}: activation 'relu' does not apply to dbn models, which use 'sigmoid'",
        }
        assert not report.exists()

    @pytest.mark.parametrize("model, field, value", [("sda", "input_noise_level", 0.1), ("mlp", "activation", "relu"),
                                                     ("dbn", "activation", "sigmoid")])
    def test_value_the_trainer_reads_passes_its_check(self, model, field, value):
        cli.MODEL_KINDS[model].check(Hyperparams((4,), **{field: value}).to_dict())

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

    def test_cv_defaults_to_ten_folds(self, work, lr_model, tmp_path):
        report_path = tmp_path / "cv.report.json"
        rc, _, _ = run_cli(
            ["evaluate", "--model", str(lr_model), "--in", str(work["plain"]),
             "--seed", "9", "--report", str(report_path)]
        )
        assert rc == 0
        report = json.loads(report_path.read_text())
        assert report["protocol"] == "cv10"
        assert len(report["fold_aucs"]) == 10

    def test_cv_under_the_holdout_protocol_is_refused(self, work, lr_model, tmp_path, monkeypatch):
        monkeypatch.setattr(baselines, "Standardizer", _no_training)
        report_path = tmp_path / "holdout.report.json"
        rc, stdout, err = run_cli(
            ["evaluate", "--model", str(lr_model), "--in", str(work["balanced"]),
             "--protocol", "holdout", "--cv", "3", "--seed", "9", "--report", str(report_path)]
        )
        assert (rc, stdout) == (1, "")
        assert len(err.splitlines()) == 1
        assert stderr_error(err) == {"error": "ValueError", "detail": "--cv does not apply to --protocol holdout"}
        assert not report_path.exists()

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

    def test_single_class_fold_is_refused_before_training(self, work, lr_model, tmp_path, monkeypatch):
        # with one row per fold, fold 0's validation set holds one class
        n = load_dataset(work["balanced"]).n
        monkeypatch.setattr(baselines, "Standardizer", _no_training)
        report = tmp_path / "cv.report.json"
        rc, stdout, err = run_cli(
            ["evaluate", "--model", str(lr_model), "--in", str(work["balanced"]),
             "--cv", str(n), "--seed", "9", "--report", str(report)]
        )
        assert (rc, stdout) == (1, "")
        assert len(err.splitlines()) == 1
        error = stderr_error(err)
        assert error["error"] == "ValueError"
        assert re.fullmatch(
            rf"{re.escape(str(work['balanced']))}: cv{n} fold 0: the validation set holds "
            r"(1 buy and 0|0 buy and 1) non-buy rows; its AUC needs both classes",
            error["detail"],
        )
        assert not report.exists()


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
        assert_in_search_space(Hyperparams.from_dict(doc["best_hyperparams"]))
        manifest = json.loads((tmp_path / "search.json.manifest.json").read_text())
        assert manifest["command"] == "search"

    def test_zero_budget_is_a_structured_error(self, work, tmp_path):
        rc, _, err = run_cli(
            ["search", "--model", "sda", "--in", str(work["balanced"]),
             "--budget", "0", "--seed", "3"]
        )
        assert rc == 1
        assert "budget" in stderr_error(err)["detail"]

    def test_budget_past_its_ceiling_is_refused_before_any_trial(self, work, tmp_path, monkeypatch):
        monkeypatch.setattr(evaluation, "holdout_evaluate", None)  # every trial calls it
        report = tmp_path / "search.json"
        started = time.perf_counter()
        rc, out, err = run_cli(
            ["search", "--model", "sda", "--in", str(work["balanced"]),
             "--budget", "1000000000", "--seed", "3", "--report", str(report)]
        )
        assert time.perf_counter() - started < 1.0
        assert rc == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert stderr_error(err) == {"error": "ValueError", "detail": f"budget must be at most {MAX_BUDGET}, got 1000000000"}
        assert not report.exists()

    def test_single_class_set_is_refused_before_any_trial_trains(self, work, tmp_path, monkeypatch):
        # 8 rows with one buy: fold 0 of every holdout plan scores a set
        # of non-buys only, its validation fold or else its test rows
        ds = load_dataset(work["balanced"])
        rows = np.concatenate([np.flatnonzero(ds.labels == 1)[:1], np.flatnonzero(ds.labels == 0)[:7]])
        small = tmp_path / "small.bin"
        save_dataset(ds.take(rows), small)
        monkeypatch.setattr(neural, "RangeScaler", _no_training)
        report = tmp_path / "search.json"
        rc, stdout, err = run_cli(
            ["search", "--model", "sda", "--in", str(small), "--budget", "3", "--seed", "3", "--report", str(report)]
        )
        assert (rc, stdout) == (1, "")
        assert len(err.splitlines()) == 1
        error = stderr_error(err)
        assert error["error"] == "ValueError"
        assert re.fullmatch(
            rf"{re.escape(str(small))}: holdout25x4 fold 0: the (validation|test) set holds 0 buy and [12] "
            r"non-buy rows; its AUC needs both classes",
            error["detail"],
        )
        assert not report.exists()


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


def _dataset_probe(good: bytes, probe: str) -> bytes:
    """A copy of a saved dataset's bytes, broken one way."""
    magic, start = b"BYDS1\n", 14
    end = start + int.from_bytes(good[6:start], "little")
    header, body = json.loads(good[start:end]), good[end:]
    if probe == "magic-and-3-bytes":
        return magic + b"abc"
    if probe == "truncated-rows":
        return good[:-100]
    if probe == "header-list":
        header = [header]
    elif probe == "n-string":
        header["n"] = str(header["n"])
    elif probe == "feature_names-int":
        header["feature_names"] = 5
    elif probe == "no-d":
        del header["d"]
    payload = json.dumps(header).encode()
    return magic + len(payload).to_bytes(8, "little") + payload + body


def _model_probe(good: str, probe: str) -> str:
    doc = json.loads(good)
    if probe == "not-json":
        return good[:-10]
    if probe == "version-3":
        doc["version"] = 3
    elif probe == "config-mistyped":
        doc["config"]["epochs"] = "20"
    elif probe == "epochs-2**70":
        doc["config"]["epochs"] = 2**70
    elif probe == "rf-n_trees-2**70":
        doc = model_doc("rf", {"n_trees": 2**70, "mtry": None})
    elif probe == "sda-momentum-5":
        doc = model_doc("sda", {**NET_CONFIG, "momentum": 5.0})
    elif probe == "sda-epochs-2**70":
        doc = model_doc("sda", {**NET_CONFIG, "epochs": 2**70})
    return json.dumps(doc)


def _text_probe(good: bytes, probe: str) -> bytes:
    """A copy of a text file's bytes with its third line broken."""
    lines = good.splitlines()
    if probe == "not-utf8":
        lines[2] = b"caf\xe9" + lines[2]
    else:
        parts = lines[2].split(b"\t")
        parts[7] = {"non-float": b"abc", "nan": b"nan", "inf": b"-inf"}[probe]
        lines[2] = b"\t".join(parts)
    return b"\n".join(lines) + b"\n"


DATASET_PROBES = ["magic-and-3-bytes", "truncated-rows", "header-list", "n-string", "feature_names-int", "no-d"]
HP_PROBES = {"epochs-float": b"epochs = 1.5\n", "momentum-word": b"momentum = abc\n",
             "hidden_units-words": b"hidden_units = 8,x\n", "not-utf8": b"# caf\xe9\nepochs = 5\n"}
MODEL_PROBES = ["not-json", "version-3", "config-mistyped", "epochs-2**70", "rf-n_trees-2**70", "sda-momentum-5",
                "sda-epochs-2**70"]
STORE_PROBES = {"not-json": b'{"format": "buyintent-store"', "not-utf8": b'{"format": "caf\xe9"}'}
EMBEDDINGS_PROBES = ["non-float", "not-utf8", "nan", "inf"]


def _bad_input_cases():
    for probe in DATASET_PROBES:
        for command in ("reduce", "train", "evaluate", "search"):
            yield pytest.param(command, "dataset", probe, id=f"{command}-dataset-{probe}")
    for probe in HP_PROBES:
        yield pytest.param("train", "hp", probe, id=f"train-hp-{probe}")
    for probe in MODEL_PROBES:
        yield pytest.param("evaluate", "model", probe, id=f"evaluate-model-{probe}")
    for probe in EMBEDDINGS_PROBES:
        yield pytest.param("featurize", "embeddings", probe, id=f"featurize-embeddings-{probe}")
    for probe in STORE_PROBES:
        yield pytest.param("featurize", "store", probe, id=f"featurize-store-{probe}")


def _no_training(*args, **kwargs):
    raise AssertionError("training started")


@pytest.mark.parametrize("command, kind, probe", _bad_input_cases())
def test_malformed_input_file_is_one_error_line_naming_it(work, lr_model, tmp_path, monkeypatch, command, kind, probe):
    for name in ("cross_validate", "holdout_evaluate"):
        monkeypatch.setattr(cli, name, _no_training)
    bad = tmp_path / f"bad.{kind}"
    dataset, model, hp = str(work["balanced"]), str(lr_model), None
    store, embeddings = str(work["store"]), str(work["corpus"] / "embeddings.tsv")
    if kind == "dataset":
        bad.write_bytes(_dataset_probe(work["balanced"].read_bytes(), probe))
        dataset = str(bad)
    elif kind == "hp":
        bad.write_bytes(HP_PROBES[probe])
        hp = str(bad)
    elif kind == "model":
        bad.write_text(_model_probe(lr_model.read_text(), probe))
        model = str(bad)
    elif kind == "store":
        bad.write_bytes(STORE_PROBES[probe])
        store = str(bad)
    else:
        bad.write_bytes(_text_probe((work["corpus"] / "embeddings.tsv").read_bytes(), probe))
        embeddings = str(bad)
    out = tmp_path / "out"
    argv = {
        "featurize": ["--store", store, "--embeddings", embeddings, "--categories", "12", "--out", str(out)],
        "reduce": ["--in", dataset, "--rank", "2", "--seed", "1", "--out", str(out)],
        "train": ["--model", "sda" if hp else "lr", "--in", dataset, "--seed", "1", "--out", str(out)]
        + (["--hp", hp] if hp else []),
        "evaluate": ["--model", model, "--in", dataset, "--seed", "1", "--report", str(out)],
        "search": ["--model", "sda", "--in", dataset, "--budget", "1", "--seed", "1", "--report", str(out)],
    }[command]
    rc, stdout, err = run_cli([command, *argv])
    assert rc == 1
    assert stdout == ""
    assert len(err.splitlines()) == 1
    error = stderr_error(err)
    assert error["error"] == "ValueError"
    assert str(bad) in error["detail"]
    if kind in ("hp", "embeddings"):  # the line formats name the line
        assert error["detail"].startswith(f"{bad}:{1 if kind == 'hp' else 3}: ")
    assert not out.exists()


@pytest.mark.parametrize(
    "model, flags, named",
    [
        ("lr", ["--epochs", str(2**70)], f"epochs must be at most {MAX_EPOCHS}"),
        ("rf", ["--trees", str(2**70)], f"n_trees must be at most {MAX_TREES}"),
        ("mlp", ["--epochs", str(2**70), "--layers", "4"], f"epochs must be at most {MAX_EPOCHS}"),
        ("sda", ["--epochs", str(MAX_EPOCHS + 1), "--layers", "4"], f"epochs must be at most {MAX_EPOCHS}"),
        ("rf", ["--trees", str(MAX_TREES + 1)], f"n_trees must be at most {MAX_TREES}"),
    ],
    ids=["lr-epochs", "rf-trees", "mlp-epochs", "sda-epochs-just-past", "rf-trees-just-past"],
)
def test_count_past_its_ceiling_is_refused_before_training(work, tmp_path, monkeypatch, model, flags, named):
    # each trainer's first step after its argument checks
    monkeypatch.setattr(baselines, "Standardizer", None)
    monkeypatch.setattr(baselines, "substream_seed", None)
    monkeypatch.setattr(neural, "RangeScaler", None)
    out = tmp_path / "out"
    rc, _, err = run_cli(["train", "--model", model, "--in", str(work["balanced"]), "--seed", "1",
                          "--out", str(out), *flags])
    assert rc == 1
    assert stderr_error(err) == {"error": "ValueError", "detail": f"{named}, got {flags[1]}"}
    assert not out.exists()


@pytest.mark.parametrize(
    "model, flags",
    [
        ("lr", ["--layers", "5"]),
        ("lr", ["--hp", "nonexistent.hp"]),
        ("lr", ["--mtry", "2"]),
        ("rf", ["--layers", "5", "--hp", "nonexistent.hp"]),
        ("rf", ["--hp", "nonexistent.hp"]),
        ("rf", ["--lr", "0.1"]),
        ("rf", ["--epochs", "3"]),
        ("sda", ["--mtry", "2"]),
        ("dbn", ["--mtry", "2"]),
        ("mlp", ["--mtry", "2", "--layers", "4"]),
    ],
)
def test_flag_the_kind_does_not_read_is_refused_before_training(work, tmp_path, monkeypatch, model, flags):
    # each trainer's first step after its argument checks
    monkeypatch.setattr(baselines, "Standardizer", None)
    monkeypatch.setattr(baselines, "substream_seed", None)
    monkeypatch.setattr(neural, "RangeScaler", None)
    out = tmp_path / "out"
    rc, stdout, err = run_cli(["train", "--model", model, "--in", str(work["balanced"]), "--seed", "1",
                               "--out", str(out), *flags])
    assert (rc, stdout) == (1, "")
    assert len(err.splitlines()) == 1
    assert stderr_error(err) == {"error": "ValueError", "detail": f"{flags[0]} does not apply to --model {model}"}
    assert not out.exists()


@pytest.mark.parametrize(
    "model, flags, config",
    [
        ("lr", ["--lr", "0.2", "--epochs", "3"], {"learning_rate": 0.2, "epochs": 3}),
        ("rf", ["--mtry", "2", "--trees", "2"], {"mtry": 2, "n_trees": 2}),
    ],
)
def test_flags_the_kind_reads_reach_its_config(work, tmp_path, model, flags, config):
    out = tmp_path / "out"
    rc, _, _ = run_cli(["train", "--model", model, "--in", str(work["balanced"]), "--seed", "1",
                        "--out", str(out), *flags])
    assert rc == 0
    saved = cli.load_model(str(out))["config"]
    assert {k: saved[k] for k in config} == config


def test_ceilings_admit_their_own_value():
    check_epochs(MAX_EPOCHS)
    baselines.check_n_trees(MAX_TREES)
    assert Hyperparams(epochs=MAX_EPOCHS).epochs == MAX_EPOCHS


def _strict_json(text: str):
    def reject(constant):
        raise ValueError(f"not JSON: {constant}")

    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("command", ["synth", "ingest", "featurize", "reduce", "train", "evaluate", "search"])
def test_stdout_is_one_json_line(work, lr_model, tmp_path, command):
    out = str(tmp_path / "out")
    dataset, corpus = str(work["balanced"]), work["corpus"]
    argv = {
        "synth": [*SYNTH_FLAGS, "--out", out],
        "ingest": ["--input", str(corpus / "events.jsonl"), "--out", out],
        "featurize": ["--store", str(work["store"]), "--embeddings", str(corpus / "embeddings.tsv"),
                      "--categories", "12", "--out", out],
        "reduce": ["--in", dataset, "--rank", "2", "--seed", "1", "--out", out],
        "train": ["--model", "lr", "--in", dataset, "--seed", "1", "--out", out],
        "evaluate": ["--model", str(lr_model), "--in", dataset, "--protocol", "holdout", "--seed", "1",
                     "--report", out],
        "search": ["--model", "sda", "--in", dataset, "--budget", "1", "--seed", "1"],
    }[command]
    rc, stdout, _ = run_cli([command, *argv])
    assert rc == 0
    assert stdout.endswith("\n") and stdout.count("\n") == 1
    assert isinstance(_strict_json(stdout), dict)


@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_network_past_the_size_ceiling_is_refused_before_training(work, tmp_path, monkeypatch, command):
    monkeypatch.setattr(neural, "RangeScaler", None)  # training would call it first
    out = tmp_path / "out"
    if command == "train":
        argv = ["train", "--model", "mlp", "--in", str(work["balanced"]), "--seed", "1", "--out", str(out),
                "--layers", "1000000000000", "--epochs", "1"]
    else:
        model = tmp_path / "huge.model"
        model.write_text(json.dumps(model_doc("mlp", {**NET_CONFIG, "hidden_units": [10**12]})))
        argv = ["evaluate", "--model", str(model), "--in", str(work["balanced"]), "--protocol", "holdout",
                "--seed", "1", "--report", str(out)]
    rc, _, err = run_cli(argv)
    assert rc == 1
    assert len(err.splitlines()) == 1
    error = stderr_error(err)
    assert error["error"] == "ValueError"
    assert "hidden_units [1000000000000]" in error["detail"]
    assert not out.exists()


MANIFEST_KEYS = {"command", "flags", "inputs", "outputs", "seed", "version", "wall_seconds"}


class TestRunner:
    def test_search_without_report_writes_no_manifest(self, work, tmp_path):
        dataset = tmp_path / "in.bin"
        dataset.write_bytes(work["balanced"].read_bytes())
        rc, out, _ = run_cli(["search", "--model", "sda", "--in", str(dataset), "--budget", "1", "--seed", "3"])
        assert rc == 0
        assert len(json.loads(out)["trials"]) == 1
        assert [p.name for p in tmp_path.iterdir()] == ["in.bin"]

    def test_every_manifest_sits_beside_the_first_output_with_its_keys(self, work, reduced, lr_model, tmp_path):
        report = tmp_path / "lr.report.json"
        search = tmp_path / "search.json"
        for argv in (
            ["evaluate", "--model", str(lr_model), "--in", str(work["balanced"]), "--protocol", "holdout",
             "--seed", "1", "--report", str(report)],
            ["search", "--model", "sda", "--in", str(work["balanced"]), "--budget", "1", "--seed", "3",
             "--report", str(search)],
        ):
            assert run_cli(argv)[0] == 0
        first_outputs = {
            "synth": work["corpus"] / "events.jsonl",
            "ingest": work["store"],
            "featurize": work["balanced"],
            "reduce": reduced[0],
            "train": lr_model,
            "evaluate": report,
            "search": search,
        }
        for command, first in first_outputs.items():
            manifest = json.loads(first.with_name(first.name + ".manifest.json").read_text())
            assert set(manifest) == MANIFEST_KEYS
            assert manifest["command"] == command
            assert str(first) in manifest["outputs"]
            for path, digest in {**manifest["inputs"], **manifest["outputs"]}.items():
                assert digest == hashlib.sha256(open(path, "rb").read()).hexdigest()


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


# sha256 of ingest -> featurize outputs on two small corpora, under each
# scheme with and without balancing, computed at a4c6325 (before the
# one-pass featurizer), the stores again for store version 2, which holds
# each id and label once, and again for store version 3, laid out by
# column with each string once; a change to the store writer, the
# features or the dataset writer that moves a byte fails here.
GOLDEN_CORPORA = {
    "linear-2w": SYNTH_FLAGS,
    "nonlinear-3w": ["--users", "200", "--categories", "40", "--buy-rate", "0.1", "--signal", "0.8",
                     "--nonlinear", "--weeks", "3", "--seed", "3"],
}
GOLDEN_STORE_SHA256 = {
    "linear-2w": "5612b2a8882f777d361f579fac9f61a7ced7a8d3d97bc30b5d448b7be0d6b7a1",
    "nonlinear-3w": "57d39ceeb939ac107fb29a06d220b47dd385b808d2921b56e49695b4741b31ee",
}
# (corpus, scheme, --balance-seed) -> sha256 of the .dataset and its .meta.json
GOLDEN_FEATURIZE_SHA256 = {
    ("linear-2w", "weekly", None): (
        "e62bae434ea781874a6db48b4c829b57de5ae65ea47beaf3c54eed4643091286",
        "1fa911fe7379ee3c0c3a6991e76991519b724f7231befa8d85b67eb159428075",
    ),
    ("linear-2w", "weekly", "5"): (
        "d0965b7a1640c57af07837064c7374d7199ca479bfa31d628bd9a706d90e1a09",
        "181eefee415b6a6340f702ab2f80cdb88baf25da74cc29aac9c3899f68cc0f62",
    ),
    ("linear-2w", "semiweekly", None): (
        "6419d2e834e59235406906793e063be66d77b20b44041cbfa5464e341556e0bc",
        "fb732d2734efe5ba9f3e565d3848b0dc8c561b461ac0c59b20ea836041c587fb",
    ),
    ("linear-2w", "semiweekly", "5"): (
        "648177f402bb1471f2018bc7ee4a8fed4c8998901ca704e723bfeab0e23617e8",
        "c6c6adf7d69ef8864f6d40f0e0c9280ca06e276ef631f8b041294e03ac3caa41",
    ),
    ("nonlinear-3w", "weekly", None): (
        "0881917ecd0c2de702bad870c23176d94ba6f91bd1107a15a2f3a16eb665226d",
        "1de018c7f05e6aac6b99d5af9bceff566e9901d78a94ca64281b8c7d6c0d89af",
    ),
    ("nonlinear-3w", "weekly", "8"): (
        "ea4b1b89531b845be3e6de261e9aa7d3377d23e4b7e436ceebcbc2ddee69428c",
        "9e7c7a21544378c4fd01c8e098232a613a9b644a690b3dc5851f75035ff27ef6",
    ),
    ("nonlinear-3w", "semiweekly", None): (
        "b185b49561bffe094bd8483415a7e900e6f91fec2308c34738a7b707c88fa793",
        "ab33c04a9d1d348930c59e627a69d960d0a4f3a7b45a0cbbb01ab2de2d35ce1a",
    ),
    ("nonlinear-3w", "semiweekly", "8"): (
        "28876534092bf4c345b584db635a4c0c8a4693caee5e6fc6f15026c89abdece0",
        "b1a28a5da3f1e90081187f4cb29351ede9ffd32728da3d2871590d6c99bde9bd",
    ),
}


@pytest.fixture(scope="module")
def golden_stores(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    stores = {}
    for name, flags in GOLDEN_CORPORA.items():
        corpus, store = root / name, root / f"{name}.store.json"
        assert run_cli(["synth", *flags, "--out", str(corpus)])[0] == 0
        assert run_cli(["ingest", "--input", str(corpus / "events.jsonl"), "--out", str(store)])[0] == 0
        stores[name] = (corpus, store)
    return stores


class TestGoldenBytes:
    @pytest.mark.parametrize("name", sorted(GOLDEN_CORPORA))
    def test_store_keeps_its_sha256(self, golden_stores, name):
        assert file_sha(golden_stores[name][1]) == GOLDEN_STORE_SHA256[name]

    @pytest.mark.parametrize("name, scheme, seed", sorted(GOLDEN_FEATURIZE_SHA256, key=str))
    def test_dataset_keeps_its_sha256(self, golden_stores, tmp_path, name, scheme, seed):
        corpus, store = golden_stores[name]
        out = tmp_path / "golden.dataset"
        argv = ["featurize", "--store", str(store), "--embeddings", str(corpus / "embeddings.tsv"),
                "--scheme", scheme, "--categories", GOLDEN_CORPORA[name][3], "--out", str(out)]
        if seed is not None:
            argv += ["--balance-seed", seed]
        assert run_cli(argv)[0] == 0
        got = (file_sha(out), file_sha(tmp_path / "golden.dataset.meta.json"))
        assert got == GOLDEN_FEATURIZE_SHA256[(name, scheme, seed)]
