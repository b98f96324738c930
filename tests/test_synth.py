"""Synthetic clickstream generator: determinism, parseability, signal."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from buyintent import cli, synth
from buyintent.evaluation import auc
from buyintent.ingest import MAX_TIMESTAMP_MS, ingest_events, parse_events
from buyintent.synth import SESSIONS_PER_USER_CDF, SynthConfig, _cdf, generate
from buyintent.util import as_rng, dumps
from synth_oracles import emit_session, generate_dicts


def small_cfg(**kw):
    base = dict(
        n_users=80,
        n_categories=12,
        buy_rate=0.1,
        signal_strength=1.0,
        nonlinear=False,
        weeks=2,
        seed=5,
    )
    base.update(kw)
    return SynthConfig(**base)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_users": 0},
            {"n_categories": 5},  # needs room beyond the signal categories
            {"buy_rate": 0.0},
            {"buy_rate": 1.0},
            {"signal_strength": -0.1},
            {"weeks": 0},
            {"impulsive_fraction": 1.5},
        ],
    )
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            small_cfg(**kwargs)


class TestGenerateOutputs:
    def test_files_written(self, tmp_path):
        result = generate(small_cfg(), str(tmp_path / "out"))
        for path in (
            result.events_path,
            result.truth_path,
            result.embeddings_path,
            result.config_path,
        ):
            assert os.path.exists(path)
        assert result.n_sessions > 0
        assert 0 < result.n_buy_sessions < result.n_sessions

    def test_byte_identical_reruns(self, tmp_path):
        cfg = small_cfg()
        a = generate(cfg, str(tmp_path / "a"))
        b = generate(cfg, str(tmp_path / "b"))
        for pa, pb in [
            (a.events_path, b.events_path),
            (a.truth_path, b.truth_path),
            (a.embeddings_path, b.embeddings_path),
        ]:
            with open(pa, "rb") as fa, open(pb, "rb") as fb:
                assert fa.read() == fb.read()

    def test_different_seed_differs(self, tmp_path):
        a = generate(small_cfg(seed=1), str(tmp_path / "a"))
        b = generate(small_cfg(seed=2), str(tmp_path / "b"))
        with open(a.events_path, "rb") as fa, open(b.events_path, "rb") as fb:
            assert fa.read() != fb.read()

    def test_events_parse_cleanly(self, tmp_path):
        result = generate(small_cfg(), str(tmp_path / "out"))
        with open(result.events_path, "r", encoding="utf-8") as fh:
            parsed = parse_events(fh)
        assert parsed.errors == []
        assert len(parsed.events) > 0

    def test_full_ingest_keeps_every_user(self, tmp_path):
        # generated sessions always have at least 10 clicks, so the
        # activity filter should drop nobody
        cfg = small_cfg()
        result = generate(cfg, str(tmp_path / "out"))
        with open(result.events_path, "r", encoding="utf-8") as fh:
            parsed = parse_events(fh)
        store, report = ingest_events(parsed)
        assert report.users_removed_min_clicks == 0
        assert len({s.user_id for s in store.sessions.values()}) == cfg.n_users

    def test_config_json_records_run(self, tmp_path):
        cfg = small_cfg()
        result = generate(cfg, str(tmp_path / "out"))
        with open(result.config_path, "r", encoding="utf-8") as fh:
            recorded = json.load(fh)
        assert recorded["config"]["n_users"] == cfg.n_users
        assert recorded["config"]["seed"] == cfg.seed
        derived = recorded["derived"]
        assert derived["n_sessions"] == result.n_sessions
        assert derived["n_buy_sessions"] == result.n_buy_sessions
        assert derived["bayes_auc"] == result.bayes_auc

    def test_truth_covers_every_session(self, tmp_path):
        result = generate(small_cfg(), str(tmp_path / "out"))
        with open(result.truth_path, "r", encoding="utf-8") as fh:
            rows = [json.loads(line) for line in fh]
        assert len(rows) == result.n_sessions
        assert sum(1 for r in rows if r["label"] == "buy") == result.n_buy_sessions
        with open(result.events_path, "r", encoding="utf-8") as fh:
            parsed = parse_events(fh)
        event_sids = {e.session_id for e in parsed.events}
        truth_sids = {r["session_id"] for r in rows}
        assert truth_sids == event_sids

    def test_embeddings_table_is_loadable(self, tmp_path):
        from buyintent.features import EMBED_DIM, load_embedding_table

        result = generate(small_cfg(), str(tmp_path / "out"))
        table = load_embedding_table(result.embeddings_path)
        assert len(table.entries) > 0
        for vec in table.entries.values():
            assert vec.shape == (EMBED_DIM,)


class TestLabelStatistics:
    def test_buy_rate_near_target(self, tmp_path):
        cfg = small_cfg(n_users=400, buy_rate=0.1, seed=9)
        result = generate(cfg, str(tmp_path / "out"))
        rate = result.n_buy_sessions / result.n_sessions
        sigma = np.sqrt(0.1 * 0.9 / result.n_sessions)
        assert abs(rate - 0.1) < 4 * sigma + 0.01

    def test_buy_events_match_labels(self, tmp_path):
        result = generate(small_cfg(), str(tmp_path / "out"))
        with open(result.events_path, "r", encoding="utf-8") as fh:
            parsed = parse_events(fh)
        buy_sids = {e.session_id for e in parsed.events if e.event_type == "buy"}
        with open(result.truth_path, "r", encoding="utf-8") as fh:
            labels = {r["session_id"]: r["label"] == "buy" for r in map(json.loads, fh)}
        for sid, label in labels.items():
            assert (sid in buy_sids) == label

    def test_intent_orders_labels(self, tmp_path):
        # sessions that did buy should carry visibly higher intent
        result = generate(small_cfg(n_users=300, seed=2), str(tmp_path / "out"))
        with open(result.truth_path, "r", encoding="utf-8") as fh:
            rows = [json.loads(line) for line in fh]
        buy = [r["intent"] for r in rows if r["label"] == "buy"]
        browse = [r["intent"] for r in rows if r["label"] != "buy"]
        assert np.mean(buy) > np.mean(browse)


class TestBayesCeiling:
    def test_ceiling_is_the_auc_of_the_truth_file(self, tmp_path):
        result = generate(small_cfg(n_users=300, seed=3), str(tmp_path / "out"))
        with open(result.truth_path, "r", encoding="utf-8") as fh:
            rows = [json.loads(line) for line in fh]
        intents = [r["intent"] for r in rows]
        labels = [r["label"] == "buy" for r in rows]
        assert result.bayes_auc == auc(intents, labels)

    def test_generated_ceiling_is_informative(self, tmp_path):
        result = generate(small_cfg(n_users=300, seed=3), str(tmp_path / "out"))
        assert 0.6 < result.bayes_auc <= 1.0

    def test_zero_signal_ceiling_near_half(self, tmp_path):
        cfg = small_cfg(n_users=400, signal_strength=0.0, seed=4)
        result = generate(cfg, str(tmp_path / "out"))
        assert abs(result.bayes_auc - 0.5) < 0.04

    def test_nonlinear_mode_also_produces_signal(self, tmp_path):
        cfg = small_cfg(n_users=300, nonlinear=True, seed=6)
        result = generate(cfg, str(tmp_path / "out"))
        assert result.bayes_auc > 0.6


OUTPUT_FILES = ("events.jsonl", "truth.jsonl", "embeddings.tsv", "config.json")

# sha256 of each config's OUTPUT_FILES, in that order, as the generator
# wrote them before its draws went through _cdf and util.dumps
GOLDEN_SYNTH = {
    "linear": (
        dict(n_users=80, n_categories=12, buy_rate=0.1, weeks=2, seed=5, impulsive_fraction=0.0),
        (
            "2268c3e90d222b4fca668f7809211d7fce9f376b428302b1676b0577cc73336c",
            "96c9805f5cf91c9b5e8f6b4e0cd1b6e14a18d545d0efefa52bfa2dde0df2e2b6",
            "00bcf635419e7b851d6db42e3ddf6888faca9aae5b2a7168613192e56992315d",
            "4048f3b3e44978d3407c130cbb53217467d382074fcb1c66f31beed6cc5eb1a3",
        ),
    ),
    "nonlinear": (
        dict(n_users=80, n_categories=12, buy_rate=0.1, nonlinear=True, weeks=2, seed=6, impulsive_fraction=0.0),
        (
            "bd9be8cde0b5bba32df26d0d1a992f92ff2407d5d0d1736836f2ce8882ff3b0f",
            "e45e1b002c07387dc4dd8c774b3512f2a5c65c7433d0fddb08047751486907e4",
            "df618077b5df422a8b1c3876cdc6a9842807b66d690c7b0f3dfb7a3ff79d63cc",
            "e250cd25afd244e10783a430dc48ce9283937575b73e9c83e139fff6f068a6b9",
        ),
    ),
    "impulsive": (
        dict(n_users=80, n_categories=12, buy_rate=0.3, weeks=2, seed=7, impulsive_fraction=0.5),
        (
            "94346eb32db066047eb9c3d10a26ae62016c176a1da2ea80b25c0b9c5ebf3eff",
            "e8dc82271a86d89abff675d90f09b1498f95d9eff0902b1bc6351adae73969de",
            "f4f714c0617947d788acfbac7a1c49b89d6415586ced568b2b54285efa9f0952",
            "69dd0115ff93f7507b270ec3a039d52b5ea82955b76232c3f3d7674b34a9fde4",
        ),
    ),
    "257-categories": (
        dict(n_users=60, n_categories=257, buy_rate=0.1, nonlinear=True, weeks=1, seed=8),
        (
            "2e0e37ff0e1b3f60d9aec89ef5567cb684ff5f569f33b76d476cac13ba4ed042",
            "f5d505f5af8d3ca048892d2f58a5113e5d867219807f7dbce4a08539a3c8ea10",
            "3923abcf92e5f2c0e08602d3e13ab0c3635659145f6e19b79eac0f408ec077d9",
            "b1120b8744a6a610c55706bc7489e450342a1d804ceefe068a92fb38e3c3dd6e",
        ),
    ),
    "three-weeks": (
        dict(n_users=60, n_categories=12, buy_rate=0.1, weeks=3, seed=9),
        (
            "248413bb44623fd4e321b02184ea8cebfff183ed54479803f393a3b2b6f35dbc",
            "00b1197065e77e549ab164aefac99a192c70b08386e67dcb85ec507eda970f17",
            "6a9724d02d7f3d062c70902903ba0dc2eed07825b11eed3a3da8f11034a4d391",
            "06bdec7d5db80abf797c59ee66bdf6ea226cad66ad518540308e4257b5cea1de",
        ),
    ),
}


class TestGoldenBytes:
    @pytest.mark.parametrize("name", sorted(GOLDEN_SYNTH))
    def test_outputs_keep_their_sha256(self, tmp_path, name):
        kwargs, digests = GOLDEN_SYNTH[name]
        generate(SynthConfig(**kwargs), str(tmp_path))
        got = [hashlib.sha256((tmp_path / f).read_bytes()).hexdigest() for f in OUTPUT_FILES]
        assert dict(zip(OUTPUT_FILES, got)) == dict(zip(OUTPUT_FILES, digests))


CHOICE_CHANGED = (
    "numpy's Generator.choice(n, p=p) no longer draws like "
    "cdf.searchsorted(random(), side='right') with cdf = cumsum(p) / cumsum(p)[-1]; "
    "synth's item and session-count draws copy that rule, so its golden bytes move with it"
)


class TestDrawContract:
    """synth replaces Generator.choice with a search of the same CDF and
    k scalar Generator.integers calls with one call of size k; each
    replacement must return the same values and leave the generator in
    the same state."""

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**63 - 1),
        weights=st.sampled_from([3, 6]).flatmap(
            lambda n: st.lists(st.floats(1e-6, 1e6), min_size=n, max_size=n)
        ),
        draws=st.integers(1, 30),
    )
    def test_cdf_search_equals_generator_choice(self, seed, weights, draws):
        p = np.array(weights) / np.sum(weights)
        cdf = _cdf(p)
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        got = [int(cdf.searchsorted(ours.random(), side="right")) for _ in range(draws)]
        want = [int(theirs.choice(len(p), p=p)) for _ in range(draws)]
        assert got == want, CHOICE_CHANGED
        assert ours.bit_generator.state == theirs.bit_generator.state, CHOICE_CHANGED

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**63 - 1))
    def test_sessions_per_user_table_equals_generator_choice(self, seed):
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        got = [1 + int(SESSIONS_PER_USER_CDF.searchsorted(ours.random(), side="right")) for _ in range(50)]
        want = [int(theirs.choice([1, 2, 3], p=[0.6, 0.25, 0.15])) for _ in range(50)]
        assert got == want, CHOICE_CHANGED
        assert ours.bit_generator.state == theirs.bit_generator.state, CHOICE_CHANGED

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**63 - 1), high=st.integers(1, 10), k=st.integers(0, 25))
    def test_one_sized_integers_call_equals_scalar_calls(self, seed, high, k):
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        got = [int(v) for v in ours.integers(0, high, size=k)]
        want = [int(theirs.integers(0, high)) for _ in range(k)]
        assert got == want
        assert ours.bit_generator.state == theirs.bit_generator.state
        # the half-used 32-bit word must carry over to the next draw too
        assert ours.integers(0, 1 << 20) == theirs.integers(0, 1 << 20)


def read_files(out_dir, names) -> dict:
    return {n: Path(out_dir, n).read_bytes() for n in names}


def assert_equals_the_dict_writer(cfg: SynthConfig, root: str):
    """Generate cfg with the package and with the dict writer; the files
    must be byte-equal, config.json included wherever both classes drew.
    Returns the package's result and its events."""
    ours, theirs = os.path.join(root, "ours"), os.path.join(root, "theirs")
    result = generate(cfg, ours)
    try:
        generate_dicts(cfg, theirs)
        both_classes = True
    except ValueError as exc:  # the dict writer's auc refuses one class
        assert str(exc) == "labels must contain both classes"
        both_classes = False
    names = OUTPUT_FILES if both_classes else OUTPUT_FILES[:3]
    assert read_files(ours, names) == read_files(theirs, names)
    assert both_classes == (0 < result.n_buy_sessions < result.n_sessions)
    assert both_classes == (result.bayes_auc is not None)
    with open(result.events_path, "r", encoding="utf-8") as fh:
        return result, [json.loads(line) for line in fh]


def buy_gaps(events) -> set[str]:
    """'impulsive' and/or 'later' for the buys in a log: bought within 2 h
    of the session's last browse event, or 25 h or more after it."""
    last_browse, gaps = {}, set()
    for e in events:
        if e["event_type"] in ("pageview", "basketview"):
            last_browse[e["session_id"]] = e["timestamp"]
        elif e["event_type"] == "buy":
            gap = e["timestamp"] - last_browse[e["session_id"]]
            gaps.add("impulsive" if gap < 2 * synth.MS_PER_HOUR else "later")
    return gaps


class TestAgainstTheDictWriter:
    """The line writer against tests/synth_oracles.py: one dict and one
    util.dumps call per event, one scalar draw per item and per dwell."""

    @settings(max_examples=40, deadline=None)
    @given(
        n_users=st.integers(2, 40),
        n_categories=st.integers(6, 300),
        weeks=st.integers(1, 4),
        nonlinear=st.booleans(),
        impulsive_fraction=st.floats(0.0, 1.0),
        buy_rate=st.floats(0.01, 0.95),
        signal_strength=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    # one user at seed 2 draws no buy session
    @example(n_users=1, n_categories=12, weeks=1, nonlinear=False, impulsive_fraction=0.1, buy_rate=0.03,
             signal_strength=0.8, seed=2)
    def test_files_equal_the_dict_writer(self, **kwargs):
        with tempfile.TemporaryDirectory() as root:
            assert_equals_the_dict_writer(SynthConfig(**kwargs), root)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_every_event_kind_and_both_buy_gaps_equal_the_dict_writer(self, tmp_path, seed):
        cfg = SynthConfig(n_users=200, n_categories=12, buy_rate=0.5, weeks=1, seed=seed, impulsive_fraction=0.5)
        _, events = assert_equals_the_dict_writer(cfg, str(tmp_path))
        kinds = {e["event_type"] for e in events}
        assert kinds == {"pageview", "basketview", "buy", "adclick", "adview"}
        assert buy_gaps(events) == {"impulsive", "later"}

    def test_tied_timestamps_keep_the_dict_writer_order(self):
        # A dwell factor of -60 rounds every dwell step down to 0 ms, so
        # all pageviews and any basketview share the session's start:
        # the sort must keep emission order among the pageviews and put
        # the basketview first, by its event type.
        cfg = small_cfg()
        categories, items, _ = synth._build_catalog(cfg, as_rng(0))
        plans = synth._plan_sessions(cfg, as_rng(1))[:20]
        basketviews = 0
        for i, plan in enumerate(plans):
            plan = dict(plan, dwell_factor=-60.0)
            label = "buy" if i % 2 else "non_buy"
            ours = synth._emit_session(plan, label, bool(i % 3), categories, items, as_rng(i), {})
            theirs = emit_session(plan, label, bool(i % 3), categories, items, as_rng(i))
            assert ours == [dumps(e) + "\n" for e in theirs]
            assert len({e["timestamp"] for e in theirs if e["event_type"] == "pageview"}) == 1
            basketviews += theirs[0]["event_type"] == "basketview"
        assert basketviews >= 2


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


class TestSingleClassCorpus:
    @pytest.mark.parametrize("users", ["1", "5"])
    def test_bayes_auc_is_null(self, tmp_path, users):
        out = tmp_path / "corpus"
        rc, stdout, err = run_cli(["synth", "--users", users, "--categories", "12", "--weeks", "1",
                                   "--seed", "2", "--out", str(out)])
        assert rc == 0, err
        summary = json.loads(stdout)
        assert summary["bayes_auc"] is None
        assert summary["n_buy_sessions"] == 0
        derived = json.loads((out / "config.json").read_text())["derived"]
        assert derived["bayes_auc"] is None
        assert derived["n_buy_sessions"] == 0
        assert derived["n_sessions"] == summary["n_sessions"]
        assert (out / "events.jsonl.manifest.json").exists()


def _no_generation(*args, **kwargs):
    raise AssertionError("generation started")


class TestSizeCeilings:
    @pytest.mark.parametrize(
        "flag, value, ceiling",
        [
            ("--users", synth.MAX_USERS + 1, synth.MAX_USERS),
            ("--users", 10**12, synth.MAX_USERS),
            ("--categories", synth.MAX_CATEGORIES + 1, synth.MAX_CATEGORIES),
            ("--categories", 10**9, synth.MAX_CATEGORIES),
            ("--weeks", synth.MAX_WEEKS + 1, synth.MAX_WEEKS),
            ("--weeks", 1_000_000, synth.MAX_WEEKS),
            ("--weeks", 100_000_000_000_000, synth.MAX_WEEKS),
        ],
    )
    def test_refused_before_any_work(self, tmp_path, monkeypatch, flag, value, ceiling):
        monkeypatch.setattr(synth, "_plan_sessions", _no_generation)
        monkeypatch.setattr(synth, "_build_catalog", _no_generation)
        flags = {"--users": "3", "--categories": "12", "--weeks": "1", flag: str(value)}
        out = tmp_path / "corpus"
        rc, stdout, err = run_cli(["synth", *[x for kv in flags.items() for x in kv], "--seed", "1",
                                   "--out", str(out)])
        assert rc == 1
        assert stdout == ""
        assert len(err.splitlines()) == 1
        error = json.loads(err)
        assert error["error"] == "ValueError"
        assert f"({flag}) must be at most {ceiling}, got {value}" in error["detail"]
        assert not out.exists()

    def test_largest_sizes_are_accepted(self):
        SynthConfig(n_users=synth.MAX_USERS, n_categories=synth.MAX_CATEGORIES, weeks=synth.MAX_WEEKS)

    def test_last_week_ends_by_ingests_last_timestamp(self):
        def window_end(weeks):
            return synth.WINDOW_BASE_MS + weeks * 7 * synth.MS_PER_DAY + synth.SESSION_SPAN_MS

        assert window_end(synth.MAX_WEEKS) <= MAX_TIMESTAMP_MS < window_end(synth.MAX_WEEKS + 1)

    def test_sessions_end_well_inside_the_span(self, tmp_path):
        # the longest buy gap (90 h) on the slowest browsers of a corpus
        cfg = small_cfg(n_users=400, buy_rate=0.5, impulsive_fraction=0.0)
        result = generate(cfg, str(tmp_path))
        first, last = {}, {}
        with open(result.events_path, "r", encoding="utf-8") as fh:
            for e in map(json.loads, fh):
                first.setdefault(e["session_id"], e["timestamp"])
                last[e["session_id"]] = e["timestamp"]
        longest = max(last[s] - first[s] for s in first)
        assert 25 * synth.MS_PER_HOUR < longest < synth.SESSION_SPAN_MS / 1.5
