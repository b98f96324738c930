"""Engineered features, category aggregation, and dataset balancing."""

from __future__ import annotations

import re
from dataclasses import replace
from datetime import datetime, timezone

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from buyintent.features import (
    EMBED_DIM,
    SCALAR_FEATURES,
    EmbeddingTable,
    aggregate_pageviews,
    balance,
    compute_session_features,
    constant_columns,
    item_durations,
    featurize_store,
    tokenize,
    top_categories,
)
from buyintent.ingest import (
    MAX_TIMESTAMP_MS,
    MS_PER_HOUR,
    RawEvent,
    SessionStore,
    apply_prediction_window,
    sessionize,
)
from feature_oracles import aggregate_pageviews_dates, click_buy_ratio, click_events, compute_session_features_loop

DAY = 24 * MS_PER_HOUR


def ev(user="u1", sid="s1", ts=0, etype="pageview", item="i1", **kw):
    return RawEvent(
        user_id=user, session_id=sid, timestamp=ts, event_type=etype, item_id=item, **kw
    )


def ms_at(year, month, day, hour=0, minute=0):
    dt = datetime(year, month, day, hour, minute, tzinfo=timezone.utc)
    return int(dt.timestamp() * 1000)


def tiny_table(dim=3, **vectors):
    entries = {tok: np.asarray(vec, dtype=float) for tok, vec in vectors.items()}
    return EmbeddingTable(entries=entries, stopwords=frozenset({"the", "a"}), dim=dim)


def usable(store):
    """The store's usable sessions in session-id order, as featurize_store
    lists them."""
    return [s for s in store.ordered_sessions() if s.usable]


def feature_column(store, name):
    """name's value for each usable session of store, by session id, as
    compute_session_features gives it."""
    sessions = usable(store)
    rows = compute_session_features(store, sessions, EmbeddingTable(entries={}, dim=EMBED_DIM))
    return {s.session_id: rows[i, SCALAR_FEATURES.index(name)] for i, s in enumerate(sessions)}


def embed_description(text, table):
    """The description vector of a one-pageview session described by text."""
    store = sessionize([ev(description=text)])
    return compute_session_features(store, usable(store), table)[0, len(SCALAR_FEATURES):]


class TestItemDurations:
    def test_last_click_gets_median_of_other_dwells(self):
        sess = sessionize(
            [
                ev(ts=0, item="A"),
                ev(ts=30_000, item="B"),
                ev(ts=50_000, item="A"),
            ]
        ).sessions["s1"]
        out = item_durations(click_events(sess))
        # dwells 30, 20, then median(30, 20) = 25 for the final click
        assert out == {"A": 55.0, "B": 20.0}

    def test_single_click_is_zero(self):
        sess = sessionize([ev(ts=0, item="A")]).sessions["s1"]
        assert item_durations(click_events(sess)) == {"A": 0.0}

    def test_two_clicks_same_item(self):
        sess = sessionize([ev(ts=0, item="A"), ev(ts=10_000, item="A")]).sessions["s1"]
        assert item_durations(click_events(sess)) == {"A": 20.0}

    def test_buy_events_do_not_carry_dwell(self):
        with_buy = sessionize(
            [
                ev(ts=0, item="A"),
                ev(ts=30_000, item="B"),
                ev(ts=40_000, etype="buy", item="B", price=5.0),
            ]
        ).sessions["s1"]
        without = sessionize([ev(ts=0, item="A"), ev(ts=30_000, item="B")]).sessions["s1"]
        assert item_durations(click_events(with_buy)) == item_durations(click_events(without))

    def test_basketviews_count_as_clicks(self):
        sess = sessionize(
            [ev(ts=0, item="A"), ev(ts=10_000, etype="basketview", item="A", price=2.0)]
        ).sessions["s1"]
        assert item_durations(click_events(sess)) == {"A": 20.0}


class TestClickBuyRatio:
    """The click_buy_ratio column of compute_session_features rows."""

    def test_item_ratio_from_history(self):
        events = [ev(sid="s1", ts=i * 1000, item="X") for i in range(10)]
        events += [
            ev(sid="s1", ts=11_000, etype="buy", item="X", price=1.0),
            ev(sid="s1", ts=12_000, etype="buy", item="X", price=1.0),
        ]
        events.append(ev(sid="s2", ts=DAY, item="X"))
        ratios = feature_column(sessionize(events), "click_buy_ratio")
        assert ratios["s2"] == pytest.approx(0.2)

    def test_session_value_averages_distinct_items(self):
        # item X carries history ratio 0.2, item Y is unseen (0.0)
        events = [ev(sid="s1", ts=i * 1000, item="X") for i in range(5)]
        events.append(ev(sid="s1", ts=6000, etype="buy", item="X", price=1.0))
        events += [ev(sid="s2", ts=DAY, item="X"), ev(sid="s2", ts=DAY + 1000, item="Y")]
        ratios = feature_column(sessionize(events), "click_buy_ratio")
        assert ratios["s2"] == pytest.approx((0.2 + 0.0) / 2)

    def test_no_history_is_zero(self):
        store = sessionize([ev(ts=0, item="A"), ev(ts=1000, item="B")])
        assert feature_column(store, "click_buy_ratio")["s1"] == 0.0

    def test_own_session_buy_not_counted(self):
        events = [
            ev(sid="s1", ts=0, item="A"),
            ev(sid="s1", ts=1000, etype="buy", item="A", price=1.0),
        ]
        assert feature_column(sessionize(events), "click_buy_ratio")["s1"] == 0.0

    def test_repeat_clicks_grow_denominator(self):
        events = [
            ev(sid="s1", ts=0, item="A"),
            ev(sid="s1", ts=1000, etype="buy", item="A", price=1.0),
            ev(sid="s2", ts=DAY, item="A"),
            ev(sid="s3", ts=2 * DAY, item="A"),
        ]
        ratios = feature_column(sessionize(events), "click_buy_ratio")
        assert ratios["s2"] == pytest.approx(1.0)
        assert ratios["s3"] == pytest.approx(0.5)


class TestUserHistory:
    """History features walk each user's sessions by first event time,
    then session id."""

    def test_chronological_order(self):
        # one priced buy per session: each session's past purchase price
        # is the mean price of the sessions walked before it
        events = []
        for sid, ts, price in [("b", 100, 2.0), ("a", 200, 4.0), ("c", 50, 1.0)]:
            events += [ev(sid=sid, ts=ts), ev(sid=sid, ts=ts + 1, etype="buy", price=price)]
        past = feature_column(sessionize(events), "avg_purchase_price")
        assert past == {"c": 0.0, "b": 1.0, "a": 1.5}

    def test_equal_start_times_walk_by_session_id(self):
        events = []
        for sid, price in [("y", 2.0), ("x", 1.0)]:
            events += [ev(sid=sid, ts=0), ev(sid=sid, ts=1, etype="buy", price=price)]
        # the store holds y before x, so its own order would walk y first
        store = SessionStore(dict(reversed(sessionize(events).sessions.items())))
        assert feature_column(store, "avg_purchase_price") == {"x": 0.0, "y": 1.0}

    def test_free_buys_count_toward_the_past_price(self):
        events = [ev(sid="s1", ts=0), ev(sid="s1", ts=1, etype="buy", price=0.0),
                  ev(sid="s2", ts=10), ev(sid="s2", ts=11, etype="buy", price=4.0), ev(sid="s3", ts=20)]
        assert feature_column(sessionize(events), "avg_purchase_price")["s3"] == 2.0

    def test_users_walk_apart(self):
        events = [ev(sid="s1", ts=0), ev(sid="s1", ts=1, etype="buy", price=5.0), ev(user="u2", sid="s2", ts=10)]
        assert feature_column(sessionize(events), "avg_purchase_price") == {"s1": 0.0, "s2": 0.0}


class TestEmbedDescription:
    def test_single_token_returns_its_vector(self):
        table = tiny_table(red=[1.0, 2.0, 3.0])
        assert np.array_equal(embed_description("red", table), [1.0, 2.0, 3.0])

    def test_empty_text_is_zero_vector(self):
        table = tiny_table(red=[1.0, 2.0, 3.0])
        assert np.array_equal(embed_description("", table), np.zeros(3))

    def test_two_tokens_average(self):
        table = tiny_table(red=[2.0, 0.0, 0.0], shoe=[0.0, 4.0, 0.0])
        assert np.array_equal(embed_description("red shoe", table), [1.0, 2.0, 0.0])

    def test_stopwords_and_oov_dropped(self):
        table = tiny_table(red=[2.0, 0.0, 0.0])
        out = embed_description("the red zzzz", table)
        assert np.array_equal(out, [2.0, 0.0, 0.0])

    def test_all_dropped_is_zero(self):
        table = tiny_table(red=[2.0, 0.0, 0.0])
        assert np.array_equal(embed_description("the a zzzz", table), np.zeros(3))

    def test_token_order_irrelevant(self):
        table = tiny_table(red=[2.0, 1.0, 0.0], shoe=[0.0, 4.0, 1.0], big=[1.0, 1.0, 1.0])
        fwd = embed_description("big red shoe", table)
        rev = embed_description("shoe red big", table)
        assert np.allclose(fwd, rev)

    def test_tokenize_lowercases_and_splits_punctuation(self):
        assert tokenize("Red-Shoe, size 42!") == ["red", "shoe", "size", "42"]

    def test_repeated_token_weights_mean(self):
        table = tiny_table(red=[3.0, 0.0, 0.0], shoe=[0.0, 3.0, 0.0])
        out = embed_description("red red shoe", table)
        assert np.allclose(out, [2.0, 1.0, 0.0])


class TestSessionFeatureValues:
    """One user, four hand-built sessions with known statistics."""

    @pytest.fixture()
    def store(self):
        t1 = ms_at(2021, 3, 1, hour=3)  # Monday
        t2 = ms_at(2021, 3, 3, hour=10)
        t3 = ms_at(2021, 3, 8, hour=22)
        t4 = ms_at(2021, 3, 9, hour=12)
        events = [
            # s1: buy session, two pageviews then the purchase
            ev(sid="s1", ts=t1, item="A", category_id="c1", description="red shoe"),
            ev(sid="s1", ts=t1 + 60_000, item="B", category_id="c2"),
            ev(sid="s1", ts=t1 + 120_000, etype="buy", item="A", price=20.0),
            # s2: browse only, with a priced basketview
            ev(sid="s2", ts=t2, item="A", category_id="c1"),
            ev(sid="s2", ts=t2 + 10_000, etype="basketview", item="A", price=8.0),
            ev(sid="s2", ts=t2 + 40_000, item="C", category_id="c1"),
            # s3: second buy
            ev(sid="s3", ts=t3, item="B", category_id="c2"),
            ev(sid="s3", ts=t3 + 5_000, etype="buy", item="B", price=30.0),
            # s4: browse after both buys
            ev(sid="s4", ts=t4, item="C", category_id="c1"),
        ]
        return sessionize(events)

    @pytest.fixture()
    def rows(self, store):
        table = EmbeddingTable(entries={}, dim=EMBED_DIM)
        return compute_session_features(store, usable(store), table)

    @pytest.fixture()
    def feats(self, rows):
        """feats(session id, feature name): one value of rows, whose rows
        are s1..s4 in order."""
        return lambda sid, name: rows[int(sid[1:]) - 1, SCALAR_FEATURES.index(name)]

    def test_duration_before_purchase(self, feats):
        assert feats("s1", "duration_before_purchase") == pytest.approx(60.0)
        assert feats("s2", "duration_before_purchase") == pytest.approx(40.0)

    def test_hour_of_first_event(self, feats):
        assert feats("s1", "hour") == 3
        assert feats("s2", "hour") == 10

    def test_click_counts(self, feats):
        assert feats("s2", "n_clicks") == 3
        assert feats("s2", "n_distinct_items") == 2
        assert feats("s4", "n_clicks") == 1

    def test_price_is_mean_of_priced_feature_events(self, feats):
        assert feats("s2", "price") == pytest.approx(8.0)
        assert feats("s1", "price") == 0.0

    def test_avg_purchase_price_uses_prior_buys_only(self, feats):
        assert feats("s1", "avg_purchase_price") == 0.0
        assert feats("s2", "avg_purchase_price") == pytest.approx(20.0)
        assert feats("s4", "avg_purchase_price") == pytest.approx(25.0)

    def test_median_sessions_before_buy(self, feats):
        # s1 buys at index 0 (gap 0), s3 at index 2 (one session between)
        assert feats("s1", "median_sessions_before_buy") == 0.0
        assert feats("s2", "median_sessions_before_buy") == 0.0
        assert feats("s3", "median_sessions_before_buy") == 0.0
        assert feats("s4", "median_sessions_before_buy") == pytest.approx(0.5)

    def test_view_windows_count_user_pageviews(self, feats):
        # ref for s2 is its last pageview; only s2's own two pageviews
        # fall inside 24h, s1's two enter at the week horizon
        assert feats("s2", "views_24h") == 2
        assert feats("s2", "views_week") == 4

    def test_view_window_excludes_future_sessions(self, feats):
        assert feats("s1", "views_24h") == 2
        assert feats("s1", "views_week") == 2

    def test_click_buy_ratio_matches_direct_computation(self, store, feats):
        direct = click_buy_ratio(store.sessions.values())
        for sid in ("s1", "s2", "s3", "s4"):
            assert feats(sid, "click_buy_ratio") == pytest.approx(direct[sid])

    def test_scalar_row_follows_declared_order(self, rows):
        # s2's scalars, then its (all-zero) description vector
        assert rows.shape == (4, len(SCALAR_FEATURES) + EMBED_DIM)
        assert rows.dtype == np.float64
        assert rows[1, SCALAR_FEATURES.index("price")] == pytest.approx(8.0)
        assert rows[1, SCALAR_FEATURES.index("n_clicks")] == 3
        assert not rows[1, len(SCALAR_FEATURES):].any()


class TestAggregatePageviews:
    def test_single_week_single_category(self):
        base = ms_at(2021, 1, 4)  # Monday of 2021 ISO week 1
        events = [
            ev(ts=base, item="A", category_id="c"),
            ev(ts=base + DAY, item="B", category_id="c"),
            ev(ts=base + 2 * DAY, item="A", category_id="c"),
        ]
        frag = aggregate_pageviews(usable(sessionize(events)), ["c"], "weekly")
        assert frag.matrix.shape == (1, 1)
        assert frag.matrix[0, 0] == 3.0
        assert frag.column_names == ["cat_c_2021w01"]

    def test_semiweekly_splits_on_thursday(self):
        base = ms_at(2021, 1, 4)  # Mon
        events = [
            ev(ts=base, item="A", category_id="c"),
            ev(ts=base + DAY, item="A", category_id="c"),  # Tue
            ev(ts=base + 4 * DAY, item="A", category_id="c"),  # Fri
        ]
        frag = aggregate_pageviews(usable(sessionize(events)), ["c"], "semiweekly")
        assert frag.column_names == ["cat_c_2021w01_h1", "cat_c_2021w01_h2"]
        assert frag.matrix.tolist() == [[2.0, 1.0]]

    def test_weeks_span_is_contiguous(self):
        base = ms_at(2021, 1, 4)
        events = [
            ev(sid="s1", ts=base, item="A", category_id="c"),
            ev(sid="s2", ts=base + 15 * DAY, item="A", category_id="c"),
        ]
        frag = aggregate_pageviews(usable(sessionize(events)), ["c"], "weekly")
        assert frag.column_names == ["cat_c_2021w01", "cat_c_2021w02", "cat_c_2021w03"]
        assert frag.matrix.sum() == 2.0

    def test_bad_scheme_rejected(self):
        store = sessionize([ev(ts=0, item="A", category_id="c")])
        with pytest.raises(ValueError, match="scheme"):
            aggregate_pageviews(usable(store), ["c"], "daily")

    def test_empty_category_list_rejected(self):
        store = sessionize([ev(ts=0, item="A", category_id="c")])
        with pytest.raises(ValueError, match="non-empty"):
            aggregate_pageviews(usable(store), [], "weekly")

    def test_counts_conserved_on_fixture(self, store):
        cats = top_categories(store, 10)
        sessions = usable(store)
        frag = aggregate_pageviews(sessions, cats, "weekly")
        total = sum(
            1
            for sess in sessions
            for e in sess.feature_events()
            if e.event_type == "pageview" and e.category_id in set(cats)
        )
        assert frag.matrix.sum() == total

    def test_semiweekly_conserves_weekly_totals(self, store):
        cats = top_categories(store, 5)
        weekly = aggregate_pageviews(usable(store), cats, "weekly")
        semi = aggregate_pageviews(usable(store), cats, "semiweekly")
        assert semi.matrix.shape[1] == 2 * weekly.matrix.shape[1]
        assert semi.matrix.sum() == weekly.matrix.sum()


class TestTopCategories:
    def test_ranked_by_count_then_id(self):
        events = [
            ev(sid="s1", ts=0, item="A", category_id="z"),
            ev(sid="s1", ts=1000, item="B", category_id="z"),
            ev(sid="s1", ts=2000, item="C", category_id="b"),
            ev(sid="s1", ts=3000, item="D", category_id="a"),
        ]
        assert top_categories(sessionize(events), 3) == ["z", "a", "b"]

    def test_k_larger_than_observed(self):
        store = sessionize([ev(ts=0, item="A", category_id="c")])
        assert top_categories(store, 10) == ["c"]


class TestAssembleDataset:
    """featurize_store lays out one row per usable session: its features,
    then its aggregation counts, and its label."""

    def test_column_arithmetic_and_names(self, store, embedding_table):
        cats = top_categories(store, 8)
        ds = featurize_store(store, embedding_table, n_categories=8)
        frag = aggregate_pageviews(usable(store), cats, "weekly")
        assert ds.d == len(SCALAR_FEATURES) + EMBED_DIM + len(frag.column_names)
        assert ds.n_base_cols == 61
        assert ds.category_count == 8
        assert ds.feature_names[: len(SCALAR_FEATURES)] == SCALAR_FEATURES
        assert ds.feature_names[len(SCALAR_FEATURES)] == "desc_00"
        assert ds.feature_names[61:] == frag.column_names

    def test_labels_follow_store(self, store, embedding_table):
        ds = featurize_store(store, embedding_table, n_categories=4)
        sessions = usable(store)
        assert ds.n == len(sessions)
        for row, sess in enumerate(sessions):
            assert ds.labels[row] == (1 if sess.label == "buy" else 0)

    def test_no_usable_session_gives_the_base_columns(self, embedding_table):
        # a session flagged unusable still counts toward the categories
        sess = sessionize([ev(ts=0, item="A", category_id="c")]).sessions["s1"]
        store = SessionStore({"s1": replace(sess, usable=False)})
        ds = featurize_store(store, embedding_table, n_categories=3)
        assert ds.rows.shape == (0, 61)
        assert ds.feature_names == SCALAR_FEATURES + [f"desc_{i:02d}" for i in range(EMBED_DIM)]


class TestBalance:
    def test_equal_class_counts(self, feature_dataset):
        out = balance(feature_dataset, seed=3)
        assert int(out.labels.sum()) * 2 == out.n
        assert int(out.labels.sum()) == int(feature_dataset.labels.sum())

    def test_rows_are_subset_of_input(self, feature_dataset):
        out = balance(feature_dataset, seed=3)
        original = {tuple(r) for r in feature_dataset.rows}
        for r in out.rows:
            assert tuple(r) in original

    def test_same_seed_is_identical(self, feature_dataset):
        a = balance(feature_dataset, seed=11)
        b = balance(feature_dataset, seed=11)
        assert np.array_equal(a.rows, b.rows)
        assert np.array_equal(a.labels, b.labels)

    def test_different_seed_differs(self, feature_dataset):
        a = balance(feature_dataset, seed=11)
        b = balance(feature_dataset, seed=12)
        assert not np.array_equal(a.rows, b.rows)

    def test_no_positives_rejected(self, feature_dataset):
        neg = feature_dataset.take(np.flatnonzero(feature_dataset.labels == 0)[:10])
        with pytest.raises(ValueError, match="no positives"):
            balance(neg, seed=0)

    def test_more_positives_than_negatives_rejected(self, feature_dataset):
        pos = np.flatnonzero(feature_dataset.labels == 1)
        neg = np.flatnonzero(feature_dataset.labels == 0)
        skewed = feature_dataset.take(np.concatenate([pos, neg[: len(pos) // 2]]))
        with pytest.raises(ValueError, match="more positives"):
            balance(skewed, seed=0)

    def test_already_balanced_is_permutation(self, feature_dataset):
        pos = np.flatnonzero(feature_dataset.labels == 1)
        neg = np.flatnonzero(feature_dataset.labels == 0)[: len(pos)]
        even = feature_dataset.take(np.concatenate([pos, neg]))
        out = balance(even, seed=5)
        assert out.n == even.n
        assert sorted(map(tuple, out.rows)) == sorted(map(tuple, even.rows))


class TestFeaturizeStore:
    def test_fixture_dataset_shape(self, store, feature_dataset):
        assert feature_dataset.n == len(usable(store))
        assert feature_dataset.n_base_cols == 61
        assert feature_dataset.d > 61
        assert np.all(np.isfinite(feature_dataset.rows))

    def test_both_classes_present(self, feature_dataset):
        assert 0 < int(feature_dataset.labels.sum()) < feature_dataset.n

    def test_no_constant_columns_on_fixture(self, feature_dataset):
        assert constant_columns(feature_dataset) == []


WEEK = 7 * DAY
MAX_DAY = MAX_TIMESTAMP_MS // DAY
# Description pieces: table tokens in other cases, stopwords, separators,
# and characters whose lowercase differs in length or by context (final
# sigma, the Kelvin sign, dotted capital I).
PIECES = ["red", "RED", "shoe", "k", "i", "the", "a", "42", " ", "-", ",", "\u03a3", "\u212a", "\u0130", "\u03c2", "\u0131", "\u00e9"]
JOINED = st.tuples(st.sampled_from([" ", ""]), st.lists(st.sampled_from(PIECES), max_size=6))
DESCRIPTION = st.none() | st.just("") | JOINED.map(lambda t: t[0].join(t[1])) | st.text(max_size=8)
VOCAB = ["red", "shoe", "k", "i", "the", "42", "size"]


def window_start():
    """A UTC day to start a window at: anywhere in range, or at the
    first Monday (epoch day 4), the days around it, or the last weeks
    of 9999."""
    return st.integers(0, MAX_DAY) | st.sampled_from([0, 3, 4, 5, 6, MAX_DAY - 11, MAX_DAY - 4, MAX_DAY])


OFFSET = st.integers(0, 3 * WEEK) | st.sampled_from(
    [0, 1, DAY - 1, DAY, 3 * DAY - 1, 3 * DAY, 4 * DAY - 1, 4 * DAY, WEEK - 1, WEEK, 2 * WEEK - 1]
)


@st.composite
def stores(draw):
    """A sessionized store of up to 3 users over a window of at most
    three weeks, with the prediction window applied."""
    start = draw(window_start()) * DAY
    events = []
    for _ in range(draw(st.integers(1, 14))):
        etype = draw(st.sampled_from(["pageview", "pageview", "basketview", "buy", "adview"]))
        priced = etype in ("buy", "basketview")
        events.append(
            ev(
                user=f"u{draw(st.integers(0, 2))}",
                sid=f"s{draw(st.integers(0, 4))}",
                ts=min(start + draw(OFFSET), MAX_TIMESTAMP_MS),
                etype=etype,
                item=draw(st.sampled_from("ABC")),
                category_id=draw(st.none() | st.sampled_from(["c1", "c2", "c3"])),
                price=draw(st.none() | st.floats(0, 1e6)) if priced else None,
                description=draw(DESCRIPTION),
            )
        )
    store = sessionize(events)
    return apply_prediction_window(store, draw(st.sampled_from([1, MS_PER_HOUR, DAY, WEEK])))


def vocab_tables():
    # values whose sums round, so a change of summation order shows
    value = st.floats(-1e3, 1e3) | st.sampled_from([0.1, 0.2, 0.7, 1 / 3, 1e3 + 0.1, -2.9, 1e-9])
    vectors = st.lists(value, min_size=4, max_size=4)
    table = st.fixed_dictionaries({tok: vectors for tok in VOCAB})
    missing = st.sets(st.sampled_from(VOCAB), max_size=3)
    return st.tuples(table, missing).map(
        lambda t: tiny_table(dim=4, **{tok: vec for tok, vec in t[0].items() if tok not in t[1]})
    )


class TestOracleEquality:
    """compute_session_features and aggregate_pageviews are bit-equal to
    the first forms kept in tests/feature_oracles.py."""

    @settings(max_examples=200, deadline=None)
    @given(store=stores(), table=vocab_tables())
    def test_features_equal_the_oracle(self, store, table):
        got = compute_session_features(store, usable(store), table)
        want = compute_session_features_loop(store, table)
        assert got.shape == want.shape
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(store=stores(), k=st.integers(1, 3), scheme=st.sampled_from(["weekly", "semiweekly"]))
    def test_fragments_equal_the_oracle(self, store, k, scheme):
        cats = top_categories(store, k)
        try:
            want = aggregate_pageviews_dates(store, cats, scheme)
        except ValueError as exc:
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                aggregate_pageviews(usable(store), cats, scheme)
            return
        except OverflowError:
            # the oracle steps past the Monday of the final ISO week of 9999
            got = aggregate_pageviews(usable(store), cats, scheme)
            assert got.column_names[-1].startswith(f"cat_{cats[-1]}_9999w52")
            return
        got = aggregate_pageviews(usable(store), cats, scheme)
        assert got.column_names == want.column_names
        assert got.matrix.shape == want.matrix.shape
        assert got.matrix.dtype == want.matrix.dtype
        assert got.matrix.tobytes() == want.matrix.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(st.lists(DESCRIPTION.filter(lambda d: d is not None), max_size=5))
    @example(["\u03a3", "\u03a3a"])
    @example(["a\u03a3", "b"])
    def test_joined_text_tokenizes_like_its_parts(self, descriptions):
        assert tokenize(" ".join(descriptions)) == [t for d in descriptions for t in tokenize(d)]
