"""References for the one-pass session featurizer.

These are the package's first forms of its feature steps.
click_buy_ratio and _user_prior_stats each sort one user's sessions
and walk them for the history features, reading clicks through
click_events; features._user_history makes that one walk.
embed_description_joined tokenizes a session's descriptions joined by
spaces and averages the looked-up vectors with np.mean over a list.
compute_session_features_loop groups the sessions by user, builds
each session's feature and click lists afresh for every value, counts the view windows with boolean
masks and lays the values out by name in SCALAR_FEATURES order, one row
per usable session in session-id order. aggregate_pageviews_dates
buckets each pageview through a UTC datetime and steps from Monday to
Monday with timedelta, which raises OverflowError once the last event
falls in the final ISO week of 9999.
features.compute_session_features and features.aggregate_pageviews
must match them bit for bit everywhere else.

featurize_store_all is the package's first featurize_store: it builds
a row for every usable session, its aggregation columns spanning them
all, and leaves balancing to balance() afterwards. featurize_store with
a balance_seed builds the kept rows only and must save to the same
bytes as balance() of its result.
"""

from __future__ import annotations

from datetime import date, datetime, timedelta, timezone
from statistics import median

import numpy as np

from buyintent.dataset import Dataset
from buyintent.features import (
    EMBED_DIM,
    SCALAR_FEATURES,
    AggregateFragment,
    aggregate_pageviews,
    compute_session_features,
    item_durations,
    tokenize,
    top_categories,
)
from buyintent.ingest import CLICK_EVENT_TYPES, MS_PER_HOUR


def click_events(sess) -> list:
    return [e for e in sess.events if e.event_type in CLICK_EVENT_TYPES]


def click_buy_ratio(user_sessions) -> dict[str, float]:
    """Per-session mean of per-item historical buys/clicks for one user.

    History is everything in the user's strictly earlier sessions; items
    the user never clicked before contribute 0.
    """
    ordered = sorted(user_sessions, key=lambda s: (s.events[0].timestamp, s.session_id))
    clicks: dict[str, int] = {}
    buys: dict[str, int] = {}
    out: dict[str, float] = {}
    for sess in ordered:
        session_clicks = click_events(sess)
        items = sorted({e.item_id for e in session_clicks})
        if items:
            ratios = [buys.get(i, 0) / clicks[i] if clicks.get(i) else 0.0 for i in items]
            out[sess.session_id] = float(np.mean(ratios))
        else:
            out[sess.session_id] = 0.0
        for ev in session_clicks:
            clicks[ev.item_id] = clicks.get(ev.item_id, 0) + 1
        for ev in sess.events:
            if ev.event_type == "buy":
                buys[ev.item_id] = buys.get(ev.item_id, 0) + 1
    return out


def _user_prior_stats(user_sessions) -> tuple[dict[str, float], dict[str, float]]:
    """Sessions-before-buy medians and mean past purchase price, per
    session, over strictly earlier sessions of the same user."""
    ordered = sorted(user_sessions, key=lambda s: (s.events[0].timestamp, s.session_id))
    sessions_before: dict[str, float] = {}
    past_price: dict[str, float] = {}
    gaps: list[int] = []
    prev_buy_idx: int | None = None
    price_sum, price_n = 0.0, 0
    for idx, sess in enumerate(ordered):
        sessions_before[sess.session_id] = float(median(gaps)) if gaps else 0.0
        past_price[sess.session_id] = price_sum / price_n if price_n else 0.0
        if sess.label == "buy":
            gaps.append(idx - prev_buy_idx - 1 if prev_buy_idx is not None else idx)
            prev_buy_idx = idx
        for ev in sess.events:
            if ev.event_type == "buy" and ev.price is not None:
                price_sum += ev.price
                price_n += 1
    return sessions_before, past_price


def embed_description_joined(text: str, table) -> np.ndarray:
    vecs = [
        table.entries[tok]
        for tok in tokenize(text)
        if tok not in table.stopwords and tok in table.entries
    ]
    if not vecs:
        return np.zeros(table.dim)
    return np.mean(vecs, axis=0)


def compute_session_features_loop(store, table) -> np.ndarray:
    ratio: dict[str, float] = {}
    s_before: dict[str, float] = {}
    past_price: dict[str, float] = {}
    user_pageviews: dict[str, np.ndarray] = {}
    users: dict[str, list] = {}
    for sess in store.sessions.values():
        users.setdefault(sess.user_id, []).append(sess)
    for user_id, sessions in users.items():
        ratio.update(click_buy_ratio(sessions))
        sb, pp = _user_prior_stats(sessions)
        s_before.update(sb)
        past_price.update(pp)
        ts = [
            e.timestamp
            for s in sessions
            for e in s.feature_events()
            if e.event_type == "pageview"
        ]
        user_pageviews[user_id] = np.array(sorted(ts), dtype=np.int64)

    out = []
    for sess in store.ordered_sessions():
        if not sess.usable:
            continue
        feats = sess.feature_events()
        durations = item_durations(click_events(sess))
        prices = [e.price for e in feats if e.price is not None]
        texts = " ".join(e.description for e in feats if e.description)
        ref = feats[-1].timestamp
        views = user_pageviews[sess.user_id]
        day_ms = 24 * MS_PER_HOUR
        scalars = dict(
            duration_before_purchase=(feats[-1].timestamp - feats[0].timestamp) / 1000.0,
            click_buy_ratio=ratio[sess.session_id],
            median_sessions_before_buy=s_before[sess.session_id],
            price=float(np.mean(prices)) if prices else 0.0,
            item_duration_total=float(sum(durations.values())),
            hour=int(sess.events[0].timestamp // MS_PER_HOUR % 24),
            n_clicks=len(click_events(sess)),
            n_distinct_items=len({e.item_id for e in click_events(sess)}),
            avg_purchase_price=past_price[sess.session_id],
            views_24h=int(np.sum((views > ref - day_ms) & (views <= ref))),
            views_week=int(np.sum((views > ref - 7 * day_ms) & (views <= ref))),
        )
        row = np.array([scalars[name] for name in SCALAR_FEATURES], dtype=float)
        out.append(np.concatenate([row, embed_description_joined(texts, table)]))
    return np.array(out).reshape(len(out), len(SCALAR_FEATURES) + table.dim)


def _utc_date(ts_ms: int) -> date:
    return datetime.fromtimestamp(ts_ms / 1000.0, tz=timezone.utc).date()


def _week_monday(d: date) -> date:
    return d - timedelta(days=d.isocalendar()[2] - 1)


def aggregate_pageviews_dates(store, categories, scheme: str) -> AggregateFragment:
    if scheme not in ("weekly", "semiweekly"):
        raise ValueError(f"unknown aggregation scheme '{scheme}'")
    categories = list(categories)
    if not categories:
        raise ValueError("category list must be non-empty")

    session_ids = [s.session_id for s in store.ordered_sessions() if s.usable]
    all_ts = [
        e.timestamp
        for sid in session_ids
        for e in store.sessions[sid].feature_events()
    ]
    if not all_ts:
        return AggregateFragment(np.zeros((0, 0)), [])

    first, last = _week_monday(_utc_date(min(all_ts))), _week_monday(_utc_date(max(all_ts)))
    weeks: list[date] = []
    cur = first
    while cur <= last:
        weeks.append(cur)
        cur += timedelta(days=7)
    halves = ["h1", "h2"] if scheme == "semiweekly" else [""]

    col_of: dict[tuple, int] = {}
    names: list[str] = []
    for monday in weeks:
        iso = monday.isocalendar()
        for half in halves:
            for cat in categories:
                name = f"cat_{cat}_{iso[0]}w{iso[1]:02d}" + (f"_{half}" if half else "")
                col_of[(monday, half, cat)] = len(names)
                names.append(name)

    cat_set = set(categories)
    matrix = np.zeros((len(session_ids), len(names)))
    for row, sid in enumerate(session_ids):
        for ev in store.sessions[sid].feature_events():
            if ev.event_type != "pageview" or ev.category_id not in cat_set:
                continue
            d = _utc_date(ev.timestamp)
            half = "" if scheme == "weekly" else ("h1" if d.isocalendar()[2] <= 3 else "h2")
            matrix[row, col_of[(_week_monday(d), half, ev.category_id)]] += 1.0
    return AggregateFragment(matrix, names)


def featurize_store_all(store, table, scheme: str = "weekly", *, n_categories: int) -> Dataset:
    categories = top_categories(store, n_categories)
    sessions = [s for s in store.ordered_sessions() if s.usable]
    fragment = aggregate_pageviews(sessions, categories, scheme)
    return Dataset(
        rows=np.hstack([compute_session_features(store, sessions, table), fragment.matrix]),
        labels=np.array([s.label == "buy" for s in sessions], dtype=np.uint8),
        feature_names=SCALAR_FEATURES + [f"desc_{i:02d}" for i in range(EMBED_DIM)] + fragment.column_names,
        aggregation=scheme,
        category_count=len(categories),
        n_base_cols=len(SCALAR_FEATURES) + EMBED_DIM,
    )
