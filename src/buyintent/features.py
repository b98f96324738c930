"""Engineered session features, temporal category aggregation, and
balanced dataset assembly.

Scalar features are computed per session; historical ones (click-buy
ratio, sessions-before-buy, past purchase price) walk each user's
sessions chronologically and only look at strictly earlier sessions, so
no feature peeks at the session's own outcome.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from datetime import date
from statistics import median

import numpy as np

from .dataset import Dataset
from .ingest import CLICK_EVENT_TYPES, MS_PER_HOUR, SessionStore
from .util import text_lines

EMBED_DIM = 50

MS_PER_DAY = 24 * MS_PER_HOUR
# date.toordinal() of epoch day 0, Thursday 1970-01-01.
_EPOCH_ORDINAL = date(1970, 1, 1).toordinal()
# the most (category, time bucket) columns aggregate_pageviews builds
MAX_AGG_COLUMNS = 2**20

DEFAULT_STOPWORDS = frozenset(
    """a an and are as at be by for from has have in is it its of on or that the
    this to was were will with""".split()
)

SCALAR_FEATURES = [
    "duration_before_purchase",
    "click_buy_ratio",
    "median_sessions_before_buy",
    "price",
    "item_duration_total",
    "hour",
    "n_clicks",
    "n_distinct_items",
    "avg_purchase_price",
    "views_24h",
    "views_week",
]

_TOKEN_RE = re.compile(r"[a-z0-9]+")


@dataclass(eq=False)
class EmbeddingTable:
    """Token -> 50-dim vector lookup with a stopword set.

    Construction stacks the vectors of the non-stopword tokens into one
    (tokens, dim) matrix; row_of maps each of those tokens to its row.
    """

    entries: dict[str, np.ndarray]
    stopwords: frozenset[str] = DEFAULT_STOPWORDS
    dim: int = EMBED_DIM
    row_of: dict[str, int] = field(init=False, repr=False)
    matrix: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        kept = [tok for tok in self.entries if tok not in self.stopwords]
        self.row_of = {tok: i for i, tok in enumerate(kept)}
        self.matrix = np.array([self.entries[tok] for tok in kept]).reshape(len(kept), self.dim)

    def token_rows(self, text: str) -> list[int]:
        """Matrix rows of text's in-vocabulary, non-stopword tokens, in
        token order."""
        row_of = self.row_of
        return [row_of[tok] for tok in tokenize(text) if tok in row_of]


def load_embedding_table(path) -> EmbeddingTable:
    """Read a UTF-8 TSV of token + 50 finite floats per line; a line that
    breaks this raises ValueError naming path:line."""
    entries: dict[str, np.ndarray] = {}
    for line_no, line in text_lines(path):
        line = line.rstrip("\n")
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != EMBED_DIM + 1:
            raise ValueError(f"{path}:{line_no}: expected {EMBED_DIM + 1} columns, got {len(parts)}")
        try:
            vec = np.array([float(x) for x in parts[1:]], dtype=float)
        except ValueError as exc:
            raise ValueError(f"{path}:{line_no}: {exc}") from None
        if not np.isfinite(vec).all():
            raise ValueError(f"{path}:{line_no}: embedding values must be finite")
        entries[parts[0]] = vec
    return EmbeddingTable(entries=entries)


def tokenize(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.lower())


def item_durations(clicks) -> dict[str, float]:
    """Seconds spent per item, from gaps between a session's
    consecutive clicks (its pageviews and basketviews, in time order).

    Each click's dwell is the time to the next click; the last click
    gets the median dwell of the session's other clicks (0 when it is
    the only one). Per-item duration sums the dwells of that item's
    clicks.
    """
    gaps = [
        (clicks[i + 1].timestamp - clicks[i].timestamp) / 1000.0
        for i in range(len(clicks) - 1)
    ]
    last = median(gaps) if gaps else 0.0
    dwell = gaps + [last]
    out: dict[str, float] = {}
    for ev, d in zip(clicks, dwell):
        out[ev.item_id] = out.get(ev.item_id, 0.0) + d
    return out


def _user_history(sessions) -> dict[str, tuple[float, float, float]]:
    """Each of one user's sessions, given in chronological order, mapped
    to its (click_buy_ratio, median_sessions_before_buy,
    avg_purchase_price), read from the strictly earlier sessions only.

    The ratio is the mean over the session's distinct clicked items of
    the item's earlier buys / earlier clicks, 0 for an item not clicked
    before. The median is over the gaps between earlier buy sessions,
    the first counted from the user's first session. The price is the
    mean of the earlier priced buy events.
    """
    clicks: dict[str, int] = {}
    buys: dict[str, int] = {}
    gaps: list[int] = []
    prev_buy_idx: int | None = None
    price_sum, price_n = 0.0, 0
    out: dict[str, tuple[float, float, float]] = {}
    for idx, sess in enumerate(sessions):
        session_clicks = [e for e in sess.events if e.event_type in CLICK_EVENT_TYPES]
        items = sorted({e.item_id for e in session_clicks})
        ratios = [buys.get(i, 0) / clicks[i] if clicks.get(i) else 0.0 for i in items]
        out[sess.session_id] = (
            float(np.mean(ratios)) if ratios else 0.0,
            float(median(gaps)) if gaps else 0.0,
            price_sum / price_n if price_n else 0.0,
        )
        for ev in session_clicks:
            clicks[ev.item_id] = clicks.get(ev.item_id, 0) + 1
        if sess.label == "buy":
            gaps.append(idx - prev_buy_idx - 1 if prev_buy_idx is not None else idx)
            prev_buy_idx = idx
        for ev in sess.events:
            if ev.event_type == "buy":
                buys[ev.item_id] = buys.get(ev.item_id, 0) + 1
                if ev.price is not None:
                    price_sum += ev.price
                    price_n += 1
    return out


def compute_session_features(store: SessionStore, sessions, table: EmbeddingTable) -> np.ndarray:
    """One float64 row per session of sessions, in their order: the
    SCALAR_FEATURES values, then the description vector.

    Historical values come from one _user_history walk over all of a
    row owner's sessions in store, ordered by (first event time, session
    id); users who own no row are not walked. A
    session's description vector is the mean of the table rows of every
    in-vocabulary, non-stopword token of its feature events'
    descriptions, in event order; each distinct description is
    tokenized once per call.
    """
    owners = {sess.user_id for sess in sessions}
    by_user: dict[str, list] = {}
    for sess in store.sessions.values():
        if sess.user_id in owners:
            by_user.setdefault(sess.user_id, []).append(sess)
    history: dict[str, tuple[float, float, float]] = {}
    user_pageviews: dict[str, np.ndarray] = {}
    for user_id, user_sessions in by_user.items():
        user_sessions.sort(key=lambda s: (s.events[0].timestamp, s.session_id))
        history.update(_user_history(user_sessions))
        ts = [e.timestamp for s in user_sessions for e in s.events if e.event_type == "pageview"]
        user_pageviews[user_id] = np.array(sorted(ts), dtype=np.int64)

    n_scalar = len(SCALAR_FEATURES)
    out = np.zeros((len(sessions), n_scalar + table.dim))
    rows_of: dict[str, list[int]] = {}
    for i, sess in enumerate(sessions):
        feats = sess.feature_events()
        clicks = [e for e in feats if e.event_type in CLICK_EVENT_TYPES]
        prices = [e.price for e in feats if e.price is not None]
        rows: list[int] = []
        for e in feats:
            if e.description:
                desc_rows = rows_of.get(e.description)
                if desc_rows is None:
                    desc_rows = rows_of[e.description] = table.token_rows(e.description)
                rows += desc_rows
        ref = feats[-1].timestamp
        # pageviews at or before ref - 24 h, ref - 7 d and ref
        past_day, past_week, upto_ref = user_pageviews[sess.user_id].searchsorted(
            (ref - MS_PER_DAY, ref - 7 * MS_PER_DAY, ref), side="right"
        )
        ratio, sessions_before, past_price = history[sess.session_id]
        # in SCALAR_FEATURES order
        out[i, :n_scalar] = (
            (ref - feats[0].timestamp) / 1000.0,
            ratio,
            sessions_before,
            float(np.mean(prices)) if prices else 0.0,
            float(sum(item_durations(clicks).values())),
            sess.events[0].timestamp // MS_PER_HOUR % 24,
            len(clicks),
            len({e.item_id for e in clicks}),
            past_price,
            upto_ref - past_day,
            upto_ref - past_week,
        )
        if rows:
            out[i, n_scalar:] = table.matrix[rows].mean(axis=0)
    return out


@dataclass(eq=False)
class AggregateFragment:
    """Pageview counts per (category, time bucket), one row per session."""

    matrix: np.ndarray
    column_names: list[str]


def feature_span(sessions) -> tuple[int, int]:
    """The first and last feature-event timestamps of sessions."""
    stamps = [e.timestamp for sess in sessions for e in sess.feature_events()]
    return min(stamps), max(stamps)


def aggregate_pageviews(sessions, categories, scheme: str, span=None) -> AggregateFragment:
    """Count each session's pageviews per product category and calendar
    time bucket, one row per session of sessions, in their order.

    Buckets are ISO weeks spanning span, the (first, last) feature-event
    timestamps the columns cover, by default feature_span(sessions); the
    semiweekly scheme splits each week into days 1-3 and 4-7. Buckets
    come from integer UTC days: epoch day 0 is a Thursday, so
    day - (day + 3) % 7 is the day's Monday. A span whose columns would
    pass MAX_AGG_COLUMNS raises ValueError before any is built.
    """
    if scheme not in ("weekly", "semiweekly"):
        raise ValueError(f"unknown aggregation scheme '{scheme}'")
    if not categories:
        raise ValueError("category list must be non-empty")
    if not sessions:
        return AggregateFragment(np.zeros((0, 0)), [])

    # a repeated category counts in the column of its last occurrence
    cat_col = {cat: i for i, cat in enumerate(categories)}
    rows, stamps, cats = [], [], []
    for row, sess in enumerate(sessions):
        for e in sess.feature_events():
            if e.event_type == "pageview" and e.category_id in cat_col:
                rows.append(row)
                stamps.append(e.timestamp)
                cats.append(cat_col[e.category_id])

    first_ms, last_ms = feature_span(sessions) if span is None else span
    first_day, last_day = first_ms // MS_PER_DAY, last_ms // MS_PER_DAY
    first_monday = first_day - (first_day + 3) % 7
    n_weeks = (last_day - first_monday) // 7 + 1
    halves = ["h1", "h2"] if scheme == "semiweekly" else [""]
    n_columns = n_weeks * len(halves) * len(categories)
    if n_columns > MAX_AGG_COLUMNS:
        first, last = (date.fromordinal(_EPOCH_ORDINAL + d).isocalendar() for d in (first_monday, last_day))
        raise ValueError(f"feature events from ISO week {first[0]}-W{first[1]:02d} to {last[0]}-W{last[1]:02d} over "
                         f"{len(categories)} categories need {n_columns} aggregation columns, more than {MAX_AGG_COLUMNS}")
    names: list[str] = []
    for week in range(n_weeks):
        iso = date.fromordinal(_EPOCH_ORDINAL + first_monday + 7 * week).isocalendar()
        for half in halves:
            for cat in categories:
                names.append(f"cat_{cat}_{iso[0]}w{iso[1]:02d}" + (f"_{half}" if half else ""))

    day = np.array(stamps, dtype=np.int64) // MS_PER_DAY - first_monday
    bucket = (day // 7) * len(halves)
    if scheme == "semiweekly":
        bucket += day % 7 >= 3  # Thursday opens the second half
    cell = (np.array(rows, dtype=np.int64) * len(names) + bucket * len(categories)
            + np.array(cats, dtype=np.int64))
    # unit weights make bincount count straight into float64
    counts = np.bincount(cell, weights=np.ones(len(cell)), minlength=len(sessions) * len(names))
    return AggregateFragment(counts.reshape(len(sessions), len(names)), names)


class FeaturizeError(ValueError):
    """The store cannot give the rows asked of featurize_store: its
    classes cannot be balanced, or a kept row is not finite."""


def balanced_index(labels: np.ndarray, seed: int) -> np.ndarray:
    """The rows balance(ds, seed) keeps of a dataset labelled labels, in
    its order: every buy row and as many non-buy rows drawn without
    replacement, shuffled. Deterministic for a given seed."""
    pos = np.flatnonzero(labels == 1)
    neg = np.flatnonzero(labels == 0)
    if len(pos) == 0:
        raise FeaturizeError(f"cannot balance a dataset with no positives (0 buy and {len(neg)} non-buy rows)")
    if len(pos) > len(neg):
        raise FeaturizeError(
            f"more positives ({len(pos)}) than negatives ({len(neg)}); "
            "cannot balance by negative subsampling"
        )
    rng = np.random.default_rng(seed)
    neg_keep = rng.choice(neg, size=len(pos), replace=False)
    idx = np.concatenate([pos, neg_keep])
    return idx[rng.permutation(len(idx))]


def balance(ds: Dataset, seed: int) -> Dataset:
    """Equalize classes by subsampling non-buy rows without replacement,
    then shuffle: the rows balanced_index(ds.labels, seed) names."""
    out = ds.take(balanced_index(ds.labels, seed))
    out.seed = seed
    return out


def top_categories(store: SessionStore, k: int) -> list[str]:
    """The k most-viewed category ids (pageview counts, ties by id)."""
    if k < 1:
        raise ValueError(f"category count must be at least 1, got {k}")
    counts: dict[str, int] = {}
    for sess in store.sessions.values():
        for ev in sess.events:
            if ev.event_type == "pageview" and ev.category_id is not None:
                counts[ev.category_id] = counts.get(ev.category_id, 0) + 1
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return [cat for cat, _ in ranked[:k]]


def constant_columns(ds: Dataset) -> list[str]:
    if ds.n == 0:
        return []
    const = np.all(ds.rows == ds.rows[0], axis=0)
    return [name for name, c in zip(ds.feature_names, const) if c]


def featurize_store(
    store: SessionStore,
    table: EmbeddingTable,
    scheme: str = "weekly",
    *,
    n_categories: int,
    balance_seed: int | None = None,
) -> Dataset:
    """Full featurization: one row per usable session, in session-id
    order, of engineered features, the top n_categories categories'
    aggregation columns and the buy label.

    With a balance_seed the rows are those balance(ds, balance_seed)
    keeps of that dataset, in its order and with its seed, and only
    they are built; the aggregation columns still span every usable
    session's feature events. A built row that is not finite (a sum of
    finite values that overflows float64) raises FeaturizeError naming
    its session and feature.
    """
    categories = top_categories(store, n_categories)
    sessions = [s for s in store.ordered_sessions() if s.usable]
    labels = np.array([s.label == "buy" for s in sessions], dtype=np.uint8)
    span = feature_span(sessions) if sessions else None
    if balance_seed is not None:
        idx = balanced_index(labels, balance_seed)
        sessions, labels = [sessions[i] for i in idx], labels[idx]
    fragment = aggregate_pageviews(sessions, categories, scheme, span)
    with np.errstate(over="ignore", invalid="ignore"):
        base = compute_session_features(store, sessions, table)
    names = SCALAR_FEATURES + [f"desc_{i:02d}" for i in range(EMBED_DIM)]
    finite = np.isfinite(base)
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        raise FeaturizeError(f"session {sessions[row].session_id!r}: feature {names[col]} is not finite "
                             "(a sum of its finite inputs overflows float64)")
    return Dataset(
        rows=np.hstack([base, fragment.matrix]),
        labels=labels,
        feature_names=names + fragment.column_names,
        aggregation=scheme,
        category_count=len(categories),
        seed=balance_seed,
        n_base_cols=len(names),
    )
