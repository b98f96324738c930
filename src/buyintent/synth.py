"""Seeded clickstream generator with a planted buy-intent signal.

Each session gets a latent intent probability from a logistic model
over planted drivers: browse speed and the count of views in a small
set of signal categories in the linear regime; click volume, taste for
premium versus budget items, and category-pair interactions between
signal-category interests (which carry no linear correlation with the
label by construction) in the nonlinear regime. Ground truth goes to a
separate file so no model can read it by accident.

A slice of buy sessions purchases within hours of browsing; the
prediction-window rule strips those empty and flags them, which gives
ingestion something real to exercise.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass
from operator import itemgetter

import numpy as np

from .evaluation import auc
from .ingest import MAX_TIMESTAMP_MS
from .util import as_rng, dumps, sigmoid

WORDS_PER_DESC = (3, 7)
ITEMS_PER_CATEGORY = 6
N_SIGNAL_CATEGORIES = 4
VOCAB_SIZE = 320
# one marker word per price tier, woven into item copy so descriptions
# reveal where an item sits on the budget-to-premium axis
STYLE_WORDS = ("budget", "value", "basic", "standard", "plus", "pro", "premium", "deluxe")
STYLE_CONCENTRATION = 2.5
# each item's place on its category's budget-to-premium ladder, centred
# so that premium shoppers open premium items and budget shoppers budget
# ones
TIER_LADDER = np.arange(ITEMS_PER_CATEGORY) / (ITEMS_PER_CATEGORY - 1) - 0.5
LINEAR_WEIGHTS = (1.0, 1.0)
NONLINEAR_WEIGHTS = (0.6, 0.9, 3.0, 0.9, 1.3)
MS_PER_HOUR = 3_600_000
MS_PER_DAY = 24 * MS_PER_HOUR
# first Monday of the epoch, so a weeks-long browse window covers whole
# ISO weeks and weekly aggregation yields exactly `weeks` columns per
# category
WINDOW_BASE_MS = 4 * MS_PER_DAY
# how far past its start a session's events can reach: at most 24 clicks
# and a basketview, then the 90 h buy gap. A week holds them unless a
# session's dwell factor draws past 11 standard deviations.
SESSION_SPAN_MS = 7 * MS_PER_DAY
# the most weeks whose sessions all end by ingest's last timestamp
MAX_WEEKS = (MAX_TIMESTAMP_MS - WINDOW_BASE_MS - SESSION_SPAN_MS) // (7 * MS_PER_DAY)
# below these, user, session (at most 3 per user) and category ids keep
# their fixed width (u99999, s299999, c999), so their string order is
# their number order
MAX_USERS = 100_000
MAX_CATEGORIES = 1_000


@dataclass(frozen=True)
class SynthConfig:
    n_users: int = 1000
    n_categories: int = 257
    buy_rate: float = 0.03
    signal_strength: float = 0.8
    nonlinear: bool = False
    weeks: int = 3
    seed: int = 0
    impulsive_fraction: float = 0.1

    def __post_init__(self):
        for name, flag, value, ceiling in (
            ("n_users", "--users", self.n_users, MAX_USERS),
            ("n_categories", "--categories", self.n_categories, MAX_CATEGORIES),
            ("weeks", "--weeks", self.weeks, MAX_WEEKS),
        ):
            if value > ceiling:
                raise ValueError(f"{name} ({flag}) must be at most {ceiling}, got {value}")
        if self.n_users < 1 or self.n_categories < N_SIGNAL_CATEGORIES + 2:
            raise ValueError("need at least one user and a catalog beyond the signal categories")
        if not 0.0 < self.buy_rate < 1.0:
            raise ValueError("buy_rate must be in (0,1)")
        if not 0.0 <= self.signal_strength <= 1.0:
            raise ValueError("signal_strength must be in [0,1]")
        if self.weeks < 1:
            raise ValueError("weeks must be positive")
        if not 0.0 <= self.impulsive_fraction <= 1.0:
            raise ValueError("impulsive_fraction must be in [0,1]")


@dataclass(eq=False)
class SynthResult:
    events_path: str
    truth_path: str
    embeddings_path: str
    config_path: str
    n_sessions: int
    n_buy_sessions: int
    bayes_auc: float | None


def _calibrate_alpha(raw: np.ndarray, target_rate: float) -> float:
    """Bisect the intercept so the mean intent equals the buy rate."""
    lo, hi = -30.0, 30.0
    for _ in range(100):
        mid = (lo + hi) / 2.0
        if float(np.mean(sigmoid(mid + raw))) < target_rate:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def _build_catalog(cfg: SynthConfig, rng):
    """Categories, items with stable prices and descriptions, and the
    word vectors that back the descriptions.

    Each category leans on its own slice of the vocabulary, so
    descriptions identify their category the way real product copy
    does and description embeddings carry category information. Within
    a category, items ladder from budget to premium; each description
    works in the marker word for its tier.
    """
    vocab = [f"prod{w:03d}" for w in range(VOCAB_SIZE)]
    fillers = ["the", "a", "for", "with", "and"]
    vectors = {w: rng.normal(0.0, 1.0, size=50) for w in vocab + fillers + list(STYLE_WORDS)}
    categories = [f"c{k:03d}" for k in range(cfg.n_categories)]
    slice_size = max(1, VOCAB_SIZE // cfg.n_categories)
    items: dict[str, list[dict]] = {}
    for ci, cat in enumerate(categories):
        base = (ci * slice_size) % VOCAB_SIZE
        rows = []
        for k in range(ITEMS_PER_CATEGORY):
            tier = k / (ITEMS_PER_CATEGORY - 1)
            n_words = int(rng.integers(*WORDS_PER_DESC))
            own = (base + rng.integers(0, slice_size, size=n_words)) % VOCAB_SIZE
            anywhere = rng.integers(0, len(vocab), size=n_words)
            picks = np.where(rng.random(n_words) < 0.3, anywhere, own)
            words = [vocab[int(i)] for i in picks]
            marker = STYLE_WORDS[int(round(tier * (len(STYLE_WORDS) - 1)))]
            for _ in range(2):
                words.insert(int(rng.integers(0, len(words) + 1)), marker)
            if rng.random() < 0.5:
                words.insert(int(rng.integers(0, len(words) + 1)), fillers[int(rng.integers(0, len(fillers)))])
            rows.append(
                {
                    "item_id": f"i_{cat}_{k}",
                    "tier": tier,
                    "price": float(np.round(np.exp(rng.normal(3.0, 0.6)), 2)),
                    "description": " ".join(words),
                }
            )
        items[cat] = rows
    return categories, items, vectors


def _cdf(p) -> np.ndarray:
    """The table Generator.choice(n, p=p) searches: the cumulative sum
    of p scaled so its last entry is exactly 1.

    int(cdf.searchsorted(rng.random(), side="right")) then takes the
    same one double from the stream and returns the same index as
    rng.choice(len(p), p=p), without choice's per-call checks of p.
    """
    cdf = np.asarray(p, dtype=float).cumsum()
    cdf /= cdf[-1]
    return cdf


# sessions per user: 1, 2 or 3 with these odds
SESSIONS_PER_USER_CDF = _cdf([0.6, 0.25, 0.15])


def _plan_sessions(cfg: SynthConfig, rng):
    """Draw the latent structure of every session before any labels:
    who browses, which categories, how fast, and when."""
    signal_cats = list(range(N_SIGNAL_CATEGORIES))
    plans = []
    sid = 0
    window_ms = cfg.weeks * 7 * MS_PER_DAY
    for u in range(cfg.n_users):
        n_sessions = 1 + int(SESSIONS_PER_USER_CDF.searchsorted(rng.random(), side="right"))
        for _ in range(n_sessions):
            interest_mask = rng.random(N_SIGNAL_CATEGORIES) < 0.5
            interests = [c for c, on in zip(signal_cats, interest_mask) if on]
            extra = rng.integers(N_SIGNAL_CATEGORIES, cfg.n_categories, size=2)
            interests = interests + [int(e) for e in extra]
            n_clicks = max(int(rng.integers(10, 25)), len(interests) + 2)
            plans.append(
                {
                    "user": f"u{u:05d}",
                    "sid": f"s{sid:06d}",
                    "start": WINDOW_BASE_MS + int(rng.integers(0, window_ms)),
                    "dwell_factor": float(rng.normal(0.0, 1.0)),
                    "style": float(rng.normal(0.0, 1.0)),
                    "interest_mask": interest_mask,
                    "interests": interests,
                    "n_clicks": n_clicks,
                }
            )
            sid += 1
    return plans


def _standardize(values: np.ndarray) -> np.ndarray:
    std = values.std()
    return (values - values.mean()) / (std if std > 0 else 1.0)


def _session_scores(cfg: SynthConfig, plans) -> np.ndarray:
    """The planted drivers, standardized and weighted.

    The linear regime mixes browse speed with signal-category breadth.
    The nonlinear regime layers category-pair interaction terms on top:
    an even-odd fold of interest breadth and XOR pairs of
    signal-category interests, both products of interest bits with no
    marginal correlation with the label. Click volume and premium
    taste stay in as continuous drivers so intent is not a pure step
    function of the interest pattern.
    """
    breadth = np.array([p["interest_mask"].sum() for p in plans], dtype=float)
    z_sig = _standardize(breadth)
    if cfg.nonlinear:
        w_clicks, w_sig, w_fold, w_xor, w_style = NONLINEAR_WEIGHTS
        z_clicks = _standardize(np.array([p["n_clicks"] for p in plans], dtype=float))
        z_style = _standardize(np.array([p["style"] for p in plans]))
        z_fold = _standardize(np.abs(breadth - N_SIGNAL_CATEGORIES / 2.0))
        xor_total = np.zeros(len(plans))
        for a in range(0, N_SIGNAL_CATEGORIES - 1, 2):
            one_of = np.array([p["interest_mask"][a] ^ p["interest_mask"][a + 1] for p in plans])
            xor_total += np.where(one_of, 1.0, -1.0)
        score = (
            w_clicks * z_clicks
            + w_sig * z_sig
            + w_fold * z_fold
            + w_xor * xor_total
            + w_style * z_style
        )
    else:
        w_dwell, w_sig = LINEAR_WEIGHTS
        dwell = np.array([p["dwell_factor"] for p in plans])
        score = w_dwell * (-dwell) + w_sig * z_sig
    return cfg.signal_strength * score


def _emit_session(plan, label: str, impulsive: bool, categories, items, rng, heads: dict) -> list[str]:
    """One session's events.jsonl lines, sorted stably by (timestamp,
    event type).

    Each line holds the bytes util.dumps writes for the event's dict.
    The fields that sort before "session_id" depend only on the event
    kind and the item, so `heads` keeps their JSON, closing brace
    dropped, per (kind, item id) from the first such event on; the
    session's id, the timestamp and the user's id complete the line.

    Basketviews appear at the same rate for buy and non-buy sessions so
    that their mere presence carries no label signal; only the planted
    drivers separate the classes.
    """
    events = []  # (timestamp, event type, line)
    mid = f',"session_id":{dumps(plan["sid"])},"timestamp":'
    end = f',"user_id":{dumps(plan["user"])}}}\n'

    def event(ts, kind, item_id, **extra):
        head = heads.get((kind, item_id))
        if head is None:
            head = heads[kind, item_id] = dumps(
                {"category_id": None, "event_type": kind, "item_id": item_id, **extra})[:-1]
        events.append((ts, kind, f"{head}{mid}{ts}{end}"))

    t = plan["start"]
    cats = plan["interests"]
    # one view per interest first, so viewed-category indicators equal
    # the planted interest mask exactly
    click_cats = list(cats) + [cats[int(k)] for k in rng.integers(0, len(cats), size=plan["n_clicks"] - len(cats))]
    dwell_scale = float(np.exp(3.4 + 0.5 * plan["dwell_factor"]))
    tier_logits = STYLE_CONCENTRATION * plan["style"] * TIER_LADDER
    tier_probs = np.exp(tier_logits - tier_logits.max())
    tier_probs /= tier_probs.sum()
    # per click, one double picks the item and the next sets the dwell:
    # the stream order of one scalar rng.random() call for each
    u = rng.random(2 * len(click_cats))
    picks = _cdf(tier_probs).searchsorted(u[0::2], side="right").tolist()
    steps = (dwell_scale * (0.5 + u[1::2]) * 1000).tolist()
    clicked_items: list[dict] = []
    for c, pick, step in zip(click_cats, picks, steps):
        cat = categories[c]
        item = items[cat][pick]
        clicked_items.append(item)
        event(t, "pageview", item["item_id"], category_id=cat, description=item["description"])
        t += int(step)
    if rng.random() < 0.3:
        item = clicked_items[int(rng.integers(0, len(clicked_items)))]
        event(t, "basketview", item["item_id"], price=item["price"])
        t += int(dwell_scale * 500)
    if label == "buy":
        bought = clicked_items[int(rng.integers(0, len(clicked_items)))]
        if impulsive:
            gap = int(rng.integers(10 * 60 * 1000, 2 * MS_PER_HOUR))
        else:
            gap = int(rng.integers(25 * MS_PER_HOUR, 90 * MS_PER_HOUR))
        event(t + gap, "buy", bought["item_id"], price=bought["price"])
    if rng.random() < 0.03:
        ad_kind = "adclick" if rng.random() < 0.3 else "adview"
        event(plan["start"] + 1500, ad_kind, "ad_banner")
    events.sort(key=itemgetter(0, 1))
    return [line for _, _, line in events]


def generate(cfg: SynthConfig, out_dir: str) -> SynthResult:
    """Write events.jsonl, truth.jsonl, embeddings.tsv, and the config
    echo (with the calibrated intercept and the intent-probability AUC
    ceiling, null for a corpus of one class) into out_dir;
    byte-identical for identical configs."""
    os.makedirs(out_dir, exist_ok=True)
    rng = as_rng(cfg.seed)
    categories, items, vectors = _build_catalog(cfg, rng)
    plans = _plan_sessions(cfg, rng)
    raw = _session_scores(cfg, plans)
    alpha = _calibrate_alpha(raw, cfg.buy_rate)
    intents = sigmoid(alpha + raw)
    labels = rng.random(len(plans)) < intents
    impulsive = rng.random(len(plans)) < cfg.impulsive_fraction

    events_path = os.path.join(out_dir, "events.jsonl")
    truth_path = os.path.join(out_dir, "truth.jsonl")
    embeddings_path = os.path.join(out_dir, "embeddings.tsv")
    config_path = os.path.join(out_dir, "config.json")

    n_buy = 0
    heads: dict = {}
    with open(events_path, "w", encoding="utf-8") as ev_fh, open(
        truth_path, "w", encoding="utf-8"
    ) as tr_fh:
        for i, plan in enumerate(plans):
            label = "buy" if labels[i] else "non_buy"
            n_buy += int(labels[i])
            ev_fh.writelines(_emit_session(plan, label, bool(impulsive[i]), categories, items, rng, heads))
            tr_fh.write(
                dumps(
                    {
                        "session_id": plan["sid"],
                        "user_id": plan["user"],
                        "intent": float(intents[i]),
                        "label": label,
                    }
                )
                + "\n"
            )

    with open(embeddings_path, "w", encoding="utf-8") as fh:
        for word in sorted(vectors):
            vals = "\t".join(f"{v:.8f}" for v in vectors[word].tolist())
            fh.write(f"{word}\t{vals}\n")

    # the intent probabilities against the drawn labels: the AUC ceiling
    # no scorer can beat in expectation, and none where one class drew
    # every session
    ceiling = auc(intents, labels) if 0 < n_buy < len(plans) else None
    with open(config_path, "w", encoding="utf-8") as fh:
        fh.write(
            dumps(
                {
                    "config": asdict(cfg),
                    "derived": {
                        "alpha": alpha,
                        "n_sessions": len(plans),
                        "n_buy_sessions": n_buy,
                        "bayes_auc": ceiling,
                    },
                }
            )
            + "\n"
        )
    return SynthResult(
        events_path=events_path,
        truth_path=truth_path,
        embeddings_path=embeddings_path,
        config_path=config_path,
        n_sessions=len(plans),
        n_buy_sessions=n_buy,
        bayes_auc=ceiling,
    )

