"""synth's event writer as first written, for the package to match.

emit_session builds one dict per event, drawing each click's item and
then its dwell with one scalar rng.random() call apiece, and sorts the
dicts stably by (timestamp, event type). generate_dicts writes every
event through util.dumps, and asks evaluation.auc for the Bayes ceiling
of every corpus, so a draw of one class raises ValueError once the
other three files are written. The package's generator encodes each
(kind, item) head once and draws a session's clicks in one call; it
must write the same events.jsonl, truth.jsonl and embeddings.tsv bytes,
and the same config.json wherever both classes drew.
"""

from __future__ import annotations

import os
from dataclasses import asdict

import numpy as np

from buyintent.evaluation import auc
from buyintent.synth import (
    ITEMS_PER_CATEGORY,
    MS_PER_HOUR,
    STYLE_CONCENTRATION,
    SynthConfig,
    _build_catalog,
    _calibrate_alpha,
    _cdf,
    _plan_sessions,
    _session_scores,
)
from buyintent.util import as_rng, dumps, sigmoid


def emit_session(plan, label: str, impulsive: bool, categories, items, rng) -> list[dict]:
    def event(ts, kind, item_id, **extra):
        return {"user_id": plan["user"], "session_id": plan["sid"], "timestamp": int(ts),
                "event_type": kind, "item_id": item_id, "category_id": None, **extra}

    events = []
    t = plan["start"]
    cats = plan["interests"]
    click_cats = list(cats) + [cats[int(k)] for k in rng.integers(0, len(cats), size=plan["n_clicks"] - len(cats))]
    dwell_scale = float(np.exp(3.4 + 0.5 * plan["dwell_factor"]))
    tiers = np.arange(ITEMS_PER_CATEGORY) / (ITEMS_PER_CATEGORY - 1) - 0.5
    tier_logits = STYLE_CONCENTRATION * plan["style"] * tiers
    tier_probs = np.exp(tier_logits - tier_logits.max())
    tier_probs /= tier_probs.sum()
    tier_cdf = _cdf(tier_probs)
    clicked_items: list[dict] = []
    for c in click_cats:
        cat = categories[c]
        item = items[cat][int(tier_cdf.searchsorted(rng.random(), side="right"))]
        clicked_items.append(item)
        events.append(event(t, "pageview", item["item_id"], category_id=cat, description=item["description"]))
        t += int(dwell_scale * (0.5 + rng.random()) * 1000)
    if rng.random() < 0.3:
        item = clicked_items[int(rng.integers(0, len(clicked_items)))]
        events.append(event(t, "basketview", item["item_id"], price=item["price"]))
        t += int(dwell_scale * 500)
    if label == "buy":
        bought = clicked_items[int(rng.integers(0, len(clicked_items)))]
        if impulsive:
            gap = int(rng.integers(10 * 60 * 1000, 2 * MS_PER_HOUR))
        else:
            gap = int(rng.integers(25 * MS_PER_HOUR, 90 * MS_PER_HOUR))
        events.append(event(t + gap, "buy", bought["item_id"], price=bought["price"]))
    if rng.random() < 0.03:
        ad_kind = "adclick" if rng.random() < 0.3 else "adview"
        events.append(event(plan["start"] + 1500, ad_kind, "ad_banner"))
    return sorted(events, key=lambda e: (e["timestamp"], e["event_type"]))


def generate_dicts(cfg: SynthConfig, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    rng = as_rng(cfg.seed)
    categories, items, vectors = _build_catalog(cfg, rng)
    plans = _plan_sessions(cfg, rng)
    raw = _session_scores(cfg, plans)
    alpha = _calibrate_alpha(raw, cfg.buy_rate)
    intents = sigmoid(alpha + raw)
    labels = rng.random(len(plans)) < intents
    impulsive = rng.random(len(plans)) < cfg.impulsive_fraction

    n_buy = 0
    with open(os.path.join(out_dir, "events.jsonl"), "w", encoding="utf-8") as ev_fh, open(
        os.path.join(out_dir, "truth.jsonl"), "w", encoding="utf-8"
    ) as tr_fh:
        for i, plan in enumerate(plans):
            label = "buy" if labels[i] else "non_buy"
            n_buy += int(labels[i])
            for ev in emit_session(plan, label, bool(impulsive[i]), categories, items, rng):
                ev_fh.write(dumps(ev) + "\n")
            tr_fh.write(dumps({"session_id": plan["sid"], "user_id": plan["user"],
                               "intent": float(intents[i]), "label": label}) + "\n")

    with open(os.path.join(out_dir, "embeddings.tsv"), "w", encoding="utf-8") as fh:
        for word in sorted(vectors):
            vals = "\t".join(f"{v:.8f}" for v in vectors[word].tolist())
            fh.write(f"{word}\t{vals}\n")

    ceiling = auc(intents, labels)
    with open(os.path.join(out_dir, "config.json"), "w", encoding="utf-8") as fh:
        fh.write(dumps({"config": asdict(cfg), "derived": {"alpha": alpha, "n_sessions": len(plans),
                                                           "n_buy_sessions": n_buy, "bayes_auc": ceiling}}) + "\n")
