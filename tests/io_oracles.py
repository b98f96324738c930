"""References for the byte-identical store writer and NMF projection.

save_store_dump writes a session store the way the package first did:
build the whole document, then json.dump it with sorted keys and no
whitespace. nmf_transform_loop projects rows onto a fixed H with the
package's first loop, which forms V @ H.T and W @ H afresh for every
update and every error. ingest.save_store and nmf.nmf_transform must
match them bit for bit.
"""

from __future__ import annotations

import json

import numpy as np

from buyintent.ingest import STORE_FORMAT, STORE_VERSION
from buyintent.nmf import EPS, _residual_norm
from buyintent.util import as_rng


def save_store_dump(store, path) -> None:
    doc = {
        "format": STORE_FORMAT,
        "version": STORE_VERSION,
        "duplicates_dropped": store.duplicates_dropped,
        "sessions": [
            {
                "session_id": s.session_id,
                "user_id": s.user_id,
                "label": s.label,
                "usable": s.usable,
                "bought_items": sorted(s.bought_items),
                "events": [
                    {
                        "user_id": e.user_id,
                        "session_id": e.session_id,
                        "timestamp": e.timestamp,
                        "event_type": e.event_type,
                        "item_id": e.item_id,
                        "category_id": e.category_id,
                        "price": e.price,
                        "description": e.description,
                    }
                    for e in s.events
                ],
            }
            for s in store.ordered_sessions()
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def nmf_transform_loop(V, H, seed, max_iters: int = 500, tol: float = 1e-5) -> np.ndarray:
    V = np.asarray(V, dtype=float)
    H = np.asarray(H, dtype=float)
    rng = as_rng(seed)
    rank = H.shape[0]
    scale = np.sqrt(max(float(V.mean()), EPS) / rank)
    W = rng.uniform(0.0, 1.0, size=(V.shape[0], rank)) * scale
    prev = _residual_norm(V, W @ H)
    for _ in range(max_iters):
        W *= (V @ H.T) / (W @ H @ H.T + EPS)
        err = _residual_norm(V, W @ H)
        if prev > 0 and (prev - err) / prev < tol:
            break
        prev = err
    return W
