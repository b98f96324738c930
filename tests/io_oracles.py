"""References for the event reader, the byte-identical store writer and
NMF projection.

parse_events_loads reads a log the way the package first did: one
json.loads per stripped line, each string field its own object.
ingest.parse_events must give equal events (each value of the same type
and repr) and the same (line_no, reason) list.

save_store_dump writes a session store the way the package first did:
build the whole document, then json.dump it with sorted keys and no
whitespace. nmf_transform_loop projects rows onto a fixed H with the
package's first loop, which forms V @ H.T and W @ H afresh for every
update and every error. nmf_factorize_loop is the package's first
factorization loop. Both take the residual norm in residual_norm_temps,
the first form, which makes V - W H and its square as two new arrays.
ingest.save_store, nmf.nmf_transform and nmf.nmf_factorize must match
them bit for bit.
"""

from __future__ import annotations

import io
import json

import numpy as np

from buyintent.ingest import STORE_FORMAT, STORE_VERSION, ParseIssue, ParseResult, RawEvent, _validate_event
from buyintent.nmf import EPS, NmfFactors, _init_factors
from buyintent.util import as_rng


def parse_events_loads(stream) -> ParseResult:
    if isinstance(stream, (bytes, bytearray)):
        stream = io.BytesIO(stream)
    events: list[RawEvent] = []
    errors: list[ParseIssue] = []
    for line_no, raw in enumerate(stream, start=1):
        if isinstance(raw, bytes):
            try:
                raw = raw.decode("utf-8")
            except UnicodeDecodeError:
                errors.append(ParseIssue(line_no, "line is not valid UTF-8"))
                continue
        line = raw.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except ValueError as exc:
            errors.append(ParseIssue(line_no, f"invalid JSON: {getattr(exc, 'msg', exc)}"))
            continue
        except RecursionError:
            errors.append(ParseIssue(line_no, "invalid JSON: nested too deeply"))
            continue
        if not isinstance(obj, dict):
            errors.append(ParseIssue(line_no, "line is not a JSON object"))
            continue
        issue = _validate_event(obj)
        if issue is not None:
            errors.append(ParseIssue(line_no, issue))
            continue
        events.append(
            RawEvent(
                user_id=str(obj["user_id"]),
                session_id=str(obj["session_id"]),
                timestamp=int(obj["timestamp"]),
                event_type=obj["event_type"],
                item_id=str(obj["item_id"]),
                category_id=None if obj.get("category_id") is None else str(obj["category_id"]),
                price=None if obj.get("price") is None else float(obj["price"]),
                description=None if obj.get("description") is None else str(obj["description"]),
            )
        )
    return ParseResult(events, errors)


def save_store_dump(store, path) -> None:
    doc = {
        "format": STORE_FORMAT,
        "version": STORE_VERSION,
        "duplicates_dropped": store.duplicates_dropped,
        "sessions": [
            {
                "session_id": s.session_id,
                "user_id": s.user_id,
                "events": [
                    {
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


def residual_norm_temps(V, WH) -> float:
    R = V - WH
    return float(np.sqrt(np.sum(R * R)))


def nmf_factorize_loop(V, rank, seed, max_iters: int = 500, tol: float = 1e-5) -> NmfFactors:
    V = np.asarray(V, dtype=float)
    W, H = _init_factors(V, rank, as_rng(seed))
    trace = [residual_norm_temps(V, W @ H)]
    for it in range(1, max_iters + 1):
        H *= (W.T @ V) / (W.T @ W @ H + EPS)
        W *= (V @ H.T) / (W @ H @ H.T + EPS)
        err = residual_norm_temps(V, W @ H)
        prev = trace[-1]
        trace.append(err)
        if prev > 0 and (prev - err) / prev < tol:
            break
    return NmfFactors(W=W, H=H, rank=rank, n_iters=it, error_trace=trace)


def nmf_transform_loop(V, H, seed, max_iters: int = 500, tol: float = 1e-5) -> np.ndarray:
    V = np.asarray(V, dtype=float)
    H = np.asarray(H, dtype=float)
    rng = as_rng(seed)
    rank = H.shape[0]
    scale = np.sqrt(max(float(V.mean()), EPS) / rank)
    W = rng.uniform(0.0, 1.0, size=(V.shape[0], rank)) * scale
    prev = residual_norm_temps(V, W @ H)
    for _ in range(max_iters):
        W *= (V @ H.T) / (W @ H @ H.T + EPS)
        err = residual_norm_temps(V, W @ H)
        if prev > 0 and (prev - err) / prev < tol:
            break
        prev = err
    return W
