"""Clickstream ingestion: parse JSON Lines event logs, group into labeled
sessions, and apply the user-activity and prediction-window filters."""

from __future__ import annotations

import io
import json
import sys
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .util import dumps

EVENT_TYPES = frozenset({"pageview", "basketview", "buy", "adclick", "adview"})
AD_EVENT_TYPES = frozenset({"adclick", "adview"})
PRICED_EVENT_TYPES = frozenset({"buy", "basketview"})
CLICK_EVENT_TYPES = frozenset({"pageview", "basketview"})

REQUIRED_FIELDS = ("user_id", "session_id", "timestamp", "event_type", "item_id")

MS_PER_HOUR = 3_600_000

# 9999-12-31T23:59:59.999Z, the last millisecond a datetime can hold.
MAX_TIMESTAMP_MS = 253_402_300_799_999


class RawEvent(NamedTuple):
    """One timestamped user interaction. Timestamps are integer ms UTC.

    A named tuple: immutable and hashable, and cheaper to build than a
    frozen dataclass, which matters once per event in every stage that
    reads a log or a store.
    """

    user_id: str
    session_id: str
    timestamp: int
    event_type: str
    item_id: str
    category_id: str | None = None
    price: float | None = None
    description: str | None = None


@dataclass
class ParseIssue:
    line_no: int
    reason: str


@dataclass
class ParseResult:
    """Events in file order plus per-line error records for bad lines."""

    events: list[RawEvent]
    errors: list[ParseIssue]


@dataclass(eq=False)
class Session:
    """A user's events sharing one session id, sorted by timestamp, with
    the label and usable flag session_fields derives from them."""

    session_id: str
    user_id: str
    events: list[RawEvent]
    label: str
    usable: bool

    def feature_events(self) -> list[RawEvent]:
        """Events usable for features: everything except buy evidence."""
        return [e for e in self.events if e.event_type != "buy"]


def session_fields(events) -> tuple[str, bool]:
    """A session's (label, usable) from its events: label "buy" iff a buy
    event, and usable iff an event that is not a buy."""
    types = {e.event_type for e in events}
    return ("buy" if "buy" in types else "non_buy"), bool(types - {"buy"})


@dataclass(eq=False)
class SessionStore:
    """Immutable-by-convention container of sessions by id."""

    sessions: dict[str, Session]
    duplicates_dropped: int = 0

    def __len__(self) -> int:
        return len(self.sessions)

    def ordered_sessions(self) -> list[Session]:
        return [self.sessions[sid] for sid in sorted(self.sessions)]


def parse_events(stream) -> ParseResult:
    """Parse a JSON Lines byte/text stream, or the lines one bytes or str
    value holds, into RawEvents.

    Each line must be a self-contained JSON object. Malformed lines are
    collected as ParseIssue records with 1-based line numbers instead of
    being dropped silently. An unreadable stream raises OSError.

    Equal values of an event's string fields share one object: a memo
    that lives for this call keeps the first of each, since ids, types
    and descriptions repeat across a log. Each stripped line is decoded
    by the C scanner json.loads ends in; a line it does not consume
    whole goes to json.loads, so every error reads as json.loads's.
    """
    if isinstance(stream, (bytes, bytearray)):
        stream = io.BytesIO(stream)
    elif isinstance(stream, str):
        stream = io.StringIO(stream)
    scan = json.JSONDecoder().scan_once
    share = {}.setdefault  # str and None only: 0.0 == -0.0 and 1 == 1.0 == True
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
            try:
                obj, end = scan(line, 0)
            except StopIteration:  # no JSON value at the start
                end = None
            if end != len(line):
                obj = json.loads(line)
        except ValueError as exc:  # a JSONDecodeError, or an int past Python's digit limit
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
        user, session, item = str(obj["user_id"]), str(obj["session_id"]), str(obj["item_id"])
        etype, category, description = obj["event_type"], obj.get("category_id"), obj.get("description")
        category = None if category is None else str(category)
        description = None if description is None else str(description)
        price = obj.get("price")
        events.append(
            RawEvent(
                user_id=share(user, user),
                session_id=share(session, session),
                timestamp=int(obj["timestamp"]),
                event_type=share(etype, etype),
                item_id=share(item, item),
                category_id=share(category, category),
                price=None if price is None else float(price),
                description=share(description, description),
            )
        )
    return ParseResult(events, errors)


def _validate_event(obj: dict) -> str | None:
    for name in REQUIRED_FIELDS:
        if obj.get(name) is None:
            return f"missing required field '{name}'"
    etype = obj["event_type"]
    if not isinstance(etype, str) or etype not in EVENT_TYPES:
        return f"unknown event_type '{etype}'"
    ts = obj["timestamp"]
    if (
        not isinstance(ts, (int, float))
        or isinstance(ts, bool)
        or (isinstance(ts, float) and not ts.is_integer())  # also NaN and the infinities
    ):
        return "timestamp must be an integer (milliseconds since epoch)"
    if ts < 0:
        return "timestamp must be >= 0"
    if ts > MAX_TIMESTAMP_MS:
        return f"timestamp must be <= {MAX_TIMESTAMP_MS} (9999-12-31T23:59:59.999Z)"
    price = obj.get("price")
    if price is not None:
        if etype not in PRICED_EVENT_TYPES:
            return f"price not allowed on '{etype}' events"
        # Both bounds are false for NaN; the upper one also rejects
        # infinity and any int too large to become a float.
        if (
            not isinstance(price, (int, float))
            or isinstance(price, bool)
            or not 0 <= price <= sys.float_info.max
        ):
            return "price must be a nonnegative number"
    return None


def sessionize(events) -> SessionStore:
    """Group events by session id, sorted by timestamp (stable on input
    order for ties). Ad events are excluded; exact duplicate
    (session_id, timestamp, event_type, item_id) events are dropped and
    counted on the store."""
    groups: dict[str, list[RawEvent]] = {}
    seen: set[tuple] = set()
    duplicates = 0
    for ev in events:
        if ev.event_type in AD_EVENT_TYPES:
            continue
        key = (ev.session_id, ev.timestamp, ev.event_type, ev.item_id)
        if key in seen:
            duplicates += 1
            continue
        seen.add(key)
        groups.setdefault(ev.session_id, []).append(ev)

    sessions: dict[str, Session] = {}
    for sid in sorted(groups):
        evs = groups[sid]
        evs.sort(key=lambda e: e.timestamp)  # stable: ties keep input order
        sessions[sid] = Session(sid, evs[0].user_id, evs, *session_fields(evs))
    return SessionStore(sessions, duplicates)


def filter_min_clicks(store: SessionStore, min_clicks: int = 10) -> SessionStore:
    """Drop every session of users with fewer than min_clicks events in
    the store. All non-ad events count toward the threshold; users at
    exactly min_clicks are retained."""
    if min_clicks < 1:
        raise ValueError("min_clicks must be >= 1")
    counts: dict[str, int] = {}
    for sess in store.sessions.values():
        counts[sess.user_id] = counts.get(sess.user_id, 0) + len(sess.events)
    keep_users = {u for u, n in counts.items() if n >= min_clicks}
    sessions = {sid: s for sid, s in store.sessions.items() if s.user_id in keep_users}
    return SessionStore(sessions, store.duplicates_dropped)


def exclude_prediction_window(session: Session, horizon_ms: int = 24 * MS_PER_HOUR) -> Session:
    """Strip feature events inside the prediction window of buy sessions.

    For a buy session, every non-buy event with timestamp at or after
    (earliest buy - horizon) is removed; the buy events stay only as
    label evidence. A buy session left with no feature events is
    returned flagged unusable. Non-buy sessions pass through unchanged.
    """
    if horizon_ms <= 0:
        raise ValueError("horizon must be positive")
    if session.label != "buy":
        return session
    first_buy = min(e.timestamp for e in session.events if e.event_type == "buy")
    cutoff = first_buy - horizon_ms
    kept = [e for e in session.events if e.event_type == "buy" or e.timestamp < cutoff]
    return replace(session, events=kept, usable=session_fields(kept)[1])


def apply_prediction_window(store: SessionStore, horizon_ms: int = 24 * MS_PER_HOUR) -> SessionStore:
    """exclude_prediction_window mapped over every session in the store."""
    sessions = {
        sid: exclude_prediction_window(sess, horizon_ms)
        for sid, sess in store.sessions.items()
    }
    return SessionStore(sessions, store.duplicates_dropped)


@dataclass
class IngestReport:
    """Counts gathered while building a store from a raw event file."""

    events_parsed: int
    parse_errors: int
    event_type_counts: dict[str, int]
    users: int
    sessions: int
    buy_sessions: int
    duplicates_dropped: int
    users_removed_min_clicks: int
    sessions_removed_min_clicks: int
    unusable_buy_sessions: int

    def to_json(self) -> str:
        return json.dumps(self.__dict__, sort_keys=True, indent=2) + "\n"


def ingest_events(
    parsed: ParseResult, min_clicks: int = 10, horizon_ms: int = 24 * MS_PER_HOUR
) -> tuple[SessionStore, IngestReport]:
    """Full ingest pipeline: sessionize, user filter, window exclusion."""
    type_counts: dict[str, int] = {t: 0 for t in sorted(EVENT_TYPES)}
    for ev in parsed.events:
        type_counts[ev.event_type] += 1
    store = sessionize(parsed.events)
    users_before, sessions_before = {s.user_id for s in store.sessions.values()}, len(store)
    store = filter_min_clicks(store, min_clicks)
    store = apply_prediction_window(store, horizon_ms)
    users = {s.user_id for s in store.sessions.values()}
    unusable = sum(1 for s in store.sessions.values() if not s.usable)
    report = IngestReport(
        events_parsed=len(parsed.events),
        parse_errors=len(parsed.errors),
        event_type_counts=type_counts,
        users=len(users),
        sessions=len(store),
        buy_sessions=sum(1 for s in store.sessions.values() if s.label == "buy"),
        duplicates_dropped=store.duplicates_dropped,
        users_removed_min_clicks=len(users_before) - len(users),
        sessions_removed_min_clicks=sessions_before - len(store),
        unusable_buy_sessions=unusable,
    )
    return store, report


STORE_FORMAT = "buyintent-store"
STORE_VERSION = 2


def save_store(store: SessionStore, path) -> None:
    """Persist a store as canonical JSON; round-trips bit-exactly.

    The document is one object with sorted keys and no whitespace. Its
    top level is written here and each session record by util.dumps,
    whose C encoder gives the same bytes as encoding the whole document
    in one call, without building it in memory.
    """
    with open(path, "w", encoding="utf-8") as fh:
        dropped, fmt = dumps(store.duplicates_dropped), dumps(STORE_FORMAT)
        fh.write(f'{{"duplicates_dropped":{dropped},"format":{fmt},"sessions":[')
        for i, s in enumerate(store.ordered_sessions()):
            rec = {
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
            fh.write(("," if i else "") + dumps(rec))
        fh.write(f'],"version":{dumps(STORE_VERSION)}}}\n')


# The types save_store writes for each event field; load_store accepts
# an int price too. The ids are the session's, not the event's.
_EVENT_FIELD_TYPES = {
    "timestamp": {int},
    "event_type": {str},
    "item_id": {str},
    "category_id": {str, type(None)},
    "price": {int, float, type(None)},
    "description": {str, type(None)},
}
_SESSION_KEYS = {"session_id", "user_id", "events"}


def load_store(path) -> SessionStore:
    """Read a store written by save_store.

    A file that is not UTF-8 JSON, a document that is not a version 2
    store, or one whose sessions and events lack the keys, types and
    ranges save_store writes, raises ValueError naming the path (JSON
    nested past the recursion limit stays a RecursionError, with the
    path). Every session needs an event, its events must be in time
    order, and a price must be finite, at least 0 and on a buy or
    basketview event, as in a log. Each event takes its session's ids,
    and session_fields derives each session's label and usable flag, as
    in sessionize. Event fields are checked a column at a time over the
    whole store, so those checks cost a constant per event.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except ValueError as exc:  # a UnicodeDecodeError or a JSONDecodeError
        raise ValueError(f"{path}: not a session store file: {exc}") from None
    except RecursionError as exc:
        raise RecursionError(f"{path}: {exc}") from None
    if not isinstance(doc, dict) or doc.get("format") != STORE_FORMAT:
        raise ValueError(f"{path}: not a session store file")
    if doc.get("version") != STORE_VERSION:
        raise ValueError(f"{path}: unsupported store version {doc.get('version')}")
    try:
        return _read_sessions(doc)
    except ValueError as exc:
        raise ValueError(f"{path}: malformed session store: {exc}") from None


def _read_sessions(doc: dict) -> SessionStore:
    dropped = doc.get("duplicates_dropped", 0)
    if type(dropped) is not int or dropped < 0:
        raise ValueError(f"'duplicates_dropped' must be a nonnegative int, got {dropped!r}")
    records = doc.get("sessions")
    if not isinstance(records, list):
        raise ValueError("'sessions' must be a list")
    sessions: dict[str, Session] = {}
    all_events: list[RawEvent] = []
    starts: list[int] = []
    for n, rec in enumerate(records):
        if not isinstance(rec, dict) or rec.keys() != _SESSION_KEYS:
            raise ValueError(f"session {n} must be an object with keys {sorted(_SESSION_KEYS)}")
        sid, uid = rec["session_id"], rec["user_id"]
        if not (type(sid) is str and type(uid) is str and type(rec["events"]) is list):
            raise ValueError(f"session {n} has a field of the wrong type")
        if sid in sessions:
            raise ValueError(f"session {sid!r} appears twice")
        try:
            events = [RawEvent(uid, sid, **ev) for ev in rec["events"]]
        except TypeError as exc:
            raise ValueError(f"session {sid!r} has a malformed event: {exc}") from None
        if not events:
            raise ValueError(f"session {sid!r} has no events")
        starts.append(len(all_events))
        all_events += events
        sessions[sid] = Session(sid, uid, events, *session_fields(events))
    if all_events:
        columns = dict(zip(RawEvent._fields, zip(*all_events)))
        for name, allowed in _EVENT_FIELD_TYPES.items():
            wrong = set(map(type, columns[name])) - allowed
            if wrong:
                raise ValueError(f"event field '{name}' has type {min(t.__name__ for t in wrong)}")
        stamps, types = columns["timestamp"], set(columns["event_type"])
        if min(stamps) < 0 or max(stamps) > MAX_TIMESTAMP_MS:
            raise ValueError(f"event timestamps must lie in [0, {MAX_TIMESTAMP_MS}]")
        if not types <= EVENT_TYPES:
            raise ValueError(f"unknown event_type '{min(types - EVENT_TYPES)}'")
        priced = {t for t, p in zip(columns["event_type"], columns["price"]) if p is not None}
        if not priced <= PRICED_EVENT_TYPES:
            raise ValueError(f"price not allowed on '{min(priced - PRICED_EVENT_TYPES)}' events")
        # false for NaN; the upper bound also refuses infinity and any int too large to become a float
        if not all(0 <= p <= sys.float_info.max for p in columns["price"] if p is not None):
            raise ValueError("event prices must be finite and at least 0")
        step = np.diff(np.array(stamps, dtype=np.int64))
        step[np.array(starts[1:], dtype=np.int64) - 1] = 0  # a session may start before the last one ends
        back = np.flatnonzero(step < 0)
        if back.size:
            sid = list(sessions)[np.searchsorted(starts, back[0], side="right") - 1]
            raise ValueError(f"session {sid!r} has events out of time order")
    return SessionStore(sessions, dropped)
