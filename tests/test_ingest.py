"""Parsing, sessionization, filters, and store persistence."""

from __future__ import annotations

import json
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from buyintent.ingest import (
    AD_EVENT_TYPES,
    EVENT_TYPES,
    MAX_LINE_DEPTH,
    MAX_TIMESTAMP_MS,
    MS_PER_HOUR,
    ParseResult,
    RawEvent,
    Session,
    SessionStore,
    apply_prediction_window,
    exclude_prediction_window,
    filter_min_clicks,
    ingest_events,
    load_store,
    parse_events,
    save_store,
    sessionize,
)
from io_oracles import parse_events_loads, save_store_dump

DAY = 24 * MS_PER_HOUR
TOO_DEEP = f"invalid JSON: nested more than {MAX_LINE_DEPTH} levels deep"


def ev(user="u1", sid="s1", ts=0, etype="pageview", item="i1", **kw):
    return RawEvent(
        user_id=user, session_id=sid, timestamp=ts, event_type=etype, item_id=item, **kw
    )


def lines(*objs):
    return "\n".join(json.dumps(o) for o in objs) + "\n"


def base_obj(**kw):
    obj = {
        "user_id": "u1",
        "session_id": "s1",
        "timestamp": 1000,
        "event_type": "pageview",
        "item_id": "i1",
    }
    obj.update(kw)
    return obj


def _is_blank(line: bytes) -> bool:
    try:
        return not line.decode("utf-8").strip()
    except UnicodeDecodeError:
        return False


# One line of a log, newline-free: random bytes, an event with one field
# set to an arbitrary JSON value, or a line that stops a naive parser.
BYTE_LINE = st.one_of(
    st.binary(max_size=30),
    st.builds(
        lambda key, value: json.dumps(base_obj(**{key: value})).encode("utf-8"),
        st.sampled_from(["user_id", "session_id", "timestamp", "event_type", "item_id", "category_id", "price",
                         "description"]),
        st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=5),
                  st.lists(st.integers(), max_size=2), st.sampled_from(sorted(EVENT_TYPES))),
    ),
    st.sampled_from([b"9" * 5000, b'{"user_id": ' + b"7" * 5000 + b"}", b"[" * 5000, b"\xff\xfe", b" \t\r"]),
).map(lambda line: line.replace(b"\n", b" "))


# The string fields of RawEvent, each shared per parse_events call.
STRING_FIELDS = ("user_id", "session_id", "event_type", "item_id", "category_id", "description")

# Field values that repeat across a drawn log, among them the values a
# memo keyed by equality would confuse (0.0 and -0.0, 1 and 1.0 and True).
_ORACLE_EVENT = st.builds(
    lambda **kw: json.dumps(base_obj(**kw)).encode("utf-8"),
    user_id=st.sampled_from(["u1", "u22", 17, 17.0, "17", True]),
    session_id=st.sampled_from(["s1", "s22", "s1 "]),
    timestamp=st.sampled_from([0, 1000, 1000.0, -0.0, 12.5, "1", True, -3, MAX_TIMESTAMP_MS + 1]),
    event_type=st.sampled_from([*sorted(EVENT_TYPES), "hover"]),
    item_id=st.sampled_from(["i1", "i22", 5, None]),
    category_id=st.sampled_from([None, "c1", "c12", 3]),
    price=st.sampled_from([None, 0, 0.0, -0.0, 1, 1.0, 2.5, True, -1]),
    description=st.sampled_from([None, "red shoe", "blue hat", "", "\u00e9t\u00e9"]),
)

# One newline-free log line for the reader oracle: a drawn event with a
# prefix and suffix that JSON, str.strip or UTF-8 treat each their own
# way (a BOM, Unicode whitespace, a CR, trailing data, a bad byte), a
# line that fails deep in the decoder, or random bytes.
ORACLE_LINE = st.one_of(
    st.tuples(
        st.sampled_from([b"", b"\xef\xbb\xbf", " \u3000\xa0".encode(), b"\x1c", b"\t"]),
        _ORACLE_EVENT,
        st.sampled_from([b"", b"\r", b" x", b"{}", b" \xc2\x85", b"]", b"\xff", b" \t \r"]),
    ).map(b"".join),
    st.sampled_from([
        b"", b"   ", b"\t\r", b"9" * 5000, b'{"user_id": ' + b"7" * 5000 + b"}", b"[" * 5000,
        b'{"a": ' * 3000, b"[" * 20 + b"]" * 20, b"[" * 100 + b"]" * 100, b"[" * 101 + b"]" * 101,
        b'{"a": "' + b"[" * 300 + b'"}', b'["\\"' + b"{" * 200 + b'"]', b"\xff\xfe", b"\xc3\x28", b"\xed\xa0\x80",
        b"[1, 2]", b'"str"', b"null", b"nul", b"1e400", b"{}", b"{} {}", b'{"a": 1}x', b"{broken", b'{"a": "\\ud800"}',
    ]),
    st.binary(max_size=20).map(lambda line: line.replace(b"\n", b" ")),
)


def _typed(events) -> list:
    """Each event as its values' types and reprs: -0.0 and 0.0, or 1.0
    and 1, read as equal events otherwise."""
    return [[(type(v), repr(v)) for v in e] for e in events]


def _zero_priced(price) -> bytes:
    return json.dumps(base_obj(event_type="buy", price=price)).encode("utf-8")


class TestParseEvents:
    def test_valid_lines_parse_in_order(self):
        text = lines(base_obj(timestamp=5), base_obj(timestamp=9, item_id="i2"))
        result = parse_events(text.splitlines(True))
        assert not result.errors
        assert [e.timestamp for e in result.events] == [5, 9]
        assert result.events[1].item_id == "i2"

    def test_malformed_json_recorded_with_line_number(self):
        text = lines(base_obj()) + "{broken\n" + lines(base_obj(timestamp=2))
        result = parse_events(text.splitlines(True))
        assert len(result.events) == 2
        assert len(result.errors) == 1
        assert result.errors[0].line_no == 2
        assert "JSON" in result.errors[0].reason

    def test_line_nested_past_the_recursion_limit_is_one_issue(self):
        text = lines(base_obj(timestamp=1)) + "[" * 100_000 + "\n" + lines(base_obj(timestamp=2))
        result = parse_events(text.splitlines(True))
        assert [e.timestamp for e in result.events] == [1, 2]
        assert [(e.line_no, e.reason) for e in result.errors] == [(2, TOO_DEEP)]

    @pytest.mark.parametrize(
        "line, reason",
        [
            ("[" * 900 + "]" * 900, TOO_DEEP),
            ("[" * (MAX_LINE_DEPTH + 1) + "]" * (MAX_LINE_DEPTH + 1), TOO_DEEP),
            ("[" * MAX_LINE_DEPTH + "]" * MAX_LINE_DEPTH, "line is not a JSON object"),
            ('{"a": ' * MAX_LINE_DEPTH + "1" + "}" * MAX_LINE_DEPTH, "missing required field 'user_id'"),
            (json.dumps(base_obj(description="[{" * 600 + '"')), None),
        ],
        ids=["900-levels", "one-past-the-limit", "at-the-limit", "objects-at-the-limit", "brackets-in-a-string"],
    )
    def test_verdict_does_not_depend_on_the_callers_stack(self, line, reason):
        # The decoder's recursion budget shrinks as the caller's stack
        # grows; a line's verdict must not.
        def parse_from_depth(frames):
            return parse_events([line]) if frames == 0 else parse_from_depth(frames - 1)

        for frames in (0, 300):
            result = parse_from_depth(frames)
            assert [(e.line_no, e.reason) for e in result.errors] == ([] if reason is None else [(1, reason)])
            assert len(result.events) == (reason is None)

    def test_missing_field(self):
        obj = base_obj()
        del obj["item_id"]
        result = parse_events(lines(obj).splitlines(True))
        assert not result.events
        assert "item_id" in result.errors[0].reason

    def test_unknown_event_type(self):
        result = parse_events(lines(base_obj(event_type="hover")).splitlines(True))
        assert "hover" in result.errors[0].reason

    def test_non_integral_timestamp(self):
        result = parse_events(lines(base_obj(timestamp=12.5)).splitlines(True))
        assert "timestamp" in result.errors[0].reason

    def test_negative_timestamp(self):
        result = parse_events(lines(base_obj(timestamp=-3)).splitlines(True))
        assert "timestamp" in result.errors[0].reason

    def test_price_only_on_commerce_events(self):
        result = parse_events(lines(base_obj(price=9.5)).splitlines(True))
        assert "price" in result.errors[0].reason
        ok = parse_events(
            lines(base_obj(event_type="buy", price=9.5)).splitlines(True)
        )
        assert not ok.errors
        assert ok.events[0].price == 9.5

    def test_negative_price(self):
        result = parse_events(
            lines(base_obj(event_type="buy", price=-1)).splitlines(True)
        )
        assert "price" in result.errors[0].reason

    @pytest.mark.parametrize(
        "raw",
        ["NaN", "Infinity", "-Infinity", "1e400", str(10**20), str(MAX_TIMESTAMP_MS + 1), str(-(10**400)),
         "1" + "0" * 4999],
        ids=lambda raw: raw if len(raw) < 25 else f"{len(raw)}-char int",
    )
    def test_unrepresentable_timestamp_is_one_issue(self, raw):
        text = lines(base_obj()) + lines(base_obj(timestamp=0)).replace('"timestamp": 0', f'"timestamp": {raw}')
        result = parse_events(text.splitlines(True))
        assert len(result.events) == 1
        # json.loads itself refuses an int past Python's 4,300-digit limit
        named = "invalid JSON: Exceeds the limit" if len(raw) > 4300 else "timestamp"
        assert [(e.line_no, named in e.reason) for e in result.errors] == [(2, True)]

    def test_user_id_past_the_int_digit_limit_is_one_issue(self):
        text = lines(base_obj(user_id=0)).replace('"user_id": 0', f'"user_id": {"7" * 5000}') + lines(base_obj())
        result = parse_events(text.encode("utf-8"))
        assert len(result.events) == 1
        assert [e.line_no for e in result.errors] == [1]
        assert result.errors[0].reason.startswith("invalid JSON: Exceeds the limit (4300 digits)")

    def test_last_representable_millisecond_parses(self):
        result = parse_events(lines(base_obj(timestamp=float(MAX_TIMESTAMP_MS))).splitlines(True))
        assert not result.errors
        assert result.events[0].timestamp == MAX_TIMESTAMP_MS
        assert type(result.events[0].timestamp) is int

    @pytest.mark.parametrize(
        "raw",
        ["NaN", "Infinity", "-Infinity", "1e400", str(10**400)],
        ids=lambda raw: raw if len(raw) < 25 else f"{len(raw)}-char int",
    )
    def test_non_finite_price_is_one_issue(self, raw):
        text = lines(base_obj(event_type="basketview", price=0)).replace('"price": 0', f'"price": {raw}')
        result = parse_events(text.splitlines(True))
        assert not result.events
        assert [e.reason for e in result.errors] == ["price must be a nonnegative number"]

    @pytest.mark.parametrize("etype", [[], {}, ["buy"], 3])
    def test_event_type_that_is_not_a_string_is_one_issue(self, etype):
        result = parse_events(lines(base_obj(event_type=etype)).splitlines(True))
        assert not result.events
        assert result.errors[0].reason.startswith("unknown event_type")

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.just(None),
                st.tuples(
                    st.sampled_from(sorted(EVENT_TYPES)),
                    st.one_of(
                        st.floats(),
                        st.integers(),
                        st.sampled_from([10**20, 10**400, -(10**400), MAX_TIMESTAMP_MS, MAX_TIMESTAMP_MS + 1]),
                        st.booleans(),
                        st.text(max_size=5),
                    ),
                    st.one_of(
                        st.none(),
                        st.floats(),
                        st.integers(),
                        st.sampled_from([10**400, -(10**400), 0]),
                        st.booleans(),
                        st.text(max_size=5),
                    ),
                ),
            ),
            max_size=12,
        )
    )
    def test_any_timestamp_or_price_parses_or_is_one_issue(self, drawn):
        text = "".join(
            " \n" if d is None else lines(base_obj(event_type=d[0], timestamp=d[1], price=d[2]))
            for d in drawn
        )
        result = parse_events(text.splitlines(True))
        blank = sum(1 for d in drawn if d is None)
        assert len(result.events) + len(result.errors) + blank == len(drawn)
        for e in result.events:
            assert type(e.timestamp) is int and 0 <= e.timestamp <= MAX_TIMESTAMP_MS
            assert e.price is None or (math.isfinite(e.price) and e.price >= 0)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(BYTE_LINE, max_size=8))
    def test_any_byte_lines_parse_or_are_one_issue(self, raw_lines):
        result = parse_events(b"".join(line + b"\n" for line in raw_lines))
        blank = sum(1 for line in raw_lines if _is_blank(line))
        assert len(result.events) + len(result.errors) + blank == len(raw_lines)
        assert len({e.line_no for e in result.errors}) == len(result.errors)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(ORACLE_LINE, max_size=12))
    @example([_zero_priced(0.0), _zero_priced(-0.0), _zero_priced(0)])
    @example([json.dumps(base_obj()).encode("utf-8") + b" x", b"\xef\xbb\xbf" + json.dumps(base_obj()).encode()])
    def test_reader_matches_the_json_loads_oracle(self, raw_lines):
        payload = b"".join(line + b"\n" for line in raw_lines)
        got, want = parse_events(payload), parse_events_loads(payload)
        assert _typed(got.events) == _typed(want.events)
        assert [(e.line_no, e.reason) for e in got.errors] == [(e.line_no, e.reason) for e in want.errors]

    @pytest.mark.parametrize(
        "line, reason",
        [
            (json.dumps(base_obj()) + " x", "invalid JSON: Extra data"),
            (json.dumps(base_obj()) + "{}", "invalid JSON: Extra data"),
            ("\ufeff" + json.dumps(base_obj()), "invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig)"),
            ("nul", "invalid JSON: Expecting value"),
        ],
        ids=["trailing-word", "trailing-object", "bom", "no-value"],
    )
    def test_a_line_the_scanner_does_not_consume_whole_reads_json_loads_error(self, line, reason):
        text = lines(base_obj(timestamp=1)) + line + "\n" + lines(base_obj(timestamp=2))
        result = parse_events(text.encode("utf-8"))
        assert [e.timestamp for e in result.events] == [1, 2]
        assert [(e.line_no, e.reason) for e in result.errors] == [(2, reason)]

    def test_equal_values_share_one_object_per_call(self):
        log = lines(*(
            base_obj(user_id=17 if k % 2 else "user-a", session_id=f"session-{k % 3}", timestamp=k,
                     event_type=("pageview", "basketview")[k % 2], item_id=f"item-{k % 4}",
                     category_id=None if k % 5 == 0 else f"cat-{k % 2}",
                     description=None if k % 5 == 0 else f"desc {k % 3}")
            for k in range(40)
        )).encode("utf-8")
        first, second = parse_events(log).events, parse_events(log).events
        assert len(first) == 40
        for name in STRING_FIELDS:
            values = [getattr(e, name) for e in first]
            assert len({id(v) for v in values}) == len(set(values)) > 1, name
            # the memo is the call's own: a second call shares nothing with the first
            assert not {id(v) for v in values if v is not None} & {id(getattr(e, name)) for e in second}, name

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.one_of(
                _ORACLE_EVENT.map(lambda line: line.decode("utf-8")),
                st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=10),
            ),
            max_size=8,
        ),
        st.sampled_from(["\n", "\r\n"]),
    )
    @example([json.dumps(base_obj()), "", "{broken"], "\n")
    def test_str_input_parses_as_its_bytes(self, log_lines, newline):
        text = newline.join(log_lines)
        as_str, as_bytes = parse_events(text), parse_events(text.encode("utf-8"))
        assert _typed(as_str.events) == _typed(as_bytes.events)
        assert as_str.errors == as_bytes.errors

    def test_bytes_input_and_blank_lines(self):
        payload = ("\n" + lines(base_obj()) + "\n").encode("utf-8")
        result = parse_events(payload)
        assert len(result.events) == 1
        assert not result.errors


class TestSessionize:
    def test_groups_and_sorts_by_timestamp(self):
        store = sessionize(
            [ev(ts=30), ev(ts=10, item="a"), ev(sid="s2", ts=5, user="u2")]
        )
        assert sorted(store.sessions) == ["s1", "s2"]
        s1 = store.sessions["s1"]
        assert [e.timestamp for e in s1.events] == [10, 30]
        assert store.sessions["s2"].user_id == "u2"

    def test_ads_excluded(self):
        store = sessionize([ev(), ev(ts=1, etype="adview"), ev(ts=2, etype="adclick")])
        assert len(store.sessions["s1"].events) == 1

    def test_duplicates_dropped_and_counted(self):
        store = sessionize([ev(ts=7), ev(ts=7), ev(ts=8)])
        assert store.duplicates_dropped == 1
        assert len(store.sessions["s1"].events) == 2

    def test_buy_label_and_bought_items(self):
        store = sessionize(
            [ev(ts=1), ev(ts=2, etype="buy", item="ix", price=3.0)]
        )
        s = store.sessions["s1"]
        assert s.label == "buy"
        assert [e.item_id for e in s.events if e.event_type == "buy"] == ["ix"]
        assert [e.item_id for e in s.feature_events()] == ["i1"]

    def test_non_buy_session(self):
        store = sessionize([ev(), ev(ts=1, etype="basketview", item="i2", price=2.0)])
        s = store.sessions["s1"]
        assert s.label == "non_buy"
        assert s.usable
        assert [e.event_type for e in s.feature_events()] == ["pageview", "basketview"]

    def test_buy_only_session_is_unusable(self):
        s = sessionize([ev(etype="buy", item="ix"), ev(ts=1, etype="adview")]).sessions["s1"]
        assert (s.label, s.usable) == ("buy", False)


def sessions_per_user(store) -> dict[str, int]:
    return Counter(s.user_id for s in store.sessions.values())


class TestFilterMinClicks:
    def build(self, n_events_u1: int):
        events = [ev(ts=i, item=f"i{i}") for i in range(n_events_u1)]
        events += [ev(user="u2", sid=f"t{j}", ts=j, item="x") for j in range(12)]
        return sessionize(events)

    def test_user_below_threshold_dropped_entirely(self):
        store = filter_min_clicks(self.build(9), min_clicks=10)
        assert sessions_per_user(store) == {"u2": 12}

    def test_boundary_user_kept(self):
        store = filter_min_clicks(self.build(10), min_clicks=10)
        assert sessions_per_user(store) == {"u1": 1, "u2": 12}

    def test_counts_all_sessions_of_user(self):
        events = [ev(sid="a", ts=1), ev(sid="b", ts=2)] + [
            ev(user="u2", sid="c", ts=i, item=f"i{i}") for i in range(10)
        ]
        store = filter_min_clicks(sessionize(events), min_clicks=2)
        assert sessions_per_user(store) == {"u1": 2, "u2": 1}

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            filter_min_clicks(self.build(5), min_clicks=0)


class TestPredictionWindow:
    def buy_session(self, browse_ts, buy_ts):
        events = [ev(ts=t, item=f"i{t}") for t in browse_ts]
        events.append(ev(ts=buy_ts, etype="buy", item="ib", price=1.0))
        return sessionize(events).sessions["s1"]

    def test_events_inside_window_removed(self):
        sess = self.buy_session([0, DAY, 3 * DAY - 1], 3 * DAY)
        out = exclude_prediction_window(sess, DAY)
        kept = [e.timestamp for e in out.feature_events()]
        assert kept == [0, DAY]
        assert out.usable
        assert out.label == "buy"

    def test_boundary_event_exactly_at_cutoff_removed(self):
        sess = self.buy_session([0, 2 * DAY], 3 * DAY)
        out = exclude_prediction_window(sess, DAY)
        assert [e.timestamp for e in out.feature_events()] == [0]

    def test_emptied_session_flagged_unusable(self):
        sess = self.buy_session([10, 20], 3600_000)
        out = exclude_prediction_window(sess, DAY)
        assert not out.usable
        assert out.label == "buy"
        assert not out.feature_events()

    def test_multiple_buys_use_earliest(self):
        events = [ev(ts=0), ev(ts=5 * DAY, item="late")]
        events.append(ev(ts=2 * DAY, etype="buy", item="b1", price=1.0))
        events.append(ev(ts=9 * DAY, etype="buy", item="b2", price=1.0))
        sess = sessionize(events).sessions["s1"]
        out = exclude_prediction_window(sess, DAY)
        assert [e.timestamp for e in out.feature_events()] == [0]
        assert len([e for e in out.events if e.event_type == "buy"]) == 2

    def test_non_buy_untouched(self):
        sess = sessionize([ev(ts=0), ev(ts=1)]).sessions["s1"]
        out = exclude_prediction_window(sess, DAY)
        assert out is sess

    def test_bad_horizon(self):
        sess = self.buy_session([0], DAY)
        with pytest.raises(ValueError):
            exclude_prediction_window(sess, 0)

    def test_store_level_application(self):
        events = [ev(ts=0), ev(ts=DAY // 2, etype="buy", item="b", price=1.0)]
        events += [ev(user="u2", sid="s2", ts=0)]
        store = apply_prediction_window(sessionize(events), DAY)
        assert not store.sessions["s1"].usable
        assert store.sessions["s2"].usable


class TestIngestReport:
    def test_counts_on_hand_built_log(self):
        objs = [
            base_obj(timestamp=i, item_id=f"i{i}") for i in range(10)
        ]
        objs.append(base_obj(timestamp=5 * DAY, event_type="buy", item_id="i1", price=2.0))
        objs.append(base_obj(timestamp=3, event_type="adview", item_id="ad"))
        objs.append(
            base_obj(user_id="u9", session_id="s9", timestamp=1)
        )
        parsed = parse_events(lines(*objs).splitlines(True))
        store, report = ingest_events(parsed, min_clicks=10, horizon_ms=DAY)
        assert report.events_parsed == 13
        assert report.parse_errors == 0
        assert report.event_type_counts["pageview"] == 11
        assert report.event_type_counts["buy"] == 1
        assert report.event_type_counts["adview"] == 1
        assert report.users == 1
        assert report.sessions == 1
        assert report.buy_sessions == 1
        assert report.users_removed_min_clicks == 1
        assert report.sessions_removed_min_clicks == 1
        assert report.unusable_buy_sessions == 0
        assert store.sessions["s1"].usable

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), min_clicks=st.integers(1, 6))
    def test_counts_agree_with_the_store(self, data, min_clicks):
        # Up to 4 users with up to 3 sessions of up to 8 events each, of
        # every type, on the hours of two days, so buys land both inside
        # and outside the 24 h window and events share timestamps; some
        # events are repeated exactly.
        events = []
        for u in range(data.draw(st.integers(1, 4))):
            for k in range(data.draw(st.integers(1, 3))):
                start = data.draw(st.integers(0, 5 * DAY))
                for _ in range(data.draw(st.integers(1, 8))):
                    ts = start + data.draw(st.integers(0, 48)) * MS_PER_HOUR
                    etype = data.draw(st.sampled_from(sorted(EVENT_TYPES)))
                    item = data.draw(st.sampled_from(["i1", "i2", "i3"]))
                    events.append(ev(user=f"u{u}", sid=f"s{u}.{k}", ts=ts, etype=etype, item=item))
        events += data.draw(st.lists(st.sampled_from(events), max_size=4))
        events = data.draw(st.permutations(events))
        store, report = ingest_events(ParseResult(events, []), min_clicks=min_clicks, horizon_ms=DAY)

        sessions = list(store.sessions.values())
        assert report.sessions == len(sessions)
        assert report.buy_sessions == sum(s.label == "buy" for s in sessions)
        assert report.users == len({s.user_id for s in sessions})
        assert report.unusable_buy_sessions == sum(not s.usable for s in sessions)
        assert all(s.label == "buy" for s in sessions if not s.usable)
        assert report.events_parsed == len(events) == sum(report.event_type_counts.values())
        assert report.event_type_counts == {t: sum(e.event_type == t for e in events) for t in sorted(EVENT_TYPES)}

        # the same counts from the drawn log, before any filter
        kept = {(e.session_id, e.timestamp, e.event_type, e.item_id): e
                for e in events if e.event_type not in AD_EVENT_TYPES}
        assert report.duplicates_dropped == store.duplicates_dropped
        assert report.duplicates_dropped == sum(e.event_type not in AD_EVENT_TYPES for e in events) - len(kept)
        per_user = Counter(e.user_id for e in kept.values())
        assert report.users + report.users_removed_min_clicks == len(per_user)
        assert {s.user_id for s in sessions} == {u for u, n in per_user.items() if n >= min_clicks}
        assert report.sessions + report.sessions_removed_min_clicks == len({e.session_id for e in kept.values()})

    def test_report_json_round_trip(self):
        parsed = ParseResult(events=[], errors=[])
        _, report = ingest_events(parsed, min_clicks=1)
        doc = json.loads(report.to_json())
        assert doc["events_parsed"] == 0


# Ids and descriptions with non-ASCII, control and lone surrogate characters.
TEXT = st.text(
    alphabet=st.one_of(
        st.characters(), st.sampled_from(["\x00", "\x1f", "\x7f", '"', "\\", "\u2028", "\ud800", "é", "\U0001f600"])
    ),
    max_size=6,
)


class TestStorePersistence:
    def test_round_trip_bit_exact(self, tmp_path, store):
        p1 = tmp_path / "store1.json"
        p2 = tmp_path / "store2.json"
        save_store(store, p1)
        reloaded = load_store(p1)
        save_store(reloaded, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert len(reloaded) == len(store)
        sid = next(iter(store.sessions))
        assert reloaded.sessions[sid].events == store.sessions[sid].events
        assert reloaded.sessions[sid].usable == store.sessions[sid].usable
        assert [s.label for s in reloaded.ordered_sessions()] == [s.label for s in store.ordered_sessions()]

    @settings(max_examples=100, deadline=None)
    @given(
        st.dictionaries(
            TEXT,
            st.tuples(
                TEXT,
                st.lists(
                    st.tuples(
                        st.integers(0, MAX_TIMESTAMP_MS),
                        st.sampled_from(sorted(EVENT_TYPES - AD_EVENT_TYPES)),
                        TEXT,
                        st.none() | TEXT,
                        st.none() | st.sampled_from([0, 0.0, -0.0, 1e-7, 1e16]) | st.floats(0, allow_infinity=False),
                        st.none() | TEXT,
                    ),
                    min_size=1,
                    max_size=4,
                ),
            ),
            max_size=5,
        ),
        st.integers(1, 4) | st.just(10**6),
    )
    def test_round_trip_keeps_sessions_events_label_and_usable(self, tmp_path_factory, drawn, horizon_h):
        # Ingest's own steps give every store load_store accepts: buy
        # sessions that the window leaves unusable, and an int price.
        events = [
            ev(user=uid, sid=sid, ts=ts, etype=etype, item=item, category_id=cat, description=desc,
               price=price if etype in ("buy", "basketview") else None)
            for sid, (uid, rows) in drawn.items()
            for ts, etype, item, cat, price, desc in rows
        ]
        store = apply_prediction_window(sessionize(events), horizon_h * MS_PER_HOUR)
        path = tmp_path_factory.mktemp("stores") / "store.json"
        save_store(store, path)
        reloaded = load_store(path)
        assert reloaded.duplicates_dropped == store.duplicates_dropped
        assert [(s.session_id, s.user_id, s.label, s.usable, _typed(s.events)) for s in reloaded.ordered_sessions()] \
            == [(s.session_id, s.user_id, s.label, s.usable, _typed(s.events)) for s in store.ordered_sessions()]

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.builds(
                Session,
                session_id=TEXT,
                user_id=TEXT,
                events=st.lists(
                    st.builds(
                        RawEvent,
                        user_id=TEXT,
                        session_id=TEXT,
                        timestamp=st.integers(0, MAX_TIMESTAMP_MS),
                        event_type=st.sampled_from(sorted(EVENT_TYPES)),
                        item_id=TEXT,
                        category_id=st.none() | TEXT,
                        price=st.none() | st.sampled_from([0.1, 1e-7, 1e16, 0.0]) | st.floats(),
                        description=st.none() | TEXT,
                    ),
                    max_size=4,
                ),
                label=st.sampled_from(["buy", "non_buy"]),
                usable=st.booleans(),
            ),
            max_size=5,
            unique_by=lambda s: s.session_id,
        ),
        st.integers(0, 10**6),
    )
    def test_bytes_equal_the_whole_document_dump(self, tmp_path_factory, sessions, dropped):
        store = SessionStore({s.session_id: s for s in sessions}, duplicates_dropped=dropped)
        root = tmp_path_factory.mktemp("stores")
        save_store(store, root / "store.json")
        save_store_dump(store, root / "oracle.json")
        assert (root / "store.json").read_bytes() == (root / "oracle.json").read_bytes()

    def test_format_guard(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"format": "something-else"}')
        with pytest.raises(ValueError):
            load_store(bad)

    def test_version_guard(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"format": "buyintent-store", "version": 99}')
        with pytest.raises(ValueError):
            load_store(bad)

    def test_version_1_store_is_refused(self, tmp_path):
        path = tmp_path / "store.json"
        event = base_obj(category_id=None, price=None, description=None)
        session = {"session_id": "s1", "user_id": "u1", "label": "non_buy", "usable": True, "bought_items": [],
                   "events": [event]}
        path.write_text(json.dumps({"duplicates_dropped": 0, "format": "buyintent-store", "sessions": [session],
                                    "version": 1}))
        with pytest.raises(ValueError) as excinfo:
            load_store(path)
        assert str(excinfo.value) == f"{path}: unsupported store version 1"

    def test_version_2_store_is_refused(self, tmp_path):
        # the row layout stores version 2 wrote: one record per session
        path = tmp_path / "store.json"
        event = {"timestamp": 1000, "event_type": "pageview", "item_id": "i1", "category_id": None, "price": None,
                 "description": None}
        path.write_text(json.dumps({"duplicates_dropped": 0, "format": "buyintent-store",
                                    "sessions": [{"session_id": "s1", "user_id": "u1", "events": [event]}],
                                    "version": 2}))
        with pytest.raises(ValueError) as excinfo:
            load_store(path)
        assert str(excinfo.value) == f"{path}: unsupported store version 2"

    @pytest.mark.parametrize(
        "where, key, value, named",
        [
            ("session", "user_id", 7, "wrong type"),
            ("session", "events", {}, "wrong type"),
            ("session", "extra", 1, "must be an object with keys"),
            ("session", "label", "buy", "must be an object with keys"),
            ("event", "event_type", "click", "unknown event_type 'click'"),
            ("event", "timestamp", -1, "timestamps must lie in"),
            ("event", "timestamp", MAX_TIMESTAMP_MS + 1, "timestamps must lie in"),
            ("event", "timestamp", True, "'timestamp' has type bool"),
            ("event", "price", "5", "'price' has type str"),
            ("event", "category_id", 3, "'category_id' has type int"),
            ("event", "description", ["red"], "'description' has type list"),
            ("event", "price", 2.5, "price not allowed on 'pageview' events"),
            ("column", "price", "short", "'price' holds 2 events, but 'n_events' sums to 3"),
            ("column", "n_events", 1, "'timestamp' holds 3 events, but 'n_events' sums to 2"),
            ("column", "n_events", 0, "session 's1' has no events"),
            ("column", "user_id", "short", "'user_id' holds 1 sessions, but 'session_id' holds 2"),
            ("column", "session_id", "s2", "session 's2' appears twice"),
            ("column", "item_id", -1, "'item_id' index -1 lies outside the 3 entries of 'strings'"),
            ("column", "item_id", True, "'item_id' has type bool"),
            ("column", "item_id", 3, "'item_id' index 3 lies outside the 3 entries of 'strings'"),
            ("column", "category_id", 2.0, "'category_id' has type float"),
            ("column", "event_type", 1, "'event_type' index 1 lies outside the 1 entries of 'event_types'"),
            ("column", "event_type", -1, "'event_type' index -1 lies outside"),
            ("column", "strings", 7, "'strings' entry 3 has type int"),
            ("column", "item_id", None, "'item_id' has type NoneType"),
            ("column", "timestamp", 10**30, "timestamps must lie in"),
        ],
    )
    def test_malformed_record_names_the_file(self, tmp_path, where, key, value, named):
        # Store version 3 keeps each v2 record field in a column. A
        # "session" case sets session s1's entry of its column (n_events
        # counts its events), or adds a key the store does not have. An
        # "event" case gives every event the value: a string field and the
        # event type through the strings and event_types tables. A
        # "column" case sets a column's first entry, appends to a table, or
        # drops a column's last entry ("short").
        path = tmp_path / "store.json"
        save_store(sessionize([ev(sid="s1", ts=0), ev(sid="s1", ts=1000, item="B"), ev(sid="s2", item="C")]), path)
        doc = json.loads(path.read_text())
        n_events = len(doc["timestamp"])
        if where == "session":
            key = "n_events" if key == "events" else key
            if key in doc:
                doc[key][0] = value
            else:
                doc[key] = value
        elif where == "event":
            table = {"event_type": "event_types", "price": None, "timestamp": None}.get(key, "strings")
            if table:
                doc[table].append(value)
                value = len(doc[table]) - 1
            doc[key] = [value] * n_events
        elif value == "short":
            doc[key].pop()
        elif key in ("strings", "event_types"):
            doc[key].append(value)
        else:
            doc[key][0] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="malformed session store") as excinfo:
            load_store(path)
        assert str(excinfo.value).startswith(f"{path}: ")
        assert named in str(excinfo.value)

    @pytest.mark.parametrize("dropped", ["many", True, -1, 1.0, None])
    def test_duplicates_dropped_must_be_a_nonnegative_int(self, tmp_path, dropped):
        path = tmp_path / "store.json"
        save_store(sessionize([ev(sid="s1", ts=0)]), path)
        doc = json.loads(path.read_text())
        doc["duplicates_dropped"] = dropped
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="'duplicates_dropped' must be a nonnegative int") as excinfo:
            load_store(path)
        assert str(excinfo.value).startswith(f"{path}: malformed session store: ")

    @pytest.mark.parametrize("price", [-5.0, math.nan, math.inf, -math.inf, 10**400])
    def test_store_price_follows_the_log_rule(self, tmp_path, price):
        path = tmp_path / "store.json"
        save_store(sessionize([ev(ts=0), ev(ts=1, etype="basketview", price=2.5)]), path)
        doc = json.loads(path.read_text())
        doc["price"][1] = price
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError) as excinfo:
            load_store(path)
        assert str(excinfo.value) == f"{path}: malformed session store: event prices must be finite and at least 0"

    def test_events_take_their_session_ids_and_derived_fields(self, tmp_path):
        path = tmp_path / "store.json"
        buys = [ev(user="u2", sid="s2", ts=5, etype="buy", item="ix", price=1)]
        save_store(sessionize([ev(ts=0), ev(ts=1, etype="basketview", price=0.5), *buys]), path)
        doc = json.loads(path.read_text())
        assert doc == {
            "format": "buyintent-store", "version": 3, "duplicates_dropped": 0,
            "strings": ["i1", "ix"], "event_types": ["basketview", "buy", "pageview"],
            "session_id": ["s1", "s2"], "user_id": ["u1", "u2"], "n_events": [2, 1],
            "timestamp": [0, 1, 5], "event_type": [2, 0, 1], "item_id": [0, 0, 1],
            "category_id": [None] * 3, "description": [None] * 3, "price": [None, 0.5, 1],
        }
        store = load_store(path)
        assert [(s.session_id, s.user_id, s.label, s.usable) for s in store.ordered_sessions()] == [
            ("s1", "u1", "non_buy", True), ("s2", "u2", "buy", False)]
        for s in store.sessions.values():
            assert all(e.session_id is s.session_id and e.user_id is s.user_id for e in s.events)
