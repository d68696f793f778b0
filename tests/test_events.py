import hashlib
import json
from dataclasses import MISSING, asdict, fields, replace
from datetime import datetime, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regretstream import codec, events
from regretstream.codec import decode_record, encode_record
from regretstream.errors import (
    DuplicateTweetError,
    ParseError,
    RegretstreamError,
    SchemaError,
    ValidationError,
)
from regretstream.events import (
    CollectionWindow,
    Corpus,
    DeletePayload,
    TweetRecord,
    UserProfile,
    build_corpus,
    parse_event,
    read_events,
)
from regretstream.synth import SynthConfig

import oracles
from conftest import (
    T0,
    make_corpus,
    make_profile,
    make_tweet,
    make_window,
    record_builds,
    run_synth_pipeline,
    ts,
)


def tweet_event(id=1, user_id=3, created="2015-08-05T10:00:00Z", text="hello there", **extra):
    obj = {
        "kind": "tweet",
        "id": id,
        "user_id": user_id,
        "created_at": created,
        "text": text,
        "lang": "en",
        "source": "Twitter Web Client",
        "user": {"user_id": user_id, "account_created_at": "2014-01-01T00:00:00Z"},
    }
    obj.update(extra)
    return obj


def delete_event(id=1, user_id=3, observed="2015-08-05T11:00:00Z"):
    return {"kind": "delete", "id": id, "user_id": user_id, "observed_at": observed}


class TestParseEvent:
    def test_delete_direct_mapping(self):
        d = parse_event('{"kind":"delete","id":7,"user_id":3,"observed_at":"2015-08-05T10:00:00Z"}')
        assert isinstance(d, DeletePayload)
        assert d.id == 7
        assert d.user_id == 3

    def test_minimal_tweet_defaults(self):
        t = parse_event(json.dumps(tweet_event(text="plain words only")))
        assert t.hashtags == () and t.urls == () and t.mentions == ()
        assert t.in_reply_to_id is None and t.retweet_of_id is None
        assert not t.has_geo

    def test_missing_id_names_field(self):
        with pytest.raises(SchemaError) as exc:
            parse_event('{"kind":"tweet"}')
        assert exc.value.field == "id"

    def test_malformed_json_carries_line_number(self):
        with pytest.raises(ParseError) as exc:
            parse_event("{nope", line_number=17)
        assert exc.value.line_number == 17
        assert "17" in str(exc.value)

    def test_unknown_fields_ignored(self):
        assert parse_event(json.dumps(tweet_event(bogus_field=123))).id == 1

    def test_entities_from_payload_preferred(self):
        obj = tweet_event(text="x #inline", hashtags=["#given"], urls=[], mentions=[])
        assert parse_event(json.dumps(obj)).hashtags == ("#given",)

    def test_entities_extracted_when_absent(self):
        obj = tweet_event(text="hi @pal see http://t.co/x #tag")
        t = parse_event(json.dumps(obj))
        assert t.hashtags == ("#tag",)
        assert t.urls == ("http://t.co/x",)
        assert t.mentions == ("@pal",)

    def test_bad_timestamp_is_schema_error(self):
        obj = tweet_event(created="yesterday")
        with pytest.raises(SchemaError):
            parse_event(json.dumps(obj))

    def test_nonpositive_id_rejected(self):
        with pytest.raises(SchemaError):
            parse_event(json.dumps(tweet_event(id=0)))

    def test_bad_kind(self):
        with pytest.raises(SchemaError):
            parse_event('{"kind":"poke","id":1}')

    @pytest.mark.parametrize("field,value,where", [
        ("id", "x", None),
        ("user_id", [3], None),
        ("in_reply_to_id", "nope", None),
        ("hashtags", 5, None),
        ("followers_count", "many", "user"),
        ("timezone_offset_min", {}, "user"),
        # A value of another JSON type is rejected, never converted.
        ("followers_count", "5", "user"),
        ("bio_length", 5.7, "user"),
        ("profile_customized", "no", "user"),
        ("user_id", 3.0, None),
        ("text", 5, None),
        ("has_geo", "no", None),
        ("quoted_id", True, None),
        ("hashtags", "#tag", None),
        ("mentions", ["@a", 1], None),
        # The profile's author id must be the tweet's.
        ("user_id", 31, "user"),
    ])
    def test_non_integer_field_is_schema_error(self, field, value, where):
        obj = tweet_event()
        if where == "user":
            obj["user"][field] = value
            field = f"user.{field}"
        else:
            obj[field] = value
        with pytest.raises(SchemaError) as exc:
            parse_event(json.dumps(obj), line_number=9)
        assert exc.value.field == field
        assert exc.value.line_number == 9
        assert field in str(exc.value) and "line 9" in str(exc.value)

    def test_delete_non_integer_id_is_schema_error(self):
        with pytest.raises(SchemaError) as exc:
            parse_event('{"kind":"delete","id":"x","user_id":3,"observed_at":"2015-08-05T10:00:00Z"}', 4)
        assert exc.value.field == "id"

    @pytest.mark.parametrize("field,value", [("id", 1.0), ("user_id", "3")])
    def test_delete_field_of_another_json_type_is_schema_error(self, field, value):
        with pytest.raises(SchemaError) as exc:
            parse_event(json.dumps({**delete_event(), field: value}), line_number=4)
        assert exc.value.field == field and "line 4" in str(exc.value)

    def test_user_not_an_object(self):
        obj = tweet_event()
        obj["user"] = 7
        with pytest.raises(SchemaError) as exc:
            parse_event(json.dumps(obj), line_number=2)
        assert exc.value.field == "user"

    @pytest.mark.parametrize("event", [tweet_event, delete_event])
    def test_id_beyond_int64_names_id_and_line(self, event):
        largest = parse_event(json.dumps(event(id=2 ** 63 - 1)))
        assert largest.id == 2 ** 63 - 1
        with pytest.raises(SchemaError) as exc:
            parse_event(json.dumps(event(id=2 ** 63)), line_number=5)
        assert exc.value.field == "id"
        assert "line 5" in str(exc.value) and "invalid id" in str(exc.value)

    def test_negative_user_count_names_user_field_and_line(self):
        obj = tweet_event()
        obj["user"]["followers_count"] = -1
        with pytest.raises(SchemaError) as exc:
            parse_event(json.dumps(obj), line_number=6)
        assert exc.value.field == "user.followers_count"
        assert "line 6" in str(exc.value)

    def test_tweet_parses_to_unlabelled_record(self):
        t = parse_event(json.dumps(tweet_event(in_reply_to_id=5)))
        assert isinstance(t, TweetRecord)
        assert not t.deleted and t.deletion_lag_sec is None
        assert t.reply_ids == t.retweet_ids == t.quote_ids == ()


class TestReadEvents:
    def test_error_names_file_and_line(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text(json.dumps(tweet_event()) + "\n\n" + json.dumps(delete_event(id=0)) + "\n")
        with pytest.raises(SchemaError) as exc:
            list(read_events(path))
        assert exc.value.field == "id" and exc.value.line_number == 3
        assert str(exc.value).startswith(f"{path}: line 3: invalid id: 0")

    def test_malformed_line_names_file_and_line(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text(json.dumps(tweet_event()) + "\n{nope\n")
        with pytest.raises(ParseError) as exc:
            list(read_events(path))
        assert exc.value.line_number == 2
        assert str(exc.value).startswith(f"{path}: line 2: malformed JSON")


class TestDecodeTables:
    @staticmethod
    def names(table):
        return [name for name, _, _ in table]

    def test_each_table_names_its_dataclass_fields(self):
        assert self.names(codec.record_fields(UserProfile, "user.")) == [f.name for f in fields(UserProfile)]
        assert self.names(events._DELETE_FIELDS) == [f.name for f in fields(DeletePayload)]
        assert self.names(events._RECORD_FIELDS) == [f.name for f in fields(TweetRecord)]

    def test_wire_table_names_the_record_fields_without_default(self):
        assert self.names(events._TWEET_FIELDS) == [
            f.name for f in fields(TweetRecord) if f.default is MISSING
        ]

    def test_corpus_table_shares_the_wire_converters(self):
        wire = {name: convert for name, convert, _ in events._TWEET_FIELDS}
        assert all(wire[name] is convert for name, convert, _ in events._RECORD_FIELDS if name in wire)


def _outcome(decode):
    """What ``decode()`` gives: ("ok", its value), or the type and message
    of the package error it raises."""
    try:
        return "ok", decode()
    except RegretstreamError as exc:
        return type(exc), str(exc)


# A profile whose bio_length is 1 and geo_enabled true, so that 1.0, True
# and 1 in their place compare equal to it as plain dicts.
PROFILE = {"user_id": 3, "account_created_at": "2014-01-01T00:00:00Z", "bio_length": 1,
           "geo_enabled": True, "followers_count": 5}
DROP = object()
# Each change to a raw tweet object: the path of the value it sets (DROP
# deletes the key), and that value.
MUTATIONS = {
    "valid": ((), None),
    "missing created_at": (("created_at",), DROP),
    "missing user.account_created_at": (("user", "account_created_at"), DROP),
    "id a string": (("id",), "17"),
    "user.bio_length 1.0": (("user", "bio_length"), 1.0),
    "user.bio_length true": (("user", "bio_length"), True),
    "user.geo_enabled 1": (("user", "geo_enabled"), 1),
    "user.followers_count negative": (("user", "followers_count"), -1),
    "unknown user key": (("user", "shoe_size"), 9),
    "unhashable user value": (("user", "badges"), ["a"]),
    "user not an object": (("user",), [1]),
    "author id mismatch": (("user_id",), 4),
    "deleted without a lag": (("deleted",), True),
}


def mutated(raw: dict, name: str) -> dict:
    raw = json.loads(json.dumps(raw))
    path, value = MUTATIONS[name]
    if path:
        parent = raw
        for key in path[:-1]:
            parent = parent[key]
        if value is DROP:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    return raw


class TestDecoderMatchesWalker:
    """The profile memo against the ``decode_fields`` walker alone: the
    same records, or the same error, line and tweet record included. The changed record follows three that hold
    its author's profile unchanged."""

    @pytest.mark.parametrize("name", sorted(MUTATIONS))
    def test_read_events(self, tmp_path, name):
        raws = [tweet_event(id=i, user=PROFILE) for i in (1, 2, 3)]
        lines = [json.dumps(raw) for raw in raws + [mutated(tweet_event(id=4, user=PROFILE), name)]]
        path = tmp_path / "events.jsonl"
        path.write_text("\n".join(lines) + "\n")
        got = _outcome(lambda: list(read_events(path)))
        kind, want = _outcome(lambda: [oracles.walker_parse_event(line, n)
                                       for n, line in enumerate(lines, 1)])
        assert got == (kind, want if kind == "ok" else f"{path}: {want}")
        if kind != "ok":
            assert got[1].startswith(f"{path}: line 4: ")

    @pytest.mark.parametrize("name", sorted(MUTATIONS))
    def test_corpus_load(self, tmp_path, name):
        profile = make_profile(3, bio_length=1, geo_enabled=True)
        path = tmp_path / "corpus.json"
        make_corpus([make_tweet(id=i, user_id=3, profile=profile) for i in (1, 2, 3, 4)]).save(path)
        payload = json.loads(path.read_text())
        payload["tweets"][3] = mutated(payload["tweets"][3], name)
        path.write_text(json.dumps(payload))
        got = _outcome(lambda: Corpus.load(path).tweets)
        kind, want = _outcome(lambda: tuple(oracles.walker_corpus_tweets(path)))
        assert got == (kind, want)
        if kind != "ok":
            assert want.startswith(f"{path}: tweet record 3: ")


@pytest.mark.parametrize("field,value,reason", [
    ("bio_length", 1.0, "not a JSON integer"),
    ("bio_length", True, "not a JSON integer"),
    ("geo_enabled", 1, "not true or false"),
])
def test_a_repeated_profile_with_a_value_of_another_type_is_rejected(tmp_path, field, value,
                                                                     reason):
    """The profile memo tells 1, 1.0 and True apart, as the converters do."""
    message = f"invalid user.{field}: {value!r} ({reason})"
    stream = tmp_path / "events.jsonl"
    stream.write_text(json.dumps(tweet_event(id=1, user=PROFILE)) + "\n" + json.dumps(
        tweet_event(id=2, user=dict(PROFILE, **{field: value}))) + "\n")
    with pytest.raises(SchemaError) as exc:
        list(read_events(stream))
    assert str(exc.value) == f"{stream}: line 2: {message}"
    corpus = tmp_path / "corpus.json"
    profile = make_profile(3, bio_length=1, geo_enabled=True)
    make_corpus([make_tweet(id=i, user_id=3, profile=profile) for i in (1, 2)]).save(corpus)
    payload = json.loads(corpus.read_text())
    payload["tweets"][1]["user"][field] = value
    corpus.write_text(json.dumps(payload))
    with pytest.raises(SchemaError) as exc:
        Corpus.load(corpus)
    assert str(exc.value) == f"{corpus}: tweet record 1: {message}"


def test_a_repeated_profile_whose_values_trade_types_is_rejected(tmp_path):
    """Two values that trade places and types leave the object equal, and
    its value types in the same order: the type check reads them by key."""
    def traded(user):
        names = {"bio_length": "geo_enabled", "geo_enabled": "bio_length"}
        return {names.get(k, k): v for k, v in user.items()}
    message = "invalid user.bio_length: True (not a JSON integer)"
    stream = tmp_path / "events.jsonl"
    stream.write_text(json.dumps(tweet_event(id=1, user=PROFILE)) + "\n" + json.dumps(
        tweet_event(id=2, user=traded(PROFILE))) + "\n")
    with pytest.raises(SchemaError) as exc:
        list(read_events(stream))
    assert str(exc.value) == f"{stream}: line 2: {message}"
    corpus = tmp_path / "corpus.json"
    profile = make_profile(3, bio_length=1, geo_enabled=True)
    make_corpus([make_tweet(id=i, user_id=3, profile=profile) for i in (1, 2)]).save(corpus)
    payload = json.loads(corpus.read_text())
    payload["tweets"][1]["user"] = traded(payload["tweets"][1]["user"])
    corpus.write_text(json.dumps(payload))
    with pytest.raises(SchemaError) as exc:
        Corpus.load(corpus)
    assert str(exc.value) == f"{corpus}: tweet record 1: {message}"


def test_the_records_of_one_author_share_one_profile_per_file(tmp_path):
    """Author 3's profiles run A, A, B, A: the first two records share one
    object, and the last equals the first but is decoded anew. Author 4's
    records in between keep one object too."""
    changed = dict(PROFILE, bio_length=40)
    other = dict(PROFILE, user_id=4)
    users = (PROFILE, other, PROFILE, changed, other, PROFILE)
    stream = tmp_path / "events.jsonl"
    stream.write_text("".join(json.dumps(tweet_event(id=i, user_id=u["user_id"], user=u)) + "\n"
                              for i, u in enumerate(users, 1)))
    corpus = tmp_path / "corpus.json"
    a, b, d = make_profile(3), make_profile(3, bio_length=40), make_profile(4)
    make_corpus([make_tweet(id=i, user_id=p.user_id, created_at=ts(hours=i), profile=p)
                 for i, p in enumerate((a, d, a, b, d, make_profile(3)), 1)]).save(corpus)
    for records in (list(read_events(stream)), Corpus.load(corpus).tweets):
        a1, d1, a2, b, d2, a3 = (t.user for t in records)
        assert a1 is a2 and d1 is d2
        assert b is not a1 and b.bio_length == 40
        assert a3 == a1 and a3 is not a1


def test_records_equal_the_walkers_where_every_profile_differs(tmp_path):
    """Every profile differs, as where each tweet carries a fresh snapshot
    of its author's counts; later ones repeat the first."""
    lines = [json.dumps(tweet_event(id=i, user=dict(PROFILE, followers_count=i)))
             for i in range(1, 6)]
    lines.append(json.dumps(tweet_event(id=6, user=dict(PROFILE, followers_count=1))))
    path = tmp_path / "events.jsonl"
    path.write_text("\n".join(lines) + "\n")
    assert list(read_events(path)) == [oracles.walker_parse_event(line, n)
                                       for n, line in enumerate(lines, 1)]
    lines.append(json.dumps(tweet_event(id=7, user=dict(PROFILE, followers_count=1,
                                                        bio_length=1.0))))
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SchemaError) as exc:
        list(read_events(path))
    assert str(exc.value) == f"{path}: line 7: invalid user.bio_length: 1.0 (not a JSON integer)"


class TestWindow:
    def test_ordering_enforced(self):
        with pytest.raises(ValidationError):
            CollectionWindow(post_start=ts(days=2), post_end=ts(days=1), delete_end=ts(days=3))

    def test_delete_end_may_equal_post_end(self):
        CollectionWindow(post_start=T0, post_end=ts(days=1), delete_end=ts(days=1))


class TestBuildCorpus:
    def test_basic_join(self):
        events = [
            parse_event(json.dumps(tweet_event(id=1, created="2015-08-05T10:00:00Z"))),
            parse_event(json.dumps(delete_event(id=1, observed="2015-08-05T10:05:00Z"))),
        ]
        corpus = build_corpus(events, make_window())
        t = corpus.get(1)
        assert t.deleted and t.deletion_lag_sec == 300

    def test_censoring_after_delete_end(self):
        events = [
            parse_event(json.dumps(tweet_event(id=1, created="2015-08-05T10:00:00Z"))),
            parse_event(json.dumps(delete_event(id=1, observed="2015-09-20T10:00:00Z"))),
        ]
        corpus = build_corpus(events, make_window())
        assert not corpus.get(1).deleted
        assert corpus.stats.late_deletes == 1

    def test_orphan_delete_counted_and_dropped(self):
        events = [
            parse_event(json.dumps(tweet_event(id=1))),
            parse_event(json.dumps(delete_event(id=999))),
        ]
        corpus = build_corpus(events, make_window())
        assert corpus.stats.orphan_deletes == 1
        assert not corpus.get(1).deleted

    def test_out_of_window_tweet_dropped(self):
        events = [parse_event(json.dumps(tweet_event(id=1, created="2015-09-20T10:00:00Z")))]
        corpus = build_corpus(events, make_window())
        assert len(corpus) == 0
        assert corpus.stats.outside_window == 1

    def test_duplicate_raises_in_strict_mode(self):
        events = [
            parse_event(json.dumps(tweet_event(id=1))),
            parse_event(json.dumps(tweet_event(id=1))),
        ]
        with pytest.raises(DuplicateTweetError):
            build_corpus(events, make_window())

    def test_duplicate_counted_when_not_strict(self):
        events = [
            parse_event(json.dumps(tweet_event(id=1, text="first wins"))),
            parse_event(json.dumps(tweet_event(id=1, text="second loses"))),
        ]
        corpus = build_corpus(events, make_window(), strict=False)
        assert corpus.stats.duplicates == 1
        assert corpus.get(1).text == "first wins"

    def test_count_conservation(self):
        events = [
            parse_event(json.dumps(tweet_event(id=1))),
            parse_event(json.dumps(tweet_event(id=1))),
            parse_event(json.dumps(tweet_event(id=2))),
            parse_event(json.dumps(tweet_event(id=3, created="2015-09-20T10:00:00Z"))),
        ]
        corpus = build_corpus(events, make_window(), strict=False)
        s = corpus.stats
        assert s.tweets_in == s.retained + s.outside_window + s.duplicates

    def test_clamped_negative_lag(self):
        events = [
            parse_event(json.dumps(tweet_event(id=1, created="2015-08-05T10:00:00Z"))),
            parse_event(json.dumps(delete_event(id=1, observed="2015-08-05T09:00:00Z"))),
        ]
        corpus = build_corpus(events, make_window())
        t = corpus.get(1)
        assert t.deleted and t.deletion_lag_sec == 0
        assert corpus.stats.clamped_lags == 1

    def test_response_links_attached(self):
        events = [
            parse_event(json.dumps(tweet_event(id=1, created="2015-08-05T10:00:00Z"))),
            parse_event(json.dumps(tweet_event(id=2, user_id=4, created="2015-08-05T10:01:00Z", in_reply_to_id=1))),
            parse_event(json.dumps(tweet_event(id=3, user_id=5, created="2015-08-05T10:02:00Z", retweet_of_id=1))),
            parse_event(json.dumps(tweet_event(id=4, user_id=6, created="2015-08-05T10:03:00Z", quoted_id=1))),
        ]
        corpus = build_corpus(events, make_window())
        t = corpus.get(1)
        assert t.reply_ids == (2,)
        assert t.retweet_ids == (3,)
        assert t.quote_ids == (4,)

    def test_link_to_missing_target_ignored(self):
        events = [
            parse_event(json.dumps(tweet_event(id=2, in_reply_to_id=777))),
        ]
        corpus = build_corpus(events, make_window())
        assert corpus.get(2).in_reply_to_id == 777  # raw field kept

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=25, deadline=None)
    def test_order_invariance(self, rnd):
        events = [
            parse_event(json.dumps(tweet_event(id=i, created=f"2015-08-0{1 + i % 5}T10:00:0{i % 10}Z")))
            for i in range(1, 8)
        ] + [
            parse_event(json.dumps(delete_event(id=3, observed="2015-08-10T10:00:00Z"))),
            parse_event(json.dumps(delete_event(id=5, observed="2015-09-30T10:00:00Z"))),
        ]
        shuffled = list(events)
        rnd.shuffle(shuffled)
        a = build_corpus(events, make_window())
        b = build_corpus(shuffled, make_window())
        assert [encode_record(t) for t in a] == [encode_record(t) for t in b]
        assert a.stats == b.stats

    def test_earliest_delete_notice_wins(self):
        events = [
            parse_event(json.dumps(tweet_event(id=1, created="2015-08-05T10:00:00Z"))),
            parse_event(json.dumps(delete_event(id=1, observed="2015-08-05T12:00:00Z"))),
            parse_event(json.dumps(delete_event(id=1, observed="2015-08-05T10:30:00Z"))),
        ]
        corpus = build_corpus(events, make_window())
        assert corpus.get(1).deletion_lag_sec == 1800


_TARGETS = st.one_of(st.none(), st.integers(1, 9))
_LAGS = st.dictionaries(st.integers(1, 9), st.integers(0, 2), max_size=6)


class TestLinkRecordsMatchesOracle:
    """The join keeps a record only where it already holds the join's
    label, lag and links; the oracle rebuilds every record."""

    @given(st.lists(st.tuples(_TARGETS, _TARGETS, _TARGETS), min_size=1, max_size=8),
           _LAGS, _LAGS, st.booleans(), st.sets(st.integers(1, 8)))
    @settings(max_examples=300, deadline=None)
    def test_records_that_arrive_labelled_and_linked(self, targets, first_lags, other_lags,
                                                     same, dropped):
        # A first join labels and links every tweet; some are dropped, and
        # the rest are joined again, with the same lags or others.
        tweets = {
            i: make_tweet(id=i, created_at=ts(hours=i), in_reply_to_id=reply,
                          retweet_of_id=retweet, quoted_id=quote)
            for i, (reply, retweet, quote) in enumerate(targets, start=1)
        }
        labelled = {t.id: t for t in oracles.link_records(tweets, first_lags)
                    if t.id not in dropped}
        lags = first_lags if same else other_lags
        got = events.link_records(labelled, lags)
        want = oracles.link_records(labelled, lags)
        assert got == want
        assert [g is t for g, t in zip(got, labelled.values())] == [
            w == t for w, t in zip(want, labelled.values())]

    @pytest.mark.parametrize("stage", ["corpus", "cleaned"])
    def test_a_built_corpus_fed_back_is_joined_afresh(self, synth_small, stage):
        # No delete events come with them, so every stale label is reset;
        # the cleaned records keep only the links among themselves.
        tweets = list(getattr(synth_small, stage))
        rebuilt = build_corpus(tweets, synth_small.corpus.window)
        assert list(rebuilt) == oracles.link_records({t.id: t for t in tweets}, {})
        assert not any(t.deleted for t in rebuilt)
        assert any(t.deleted for t in tweets)

    def test_only_records_the_join_labels_or_links_are_built(self, synth_small, monkeypatch):
        parsed = [parse_event(json.dumps(e)) for e in synth_small.events]
        tweets = {t.id: t for t in parsed if isinstance(t, TweetRecord)}
        built = record_builds(monkeypatch)
        corpus = build_corpus(parsed, synth_small.corpus.window)
        joined = {t.id for t in corpus if t.deleted or t.reply_ids or t.retweet_ids or t.quote_ids}
        assert joined and sorted(t.id for t in built) == sorted(joined)
        assert all(t is tweets[t.id] for t in corpus if t.id not in joined)


class TestCorpusContainer:
    def test_records_sorted_and_indexed(self):
        t1 = make_tweet(id=2, user_id=1, created_at=ts(hours=5))
        t2 = make_tweet(id=1, user_id=1, created_at=ts(hours=1))
        corpus = make_corpus([t1, t2])
        assert [t.id for t in corpus] == [1, 2]
        assert [t.id for t in corpus.tweets_of(1)] == [1, 2]

    def test_duplicate_ids_rejected(self):
        with pytest.raises(DuplicateTweetError):
            make_corpus([make_tweet(id=1), make_tweet(id=1)])

    def test_profile_of_uses_latest_snapshot(self):
        from conftest import make_profile

        t1 = make_tweet(id=1, created_at=ts(hours=1), profile=make_profile(1, followers_count=5))
        t2 = make_tweet(id=2, created_at=ts(hours=2), profile=make_profile(1, followers_count=9))
        corpus = make_corpus([t1, t2])
        assert corpus.profile_of(1).followers_count == 9

    def test_save_load_roundtrip(self, tmp_path):
        corpus = make_corpus([make_tweet(id=1), make_tweet(id=2, deleted=True)])
        path = tmp_path / "corpus.json"
        corpus.save(path)
        loaded = Corpus.load(path)
        assert [encode_record(t) for t in loaded] == [encode_record(t) for t in corpus]
        assert loaded.window == corpus.window

    def test_golden_corpus_files(self, whitelist, tmp_path):
        """The ingested and cleaned corpus bytes of a small synthetic stream,
        pinned: the record encoder writes what the hand-written one wrote."""
        pipeline = run_synth_pipeline(SynthConfig(seed=5, n_users=40), whitelist)
        for corpus, digest in (
            (pipeline.corpus, "0a198c969eb6306caa409c44a5296b3eb2107c5e5cb61c8953d1fa835ee50693"),
            (pipeline.cleaned, "4283a3ee6008fb1fb8d08e162118bfd82c479d974c00f248ceb48e8a8ab392d7"),
        ):
            path = tmp_path / "corpus.json"
            corpus.save(path)
            assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
            Corpus.load(path).save(tmp_path / "again.json")
            assert (tmp_path / "again.json").read_bytes() == path.read_bytes()

    def test_save_bytes_equal_json_dump(self, synth_small, tmp_path):
        """On the cleaned corpus, on a copy where every record's profile
        differs, and on one where an author's profile changes and then
        changes back to the same object."""
        cleaned = synth_small.cleaned
        a, b = make_profile(1), make_profile(1, bio_length=40)
        for corpus in (
            cleaned,
            cleaned.replace_tweets(replace(t, user=replace(t.user, followers_count=i))
                                   for i, t in enumerate(cleaned.tweets)),
            make_corpus([make_tweet(id=i, created_at=ts(hours=i), profile=p)
                         for i, p in enumerate((a, a, b, a), 1)]),
        ):
            path = tmp_path / "corpus.json"
            corpus.save(path)
            payload = {
                "format": "regretstream-corpus/1",
                "window": encode_record(corpus.window),
                "stats": asdict(corpus.stats),
                "tweets": [encode_record(t) for t in corpus.tweets],
            }
            want = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
            assert path.read_bytes() == want.encode("utf-8")

    def test_save_escapes_non_ascii_like_json_dump(self, tmp_path):
        corpus = make_corpus([make_tweet(id=1, text="caf\u00e9 \U0001F600 \ud800 \"q\"")])
        path = tmp_path / "corpus.json"
        corpus.save(path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["tweets"][0]["text"] == "caf\u00e9 \U0001F600 \ud800 \"q\""
        assert path.read_text(encoding="utf-8") == json.dumps(
            payload, sort_keys=True, separators=(",", ":")) + "\n"

    def _saved_record(self, tmp_path, edit):
        corpus = make_corpus([make_tweet(id=1), make_tweet(id=2)])
        path = tmp_path / "corpus.json"
        corpus.save(path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        edit(payload["tweets"][1])
        path.write_text(json.dumps(payload), encoding="utf-8")
        return path

    def test_load_missing_field_names_file_record_and_field(self, tmp_path):
        path = self._saved_record(tmp_path, lambda r: r.pop("lang"))
        with pytest.raises(SchemaError) as exc:
            Corpus.load(path)
        assert exc.value.field == "lang"
        assert str(path) in str(exc.value) and "tweet record 1" in str(exc.value)

    def test_load_non_integer_field_names_file_record_and_field(self, tmp_path):
        path = self._saved_record(tmp_path, lambda r: r["user"].update(followers_count="many"))
        with pytest.raises(SchemaError) as exc:
            Corpus.load(path)
        assert exc.value.field == "user.followers_count"
        msg = str(exc.value)
        assert str(path) in msg and "tweet record 1" in msg and "user.followers_count" in msg

    def test_load_author_id_mismatch_names_file_record_and_field(self, tmp_path):
        path = self._saved_record(tmp_path, lambda r: r["user"].update(user_id=5))
        with pytest.raises(SchemaError) as exc:
            Corpus.load(path)
        assert exc.value.field == "user.user_id"
        msg = str(exc.value)
        assert str(path) in msg and "tweet record 1" in msg and "user.user_id 5" in msg

    @pytest.mark.parametrize("field,value", [
        ("id", 2 ** 70),
        ("retweet_ids", [{"a": 1}]),
        ("quote_ids", ["x"]),
        ("reply_ids", "12"),
        ("hashtags", "#tag"),
        ("deleted", 0),
        ("deletion_lag_sec", 60.0),
    ])
    def test_load_mistyped_field_names_field(self, tmp_path, field, value):
        path = self._saved_record(tmp_path, lambda r: r.update({field: value}))
        with pytest.raises(SchemaError) as exc:
            Corpus.load(path)
        assert exc.value.field == field
        assert "tweet record 1" in str(exc.value) and f"invalid {field}" in str(exc.value)

    def test_load_without_label_names_deleted(self, tmp_path):
        path = self._saved_record(tmp_path, lambda r: r.pop("deleted"))
        with pytest.raises(SchemaError) as exc:
            Corpus.load(path)
        assert exc.value.field == "deleted" and "tweet record 1" in str(exc.value)

    def test_load_defaults_absent_links_and_entities(self, tmp_path):
        absent = ("in_reply_to_id", "quoted_id", "retweet_of_id", "hashtags", "urls", "mentions",
                  "has_geo", "deletion_lag_sec", "reply_ids", "retweet_ids", "quote_ids")
        path = self._saved_record(tmp_path, lambda r: [r.pop(name) for name in absent])
        assert Corpus.load(path).tweets[1] == make_tweet(id=2)

    def test_load_rejects_float_link_ids(self, tmp_path):
        for field, value in (("reply_ids", [1.0]), ("in_reply_to_id", 1.0)):
            path = self._saved_record(tmp_path, lambda r: r.update({field: value}))
            with pytest.raises(SchemaError) as exc:
                Corpus.load(path)
            assert exc.value.field == field
            assert "tweet record 1" in str(exc.value) and f"invalid {field}: " in str(exc.value)

    def test_load_truncated_file_names_file(self, tmp_path):
        path = tmp_path / "corpus.json"
        make_corpus([make_tweet(id=1), make_tweet(id=2)]).save(path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(ValidationError) as exc:
            Corpus.load(path)
        assert str(path) in str(exc.value)

    def test_created_at_must_lie_within_window(self):
        from regretstream.events import Corpus

        stray = make_tweet(id=1, created_at=ts(days=30))
        with pytest.raises(ValidationError):
            Corpus([stray], make_window())

    def test_record_invariants(self):
        base = encode_record(make_tweet(id=1))
        from regretstream.events import TweetRecord

        bad = dict(base, deleted=True, deletion_lag_sec=None)
        with pytest.raises(ValidationError):
            decode_record(TweetRecord, bad)
        bad = dict(base, deleted=False, deletion_lag_sec=10)
        with pytest.raises(ValidationError):
            decode_record(TweetRecord, bad)


_TIMES = st.datetimes(timezones=st.just(timezone.utc))
_IDS = st.integers(1, 2 ** 63 - 1)
PROFILES = st.builds(
    UserProfile,
    user_id=_IDS,
    account_created_at=_TIMES,
    timezone_offset_min=st.none() | st.integers(-720, 840),
    **{name: st.booleans() for name in (
        "profile_customized", "custom_image", "geo_enabled", "has_location", "has_profile_url")},
    **{name: st.integers(0, 2 ** 40) for name in (
        "bio_length", "favourites_count", "followees_count", "followers_count", "listed_count",
        "statuses_count")},
)


@st.composite
def tweet_records(draw):
    lag = draw(st.none() | st.integers(0, 10 ** 7))
    link = st.none() | _IDS
    words = st.lists(st.text(max_size=6), max_size=3).map(tuple)
    links = st.lists(_IDS, max_size=3).map(tuple)
    user = draw(PROFILES)
    return TweetRecord(
        id=draw(_IDS), user_id=user.user_id, created_at=draw(_TIMES), text=draw(st.text(max_size=20)),
        lang=draw(st.text(max_size=3)), source=draw(st.text(max_size=8)),
        in_reply_to_id=draw(link), quoted_id=draw(link), retweet_of_id=draw(link),
        hashtags=draw(words), urls=draw(words), mentions=draw(words), has_geo=draw(st.booleans()),
        user=user, deleted=lag is not None, deletion_lag_sec=lag,
        reply_ids=draw(links), retweet_ids=draw(links), quote_ids=draw(links),
    )


@given(st.one_of(PROFILES, tweet_records()))
@settings(max_examples=150, deadline=None)
def test_record_codec_round_trip(record):
    """Each record decodes from its encoding, and from that encoding's JSON
    text, to itself."""
    encoded = encode_record(record)
    assert decode_record(type(record), encoded) == record
    assert decode_record(type(record), json.loads(json.dumps(encoded))) == record


@pytest.mark.parametrize("year", [1, 999, 9999])
def test_timestamp_of_any_year_round_trips(year, tmp_path):
    at = datetime(year, 3, 4, 5, 6, 7, 250000, tzinfo=timezone.utc)
    assert codec.format_rfc3339(at) == f"{year:04d}-03-04T05:06:07.25Z"
    assert codec.format_rfc3339(at.replace(microsecond=0)) == f"{year:04d}-03-04T05:06:07Z"
    assert codec.converter(datetime)(codec.format_rfc3339(at)) == at
    path = tmp_path / "corpus.json"
    make_corpus([make_tweet(id=1, profile=make_profile(1, account_created_at=at))]).save(path)
    assert Corpus.load(path).profile_of(1).account_created_at == at
