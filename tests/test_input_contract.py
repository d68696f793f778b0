"""Property tests for the input contract of ``ingest`` and ``analyze``.

A damaged event line or corpus file (truncated, a flipped bit, a value of
the wrong type, a missing key) makes ``events.parse_event`` and
``Corpus.load`` raise only ``RegretstreamError``; through the CLI it exits
1 with an ``error:`` line and no traceback.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regretstream.cli import main
from regretstream.errors import RegretstreamError
from regretstream.events import Corpus, parse_event

from conftest import make_corpus, make_profile, make_tweet, ts

WINDOW = ("2015-08-03T00:00:00Z", "2015-08-17T00:00:00Z", "2015-08-24T00:00:00Z")

TWEET_EVENT = {
    "kind": "tweet", "id": 7, "user_id": 3, "created_at": "2015-08-05T10:00:00Z",
    "text": "good #day @you http://t.co/x", "lang": "en", "source": "Twitter Web Client",
    "in_reply_to_id": 5, "quoted_id": None, "retweet_of_id": None,
    "hashtags": ["#day"], "urls": ["http://t.co/x"], "mentions": ["@you"], "has_geo": False,
    "user": {
        "user_id": 3, "account_created_at": "2014-01-01T00:00:00Z",
        "profile_customized": True, "custom_image": False, "bio_length": 12,
        "geo_enabled": False, "has_location": True, "has_profile_url": False,
        "favourites_count": 4, "followees_count": 20, "followers_count": 10,
        "listed_count": 1, "statuses_count": 30, "timezone_offset_min": -300,
    },
}
DELETE_EVENT = {"kind": "delete", "id": 7, "user_id": 3, "observed_at": "2015-08-05T11:00:00Z"}
EVENT_LINES = [json.dumps(TWEET_EVENT).encode(), json.dumps(DELETE_EVENT).encode()]


def _corpus_bytes() -> bytes:
    profile = make_profile(2, timezone_offset_min=60, listed_count=3)
    corpus = make_corpus([
        make_tweet(id=1, user_id=1, created_at=ts(hours=1), hashtags=("#a",), reply_ids=(2,)),
        make_tweet(id=2, user_id=2, created_at=ts(hours=2), in_reply_to_id=1, profile=profile,
                   deleted=True, deletion_lag_sec=90),
    ])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "corpus.json"
        corpus.save(path)
        return path.read_bytes()


WRONG_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-(2 ** 70), 2 ** 70),
    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=6),
    st.lists(st.integers(), max_size=2), st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)


def _key_paths(obj, prefix=()):
    """Every path of dict keys and list indices inside ``obj``."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _key_paths(value, prefix + (key,))


@st.composite
def damaged(draw, base: bytes) -> bytes:
    how = draw(st.sampled_from(("truncate", "flip", "retype", "drop")))
    if how == "truncate":
        return base[: draw(st.integers(0, len(base) - 1))]
    if how == "flip":
        data = bytearray(base)
        data[draw(st.integers(0, len(data) - 1))] ^= 1 << draw(st.integers(0, 7))
        return bytes(data)
    obj = json.loads(base)
    path = draw(st.sampled_from(list(_key_paths(obj))))
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    if how == "retype":
        parent[path[-1]] = draw(WRONG_VALUES)
    else:
        del parent[path[-1]]
    return json.dumps(obj).encode()


damaged_events = st.sampled_from(EVENT_LINES).flatmap(damaged)
damaged_corpora = damaged(_corpus_bytes())


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("contract")


def _run_cli(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue()


def _assert_exit_contract(code: int, err: str) -> None:
    """Exit 0 on input the damage left valid, else 1 with one error line."""
    assert code in (0, 1), err
    if code == 1:
        assert err.startswith("error: ") and "Traceback" not in err


def test_undamaged_inputs_are_valid(scratch):
    for line in EVENT_LINES:
        parse_event(line.decode())
    path = scratch / "valid.json"
    path.write_bytes(_corpus_bytes())
    assert len(Corpus.load(path)) == 2


@given(damaged_events)
@settings(max_examples=300, deadline=None)
def test_parse_event_raises_only_package_errors(data):
    try:
        parse_event(data.decode("utf-8", "replace"), line_number=1)
    except RegretstreamError:
        pass


@given(damaged_corpora)
@settings(max_examples=150, deadline=None)
def test_corpus_load_raises_only_package_errors(scratch, data):
    path = scratch / "corpus.json"
    path.write_bytes(data)
    try:
        Corpus.load(path)
    except RegretstreamError:
        pass


@given(damaged_events)
@settings(max_examples=60, deadline=None)
def test_ingest_of_damaged_event_exits_1(scratch, data):
    events = scratch / "events.jsonl"
    events.write_bytes(data + b"\n")
    code, err = _run_cli([
        "ingest", "--events", str(events), "--window", *WINDOW, "--out", str(scratch / "c.json"),
    ])
    _assert_exit_contract(code, err)


@given(damaged_corpora)
@settings(max_examples=60, deadline=None)
def test_analyze_of_damaged_corpus_exits_1(scratch, data):
    path = scratch / "corpus.json"
    path.write_bytes(data)
    code, err = _run_cli([
        "analyze", "--corpus", str(path), "--out", str(scratch / "reports"),
    ])
    _assert_exit_contract(code, err)
