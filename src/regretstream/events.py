"""Event wire-format parsing and corpus construction.

The input is a JSON Lines stream of tweet and delete events. Tweets falling
inside the posting window are joined against deletion notices observed up to
the end of the (longer) deletion window; the result is an immutable, ordered
corpus with response links resolved.
"""

from __future__ import annotations

import dataclasses
import functools
import gc
import json
from dataclasses import dataclass, replace
from datetime import datetime
from pathlib import Path

from . import codec, textkit
from .codec import REQUIRED, TweetId, decode_fields, encode_record, json_field, record_fields
# Re-exported for its one reader, perfbench/run.py; it goes when a benchmark
# change moves that import to ``codec``.
from .codec import format_rfc3339  # noqa: F401
from .errors import DuplicateTweetError, ParseError, RegretstreamError, SchemaError, ValidationError


def parse_rfc3339(value: str, field_name: str) -> datetime:
    """Parse an RFC 3339 timestamp into an aware UTC datetime."""
    try:
        return codec.converter(datetime)(value)
    except codec.Rejected as exc:
        raise SchemaError(field_name, f"{field_name} is {exc}: {value!r}") from None


@dataclass(frozen=True)
class UserProfile:
    user_id: int
    account_created_at: datetime
    profile_customized: bool = False
    custom_image: bool = False
    bio_length: int = 0
    geo_enabled: bool = False
    has_location: bool = False
    has_profile_url: bool = False
    favourites_count: int = 0
    followees_count: int = 0
    followers_count: int = 0
    listed_count: int = 0
    statuses_count: int = 0
    timezone_offset_min: int | None = None

    def __post_init__(self):
        if self.user_id <= 0:
            raise SchemaError("user.user_id", "user.user_id must be positive")
        for name in (
            "bio_length", "favourites_count", "followees_count",
            "followers_count", "listed_count", "statuses_count",
        ):
            if getattr(self, name) < 0:
                raise SchemaError(f"user.{name}", f"user.{name} must be nonnegative")


@dataclass(frozen=True)
class DeletePayload:
    id: TweetId
    user_id: int
    observed_at: datetime


def _entities_from_text(text: str) -> tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...]]:
    tokens = textkit.tokenize(text)
    hashtags = tuple(t.surface for t in tokens if t.cls == "hashtag")
    urls = tuple(t.surface for t in tokens if t.cls == "url")
    mentions = tuple(t.surface for t in tokens if t.cls == "mention")
    return hashtags, urls, mentions


def parse_event(line: str, line_number: int | None = None,
                _tweet_fields=None) -> TweetRecord | DeletePayload:
    """Parse one JSON event line into the record it carries: an unlabelled
    TweetRecord for a tweet event, a DeletePayload for a delete event.
    Unknown fields are ignored. (``read_events`` passes the decode table of
    its file as ``_tweet_fields``.)

    Raises ParseError for malformed JSON and SchemaError (naming the field)
    when a required field is missing or invalid.
    """
    try:
        raw = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON: {exc.msg}", line_number)
    if not isinstance(raw, dict):
        raise ParseError("event line must be a JSON object", line_number)
    kind = raw.get("kind")
    if kind not in ("tweet", "delete"):
        raise SchemaError("kind", f"kind must be 'tweet' or 'delete', got {kind!r}", line_number)

    if kind == "delete":
        return DeletePayload(**decode_fields(raw, _DELETE_FIELDS, line_number))
    fields = decode_fields(raw, _tweet_fields or _TWEET_FIELDS, line_number)
    if "hashtags" not in raw and "urls" not in raw and "mentions" not in raw:
        # Sources without entity annotation: recover entities from the text.
        fields["hashtags"], fields["urls"], fields["mentions"] = _entities_from_text(fields["text"])
    try:
        return TweetRecord(**fields)
    except SchemaError as exc:
        raise SchemaError(exc.field, str(exc), line_number) from None


def read_events(path: str | Path):
    """Iterate the records of a JSONL event file, as ``parse_event`` returns
    them; an invalid line raises ParseError or SchemaError naming the file
    and line."""
    tweet_fields = _profiles_once(_TWEET_FIELDS)
    for i, line in codec.text_lines(path):
        line = line.strip()
        if not line:
            continue
        try:
            record = parse_event(line, line_number=i, _tweet_fields=tweet_fields)
        except (ParseError, SchemaError) as exc:
            exc.args = (f"{path}: {exc}",)
            raise
        yield record


@dataclass(frozen=True)
class CollectionWindow:
    post_start: datetime
    post_end: datetime
    delete_end: datetime

    def __post_init__(self):
        if not (self.post_start < self.post_end <= self.delete_end):
            raise ValidationError(
                "collection window requires post_start < post_end <= delete_end"
            )

    @property
    def days(self) -> float:
        return (self.post_end - self.post_start).total_seconds() / 86400.0


@dataclass(frozen=True)
class TweetRecord:
    id: TweetId
    user_id: int
    created_at: datetime
    text: str
    lang: str
    source: str
    in_reply_to_id: int | None = json_field(None)
    quoted_id: int | None = json_field(None)
    retweet_of_id: int | None = json_field(None)
    hashtags: tuple[str, ...] = json_field(())
    urls: tuple[str, ...] = json_field(())
    mentions: tuple[str, ...] = json_field(())
    has_geo: bool = json_field(False)
    user: UserProfile
    deleted: bool = json_field(REQUIRED, default=False)  # a corpus record is labelled
    deletion_lag_sec: int | None = None
    reply_ids: tuple[int, ...] = ()
    retweet_ids: tuple[int, ...] = ()
    quote_ids: tuple[int, ...] = ()

    def __post_init__(self):
        if self.user.user_id != self.user_id:
            raise SchemaError("user.user_id", f"user.user_id {self.user.user_id} "
                                              f"does not match the tweet's user_id {self.user_id}")
        if self.deleted != (self.deletion_lag_sec is not None):
            raise ValidationError("deleted flag and deletion_lag_sec must agree")
        if self.deletion_lag_sec is not None and self.deletion_lag_sec < 0:
            raise ValidationError("deletion_lag_sec must be nonnegative")


# Every record decodes by the table its dataclass declares. The wire tweet
# format is the corpus record without its label and links, lang and source
# defaulting to "en" and "".
_DELETE_FIELDS = record_fields(DeletePayload)
_RECORD_FIELDS = record_fields(TweetRecord)
_TWEET_FIELDS = tuple(
    (name, convert, {"lang": "en", "source": ""}.get(name, default))
    for (name, convert, default), f in zip(_RECORD_FIELDS, dataclasses.fields(TweetRecord))
    if f.default is dataclasses.MISSING
)


def _profiles_once(fields) -> tuple:
    """The decode table ``fields`` for the records of one file: its ``user``
    converter keeps, per author, the last raw object it decoded and the
    profile it made, and gives that profile again while the author's raw
    object stays equal, value types included. So the records of one author
    share one profile object while it is unchanged, and a changed profile
    takes the author's slot. A raw value that is not an object, or has no
    hashable ``user_id``, is decoded anew (and rejected)."""
    return tuple((name, _last_profile(convert) if name == "user" else convert, default)
                 for name, convert, default in fields)


def _last_profile(convert):
    last = {}  # user_id: (raw object, its value types, profile)

    def user(raw):
        try:
            user_id = raw["user_id"]
            kept = last.get(user_id)
        except (KeyError, TypeError):  # not an object, no user_id, or an unhashable one
            return convert(raw)
        # ``==`` takes 1, 1.0 and True for one another, and the converters
        # do not; the types are read in the kept object's key order.
        if (kept is not None and kept[0] == raw
                and kept[1] == tuple(map(type, map(raw.get, kept[0])))):
            return kept[2]
        profile = convert(raw)
        last[user_id] = (raw, tuple(map(type, raw.values())), profile)
        return profile
    return user


@dataclass(frozen=True)
class IngestStats:
    tweets_in: int = 0
    retained: int = 0
    outside_window: int = 0
    duplicates: int = 0
    deletes_in: int = 0
    deletes_applied: int = 0
    orphan_deletes: int = 0
    late_deletes: int = 0
    clamped_lags: int = 0


# The corpus file: its header, and the tweet records, decoded one at a time.
_CORPUS_FIELDS = (
    ("stats", functools.partial(codec.decode_record, IngestStats, prefix="stats."), {}),
    ("window", codec.converter(CollectionWindow, "window."), REQUIRED),
    ("tweets", list, REQUIRED),
)
CORPUS_FORMAT = "regretstream-corpus/1"
_encode_without_user = codec.record_encoder(TweetRecord, ("user",))


class Corpus:
    """Immutable ordered collection of labeled tweets with a user index.

    Tweets are ordered by (created_at, id), so the corpus is a pure function
    of the event set regardless of stream order.
    """

    def __init__(self, tweets, window: CollectionWindow, stats: IngestStats | None = None):
        ordered = sorted(tweets, key=lambda t: (t.created_at, t.id))
        seen: set[int] = set()
        for t in ordered:
            if t.id in seen:
                raise DuplicateTweetError(f"duplicate tweet id {t.id}")
            seen.add(t.id)
            if not (window.post_start <= t.created_at <= window.post_end):
                raise ValidationError(
                    f"tweet {t.id} created at {t.created_at} lies outside the posting window"
                )
        self.tweets: tuple[TweetRecord, ...] = tuple(ordered)
        self.window = window
        self.stats = stats or IngestStats()
        self._by_id = {t.id: t for t in self.tweets}
        user_index: dict[int, list[int]] = {}
        for t in self.tweets:
            user_index.setdefault(t.user_id, []).append(t.id)
        self._user_index = {u: tuple(ids) for u, ids in user_index.items()}

    def __len__(self) -> int:
        return len(self.tweets)

    def __iter__(self):
        return iter(self.tweets)

    def get(self, tweet_id: int) -> TweetRecord | None:
        return self._by_id.get(tweet_id)

    def user_ids(self) -> list[int]:
        return sorted(self._user_index)

    def tweets_of(self, user_id: int) -> list[TweetRecord]:
        """Chronological timeline of one user."""
        return [self._by_id[i] for i in self._user_index.get(user_id, ())]

    def profile_of(self, user_id: int) -> UserProfile:
        """Latest profile snapshot seen for a user."""
        ids = self._user_index.get(user_id)
        if not ids:
            raise ValidationError(f"user {user_id} has no tweets in corpus")
        return self._by_id[ids[-1]].user

    def replace_tweets(self, tweets) -> "Corpus":
        return Corpus(tweets, self.window, self.stats)

    def save(self, path: str | Path) -> None:
        """Write the bytes of ``json.dump(payload, sort_keys=True,
        separators=(",", ":"))`` plus a newline, where payload holds the
        format, stats, tweets and window. Each part is encoded on its own by
        the C encoder (``json.dump`` never uses it), one tweet at a time.
        A profile is encoded once while its author's records hold that one
        object, and its text spliced into each of them."""
        encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
        users = {}  # user_id: (the profile last written, its text)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"format":' + encode(CORPUS_FORMAT))
            fh.write(',"stats":' + encode(encode_record(self.stats)) + ',"tweets":[')
            for i, t in enumerate(self.tweets):
                kept = users.get(t.user_id)
                if kept is None or kept[0] is not t.user:
                    kept = users[t.user_id] = (t.user, encode(encode_record(t.user)))
                text = encode(_encode_without_user(t))
                # "user" sorts just before "user_id", the last key, which
                # holds a number: the last ',"user_id":' is that key.
                cut = text.rindex(',"user_id":')
                fh.write(("," if i else "") + text[:cut] + ',"user":' + kept[1] + text[cut:])
            fh.write('],"window":' + encode(encode_record(self.window)) + "}\n")

    @classmethod
    def load(cls, path: str | Path) -> "Corpus":
        """Read a corpus file; malformed content raises ValidationError or
        SchemaError naming the file, and the tweet record and field at fault.
        An author's records share one profile object while its raw ``user``
        object repeats unchanged (``_profiles_once``).

        The cyclic garbage collector, if it runs, is paused meanwhile.
        Parsing and decoding make no reference cycles, yet every container
        they allocate counts towards its thresholds, and its collections
        traverse all that was built so far: about half of what ``json.load``
        takes on a corpus file. The pause is process-wide: a thread that
        disables the collector during a load finds it enabled after it."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            return cls._load(path)
        finally:
            if enabled:
                gc.enable()

    @classmethod
    def _load(cls, path: str | Path) -> "Corpus":
        with open(path, encoding="utf-8") as fh:
            try:
                payload = json.load(fh)
            except ValueError as exc:
                raise ValidationError(f"{path}: not valid JSON: {exc}") from None
        if not isinstance(payload, dict) or payload.get("format") != CORPUS_FORMAT:
            raise ValidationError(f"{path}: not a corpus file")
        try:
            header = decode_fields(payload, _CORPUS_FIELDS)
        except RegretstreamError as exc:
            raise ValidationError(f"{path}: invalid corpus header: {exc}") from None
        table = _profiles_once(_RECORD_FIELDS)
        tweets = []
        try:
            for i, raw in enumerate(header["tweets"]):
                tweets.append(TweetRecord(**decode_fields(raw, table)))
        except SchemaError as exc:
            raise SchemaError(exc.field, f"{path}: tweet record {i}: {exc}") from None
        except ValidationError as exc:
            raise ValidationError(f"{path}: tweet record {i}: {exc}") from None
        return cls(tweets, header["window"], header["stats"])


def build_corpus(events, window: CollectionWindow, strict: bool = True) -> Corpus:
    """Join a finite event stream, the records ``parse_event`` returns, into
    a labeled corpus.

    Events may arrive in any order; everything is buffered and joined at the
    end, so the result depends only on the event set. A tweet is labeled
    deleted iff a matching notice was observed no later than
    ``window.delete_end``; notices after that are counted as late, notices
    without a matching in-window tweet as orphans. A duplicate tweet id is
    resolved by ``keep_first``: with ``strict`` it raises; otherwise the
    first occurrence wins and the duplicate is counted.
    """
    tweets: dict[int, TweetRecord] = {}
    deletes: dict[int, DeletePayload] = {}
    tweets_in = retained = outside = duplicates = 0
    deletes_in = late = orphans = clamped = applied = 0

    for ev in events:
        if isinstance(ev, TweetRecord):
            tweets_in += 1
            duplicates += not keep_first(tweets, ev, strict)
        else:
            deletes_in += 1
            # Keep the earliest observation per id.
            prev = deletes.get(ev.id)
            if prev is None or ev.observed_at < prev.observed_at:
                deletes[ev.id] = ev

    in_window: dict[int, TweetRecord] = {}
    for t in tweets.values():
        if window.post_start <= t.created_at <= window.post_end:
            in_window[t.id] = t
            retained += 1
        else:
            outside += 1

    deletion: dict[int, int] = {}
    for d in deletes.values():
        t = in_window.get(d.id)
        if t is None:
            orphans += 1
            continue
        if d.observed_at > window.delete_end:
            late += 1
            continue
        lag = (d.observed_at - t.created_at).total_seconds()
        if lag < 0:
            lag = 0.0
            clamped += 1
        deletion[d.id] = int(lag)
        applied += 1

    records = link_records(in_window, deletion)

    stats = IngestStats(
        tweets_in=tweets_in,
        retained=retained,
        outside_window=outside,
        duplicates=duplicates,
        deletes_in=deletes_in,
        deletes_applied=applied,
        orphan_deletes=orphans,
        late_deletes=late,
        clamped_lags=clamped,
    )
    return Corpus(records, window, stats)


def keep_first(tweets: dict[int, TweetRecord], tweet: TweetRecord, strict: bool = False) -> bool:
    """Add ``tweet`` to ``tweets`` by id unless its id is there already, and
    say whether it was added: the first occurrence of a tweet id wins. With
    ``strict`` a repeated id raises DuplicateTweetError."""
    if tweet.id in tweets:
        if strict:
            raise DuplicateTweetError(f"duplicate tweet id {tweet.id}")
        return False
    tweets[tweet.id] = tweet
    return True


def link_records(tweets: dict[int, TweetRecord], deletion_lags: dict[int, int]) -> list[TweetRecord]:
    """``tweets`` (keyed by id) labelled and with reply, retweet and quote
    links resolved among them; a tweet is deleted iff its id has a lag in
    ``deletion_lags``. A tweet that already holds the label, lag and links
    the join gives it is kept as it is; only the others are rebuilt."""
    replies: dict[int, list[int]] = {}
    retweets: dict[int, list[int]] = {}
    quotes: dict[int, list[int]] = {}
    for t in tweets.values():
        for target, links in (
            (t.in_reply_to_id, replies),
            (t.retweet_of_id, retweets),
            (t.quoted_id, quotes),
        ):
            if target is not None and target in tweets:
                links.setdefault(target, []).append(t.id)

    records = []
    for t in tweets.values():
        lag = deletion_lags.get(t.id)
        links = (tuple(sorted(replies.get(t.id, ()))), tuple(sorted(retweets.get(t.id, ()))),
                 tuple(sorted(quotes.get(t.id, ()))))
        if (t.deleted == (lag is not None) and t.deletion_lag_sec == lag
                and (t.reply_ids, t.retweet_ids, t.quote_ids) == links):
            records.append(t)
        else:
            records.append(replace(t, deleted=lag is not None, deletion_lag_sec=lag,
                                   reply_ids=links[0], retweet_ids=links[1], quote_ids=links[2]))
    return records
