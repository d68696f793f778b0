"""Event wire-format parsing and corpus construction.

The input is a JSON Lines stream of tweet and delete events. Tweets falling
inside the posting window are joined against deletion notices observed up to
the end of the (longer) deletion window; the result is an immutable, ordered
corpus with response links resolved.
"""

from __future__ import annotations

import json
import reprlib
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

from . import textkit
from .errors import DuplicateTweetError, ParseError, SchemaError, ValidationError


def parse_rfc3339(value: str, field_name: str, line_number=None) -> datetime:
    """Parse an RFC 3339 timestamp into an aware UTC datetime."""
    if not isinstance(value, str):
        raise SchemaError(field_name, f"{field_name} must be a string timestamp", line_number)
    text = value.replace("Z", "+00:00").replace("z", "+00:00")
    try:
        dt = datetime.fromisoformat(text)
    except ValueError:
        raise SchemaError(field_name, f"{field_name} is not RFC 3339: {value!r}", line_number)
    if dt.tzinfo is None:
        raise SchemaError(field_name, f"{field_name} lacks a timezone offset: {value!r}", line_number)
    return dt.astimezone(timezone.utc)


def format_rfc3339(dt: datetime) -> str:
    dt = dt.astimezone(timezone.utc)
    if dt.microsecond:
        return dt.strftime("%Y-%m-%dT%H:%M:%S.%f").rstrip("0") + "Z"
    return dt.strftime("%Y-%m-%dT%H:%M:%SZ")


def _opt_int(value) -> int | None:
    return None if value is None else int(value)


def _str_tuple(value) -> tuple[str, ...]:
    return tuple(str(v) for v in value)


# (field, conversion) pairs of the wire and corpus formats. They are only
# consulted after a conversion failed, to name the field that failed.
_EVENT_FIELDS = (
    ("id", int), ("user_id", int), ("in_reply_to_id", _opt_int),
    ("quoted_id", _opt_int), ("retweet_of_id", _opt_int),
    ("hashtags", _str_tuple), ("urls", _str_tuple), ("mentions", _str_tuple),
)
_USER_FIELDS = (
    ("user_id", int), ("bio_length", int), ("favourites_count", int),
    ("followees_count", int), ("followers_count", int), ("listed_count", int),
    ("statuses_count", int), ("timezone_offset_min", _opt_int),
)
_RECORD_FIELDS = _EVENT_FIELDS + (
    ("deletion_lag_sec", _opt_int), ("reply_ids", tuple),
    ("retweet_ids", tuple), ("quote_ids", tuple),
)


def _invalid_field(raw, fields, exc: Exception, line_number=None, prefix: str = "") -> SchemaError:
    """The SchemaError naming the first of ``fields`` whose value in ``raw``
    its conversion rejects, after ``exc`` was raised converting ``raw``."""
    whole = prefix[:-1] or "record"
    if not isinstance(raw, dict):
        return SchemaError(whole, f"{whole} must be a JSON object", line_number)
    for name, convert in fields:
        if name in raw:
            try:
                convert(raw[name])
            except (TypeError, ValueError, OverflowError):
                value = reprlib.repr(raw[name])
                return SchemaError(prefix + name, f"invalid {prefix}{name}: {value}", line_number)
    return SchemaError(whole, f"invalid {whole}: {exc}", line_number)


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
            raise SchemaError("user_id", "user_id must be positive")
        for name in (
            "bio_length", "favourites_count", "followees_count",
            "followers_count", "listed_count", "statuses_count",
        ):
            if getattr(self, name) < 0:
                raise SchemaError(name, f"{name} must be nonnegative")

    def to_dict(self) -> dict:
        return {
            "user_id": self.user_id,
            "account_created_at": format_rfc3339(self.account_created_at),
            "profile_customized": self.profile_customized,
            "custom_image": self.custom_image,
            "bio_length": self.bio_length,
            "geo_enabled": self.geo_enabled,
            "has_location": self.has_location,
            "has_profile_url": self.has_profile_url,
            "favourites_count": self.favourites_count,
            "followees_count": self.followees_count,
            "followers_count": self.followers_count,
            "listed_count": self.listed_count,
            "statuses_count": self.statuses_count,
            "timezone_offset_min": self.timezone_offset_min,
        }

    @classmethod
    def from_dict(cls, raw: dict, line_number=None) -> "UserProfile":
        try:
            for req in ("user_id", "account_created_at"):
                if req not in raw:
                    raise SchemaError(f"user.{req}", line_number=line_number)
            return cls(
                user_id=int(raw["user_id"]),
                account_created_at=parse_rfc3339(raw["account_created_at"], "user.account_created_at", line_number),
                profile_customized=bool(raw.get("profile_customized", False)),
                custom_image=bool(raw.get("custom_image", False)),
                bio_length=int(raw.get("bio_length", 0)),
                geo_enabled=bool(raw.get("geo_enabled", False)),
                has_location=bool(raw.get("has_location", False)),
                has_profile_url=bool(raw.get("has_profile_url", False)),
                favourites_count=int(raw.get("favourites_count", 0)),
                followees_count=int(raw.get("followees_count", 0)),
                followers_count=int(raw.get("followers_count", 0)),
                listed_count=int(raw.get("listed_count", 0)),
                statuses_count=int(raw.get("statuses_count", 0)),
                timezone_offset_min=_opt_int(raw.get("timezone_offset_min")),
            )
        except (TypeError, ValueError, OverflowError) as exc:
            raise _invalid_field(raw, _USER_FIELDS, exc, line_number, "user.") from None


@dataclass(frozen=True)
class TweetPayload:
    id: int
    user_id: int
    created_at: datetime
    text: str
    lang: str
    source: str
    in_reply_to_id: int | None
    quoted_id: int | None
    retweet_of_id: int | None
    hashtags: tuple[str, ...]
    urls: tuple[str, ...]
    mentions: tuple[str, ...]
    has_geo: bool
    user: UserProfile


@dataclass(frozen=True)
class DeletePayload:
    id: int
    user_id: int
    observed_at: datetime


@dataclass(frozen=True)
class Event:
    kind: str  # "tweet" | "delete"
    tweet: TweetPayload | None = None
    delete: DeletePayload | None = None

    def __post_init__(self):
        if self.kind == "tweet" and (self.tweet is None or self.delete is not None):
            raise ValidationError("tweet event must carry exactly the tweet payload")
        if self.kind == "delete" and (self.delete is None or self.tweet is not None):
            raise ValidationError("delete event must carry exactly the delete payload")


def _entities_from_text(text: str) -> tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...]]:
    tokens = textkit.tokenize(text)
    hashtags = tuple(t.surface for t in tokens if t.cls == "hashtag")
    urls = tuple(t.surface for t in tokens if t.cls == "url")
    mentions = tuple(t.surface for t in tokens if t.cls == "mention")
    return hashtags, urls, mentions


def parse_event(line: str, line_number: int | None = None) -> Event:
    """Parse one JSON event line; unknown fields are ignored.

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

    try:
        if kind == "delete":
            for req in ("id", "user_id", "observed_at"):
                if req not in raw:
                    raise SchemaError(req, line_number=line_number)
            ident = int(raw["id"])
            if ident <= 0:
                raise SchemaError("id", "id must be positive", line_number)
            return Event(
                kind="delete",
                delete=DeletePayload(
                    id=ident,
                    user_id=int(raw["user_id"]),
                    observed_at=parse_rfc3339(raw["observed_at"], "observed_at", line_number),
                ),
            )

        for req in ("id", "user_id", "created_at", "text", "user"):
            if req not in raw:
                raise SchemaError(req, line_number=line_number)
        ident = int(raw["id"])
        if ident <= 0:
            raise SchemaError("id", "id must be positive", line_number)
        text = str(raw["text"])
        if "hashtags" in raw or "urls" in raw or "mentions" in raw:
            hashtags = _str_tuple(raw.get("hashtags", ()))
            urls = _str_tuple(raw.get("urls", ()))
            mentions = _str_tuple(raw.get("mentions", ()))
        else:
            # Sources without entity annotation: recover entities from the text.
            hashtags, urls, mentions = _entities_from_text(text)

        return Event(
            kind="tweet",
            tweet=TweetPayload(
                id=ident,
                user_id=int(raw["user_id"]),
                created_at=parse_rfc3339(raw["created_at"], "created_at", line_number),
                text=text,
                lang=str(raw.get("lang", "en")),
                source=str(raw.get("source", "")),
                in_reply_to_id=_opt_int(raw.get("in_reply_to_id")),
                quoted_id=_opt_int(raw.get("quoted_id")),
                retweet_of_id=_opt_int(raw.get("retweet_of_id")),
                hashtags=hashtags,
                urls=urls,
                mentions=mentions,
                has_geo=bool(raw.get("has_geo", False)),
                user=UserProfile.from_dict(raw["user"], line_number),
            ),
        )
    except (TypeError, ValueError, OverflowError) as exc:
        raise _invalid_field(raw, _EVENT_FIELDS, exc, line_number) from None


def read_events(path: str | Path):
    """Iterate events from a JSONL file, tracking line numbers for errors."""
    for i, line in textkit.text_lines(path):
        line = line.strip()
        if not line:
            continue
        yield parse_event(line, line_number=i)


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

    def to_dict(self) -> dict:
        return {
            "post_start": format_rfc3339(self.post_start),
            "post_end": format_rfc3339(self.post_end),
            "delete_end": format_rfc3339(self.delete_end),
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "CollectionWindow":
        return cls(
            post_start=parse_rfc3339(raw["post_start"], "post_start"),
            post_end=parse_rfc3339(raw["post_end"], "post_end"),
            delete_end=parse_rfc3339(raw["delete_end"], "delete_end"),
        )


@dataclass(frozen=True)
class TweetRecord:
    id: int
    user_id: int
    created_at: datetime
    text: str
    lang: str
    source: str
    in_reply_to_id: int | None
    quoted_id: int | None
    retweet_of_id: int | None
    hashtags: tuple[str, ...]
    urls: tuple[str, ...]
    mentions: tuple[str, ...]
    has_geo: bool
    user: UserProfile
    deleted: bool = False
    deletion_lag_sec: int | None = None
    reply_ids: tuple[int, ...] = ()
    retweet_ids: tuple[int, ...] = ()
    quote_ids: tuple[int, ...] = ()

    def __post_init__(self):
        if self.deleted != (self.deletion_lag_sec is not None):
            raise ValidationError("deleted flag and deletion_lag_sec must agree")
        if self.deletion_lag_sec is not None and self.deletion_lag_sec < 0:
            raise ValidationError("deletion_lag_sec must be nonnegative")

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "user_id": self.user_id,
            "created_at": format_rfc3339(self.created_at),
            "text": self.text,
            "lang": self.lang,
            "source": self.source,
            "in_reply_to_id": self.in_reply_to_id,
            "quoted_id": self.quoted_id,
            "retweet_of_id": self.retweet_of_id,
            "hashtags": list(self.hashtags),
            "urls": list(self.urls),
            "mentions": list(self.mentions),
            "has_geo": self.has_geo,
            "user": self.user.to_dict(),
            "deleted": self.deleted,
            "deletion_lag_sec": self.deletion_lag_sec,
            "reply_ids": list(self.reply_ids),
            "retweet_ids": list(self.retweet_ids),
            "quote_ids": list(self.quote_ids),
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "TweetRecord":
        try:
            return cls(
                id=int(raw["id"]),
                user_id=int(raw["user_id"]),
                created_at=parse_rfc3339(raw["created_at"], "created_at"),
                text=str(raw["text"]),
                lang=str(raw["lang"]),
                source=str(raw["source"]),
                in_reply_to_id=raw.get("in_reply_to_id"),
                quoted_id=raw.get("quoted_id"),
                retweet_of_id=raw.get("retweet_of_id"),
                hashtags=tuple(raw.get("hashtags", ())),
                urls=tuple(raw.get("urls", ())),
                mentions=tuple(raw.get("mentions", ())),
                has_geo=bool(raw.get("has_geo", False)),
                user=UserProfile.from_dict(raw["user"]),
                deleted=bool(raw["deleted"]),
                deletion_lag_sec=raw.get("deletion_lag_sec"),
                reply_ids=tuple(raw.get("reply_ids", ())),
                retweet_ids=tuple(raw.get("retweet_ids", ())),
                quote_ids=tuple(raw.get("quote_ids", ())),
            )
        except KeyError as exc:
            raise SchemaError(exc.args[0]) from None
        except (TypeError, ValueError, OverflowError) as exc:
            raise _invalid_field(raw, _RECORD_FIELDS, exc) from None


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

    def to_dict(self) -> dict:
        return {
            "tweets_in": self.tweets_in,
            "retained": self.retained,
            "outside_window": self.outside_window,
            "duplicates": self.duplicates,
            "deletes_in": self.deletes_in,
            "deletes_applied": self.deletes_applied,
            "orphan_deletes": self.orphan_deletes,
            "late_deletes": self.late_deletes,
            "clamped_lags": self.clamped_lags,
        }


CORPUS_FORMAT = "regretstream-corpus/1"


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
        the C encoder (``json.dump`` never uses it), one tweet at a time."""
        encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"format":' + encode(CORPUS_FORMAT))
            fh.write(',"stats":' + encode(self.stats.to_dict()) + ',"tweets":[')
            for i, t in enumerate(self.tweets):
                if i:
                    fh.write(",")
                fh.write(encode(t.to_dict()))
            fh.write('],"window":' + encode(self.window.to_dict()) + "}\n")

    @classmethod
    def load(cls, path: str | Path) -> "Corpus":
        """Read a corpus file; malformed content raises ValidationError or
        SchemaError naming the file, and the tweet record and field at fault."""
        with open(path, encoding="utf-8") as fh:
            try:
                payload = json.load(fh)
            except ValueError as exc:
                raise ValidationError(f"{path}: not valid JSON: {exc}") from None
        if not isinstance(payload, dict) or payload.get("format") != CORPUS_FORMAT:
            raise ValidationError(f"{path}: not a corpus file")
        try:
            stats = IngestStats(**payload.get("stats", {}))
            window = CollectionWindow.from_dict(payload["window"])
            records = list(payload["tweets"])
        except (KeyError, TypeError, SchemaError) as exc:
            raise ValidationError(f"{path}: invalid corpus header: {exc!r}") from None
        tweets = []
        try:
            for i, raw in enumerate(records):
                tweets.append(TweetRecord.from_dict(raw))
        except SchemaError as exc:
            raise SchemaError(exc.field, f"{path}: tweet record {i}: {exc}") from None
        except ValidationError as exc:
            raise ValidationError(f"{path}: tweet record {i}: {exc}") from None
        return cls(tweets, window, stats)


def build_corpus(events, window: CollectionWindow, strict: bool = True) -> Corpus:
    """Join a finite event stream into a labeled corpus.

    Events may arrive in any order; everything is buffered and joined at the
    end, so the result depends only on the event set. A tweet is labeled
    deleted iff a matching notice was observed no later than
    ``window.delete_end``; notices after that are counted as late, notices
    without a matching in-window tweet as orphans. With ``strict`` a
    duplicate tweet id raises; otherwise the first occurrence wins and the
    duplicate is counted.
    """
    tweets: dict[int, TweetPayload] = {}
    deletes: dict[int, DeletePayload] = {}
    tweets_in = retained = outside = duplicates = 0
    deletes_in = late = orphans = clamped = applied = 0

    for ev in events:
        if ev.kind == "tweet":
            tweets_in += 1
            t = ev.tweet
            if t.id in tweets:
                if strict:
                    raise DuplicateTweetError(f"duplicate tweet id {t.id}")
                duplicates += 1
                continue
            tweets[t.id] = t
        else:
            deletes_in += 1
            d = ev.delete
            # Keep the earliest observation per id.
            prev = deletes.get(d.id)
            if prev is None or d.observed_at < prev.observed_at:
                deletes[d.id] = d

    in_window: dict[int, TweetPayload] = {}
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


def link_records(tweets: dict[int, TweetPayload], deletion_lags: dict[int, int]) -> list[TweetRecord]:
    """TweetRecords for ``tweets`` (keyed by id) with reply, retweet and
    quote links resolved among them; a tweet is deleted iff its id has a
    lag in ``deletion_lags``."""
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
        records.append(
            TweetRecord(
                id=t.id,
                user_id=t.user_id,
                created_at=t.created_at,
                text=t.text,
                lang=t.lang,
                source=t.source,
                in_reply_to_id=t.in_reply_to_id,
                quoted_id=t.quoted_id,
                retweet_of_id=t.retweet_of_id,
                hashtags=t.hashtags,
                urls=t.urls,
                mentions=t.mentions,
                has_geo=t.has_geo,
                user=t.user,
                deleted=lag is not None,
                deletion_lag_sec=lag,
                reply_ids=tuple(sorted(replies.get(t.id, ()))),
                retweet_ids=tuple(sorted(retweets.get(t.id, ()))),
                quote_ids=tuple(sorted(quotes.get(t.id, ()))),
            )
        )
    return records

