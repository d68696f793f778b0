"""Seeded synthetic event-stream generator with a ground-truth ledger.

The generator stands in for the original (unrecoverable) collection: it
emits a wire-format event stream plus a ledger recording every planted
fact, so pipeline stages can be tested against exact expected tallies.

Planted signals in the default configuration:
  * user-conditioned lexical markers: deleter users come in two profile
    types (separable by follower/status counts); the marker word family
    (positive vs negative) that accompanies their deleted tweets flips
    between the types, so the marker alone carries no marginal signal and
    user attributes become the strongest feature group;
  * a mild unconditional "swear" word-rate skew in deleted tweets;
  * reply coupling: replies to deleted tweets lean negative and arrive at
    a lower rate.
Tweet attributes (hour, weekday, entity rates) are left unplanted on
purpose so that the "tweet" feature group is noise.
"""

from __future__ import annotations

import functools
import json
import math
from bisect import bisect_left
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np

from . import codec
from .cleanup import CleanupConfig, near_duplicate
from .codec import encode_record, format_rfc3339, ranged
from .errors import ConfigError
from .events import UserProfile

POST_START = datetime(2015, 8, 3, tzinfo=timezone.utc)

_MARKER_POSITIVE = ("good", "glad", "fun", "sweet", "win", "super")
_MARKER_NEGATIVE = ("bad", "sad", "gross", "dull", "sour", "upset")
_SWEAR_WORDS = ("damn", "hell", "crap")
# Nonce words outside the toy lexicon, valence table, and wordlist: a
# purely open-text signal only the sparse stage can pick up.
_OOV_SIGNAL_WORDS = ("vrexat", "plimbor", "krundel", "sporvex", "tresnil", "quomar")
_REPLY_POSITIVE = ("love", "awesome", "amazing", "happy", "great", "nice")
_REPLY_NEGATIVE = ("awful", "terrible", "hate", "horrible", "worst", "angry")

_AUTOMATED_SOURCES = (
    "RoundTeam", "If This Then That", "Buffer", "twittbot.net",
    "fllwrs", "Crowdfire App", "Twittascope", "Ask.fm", "WordPress.com",
)
_FOREIGN_LANGS = ("es", "fr", "pt", "ja")

# Replies: the chance that a clean base tweet draws any, by its deletion
# status, and the most it draws (uniform from 1).
_REPLY_RATE_DELETED = 0.15
_REPLY_RATE_NON_DELETED = 0.25
_REPLIES_MAX = 3


@dataclass
class SynthConfig(codec.Ranged):
    seed: int = ranged(42, 0)
    n_users: int = ranged(500, 1)
    window_days: int = ranged(14, 1)
    delete_extra_days: int = ranged(7, 0)
    tweet_rate_min: float = ranged(1.9, 0, above=True)
    tweet_rate_max: float = 2.4
    deleter_fraction: float = ranged(0.5, 0, 1)
    deletion_rate: float = ranged(0.1111, 0, 1)
    superficial_fraction: float = ranged(0.1445, 0, 1)
    non_english_fraction: float = ranged(0.12, 0, 1)
    automated_fraction: float = ranged(0.08, 0, 1)
    retweet_fraction: float = ranged(0.15, 0, 1)
    reply_sentiment_coupling: bool = True
    user_conditioned_skew: float = ranged(0.92, 0, 1)
    lexical_rate_deleted: float = ranged(0.28, 0, 1)
    lexical_rate_non_deleted: float = ranged(0.10, 0, 1)
    oov_lexical_rate_deleted: float = ranged(0.0, 0, 1)
    oov_lexical_rate_non_deleted: float = ranged(0.0, 0, 1)
    hashtag_rate_deleted: float = ranged(0.12, 0, 1)
    hashtag_rate_non_deleted: float = ranged(0.12, 0, 1)
    orphan_deletes: int = ranged(5, 0)
    nud_attr_skew_fraction: float = ranged(0.0, 0, 1)
    nud_attr_reverse_fraction: float = ranged(0.0, 0, 1)
    nud_attr_rate_high: float = ranged(0.7, 0, 1)

    def __post_init__(self):
        super().__post_init__()
        # Each group of fractions shares one roll, so it may not sum past 1.
        for kind, names in (("class", ("non_english", "automated", "retweet")),
                            ("NUD attribute", ("nud_attr_skew", "nud_attr_reverse"))):
            total = sum(getattr(self, f"{name}_fraction") for name in names)
            if total > 1.0:
                raise ConfigError(f"exclusive {kind} fractions sum to {total:.3f} > 1 "
                                  f"({' + '.join(names)})")
        if not self.tweet_rate_max >= self.tweet_rate_min:
            raise ConfigError(f"tweet_rate_max must be >= tweet_rate_min, got {self.tweet_rate_max}")

    @classmethod
    def from_file(cls, path: str | Path) -> "SynthConfig":
        return codec.decode_json(path, functools.partial(codec.decode_config, cls))


@dataclass
class _User:
    user_id: int
    deleter: bool
    user_type: str | None  # "a" | "b" for deleters
    nud_planted: bool
    nud_reverse: bool
    profile: UserProfile


@dataclass
class _Tweet:
    id: int
    user: _User
    created_at: datetime
    filter_class: str  # clean | non_english | automated | retweet
    is_response: bool = False
    target_id: int | None = None
    target_deleted: bool = False
    deleted: bool = False          # corpus truth (after censoring)
    attempted_delete: bool = False
    censored: bool = False
    observed_at: datetime | None = None
    superficial: bool = False
    correction_for: int | None = None
    marker: str | None = None
    words: list = field(default_factory=list)
    hashtags: list = field(default_factory=list)
    urls: list = field(default_factory=list)
    mentions: list = field(default_factory=list)
    quoted_id: int | None = None
    retweet_of_id: int | None = None
    has_geo: bool = False
    lang: str = "en"
    source: str = ""
    text: str = ""


def _make_background_vocab(rng, reserved: set[str]) -> list[str]:
    consonants = "bcdfghjklmnpqrstvwz"
    vowels = "aeiou"
    vocab = []
    seen = set(reserved)
    while len(vocab) < 1500:
        n_syll = int(rng.integers(2, 5))
        word = "".join(
            consonants[int(rng.integers(len(consonants)))]
            + vowels[int(rng.integers(len(vowels)))]
            for _ in range(n_syll)
        )
        if word not in seen:
            seen.add(word)
            vocab.append(word)
    return vocab


def _zipf_probs(n: int) -> np.ndarray:
    ranks = np.arange(1, n + 1, dtype=np.float64)
    p = 1.0 / (ranks + 2.7) ** 1.07
    return p / p.sum()


def generate_synthetic(cfg: SynthConfig):
    """Build the synthetic stream; returns (event dicts, ledger records).

    Deterministic per config; the same seed always yields byte-identical
    files once serialized.
    """
    rng = np.random.default_rng(cfg.seed)
    post_end = POST_START + timedelta(days=cfg.window_days)
    delete_end = post_end + timedelta(days=cfg.delete_extra_days)
    window_sec = int((post_end - POST_START).total_seconds())

    users = _make_users(cfg, rng)
    base = _make_base_tweets(cfg, rng, users, window_sec)
    p_delete = _conditional_delete_prob(cfg, users, base)
    _assign_deletions(rng, base, p_delete, delete_end)
    replies = _make_replies(cfg, rng, users, base, window_sec)
    _assign_deletions(rng, replies, p_delete, delete_end)
    tweets = sorted(base + replies, key=lambda t: (t.created_at, t.id))
    _plant_superficial(cfg, rng, tweets)
    _assign_texts(cfg, rng, tweets, users)
    _guard_near_duplicates(tweets)
    events = _emit_events(cfg, rng, tweets, users, post_end, delete_end)
    ledger = _build_ledger(cfg, tweets, users, events)
    return events, ledger


def _make_users(cfg: SynthConfig, rng) -> list[_User]:
    users = []
    for uid in range(1, cfg.n_users + 1):
        deleter = bool(rng.random() < cfg.deleter_fraction)
        user_type = None
        if deleter:
            user_type = "a" if rng.random() < 0.5 else "b"
        roll = rng.random()
        nud_planted = deleter and roll < cfg.nud_attr_skew_fraction
        nud_reverse = (
            deleter
            and not nud_planted
            and roll < cfg.nud_attr_skew_fraction + cfg.nud_attr_reverse_fraction
        )
        if user_type == "a":
            followers = int(rng.lognormal(math.log(1800.0), 0.3))
            statuses = int(rng.lognormal(math.log(9000.0), 0.3))
        elif user_type == "b":
            followers = int(rng.lognormal(math.log(60.0), 0.3))
            statuses = int(rng.lognormal(math.log(300.0), 0.3))
        else:
            followers = int(rng.lognormal(math.log(375.0), 0.9))
            statuses = int(rng.lognormal(math.log(2000.0), 0.9))
        listed_median = 2.0 if deleter else 4.0
        tz_choices = (-480, -420, -360, -300, -240, 0, 60, 120, 330, 540)
        profile = UserProfile(
            user_id=uid,
            account_created_at=POST_START - timedelta(days=int(rng.integers(100, 2000))),
            profile_customized=bool(rng.random() < 0.5),
            custom_image=bool(rng.random() < 0.6),
            bio_length=int(rng.integers(0, 161)),
            geo_enabled=bool(rng.random() < 0.3),
            has_location=bool(rng.random() < 0.4),
            has_profile_url=bool(rng.random() < 0.25),
            favourites_count=int(rng.lognormal(math.log(500.0), 1.0)),
            followees_count=int(rng.lognormal(math.log(400.0), 0.8)),
            followers_count=followers,
            listed_count=int(rng.lognormal(math.log(listed_median), 0.8)),
            statuses_count=statuses,
            timezone_offset_min=(
                None if rng.random() < 0.2 else int(tz_choices[int(rng.integers(len(tz_choices)))])
            ),
        )
        users.append(_User(uid, deleter, user_type, nud_planted, nud_reverse, profile))
    return users


def _make_base_tweets(cfg: SynthConfig, rng, users, window_sec) -> list[_Tweet]:
    tweets = []
    next_id = 1001
    p_excl = (cfg.non_english_fraction, cfg.automated_fraction, cfg.retweet_fraction)
    for user in users:
        rate = rng.uniform(cfg.tweet_rate_min, cfg.tweet_rate_max)
        count = max(1, int(round(rate * cfg.window_days)))
        offsets = np.sort(rng.integers(0, window_sec, size=count))
        for off in offsets:
            roll = rng.random()
            if roll < p_excl[0]:
                filter_class = "non_english"
            elif roll < p_excl[0] + p_excl[1]:
                filter_class = "automated"
            elif roll < p_excl[0] + p_excl[1] + p_excl[2]:
                filter_class = "retweet"
            else:
                filter_class = "clean"
            tweets.append(
                _Tweet(
                    id=next_id,
                    user=user,
                    created_at=POST_START + timedelta(seconds=int(off)),
                    filter_class=filter_class,
                )
            )
            next_id += 1
    return tweets


def _conditional_delete_prob(cfg: SynthConfig, users, base) -> float:
    """Per-tweet deletion probability for deleter-authored tweets.

    Chosen so the expected number of delete notices matches
    deletion_rate * expected total tweets (base plus projected replies);
    solved by a short fixed-point iteration.
    """
    total_base = len(base)
    deleter_base = sum(1 for t in base if t.user.deleter)
    if deleter_base == 0:
        if cfg.deletion_rate > 0:
            raise ConfigError("deletion_rate > 0 requires at least one deleter user")
        return 0.0
    clean_deleter = sum(1 for t in base if t.user.deleter and t.filter_class == "clean")
    clean_other = sum(1 for t in base if not t.user.deleter and t.filter_class == "clean")
    deleter_user_share = sum(1 for u in users if u.deleter) / max(1, len(users))
    mean_replies = (1 + _REPLIES_MAX) / 2.0
    p = cfg.deletion_rate
    for _ in range(4):
        reply_rate_deleter = p * _REPLY_RATE_DELETED + (1 - p) * _REPLY_RATE_NON_DELETED
        exp_replies = (
            clean_deleter * reply_rate_deleter + clean_other * _REPLY_RATE_NON_DELETED
        ) * mean_replies
        exp_total = total_base + exp_replies
        exp_deleter_authored = deleter_base + exp_replies * deleter_user_share
        p = cfg.deletion_rate * exp_total / exp_deleter_authored
    if p > 0.95:
        raise ConfigError(
            f"deletion_rate {cfg.deletion_rate} unreachable with deleter_fraction "
            f"{cfg.deleter_fraction} (per-tweet probability would be {p:.3f})"
        )
    return p


def _assign_deletions(rng, tweets, p_delete, delete_end) -> None:
    for t in tweets:
        if not t.user.deleter:
            continue
        if rng.random() >= p_delete:
            continue
        t.attempted_delete = True
        # 2% of notices arrive after the deletion window; the rest lag the
        # tweet by a lognormal with a 72-minute median.
        if rng.random() < 0.02:
            t.observed_at = delete_end + timedelta(seconds=int(rng.integers(3600, 5 * 86400)))
            t.censored = True
            continue
        lag = rng.lognormal(math.log(4320.0), 1.2)
        observed = t.created_at + timedelta(seconds=max(1, int(lag)))
        t.observed_at = observed
        if observed > delete_end:
            t.censored = True
        else:
            t.deleted = True


def _make_replies(cfg: SynthConfig, rng, users, base, window_sec) -> list[_Tweet]:
    post_end = POST_START + timedelta(days=cfg.window_days)
    replies = []
    next_id = max(t.id for t in base) + 1 if base else 1001
    targets = [t for t in base if t.filter_class == "clean"]
    for target in targets:
        rate = _REPLY_RATE_DELETED if target.deleted else _REPLY_RATE_NON_DELETED
        if rng.random() >= rate:
            continue
        count = int(rng.integers(1, _REPLIES_MAX + 1))
        for _ in range(count):
            author = users[int(rng.integers(len(users)))]
            if author.user_id == target.user.user_id:
                author = users[(users.index(author) + 1) % len(users)]
            lag = rng.lognormal(math.log(120.0), 0.9)
            created = target.created_at + timedelta(seconds=max(1, int(lag)))
            if created > post_end:
                continue
            replies.append(
                _Tweet(
                    id=next_id,
                    user=author,
                    created_at=created,
                    filter_class="clean",
                    is_response=True,
                    target_id=target.id,
                    target_deleted=target.deleted,
                )
            )
            next_id += 1
    return replies


def _plant_superficial(cfg: SynthConfig, rng, tweets) -> None:
    """Mark clean deleted base tweets as superficial deletions.

    The correction (a near-duplicate repost) must be a non-deleted base
    tweet among the user's next ``superficial_lookahead`` clean-timeline
    slots. The planted count targets superficial_fraction of all clean
    deletions exactly, candidate supply permitting.
    """
    by_user: dict[int, list[_Tweet]] = {}
    clean_deleted = 0
    for t in tweets:
        if t.filter_class == "clean":
            by_user.setdefault(t.user.user_id, []).append(t)
            if t.deleted:
                clean_deleted += 1
    target = int(round(cfg.superficial_fraction * clean_deleted))
    if target == 0:
        return

    lookahead = CleanupConfig().superficial_lookahead
    candidates: list[tuple[_Tweet, list[_Tweet]]] = []
    for uid in sorted(by_user):
        timeline = by_user[uid]
        for i, t in enumerate(timeline):
            if t.deleted and not t.is_response:
                candidates.append((t, timeline[i + 1 : i + 1 + lookahead]))

    claimed: set[int] = set()
    planted = 0
    for pos in rng.permutation(len(candidates)):
        if planted >= target:
            break
        t, lookahead = candidates[int(pos)]
        correction = None
        for f in lookahead:
            if (
                not f.is_response
                and not f.attempted_delete
                and f.id not in claimed
                and f.correction_for is None
            ):
                correction = f
                break
        if correction is None:
            continue
        t.superficial = True
        correction.correction_for = t.id
        claimed.add(correction.id)
        planted += 1


def _assign_texts(cfg: SynthConfig, rng, tweets, users) -> None:
    reserved = set(_MARKER_POSITIVE + _MARKER_NEGATIVE + _SWEAR_WORDS)
    reserved |= set(_REPLY_POSITIVE + _REPLY_NEGATIVE)
    reserved |= set(_OOV_SIGNAL_WORDS)
    vocab = _make_background_vocab(rng, reserved)
    probs = _zipf_probs(len(vocab))
    foreign_vocab = [w + "x" for w in vocab[:400]]
    hashtag_pool = [f"#topic{i}" for i in range(1, 51)]
    by_id = {t.id: t for t in tweets}
    base_ids = sorted(t.id for t in tweets if not t.is_response)

    def earlier_base_id(own_id: int) -> int | None:
        hi = bisect_left(base_ids, own_id)
        if hi == 0:
            return None
        return base_ids[int(rng.integers(hi))]

    def background_words(n: int, foreign: bool = False) -> list[str]:
        idx = rng.choice(len(vocab), size=n, p=probs)
        src = foreign_vocab if foreign else vocab
        return [src[i % len(src)] for i in idx]

    for t in tweets:
        n_words = int(rng.integers(6, 13))
        if t.filter_class == "non_english":
            t.lang = _FOREIGN_LANGS[int(rng.integers(len(_FOREIGN_LANGS)))]
            t.words = background_words(n_words, foreign=True)
            t.source = "Twitter Web Client"
        else:
            t.lang = "en"
            t.words = background_words(n_words)
            if t.filter_class == "automated":
                t.source = _AUTOMATED_SOURCES[int(rng.integers(len(_AUTOMATED_SOURCES)))]
            else:
                t.source = "Twitter Web Client" if rng.random() < 0.6 else "Twitter for iPhone"
        if t.filter_class == "retweet":
            t.retweet_of_id = earlier_base_id(t.id) or 10**12 + t.id

        if t.filter_class == "clean":
            user = t.user
            # User-conditioned marker family (the XOR channel).
            if user.deleter and cfg.user_conditioned_skew > 0:
                aligned = rng.random() < cfg.user_conditioned_skew
                if user.user_type == "a":
                    family = "pos" if t.deleted else "neg"
                else:
                    family = "neg" if t.deleted else "pos"
                if not aligned:
                    family = "neg" if family == "pos" else "pos"
                pool = _MARKER_POSITIVE if family == "pos" else _MARKER_NEGATIVE
                t.marker = family
                for _ in range(2):
                    t.words.append(pool[int(rng.integers(len(pool)))])
            # Mild unconditional lexical skew.
            lex_rate = cfg.lexical_rate_deleted if t.deleted else cfg.lexical_rate_non_deleted
            if rng.random() < lex_rate:
                t.words.append(_SWEAR_WORDS[int(rng.integers(len(_SWEAR_WORDS)))])
            # Open-text-only signal (invisible to lexicon/valence features).
            oov_rate = (
                cfg.oov_lexical_rate_deleted if t.deleted else cfg.oov_lexical_rate_non_deleted
            )
            if rng.random() < oov_rate:
                for _ in range(2):
                    t.words.append(_OOV_SIGNAL_WORDS[int(rng.integers(len(_OOV_SIGNAL_WORDS)))])
            # Reply sentiment coupling (probabilistically aligned).
            if t.is_response and cfg.reply_sentiment_coupling:
                negative = t.target_deleted
                if rng.random() >= 0.85:
                    negative = not negative
                pool = _REPLY_NEGATIVE if negative else _REPLY_POSITIVE
                for _ in range(2):
                    t.words.append(pool[int(rng.integers(len(pool)))])
            if t.is_response:
                target = by_id[t.target_id]
                t.mentions = [f"@user{target.user.user_id}"]

        # Entities (rates independent of class -> "tweet" group is noise).
        hrate = cfg.hashtag_rate_deleted if t.deleted else cfg.hashtag_rate_non_deleted
        if t.user.nud_planted and t.deleted:
            hrate = cfg.nud_attr_rate_high
        elif t.user.nud_reverse and not t.deleted:
            hrate = cfg.nud_attr_rate_high
        if rng.random() < hrate:
            t.hashtags = [hashtag_pool[int(rng.integers(len(hashtag_pool)))]]
        if rng.random() < 0.15:
            t.urls = [f"http://t.co/{t.id:08x}"]
        if not t.is_response and rng.random() < 0.25:
            other = int(rng.integers(1, len(users) + 1))
            if other != t.user.user_id:
                t.mentions = [f"@user{other}"]
        if not t.is_response and rng.random() < 0.02:
            quoted = earlier_base_id(t.id)
            if quoted is not None:
                t.quoted_id = quoted
        t.has_geo = bool(rng.random() < 0.05)
        _render_text(t)

    # Corrections copy their source's words with a tiny character edit.
    for t in tweets:
        if t.correction_for is not None:
            source = by_id[t.correction_for]
            t.words = list(source.words)
            t.hashtags = list(source.hashtags)
            t.urls = list(source.urls)
            t.mentions = list(source.mentions)
            if t.words:
                w = t.words[0]
                t.words[0] = (w[:-1] if len(w) > 2 else w + "x")
            _render_text(t)


def _render_text(t: _Tweet) -> None:
    parts = list(t.words) + list(t.hashtags) + list(t.urls) + list(t.mentions)
    t.text = " ".join(parts)


def _guard_near_duplicates(tweets) -> None:
    """Resample deleted non-superficial tweets that accidentally look like
    near-duplicates of a followup (in the pre- or post-removal timeline)."""
    rng = np.random.default_rng(987654321)
    cleanup_cfg = CleanupConfig()
    by_user: dict[int, list[_Tweet]] = {}
    for t in tweets:
        if t.filter_class == "clean":
            by_user.setdefault(t.user.user_id, []).append(t)

    def followups(timeline, i):
        return timeline[i + 1 : i + 1 + cleanup_cfg.superficial_lookahead]

    for uid in sorted(by_user):
        timeline = by_user[uid]
        final_timeline = [t for t in timeline if not t.superficial]
        final_pos = {t.id: i for i, t in enumerate(final_timeline)}
        for _ in range(100):
            violation = None
            for i, t in enumerate(timeline):
                if not t.deleted or t.superficial:
                    continue
                wins = list(followups(timeline, i))
                if t.id in final_pos:
                    wins += followups(final_timeline, final_pos[t.id])
                for f in wins:
                    if near_duplicate(t.text, f.text, cleanup_cfg):
                        violation = t
                        break
                if violation is not None:
                    break
            if violation is None:
                break
            # The deleted tweet's background words are free to change
            # (superficial sources and corrections are locked, but they are
            # never flagged here).
            fresh = [
                w + "q" + str(int(rng.integers(10)))
                for w in violation.words[: max(3, len(violation.words) // 2)]
            ]
            violation.words = fresh + violation.words[len(fresh):]
            _render_text(violation)
        else:
            raise RuntimeError(f"near-duplicate guard did not converge for user {uid}")


def _emit_events(cfg: SynthConfig, rng, tweets, users, post_end, delete_end) -> list[dict]:
    profiles = {u.user_id: encode_record(u.profile) for u in users}
    events = []
    for t in tweets:
        events.append(
            (
                t.created_at,
                0,
                t.id,
                {
                    "kind": "tweet",
                    "id": t.id,
                    "user_id": t.user.user_id,
                    "created_at": format_rfc3339(t.created_at),
                    "text": t.text,
                    "lang": t.lang,
                    "source": t.source,
                    "in_reply_to_id": t.target_id if t.is_response else None,
                    "quoted_id": t.quoted_id,
                    "retweet_of_id": t.retweet_of_id,
                    "hashtags": t.hashtags,
                    "urls": t.urls,
                    "mentions": t.mentions,
                    "has_geo": t.has_geo,
                    "user": dict(profiles[t.user.user_id]),
                },
            )
        )
        if t.attempted_delete:
            events.append(
                (
                    t.observed_at,
                    1,
                    t.id,
                    {
                        "kind": "delete",
                        "id": t.id,
                        "user_id": t.user.user_id,
                        "observed_at": format_rfc3339(t.observed_at),
                    },
                )
            )
    for k in range(cfg.orphan_deletes):
        observed = POST_START + timedelta(seconds=int(rng.integers(0, int((delete_end - POST_START).total_seconds()))))
        events.append(
            (
                observed,
                1,
                10**15 + k,
                {
                    "kind": "delete",
                    "id": 10**15 + k,
                    "user_id": 999999,
                    "observed_at": format_rfc3339(observed),
                },
            )
        )
    events.sort(key=lambda e: (e[0], e[1], e[2]))
    return [e[3] for e in events]


def _build_ledger(cfg: SynthConfig, tweets, users, events) -> list[dict]:
    records: list[dict] = []
    for u in users:
        records.append(
            {
                "kind": "user",
                "user_id": u.user_id,
                "deleter": u.deleter,
                "user_type": u.user_type,
                "nud_planted": u.nud_planted,
                "nud_reverse": u.nud_reverse,
            }
        )
    for t in tweets:
        records.append(
            {
                "kind": "tweet",
                "id": t.id,
                "user_id": t.user.user_id,
                "filter_class": t.filter_class,
                "deleted": t.deleted,
                "attempted_delete": t.attempted_delete,
                "censored": t.censored,
                "superficial": t.superficial,
                "is_response": t.is_response,
                "target_id": t.target_id,
                "marker": t.marker,
            }
        )

    def stage(tweet_filter):
        removed = [t for t in tweets if tweet_filter(t)]
        return {
            "removed": len(removed),
            "removed_deleted": sum(1 for t in removed if t.deleted),
            "users": len({t.user.user_id for t in removed}),
        }

    clean = [t for t in tweets if t.filter_class == "clean"]
    retained = [t for t in clean if not t.superficial]
    summary = {
        "kind": "summary",
        "total_tweet_events": len(tweets),
        "total_delete_events": sum(1 for t in tweets if t.attempted_delete) + cfg.orphan_deletes,
        "attempted_deletions": sum(1 for t in tweets if t.attempted_delete),
        "orphan_deletes": cfg.orphan_deletes,
        "late_deletes": sum(1 for t in tweets if t.censored),
        "input": {
            "tweets": len(tweets),
            "deleted": sum(1 for t in tweets if t.deleted),
            "users": len({t.user.user_id for t in tweets}),
            "deleting_users": len({t.user.user_id for t in tweets if t.deleted}),
        },
        "stages": {
            "non_language": stage(lambda t: t.filter_class == "non_english"),
            "non_whitelisted": stage(lambda t: t.filter_class == "automated"),
            "retweets": stage(lambda t: t.filter_class == "retweet"),
            "superficial": stage(lambda t: t.superficial),
        },
        "retained": {
            "tweets": len(retained),
            "deleted": sum(1 for t in retained if t.deleted),
            "users": len({t.user.user_id for t in retained}),
            "deleting_users": len({t.user.user_id for t in retained if t.deleted}),
        },
    }
    records.append(summary)
    return records


def write_synthetic(cfg: SynthConfig, events_path: str | Path, ledger_path: str | Path) -> dict:
    """Generate and write the stream plus ledger; returns the summary."""
    events, ledger = generate_synthetic(cfg)
    for path, records in ((events_path, events), (ledger_path, ledger)):
        with open(path, "w", encoding="utf-8") as fh:
            for rec in records:
                fh.write(json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n")
    return ledger[-1]


def load_ledger_summary(path: str | Path) -> dict:
    for kind, rec in codec.decode_jsonl(path, lambda rec: (rec.get("kind"), rec)):
        if kind == "summary":
            return rec
    raise ConfigError(f"{path}: no summary record found")

