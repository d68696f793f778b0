"""Feature assembly: the per-tweet text record (also used by analytics),
sparse TF-IDF text vectors, the 112-slot dense post-time block, the
93-slot response-time block, and their RSF1 file (a ``codec`` container).

Dense layout (fixed slot indices):
  [0..63]   lexicon category percentages
  [64]      sentiment score
  [65..89]  part-of-speech counts (tagset order)
  [90]      hour of day (UTC, 0-23)
  [91]      weekday (Monday=0)
  [92]      timezone offset minutes (0 when unknown)
  [93]      is_reply            [94] is_quote
  [95]      n_urls              [96] n_mentions      [97] n_hashtags
  [98]      has_geo             [99] account_age_days
  [100]     profile_customized  [101] custom_image   [102] bio_length
  [103]     geo_enabled         [104] has_location   [105] has_profile_url
  [106]     favourites_count    [107] followees_count
  [108]     followers_count     [109] listed_count   [110] statuses_count
  [111]     derived open-text feature (NaN until the two-stage
            pipeline fills it)

Response layout: [0] retweet count, [1] quote count, [2] reply count,
[3..66] summed reply lexicon percentages, [67..91] summed reply POS counts,
[92] summed reply sentiment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime
from pathlib import Path

import numpy as np
from numpy.typing import NDArray

from . import codec, textkit
from .errors import ValidationError
from .events import Corpus, TweetRecord

DENSE_SIZE = 112
RESPONSE_SIZE = 93
DERIVED_SLOT = 111

FEATURE_GROUPS = {
    "lexicon": tuple(range(0, 64)),
    "sentiment": (64,),
    "pos": tuple(range(65, 90)),
    "tweet": tuple(range(90, 99)),
    "user": tuple(range(99, 111)),
    "derived_open_text": (DERIVED_SLOT,),
}

_MAGIC = b"RSF1"
_VERSION = 1


class Vocabulary:
    """Term index with per-term document frequencies.

    Terms are the normalized tokens of a corpus excluding mention and url
    classes; indices are assigned in lexicographic term order.
    """

    def __init__(self, df: dict[str, int], n_documents: int):
        self.n_documents = n_documents
        self.terms: list[str] = sorted(df)
        self.index: dict[str, int] = {t: i for i, t in enumerate(self.terms)}
        self.df = np.array([df[t] for t in self.terms], dtype=np.int64)

    def __len__(self) -> int:
        return len(self.terms)


def build_vocab(corpus) -> Vocabulary:
    """Build a Vocabulary from a cleaned corpus (or any tweet iterable).

    An item may be a tweet's TweetMeasurements in place of the tweet; its
    tokens are then reused, not tokenized again.
    """
    df: dict[str, int] = {}
    n_documents = 0
    for t in corpus:
        tokens = t.tokens if isinstance(t, TweetMeasurements) else textkit.tokenize(t.text)
        for term in {tok.normalized for tok in tokens if tok.cls not in ("mention", "url")}:
            df[term] = df.get(term, 0) + 1
        n_documents += 1
    if not n_documents:
        raise ValidationError("cannot build a vocabulary from an empty corpus")
    return Vocabulary(df, n_documents)


def open_text_vector(tokens: textkit.TokenList, vocab: Vocabulary) -> list[tuple[int, float]]:
    """Sparse L2-normalized TF-IDF vector as (index, weight) pairs.

    weight(t) = tf(t) * (ln((1+N)/(1+df(t))) + 1); out-of-vocabulary terms
    are dropped, so an all-OOV tweet yields an empty vector.
    """
    counts: dict[int, int] = {}
    for tok in tokens:
        if tok.cls in ("mention", "url"):
            continue
        idx = vocab.index.get(tok.normalized)
        if idx is not None:
            counts[idx] = counts.get(idx, 0) + 1
    if not counts:
        return []
    n, df = vocab.n_documents, vocab.df
    pairs = []
    for idx in sorted(counts):
        idf = math.log((1.0 + n) / (1.0 + df[idx])) + 1.0
        pairs.append((idx, counts[idx] * idf))
    norm = math.sqrt(sum(w * w for _, w in pairs))
    return [(i, w / norm) for i, w in pairs]


@dataclass
class FeatureResources:
    """The pluggable inputs dense featurization depends on."""

    lexicon: textkit.Lexicon
    valence: dict[str, float]
    wordlist: frozenset[str]
    tagger: object
    pretagged: textkit.PretaggedStore | None = None

    def tags_for(self, tweet: TweetRecord, tokens: textkit.TokenList) -> list[str]:
        if self.pretagged is not None:
            tags = self.pretagged.get(tweet.id)
            if tags is not None:
                return textkit.check_tags(
                    tags, tokens, self.tagger, f"tweet {tweet.id}: pre-tagged file"
                )
        return textkit.pos_tag(tokens, self.tagger)


class TweetMeasurements:
    """The per-tweet text record: tokenized once and tagged once through
    ``resources.tags_for``, on first use; other measurements on each call."""

    def __init__(self, tweet: TweetRecord, resources: FeatureResources):
        self.tweet = tweet
        self._res = resources
        self._tokens = None
        self._tags = None

    @property
    def tokens(self) -> textkit.TokenList:
        if self._tokens is None:
            self._tokens = textkit.tokenize(self.tweet.text)
        return self._tokens

    @property
    def tags(self) -> list[str]:
        if self._tags is None:
            self._tags = self._res.tags_for(self.tweet, self.tokens)
        return self._tags

    @property
    def n_words(self) -> int:
        return self.tokens.count_class("word")

    def lexicon_counts(self) -> list[int]:
        """Matching word-token counts per lexicon category."""
        return textkit.lexicon_counts(self.tokens.words(), self._res.lexicon)

    def sentiment(self) -> float:
        return textkit.sentiment_score(self.tokens, self._res.valence)

    def stats(self) -> tuple[float, float]:
        return textkit.text_stats(self.tokens, self.tags, self._res.wordlist)


def measure(records, n: int, resources: FeatureResources, groups) -> dict[str, np.ndarray]:
    """Measurement columns of the ``n`` TweetMeasurements ``records``, one
    row each in the order given. Each record is read once, as it comes, and
    not kept, so ``records`` may be a generator. ``groups`` maps each group
    wanted to the rows it is measured at, a boolean mask or True for every
    row (its other rows read zero); each group adds its columns:

    - "words": ``lexicon``, (n, 64) word-token counts per lexicon category,
      and ``n_words``;
    - "tags": ``pos``, (n, 25) tag counts in tagset order, and ``n_tokens``;
    - "sentiment": ``sentiment``, the score;
    - "stats": ``stats``, (n, 2) lexical density and dictionary fraction.
    """
    code = {tag: k for k, tag in enumerate(resources.tagger.tagset)}
    cols = {name: np.zeros(shape, dtype) for group, name, shape, dtype in (
        ("words", "lexicon", (n, textkit.Lexicon.SIZE), np.int32),
        ("words", "n_words", n, np.int32),
        ("tags", "pos", (n, len(code)), np.int32),
        ("sentiment", "sentiment", n, np.float64),
        ("stats", "stats", (n, 2), np.float64),
    ) if group in groups}
    words, tags, sentiment, stats = (
        np.broadcast_to(groups.get(group, False), n).tolist()
        for group in ("words", "tags", "sentiment", "stats")
    )
    for i, m in enumerate(records):
        if words[i]:
            cols["lexicon"][i] = m.lexicon_counts()
            cols["n_words"][i] = m.n_words
        if tags[i]:
            cols["pos"][i] = np.bincount([code[t] for t in m.tags], minlength=len(code))
        if sentiment[i]:
            cols["sentiment"][i] = m.sentiment()
        if stats[i]:
            cols["stats"][i] = m.stats()
    if "tags" in groups:
        cols["n_tokens"] = cols["pos"].sum(axis=1)  # one tag per token
    return cols


# The dense slots of the response block's reply sums ([3..92]), in order.
_REPLY_SLOTS = np.r_[0:64, 65:90, 64]

# A vocabulary without terms, for rows whose text vector is not wanted.
_NO_TERMS = Vocabulary({}, 1)

# The profile fields of dense slots 100-110, in slot order.
_PROFILE_SLOTS = (
    "profile_customized", "custom_image", "bio_length", "geo_enabled", "has_location",
    "has_profile_url", "favourites_count", "followees_count", "followers_count",
    "listed_count", "statuses_count",
)


def _response_block(tweets, lookup, resources: FeatureResources, dense, now) -> np.ndarray:
    """The (n, 93) response rows of the tweet records ``tweets``, whose dense
    rows are ``dense``, links resolved through ``lookup.get``. A reply among
    ``tweets`` reuses its row; any other is featurized here, once. A row sums
    its replies' text slots in reply-id order."""
    response = np.zeros((len(tweets), RESPONSE_SIZE), dtype=np.float64)
    row = {t.id: i for i, t in enumerate(tweets)}
    replies = {r for t in tweets for r in t.reply_ids if lookup.get(r) is not None}
    extra = sorted(replies - row.keys())
    if extra:
        row.update((r, len(tweets) + k) for k, r in enumerate(extra))
        more = featurize_corpus(lookup, _NO_TERMS, resources, list(map(lookup.get, extra)), now=now)
        dense = np.concatenate([dense, more.dense])
    for i, t in enumerate(tweets):
        linked = [
            sorted(r for r in set(ids) if lookup.get(r) is not None)
            for ids in (t.retweet_ids, t.quote_ids, t.reply_ids)
        ]
        response[i, :3] = [len(ids) for ids in linked]
        for r in linked[2]:
            response[i, 3:] += dense[row[r], _REPLY_SLOTS]
    return response


@dataclass
class FeatureMatrix:
    """Featurized corpus rows plus labels and ids."""

    tweet_ids: NDArray[np.int64]            # (n,)
    labels: NDArray[np.int8]                # (n,), 1 = deleted
    sparse_indptr: NDArray[np.int64]        # (n+1,)
    sparse_indices: NDArray[np.int64]       # (nnz,)
    sparse_data: NDArray[np.float64]        # (nnz,)
    dense: NDArray[np.float64]              # (n, 112)
    vocab_size: int
    response: NDArray[np.float64] | None = None  # (n, 93)

    def __len__(self) -> int:
        return len(self.tweet_ids)


def featurize_corpus(
    corpus: Corpus,
    vocab: Vocabulary,
    resources: FeatureResources,
    tweets=None,
    with_responses: bool = False,
    now: datetime | None = None,
) -> FeatureMatrix:
    """Featurize corpus tweets (or a subset) against a fixed vocabulary.

    ``tweets`` may hold TweetMeasurements in place of tweets, as given to
    ``build_vocab``; their tokens are reused. Each tweet's record is read
    once, by one measurement fill for all rows, and dropped once read: a
    list ``tweets`` is worked on in place, each record in it replaced by its
    tweet. Response links are looked up by ``corpus.get``, so
    with ``tweets`` and ``now`` given ``corpus`` may be a dict of records by
    id. With responses, a reply among the rows reuses its own row.
    """
    tweets = tweets if isinstance(tweets, list) else list(corpus if tweets is None else tweets)
    now = now or corpus.window.post_end
    dense = np.empty((len(tweets), DENSE_SIZE), dtype=np.float64)
    indptr = [0]
    indices: list[int] = []
    data: list[float] = []

    def records():
        for i, t in enumerate(tweets):
            m = t if isinstance(t, TweetMeasurements) else TweetMeasurements(t, resources)
            tweets[i] = tweet = m.tweet  # then ``tweets`` holds the plain records
            for idx, w in open_text_vector(m.tokens, vocab):
                indices.append(idx)
                data.append(w)
            indptr.append(len(indices))
            profile, created = tweet.user, tweet.created_at
            dense[i, 90:DERIVED_SLOT] = (
                created.hour, created.weekday(), profile.timezone_offset_min or 0,
                tweet.in_reply_to_id is not None, tweet.quoted_id is not None,
                len(tweet.urls), len(tweet.mentions), len(tweet.hashtags), tweet.has_geo,  # 90-98
                (now - profile.account_created_at).total_seconds() / 86400.0,  # 99
                *[getattr(profile, name) for name in _PROFILE_SLOTS],  # 100-110
            )
            yield m

    cols = measure(records(), len(tweets), resources,
                   dict.fromkeys(("words", "tags", "sentiment"), True))
    n_words, pct = cols["n_words"][:, None], dense[:, :64]
    np.multiply(cols["lexicon"], 100.0, out=pct)  # a tweet without words has no hit: 0.0
    np.divide(pct, n_words, out=pct, where=n_words > 0)
    dense[:, 64] = cols["sentiment"]
    dense[:, 65:90] = cols["pos"]
    dense[:, DERIVED_SLOT] = math.nan  # filled by stage 1
    return FeatureMatrix(
        tweet_ids=np.array([t.id for t in tweets], dtype=np.int64),
        labels=np.array([t.deleted for t in tweets], dtype=np.int8),
        sparse_indptr=np.array(indptr, dtype=np.int64),
        sparse_indices=np.array(indices, dtype=np.int64),
        sparse_data=np.array(data, dtype=np.float64),
        dense=dense,
        response=_response_block(tweets, corpus, resources, dense, now) if with_responses else None,
        vocab_size=len(vocab),
    )


def save_feature_matrix(m: FeatureMatrix, path: str | Path) -> None:
    manifest = {**codec.encode_record(m), "n_rows": len(m)}
    codec.write_container(path, _MAGIC, _VERSION, manifest, codec.to_blocks(m))


def load_feature_matrix(path: str | Path) -> FeatureMatrix:
    """Read an RSF1 file, as ``codec.load_container`` does; an ``n_rows``
    other than the matrix's row count is an invalid field too."""
    return codec.load_container(path, _MAGIC, _VERSION, "feature-matrix", _decode_matrix)


def _decode_matrix(manifest: dict, arrays: dict) -> FeatureMatrix:
    n_rows = manifest.pop("n_rows")
    fields = codec.from_blocks(FeatureMatrix, arrays, optional=("response",))
    m = codec.decode_record(FeatureMatrix, manifest, arrays=fields, strict=True)
    if type(n_rows) is not int or n_rows != len(m):
        raise ValidationError(f"invalid n_rows: {n_rows!r} (the arrays hold {len(m)})")
    return m
