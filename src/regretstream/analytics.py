"""Group-difference analytics over a cleaned corpus.

Covers deleter/non-deleter partitioning, normalized tweet/user differences
(NTD/NUD), user-attribute distribution comparison, the personality trait
tally, temporal histograms, response statistics, and annotation aggregation.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import textkit
from .errors import UndefinedDifferenceError, ValidationError
from .events import Corpus, TweetRecord
from .features import MeasurementCache, TweetMeasurements  # noqa: F401 (re-exported)
from .stats import Contingency2x2, TestResult, fisher_exact, mann_whitney_u, median

NUD_MIN_TWEETS = 10  # per class, for a user to be NUD-eligible

TRAIT_SYMBOLS = ("O+", "O-", "C+", "C-", "E+", "E-", "A+", "A-", "N+", "N-")


# ---------------------------------------------------------------------------
# Attribute extractors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AttributeExtractor:
    """A named per-tweet measurement.

    kind "binary": fn -> bool (tweet has / has not the attribute)
    kind "scalar": fn -> float (per-tweet value, compared via medians)
    kind "token_fraction": fn -> (matching_tokens, total_tokens); group
        prevalence is the pooled token fraction.
    """

    name: str
    kind: str
    fn: object

    def __post_init__(self):
        if self.kind not in ("binary", "scalar", "token_fraction"):
            raise ValidationError(f"unknown attribute kind {self.kind!r}")


def structural_extractors() -> list[AttributeExtractor]:
    """Attributes computable from the tweet record alone."""
    return [
        AttributeExtractor("tweets_w_hashtags", "binary", lambda t, m: len(t.hashtags) > 0),
        AttributeExtractor("tweets_w_urls", "binary", lambda t, m: len(t.urls) > 0),
        AttributeExtractor("tweets_w_mentions", "binary", lambda t, m: len(t.mentions) > 0),
        AttributeExtractor("replies", "binary", lambda t, m: t.in_reply_to_id is not None),
    ]


def linguistic_extractors(resources) -> list[AttributeExtractor]:
    """POS-, lexicon-, and density-based attributes (need feature resources)."""
    out: list[AttributeExtractor] = []
    for tag in ("proper_noun", "common_noun", "verb", "adjective", "adverb", "emoticon"):
        out.append(
            AttributeExtractor(
                f"pos_{tag}", "token_fraction",
                lambda t, m, tag=tag: (m.tag_count(tag), m.n_tokens),
            )
        )
    out.append(AttributeExtractor("lexical_density", "scalar", lambda t, m: m.stats()[0]))
    out.append(AttributeExtractor("dictionary_words", "scalar", lambda t, m: m.stats()[1]))
    for idx, name in enumerate(resources.lexicon.category_names):
        if name.startswith("_empty_"):
            continue
        out.append(
            AttributeExtractor(
                f"lexicon_{name}", "token_fraction",
                lambda t, m, idx=idx: (m.lexicon_counts()[idx], m.n_words),
            )
        )
    return out


# ---------------------------------------------------------------------------
# Partitioning and normalized differences
# ---------------------------------------------------------------------------

def partition_users(corpus: Corpus) -> tuple[set[int], set[int]]:
    """(deleters, non_deleters) among users with at least one corpus tweet.

    Run this on the cleaned corpus: users whose only deletions were
    superficial have no deleted tweets left and fall in the non-deleter set.
    """
    deleters: set[int] = set()
    active: set[int] = set()
    for t in corpus:
        active.add(t.user_id)
        if t.deleted:
            deleters.add(t.user_id)
    return deleters, active - deleters


def ntd_value(del_frac: float, nondel_frac: float) -> float:
    """(DelFrac - NonDelFrac) / NonDelFrac * 100."""
    if nondel_frac == 0:
        raise UndefinedDifferenceError("NTD undefined: non-deleted prevalence is zero")
    return (del_frac - nondel_frac) / nondel_frac * 100.0


def nud_value(del_user_frac: float, nondel_user_frac: float) -> float:
    """(DelUserFrac - NonDelUserFrac) / NonDelUserFrac * 100."""
    if nondel_user_frac == 0:
        raise UndefinedDifferenceError("NUD undefined: non-deleted user fraction is zero")
    return (del_user_frac - nondel_user_frac) / nondel_user_frac * 100.0


def _prevalence(attr: AttributeExtractor, tweets, cache) -> tuple[float, tuple[int, int]]:
    """(fraction, (numerator, denominator)) of an attribute over tweets."""
    if attr.kind == "binary":
        hits = sum(1 for t in tweets if bool(attr.fn(t, cache.get(t))))
        return hits / len(tweets), (hits, len(tweets))
    if attr.kind == "token_fraction":
        match = total = 0
        for t in tweets:
            m, n = attr.fn(t, cache.get(t))
            match += m
            total += n
        if total == 0:
            return 0.0, (0, 0)
        return match / total, (match, total)
    raise ValidationError(f"attribute kind {attr.kind} has no prevalence")


def _compare(attr: AttributeExtractor, del_tweets, nondel_tweets, cache, alpha):
    """(deleted value, non-deleted value, test): medians with Mann-Whitney U
    for scalar attributes, prevalences with Fisher's exact test otherwise (a
    side with no tokens is an empty row, which ``Contingency2x2`` rejects)."""
    if attr.kind == "scalar":
        dv = [float(attr.fn(t, cache.get(t))) for t in del_tweets]
        nv = [float(attr.fn(t, cache.get(t))) for t in nondel_tweets]
        test = mann_whitney_u(dv, nv, alpha)
        return median(dv), median(nv), test
    dfrac, (dnum, dden) = _prevalence(attr, del_tweets, cache)
    nfrac, (nnum, nden) = _prevalence(attr, nondel_tweets, cache)
    test = fisher_exact(Contingency2x2(dnum, dden - dnum, nnum, nden - nnum), alpha)
    return dfrac, nfrac, test


def ntd(
    attr: AttributeExtractor,
    del_tweets,
    nondel_tweets,
    cache: MeasurementCache,
    alpha: float = 0.05,
) -> tuple[float, TestResult]:
    """Aggregate normalized tweet difference plus the attached test."""
    del_tweets = list(del_tweets)
    nondel_tweets = list(nondel_tweets)
    if not del_tweets or not nondel_tweets:
        raise ValidationError("both tweet sets must be non-empty")
    dval, nval, test = _compare(attr, del_tweets, nondel_tweets, cache, alpha)
    return ntd_value(dval, nval), test


@dataclass
class NudDetail:
    eligible_users: list[int]
    higher_in_deleted: list[int]
    higher_in_nondeleted: list[int]
    del_user_frac: float
    nondel_user_frac: float


def _user_direction(attr, del_tweets, nondel_tweets, cache, alpha) -> int:
    """+1 if significantly higher in deleted, -1 if in non-deleted, else 0."""
    try:
        dval, nval, test = _compare(attr, del_tweets, nondel_tweets, cache, alpha)
    except ValidationError:
        if attr.kind == "scalar":
            raise
        return 0  # an empty contingency row: no tokens on one side
    if not test.significant:
        return 0
    return 1 if dval > nval else (-1 if dval < nval else 0)


def nud(
    attr: AttributeExtractor,
    corpus: Corpus,
    cache: MeasurementCache,
    alpha: float = 0.05,
) -> tuple[float, NudDetail]:
    """Per-user normalized difference for one attribute.

    Only users with at least 10 deleted and 10 non-deleted tweets are
    evaluated; each eligible user is tested individually (Fisher for count
    attributes, Mann-Whitney for scalar ones) at the given alpha.
    """
    eligible: list[int] = []
    higher_del: list[int] = []
    higher_nondel: list[int] = []
    for user_id in corpus.user_ids():
        timeline = corpus.tweets_of(user_id)
        del_tweets = [t for t in timeline if t.deleted]
        nondel_tweets = [t for t in timeline if not t.deleted]
        if len(del_tweets) < NUD_MIN_TWEETS or len(nondel_tweets) < NUD_MIN_TWEETS:
            continue
        eligible.append(user_id)
        direction = _user_direction(attr, del_tweets, nondel_tweets, cache, alpha)
        if direction > 0:
            higher_del.append(user_id)
        elif direction < 0:
            higher_nondel.append(user_id)
    if not eligible:
        raise UndefinedDifferenceError("NUD undefined: no eligible users")
    duf = len(higher_del) / len(eligible)
    nuf = len(higher_nondel) / len(eligible)
    detail = NudDetail(eligible, higher_del, higher_nondel, duf, nuf)
    return nud_value(duf, nuf), detail


def group_compare_report(
    corpus: Corpus,
    attrs,
    cache: MeasurementCache,
    alpha: float = 0.05,
) -> list[dict]:
    """NTD and NUD rows for each attribute.

    The tweet-level comparison is restricted to tweets posted by deleter-set
    users. NUD rows that are undefined for an attribute carry ``nud: null``
    plus the reason instead of failing.
    """
    deleters, _ = partition_users(corpus)
    pool = [t for t in corpus if t.user_id in deleters]
    del_tweets = [t for t in pool if t.deleted]
    nondel_tweets = [t for t in pool if not t.deleted]
    rows = []
    for attr in attrs:
        row = {"attribute": attr.name, "kind": attr.kind}
        try:
            value, test = ntd(attr, del_tweets, nondel_tweets, cache, alpha)
            row["ntd"] = value
            row["ntd_test"] = test.to_dict()
        except (UndefinedDifferenceError, ValidationError) as exc:
            row["ntd"] = None
            row["ntd_error"] = str(exc)
        try:
            value, detail = nud(attr, corpus, cache, alpha)
            row["nud"] = value
            row["eligible_users"] = len(detail.eligible_users)
            row["del_sig_users"] = len(detail.higher_in_deleted)
            row["nondel_sig_users"] = len(detail.higher_in_nondeleted)
            row["del_user_frac"] = detail.del_user_frac
            row["nondel_user_frac"] = detail.nondel_user_frac
        except UndefinedDifferenceError as exc:
            row["nud"] = None
            row["nud_error"] = str(exc)
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# User-level distribution comparison
# ---------------------------------------------------------------------------

USER_METRICS = ("followers", "followees", "listed", "tweet_rate")


def _user_metric(corpus: Corpus, user_id: int, metric: str) -> float:
    profile = corpus.profile_of(user_id)
    if metric == "followers":
        return float(profile.followers_count)
    if metric == "followees":
        return float(profile.followees_count)
    if metric == "listed":
        return float(profile.listed_count)
    if metric == "tweet_rate":
        return len(corpus.tweets_of(user_id)) / corpus.window.days
    raise ValidationError(f"unknown user metric {metric!r}")


@dataclass
class GroupDistribution:
    metric: str
    median_deleters: float
    median_non_deleters: float
    test: TestResult
    ccdf_deleters: list[tuple[float, float]]
    ccdf_non_deleters: list[tuple[float, float]]


def _ccdf(values) -> list[tuple[float, float]]:
    """(value, P(X >= value)) over the distinct sorted values."""
    vals = np.sort(np.asarray(values, dtype=np.float64))
    n = len(vals)
    distinct = np.unique(vals)
    at_least = n - np.searchsorted(vals, distinct, side="left")
    return [(float(v), float(c / n)) for v, c in zip(distinct, at_least)]


def user_group_compare(
    corpus: Corpus,
    metric: str,
    deleters: set[int],
    non_deleters: set[int],
    alpha: float = 0.05,
) -> GroupDistribution:
    """Compare one per-user metric between the two user groups."""
    if not deleters or not non_deleters:
        raise ValidationError("both user groups must be non-empty")
    dv = [_user_metric(corpus, u, metric) for u in sorted(deleters)]
    nv = [_user_metric(corpus, u, metric) for u in sorted(non_deleters)]
    return GroupDistribution(
        metric=metric,
        median_deleters=median(dv),
        median_non_deleters=median(nv),
        test=mann_whitney_u(dv, nv, alpha),
        ccdf_deleters=_ccdf(dv),
        ccdf_non_deleters=_ccdf(nv),
    )


# ---------------------------------------------------------------------------
# Trait tally
# ---------------------------------------------------------------------------

def load_trait_map(path: str | Path) -> dict[str, list[str]]:
    """Load attribute -> signed trait symbols. Symbols are like "C-", "N+".

    The mapped symbols describe the trait direction associated with a HIGHER
    attribute value; the tally flips them when the deleter median is lower.
    """
    return textkit.decode_json(path, _trait_map)


def _trait_map(raw: dict) -> dict[str, list[str]]:
    out = {}
    for attr, symbols in raw.items():
        for s in symbols:
            if s not in TRAIT_SYMBOLS:
                raise ValidationError(f"unknown trait symbol {s!r} for {attr!r}")
        out[attr] = list(symbols)
    return out


def _flip(symbol: str) -> str:
    return symbol[0] + ("-" if symbol[1] == "+" else "+")


def trait_tally(
    medians: dict[str, tuple[float, float]],
    trait_map: dict[str, list[str]],
) -> tuple[dict[str, int], list[str]]:
    """Tally signed trait symbols over attribute median pairs.

    ``medians`` maps attribute -> (non_deleter_value, deleter_value). When
    the deleter value is higher the mapped symbols count as-is; when lower
    they count flipped; equal values contribute nothing. Attributes missing
    from the map are returned as unmapped rather than failing.
    """
    tally = {s: 0 for s in TRAIT_SYMBOLS}
    unmapped = []
    for attr in sorted(medians):
        nondel, deleter = medians[attr]
        if attr not in trait_map:
            unmapped.append(attr)
            continue
        if deleter == nondel:
            continue
        for symbol in trait_map[attr]:
            tally[symbol if deleter > nondel else _flip(symbol)] += 1
    return tally, unmapped


def user_category_medians(corpus: Corpus, cache: MeasurementCache, deleters, non_deleters) -> dict:
    """Per-group medians of per-user linguistic usage (trait-tally input).

    For each user: percentage of their word tokens in each lexicon category,
    plus percentages of their tweets with positive/negative sentiment and
    with hashtags/urls. Medians are taken per group.
    """
    per_user: dict[int, dict[str, float]] = {}
    names = cache.resources.lexicon.category_names
    for user_id in corpus.user_ids():
        timeline = corpus.tweets_of(user_id)
        counts = [0] * textkit.Lexicon.SIZE
        words = 0
        pos = neg = hashtags = urls = 0
        for t in timeline:
            m = cache.get(t)
            lc = m.lexicon_counts()
            for i, c in enumerate(lc):
                counts[i] += c
            words += m.n_words
            s = m.sentiment()
            pos += 1 if s > 0 else 0
            neg += 1 if s < 0 else 0
            hashtags += 1 if t.hashtags else 0
            urls += 1 if t.urls else 0
        n = len(timeline)
        row = {}
        for i, name in enumerate(names):
            if name.startswith("_empty_"):
                continue
            row[f"lexicon_{name}"] = 100.0 * counts[i] / words if words else 0.0
        row["tweets_w_positive_sentiment"] = 100.0 * pos / n
        row["tweets_w_negative_sentiment"] = 100.0 * neg / n
        row["tweets_w_hashtags"] = 100.0 * hashtags / n
        row["tweets_w_urls"] = 100.0 * urls / n
        per_user[user_id] = row
    attrs = sorted(next(iter(per_user.values()))) if per_user else []
    out = {}
    for attr in attrs:
        dv = [per_user[u][attr] for u in sorted(deleters) if u in per_user]
        nv = [per_user[u][attr] for u in sorted(non_deleters) if u in per_user]
        if dv and nv:
            out[attr] = (median(nv), median(dv))
    return out


# ---------------------------------------------------------------------------
# Temporal and response statistics
# ---------------------------------------------------------------------------

def temporal_histogram(tweets) -> list[float]:
    """Percentage of tweets per UTC hour of day; sums to 100."""
    tweets = list(tweets)
    if not tweets:
        raise ValidationError("temporal_histogram of empty tweet set")
    counts = [0] * 24
    for t in tweets:
        counts[t.created_at.hour] += 1
    n = len(tweets)
    return [100.0 * c / n for c in counts]


def _first_reply(corpus: Corpus, tweet: TweetRecord) -> TweetRecord | None:
    replies = [corpus.get(i) for i in tweet.reply_ids]
    replies = [r for r in replies if r is not None]
    if not replies:
        return None
    return min(replies, key=lambda r: (r.created_at, r.id))


@dataclass
class ResponseGroupStats:
    n: int
    pct_with_replies: float
    pct_with_retweets: float
    pct_with_quotes: float
    median_first_reply_sec: float | None

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "pct_with_replies": self.pct_with_replies,
            "pct_with_retweets": self.pct_with_retweets,
            "pct_with_quotes": self.pct_with_quotes,
            "median_first_reply_sec": self.median_first_reply_sec,
        }


@dataclass
class ResponseReport:
    deleted: ResponseGroupStats
    non_deleted: ResponseGroupStats
    median_first_reply_sec_all: float | None
    median_deletion_lag_sec: float | None
    median_deletion_lag_sec_replied: float | None

    def to_dict(self) -> dict:
        return {
            "deleted": self.deleted.to_dict(),
            "non_deleted": self.non_deleted.to_dict(),
            "median_first_reply_sec_all": self.median_first_reply_sec_all,
            "median_deletion_lag_sec": self.median_deletion_lag_sec,
            "median_deletion_lag_sec_replied": self.median_deletion_lag_sec_replied,
        }


def response_report(corpus: Corpus) -> ResponseReport:
    """Response-rate and latency statistics per deletion group."""

    def first_reply_latencies(tweets) -> list[float]:
        firsts = ((t, _first_reply(corpus, t)) for t in tweets if t.reply_ids)
        return [(f.created_at - t.created_at).total_seconds() for t, f in firsts if f is not None]

    def group_stats(tweets, latencies) -> ResponseGroupStats:
        n = len(tweets)
        if n == 0:
            return ResponseGroupStats(0, 0.0, 0.0, 0.0, None)
        return ResponseGroupStats(
            n=n,
            pct_with_replies=100.0 * sum(1 for t in tweets if t.reply_ids) / n,
            pct_with_retweets=100.0 * sum(1 for t in tweets if t.retweet_ids) / n,
            pct_with_quotes=100.0 * sum(1 for t in tweets if t.quote_ids) / n,
            median_first_reply_sec=median(latencies) if latencies else None,
        )

    deleted = [t for t in corpus if t.deleted]
    non_deleted = [t for t in corpus if not t.deleted]
    del_latencies = first_reply_latencies(deleted)
    nondel_latencies = first_reply_latencies(non_deleted)
    all_latencies = del_latencies + nondel_latencies
    lags = [t.deletion_lag_sec for t in deleted]
    lags_replied = [t.deletion_lag_sec for t in deleted if t.reply_ids]
    return ResponseReport(
        deleted=group_stats(deleted, del_latencies),
        non_deleted=group_stats(non_deleted, nondel_latencies),
        median_first_reply_sec_all=median(all_latencies) if all_latencies else None,
        median_deletion_lag_sec=median(lags) if lags else None,
        median_deletion_lag_sec_replied=median(lags_replied) if lags_replied else None,
    )


def reply_sentiment_split(corpus: Corpus, cache: MeasurementCache) -> dict:
    """Per-group percentages of first replies with positive/negative tone.

    Only tweets with at least one reply count; a first reply scoring exactly
    zero is counted in neither bucket and reported separately.
    """
    out = {}
    for group, tweets in (
        ("deleted", [t for t in corpus if t.deleted]),
        ("non_deleted", [t for t in corpus if not t.deleted]),
    ):
        pos = neg = zero = 0
        for t in tweets:
            first = _first_reply(corpus, t)
            if first is None:
                continue
            s = cache.get(first).sentiment()
            if s > 0:
                pos += 1
            elif s < 0:
                neg += 1
            else:
                zero += 1
        n = pos + neg + zero
        out[group] = {
            "n_replied": n,
            "pct_positive": 100.0 * pos / n if n else 0.0,
            "pct_negative": 100.0 * neg / n if n else 0.0,
            "pct_zero": 100.0 * zero / n if n else 0.0,
        }
    return out


# ---------------------------------------------------------------------------
# Annotation aggregation
# ---------------------------------------------------------------------------

ANSWERS = ("yes", "no", "cant_say")
GROUPS = ("deleted", "non_deleted")


def annotation_item(raw: dict) -> dict:
    """One JSON Lines annotation record with the fields aggregation reads;
    a record of another shape raises KeyError, TypeError or AttributeError,
    and an unknown group or an answer list that is not three known answers,
    ValidationError."""
    return {
        "item_id": raw.get("item_id"),
        "group": _checked_group(raw["group"]),
        "answers": {
            category: _checked_answers(list(a)) for category, a in raw.get("answers", {}).items()
        },
        "regret": _checked_answers(list(raw["regret"])),
    }


def _checked_group(group):
    if group not in GROUPS:
        raise ValidationError(f"unknown annotation group {group!r}")
    return group


def _checked_answers(answers):
    """``answers``, after checking that they are three answers from ANSWERS."""
    if len(answers) != 3:
        raise ValidationError(f"expected exactly 3 annotator answers, got {len(answers)}")
    for a in answers:
        if a not in ANSWERS:
            raise ValidationError(f"malformed annotator answer {a!r}")
    return answers


def _majority(answers) -> str | None:
    """Majority answer among three, or None when there is no majority."""
    _checked_answers(answers)
    for candidate in ANSWERS:
        if sum(1 for a in answers if a == candidate) >= 2:
            return candidate
    return None


def aggregate_annotations(items, alpha: float = 0.05) -> dict:
    """Aggregate three-annotator judgments and test the regret difference.

    A tweet belongs to a category iff at least two annotators said yes.
    Unanimity/majority rates are computed across every answered question.
    Regret yes-counts (non-deleted group first) go to Fisher's exact test.
    """
    labels = []
    unanimous = 0
    with_majority = 0
    total_questions = 0
    category_counts: dict[str, dict[str, int]] = {}
    regret_yes = dict.fromkeys(GROUPS, 0)
    group_totals = dict.fromkeys(GROUPS, 0)

    for item in items:
        group = _checked_group(item["group"])
        group_totals[group] += 1
        assigned = []
        unclassified = []
        questions = list(item.get("answers", {}).items()) + [("regret", item["regret"])]
        for category, answers in questions:
            total_questions += 1
            maj = _majority(answers)  # checks the answers before they are hashed
            if len(set(answers)) == 1:
                unanimous += 1
            if maj is not None:
                with_majority += 1
            if category == "regret":
                if maj == "yes":
                    regret_yes[group] += 1
                continue
            if maj == "yes":
                assigned.append(category)
                bucket = category_counts.setdefault(category, {"deleted": 0, "non_deleted": 0})
                bucket[group] += 1
            elif maj is None:
                unclassified.append(category)
        labels.append(
            {
                "item_id": item.get("item_id"),
                "group": group,
                "categories": sorted(assigned),
                "unclassified": sorted(unclassified),
            }
        )

    table = Contingency2x2(
        regret_yes["non_deleted"], group_totals["non_deleted"] - regret_yes["non_deleted"],
        regret_yes["deleted"], group_totals["deleted"] - regret_yes["deleted"],
    )
    fisher = fisher_exact(table, alpha)
    return {
        "labels": labels,
        "category_counts": {k: category_counts[k] for k in sorted(category_counts)},
        "agreement": {
            "questions": total_questions,
            "unanimous_rate": unanimous / total_questions if total_questions else 0.0,
            "majority_rate": with_majority / total_questions if total_questions else 0.0,
        },
        "regret": {
            "yes_deleted": regret_yes["deleted"],
            "yes_non_deleted": regret_yes["non_deleted"],
            "n_deleted": group_totals["deleted"],
            "n_non_deleted": group_totals["non_deleted"],
            "fisher": fisher.to_dict(),
        },
    }
