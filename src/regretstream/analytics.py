"""Group-difference analytics over a cleaned corpus.

Covers deleter/non-deleter partitioning, normalized tweet/user differences
(NTD/NUD), user-attribute distribution comparison, the personality trait
tally, temporal histograms, response statistics, and annotation aggregation.

An ``analyze`` run reads one columnar ``MeasurementTable`` over the corpus
(``analysis_table``): NTD sums its columns over the deleted and kept rows of
deleter-set users, NUD and the trait medians over per-user segments of the
rows sorted once, and the reply-tone split reads the sentiment flags at each
first reply's row.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import codec, textkit
from .errors import UndefinedDifferenceError, ValidationError
from .events import Corpus, TweetRecord
from .features import TweetMeasurements, measure
from .stats import Contingency2x2, TestResult, fisher_exact, mann_whitney_u, median

NUD_MIN_TWEETS = 10  # per class, for a user to be NUD-eligible

TRAIT_SYMBOLS = ("O+", "O-", "C+", "C-", "E+", "E-", "A+", "A-", "N+", "N-")


# ---------------------------------------------------------------------------
# The measurement table
# ---------------------------------------------------------------------------

POS_TAGS = ("proper_noun", "common_noun", "verb", "adjective", "adverb", "emoticon")

# The standard columns, by their fill group (``features.measure``): none,
# sentiment, words, tags and stats.
STRUCTURAL_COLUMNS = ("tweets_w_hashtags", "tweets_w_urls", "tweets_w_mentions", "replies")
SENTIMENT_COLUMNS = ("tweets_w_positive_sentiment", "tweets_w_negative_sentiment")
WORD_COLUMNS = (*(f"lexicon[{i}]" for i in range(textkit.Lexicon.SIZE)), "n_words")
TAG_COLUMNS = (*(f"pos_{tag}" for tag in POS_TAGS), "n_tokens")
SCALAR_COLUMNS = ("lexical_density", "dictionary_words")
_FILL_GROUPS = (
    ("sentiment", SENTIMENT_COLUMNS), ("words", WORD_COLUMNS), ("tags", TAG_COLUMNS),
    ("stats", SCALAR_COLUMNS),
)
# The columns the trait medians read, at every row.
TRAIT_COLUMNS = (*WORD_COLUMNS, *SENTIMENT_COLUMNS, "tweets_w_hashtags", "tweets_w_urls")


def _segments(*keys, rows=None) -> tuple[np.ndarray, np.ndarray]:
    """(order, bounds): a stable sort by ``keys``, the first key primary, of
    the rows the boolean mask ``rows`` marks (default: every row), and the
    offset where each run of equal keys starts in it, followed by its
    length."""
    marked = np.arange(len(keys[0])) if rows is None else np.flatnonzero(rows)
    order = marked[np.lexsort([key[marked] for key in keys[::-1]])]
    _, starts = np.unique(np.stack(keys)[:, order], axis=1, return_index=True)
    return order, np.append(starts, len(order))


class MeasurementTable:
    """Per-tweet measurement columns, one row per tweet in the order given.

    The structural flags, plus the fill group (``features.measure``) of each
    standard column named in ``columns``, from one read of each tweet's
    record (made here, not kept), at the rows ``columns`` maps the name to:
    a boolean mask, or True for every row. The attribute ``columns`` maps a
    name to flags, counts or float scalars; callers may add their own.
    ``user`` holds each row's index into ``user_ids``, the sorted distinct
    user ids (which need not fit 64 bits). NTD and NUD
    compare the rows of the boolean mask ``pool`` (default: every row),
    held sorted by deleted flag (``by_deleted``) and by user, then deleted
    flag (``by_user``); ``nud_users`` holds (user id, kept segment, deleted
    segment) of ``by_user`` for each NUD-eligible user, ascending.
    """

    def __init__(self, tweets, resources, columns=None, pool=None):
        n, columns = len(tweets), columns or {}
        need = {}  # fill group -> the rows it is measured at
        for group, names in _FILL_GROUPS:
            for name in columns.keys() & names:
                need[group] = need.get(group, False) | np.broadcast_to(columns[name], n)
        records = (TweetMeasurements(t, resources) for t in tweets)
        cols = measure(records, n, resources, need) if need else {}
        self.user_ids = sorted({t.user_id for t in tweets})
        rank = {u: k for k, u in enumerate(self.user_ids)}
        self.user = np.array([rank[t.user_id] for t in tweets], dtype=np.int64)
        self.deleted = np.array([t.deleted for t in tweets], dtype=bool)
        flags = np.array([
            (bool(t.hashtags), bool(t.urls), bool(t.mentions), t.in_reply_to_id is not None)
            for t in tweets
        ], dtype=bool).reshape(n, len(STRUCTURAL_COLUMNS))
        self.columns = {name: flags[:, j] for j, name in enumerate(STRUCTURAL_COLUMNS)}
        if "sentiment" in need:
            self.columns.update(tweets_w_positive_sentiment=cols["sentiment"] > 0,
                                tweets_w_negative_sentiment=cols["sentiment"] < 0)
        if "words" in need:  # the 64 lexicon columns, then n_words
            self.columns.update(zip(WORD_COLUMNS, [*cols["lexicon"].T, cols["n_words"]]))
        if "tags" in need:
            index = resources.tagger.tagset.index
            self.columns.update((f"pos_{tag}", cols["pos"][:, index(tag)]) for tag in POS_TAGS)
            self.columns["n_tokens"] = cols["n_tokens"]
        if "stats" in need:
            self.columns.update(zip(SCALAR_COLUMNS, cols["stats"].T))
        self.by_deleted = _segments(self.deleted, rows=pool)
        self.by_user = order, bounds = _segments(self.user, self.deleted, rows=pool)
        # A user's kept and deleted segments are adjacent, kept first.
        users = self.user[order[bounds[:-1]]]
        sizes = np.diff(bounds)
        pair = (users[:-1] == users[1:]) & (np.minimum(sizes[:-1], sizes[1:]) >= NUD_MIN_TWEETS)
        self.nud_users = [
            (self.user_ids[users[i]], i, i + 1) for i in np.flatnonzero(pair).tolist()
        ]


def analysis_table(corpus: Corpus, resources, attrs=(), traits=False, firsts=None):
    """The one measurement table of an ``analyze`` run: a row per corpus
    tweet in corpus order, its pool the rows of deleter-set users (every
    NUD-eligible user is one). It holds the columns ``attrs`` read at the
    pool rows, the TRAIT_COLUMNS at every row when ``traits``, and the
    sentiment flags at the rows of the replies ``firsts`` (from
    ``first_replies(corpus)``) when given."""
    tweets = list(corpus)
    deleters, _ = partition_users(corpus)
    pool = np.array([t.user_id in deleters for t in tweets], dtype=bool)
    at = {c: pool for attr in attrs for c in (attr.column, attr.total) if c is not None}
    if firsts is not None:
        replies = {r.id for r in firsts.values()}
        replied = np.array([t.id in replies for t in tweets], dtype=bool)
        at.update((c, at.get(c, False) | replied) for c in SENTIMENT_COLUMNS)
    if traits:
        at.update(dict.fromkeys(TRAIT_COLUMNS, True))
    return MeasurementTable(tweets, resources, at, pool=pool)


# ---------------------------------------------------------------------------
# Attributes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AttributeExtractor:
    """A named per-tweet measurement, read from measurement-table columns.

    kind "binary": ``column`` is a 0/1 flag (tweet has / has not the
        attribute); group prevalence is the fraction of tweets with it.
    kind "scalar": ``column`` is a per-tweet float, compared via medians.
    kind "token_fraction": ``column`` counts matching tokens and ``total``
        the tokens they are drawn from; group prevalence is the pooled
        token fraction.
    """

    name: str
    kind: str
    column: str
    total: str | None = None

    def __post_init__(self):
        if self.kind not in ("binary", "scalar", "token_fraction"):
            raise ValidationError(f"unknown attribute kind {self.kind!r}")


def structural_extractors() -> list[AttributeExtractor]:
    """Attributes computable from the tweet record alone."""
    return [AttributeExtractor(name, "binary", name) for name in STRUCTURAL_COLUMNS]


def linguistic_extractors(resources) -> list[AttributeExtractor]:
    """POS-, lexicon-, and density-based attributes (need feature resources)."""
    out = [AttributeExtractor(f"pos_{tag}", "token_fraction", f"pos_{tag}", "n_tokens")
           for tag in POS_TAGS]
    out += [AttributeExtractor(name, "scalar", name) for name in SCALAR_COLUMNS]
    out += [AttributeExtractor(f"lexicon_{name}", "token_fraction", f"lexicon[{idx}]", "n_words")
            for idx, name in enumerate(resources.lexicon.category_names)]
    return out


# ---------------------------------------------------------------------------
# Partitioning and normalized differences
# ---------------------------------------------------------------------------

def partition_users(corpus: Corpus) -> tuple[set[int], set[int]]:
    """(deleters, non_deleters) among users with at least one corpus tweet.

    Run this on the cleaned corpus: users whose only deletions were
    superficial have no deleted tweets left and fall in the non-deleter set.
    """
    deleters = {t.user_id for t in corpus if t.deleted}
    return deleters, {t.user_id for t in corpus} - deleters


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


def _sides(attr: AttributeExtractor, table: MeasurementTable, segments) -> list:
    """The attribute over each segment of the table's rows: the float values
    in row order for a scalar attribute, else (matching, total) sums."""
    order, bounds = segments
    values = table.columns[attr.column][order]
    starts = bounds[:-1]
    if attr.kind == "scalar":
        return [values[a:b].tolist() for a, b in zip(starts, bounds[1:])]
    hits = np.add.reduceat(values, starts, dtype=np.int64).tolist()
    if attr.total is None:
        return list(zip(hits, np.diff(bounds).tolist()))
    totals = np.add.reduceat(table.columns[attr.total][order], starts, dtype=np.int64)
    return list(zip(hits, totals.tolist()))


def _compare(attr: AttributeExtractor, del_side, nondel_side, alpha):
    """(deleted value, non-deleted value, test): medians with Mann-Whitney U
    for scalar attributes, prevalences with Fisher's exact test otherwise (a
    side with no tokens is an empty row, which ``Contingency2x2`` rejects)."""
    if attr.kind == "scalar":
        test = mann_whitney_u(del_side, nondel_side, alpha)
        return median(del_side), median(nondel_side), test
    (dnum, dden), (nnum, nden) = del_side, nondel_side
    test = fisher_exact(Contingency2x2(dnum, dden - dnum, nnum, nden - nnum), alpha)
    return dnum / dden, nnum / nden, test


def ntd(
    attr: AttributeExtractor, table: MeasurementTable, alpha: float = 0.05
) -> tuple[float, TestResult]:
    """Aggregate normalized tweet difference between the deleted and kept
    rows of the table's pool, plus the attached test."""
    if len(table.by_deleted[1]) != 3:  # two segments: kept, then deleted
        raise ValidationError("both tweet sets must be non-empty")
    nondel_side, del_side = _sides(attr, table, table.by_deleted)
    dval, nval, test = _compare(attr, del_side, nondel_side, alpha)
    return ntd_value(dval, nval), test


@dataclass
class NudDetail:
    eligible_users: list[int]
    higher_in_deleted: list[int]
    higher_in_nondeleted: list[int]
    del_user_frac: float
    nondel_user_frac: float


def nud(
    attr: AttributeExtractor, table: MeasurementTable, alpha: float = 0.05
) -> tuple[float, NudDetail]:
    """Per-user normalized difference for one attribute.

    Only users with at least 10 deleted and 10 non-deleted tweets are
    evaluated; each eligible user is tested individually (Fisher for count
    attributes, Mann-Whitney for scalar ones) at the given alpha.
    """
    users = table.nud_users
    if not users:
        raise UndefinedDifferenceError("NUD undefined: no eligible users")
    sides = _sides(attr, table, table.by_user)
    higher_del: list[int] = []
    higher_nondel: list[int] = []
    for user_id, kept, deleted in users:
        try:
            dval, nval, test = _compare(attr, sides[deleted], sides[kept], alpha)
        except ValidationError:
            if attr.kind == "scalar":
                raise
            continue  # an empty contingency row: no tokens on one side
        if test.significant and dval > nval:
            higher_del.append(user_id)
        elif test.significant and dval < nval:
            higher_nondel.append(user_id)
    duf = len(higher_del) / len(users)
    nuf = len(higher_nondel) / len(users)
    detail = NudDetail([u for u, _, _ in users], higher_del, higher_nondel, duf, nuf)
    return nud_value(duf, nuf), detail


def group_compare_report(
    table: MeasurementTable, attrs, alpha: float = 0.05, families=("ntd", "nud")
) -> list[dict]:
    """The ``families`` ("ntd", "nud" or both) of each attribute's row, read
    from ``table`` (``analysis_table``: its pool is the deleter-set users'
    rows). NUD rows that are undefined for an attribute carry ``nud: null``
    plus the reason instead of failing.
    """
    rows = []
    for attr in attrs:
        row = {"attribute": attr.name, "kind": attr.kind}
        if "ntd" in families:
            try:
                value, test = ntd(attr, table, alpha)
                row.update(ntd=value, ntd_test=asdict(test))
            except (UndefinedDifferenceError, ValidationError) as exc:
                row.update(ntd=None, ntd_error=str(exc))
        if "nud" in families:
            try:
                value, d = nud(attr, table, alpha)
                row.update(
                    nud=value, eligible_users=len(d.eligible_users),
                    del_sig_users=len(d.higher_in_deleted),
                    nondel_sig_users=len(d.higher_in_nondeleted),
                    del_user_frac=d.del_user_frac, nondel_user_frac=d.nondel_user_frac,
                )
            except UndefinedDifferenceError as exc:
                row.update(nud=None, nud_error=str(exc))
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
    return codec.decode_json(path, _trait_map)


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


def user_category_medians(table: MeasurementTable, lexicon, deleters, non_deleters) -> dict:
    """Per-group medians of per-user linguistic usage (trait-tally input),
    from the TRAIT_COLUMNS of every row of ``table``.

    For each user: percentage of their word tokens in each ``lexicon``
    category, plus percentages of their tweets with positive/negative
    sentiment and with hashtags/urls. Medians are taken per group.
    """
    order, bounds = _segments(table.user)
    starts = bounds[:-1]
    sums = {
        col: np.add.reduceat(table.columns[col][order], starts, dtype=np.int64).tolist()
        for col in TRAIT_COLUMNS
    }
    words, n = sums["n_words"], np.diff(bounds).tolist()
    per_user: dict[str, list[float]] = {}  # attribute -> value per user, users ascending
    for idx, name in enumerate(lexicon.category_names):
        per_user[f"lexicon_{name}"] = [
            100.0 * c / w if w else 0.0 for c, w in zip(sums[f"lexicon[{idx}]"], words)
        ]
    for attr in (*SENTIMENT_COLUMNS, "tweets_w_hashtags", "tweets_w_urls"):
        per_user[attr] = [100.0 * c / k for c, k in zip(sums[attr], n)]
    position = {table.user_ids[r]: k for k, r in enumerate(table.user[order[starts]].tolist())}
    dk = [position[u] for u in sorted(deleters) if u in position]
    nk = [position[u] for u in sorted(non_deleters) if u in position]
    if not dk or not nk:
        return {}
    return {
        attr: (median([per_user[attr][k] for k in nk]), median([per_user[attr][k] for k in dk]))
        for attr in sorted(per_user)
    }


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


def first_replies(corpus: Corpus) -> dict[int, TweetRecord]:
    """The earliest reply in the corpus to each tweet that has one, by the
    replied-to tweet's id."""
    out = {}
    for t in corpus:
        replies = [r for r in map(corpus.get, t.reply_ids) if r is not None]
        if replies:
            out[t.id] = min(replies, key=lambda r: (r.created_at, r.id))
    return out


@dataclass
class ResponseGroupStats:
    n: int
    pct_with_replies: float
    pct_with_retweets: float
    pct_with_quotes: float
    median_first_reply_sec: float | None


@dataclass
class ResponseReport:
    deleted: ResponseGroupStats
    non_deleted: ResponseGroupStats
    median_first_reply_sec_all: float | None
    median_deletion_lag_sec: float | None
    median_deletion_lag_sec_replied: float | None


def response_report(corpus: Corpus, firsts: dict[int, TweetRecord]) -> ResponseReport:
    """Response-rate and latency statistics per deletion group; ``firsts``
    is ``first_replies(corpus)``."""

    def first_reply_latencies(tweets) -> list[float]:
        return [
            (firsts[t.id].created_at - t.created_at).total_seconds()
            for t in tweets if t.id in firsts
        ]

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


def reply_sentiment_split(
    corpus: Corpus, table: MeasurementTable, firsts: dict[int, TweetRecord]
) -> dict:
    """Per-group percentages of first replies with positive/negative tone:
    the sentiment flags of ``table`` (rows in corpus order) at their rows.

    Only tweets with at least one reply count (``firsts`` is
    ``first_replies(corpus)``); a first reply scoring exactly zero is
    counted in neither bucket and reported separately.
    """
    row = {t.id: i for i, t in enumerate(corpus)}
    signs = [table.columns[c] for c in SENTIMENT_COLUMNS]
    out = {}
    for group, deleted in (("deleted", True), ("non_deleted", False)):
        rows = [row[first.id] for tid, first in firsts.items() if corpus.get(tid).deleted == deleted]
        n = len(rows)
        pos, neg = (int(sign[rows].sum()) for sign in signs)
        out[group] = {
            "n_replied": n,
            "pct_positive": 100.0 * pos / n if n else 0.0,
            "pct_negative": 100.0 * neg / n if n else 0.0,
            "pct_zero": 100.0 * (n - pos - neg) / n if n else 0.0,
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
    Regret yes-counts (non-deleted group first) go to Fisher's exact test,
    so each group needs at least one item.
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

    for group in GROUPS:
        if not group_totals[group]:
            raise ValidationError(f"annotation group {group!r} has no items")
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
            "fisher": asdict(fisher),
        },
    }
