"""Straightforward reference versions of the package's fast kernels.

Each is the package's former implementation, kept here so the differential
tests can require the fast kernel to return exactly the same result.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import asdict, dataclass, replace
from itertools import combinations

import numpy as np

from regretstream import analytics, codec, events, textkit
from regretstream.analytics import NUD_MIN_TWEETS, NudDetail, ntd_value, nud_value, partition_users
from regretstream.classify.trees import _EPS, DecisionTree
from regretstream.cleanup import _EDIT_DISTANCE_MAX
from regretstream.errors import SchemaError, UndefinedDifferenceError, ValidationError
from regretstream.events import DeletePayload, TweetRecord, UserProfile
from regretstream.features import _PROFILE_SLOTS, RESPONSE_SIZE, TweetMeasurements
from regretstream.stats import Contingency2x2, fisher_exact, mann_whitney_u, median


class RecordMemo:
    """Per-tweet records kept by tweet id, for the oracles, which revisit
    tweets: each record is made on first use, and its lexicon counts are
    computed once."""

    def __init__(self, resources):
        self.resources = resources
        self._records: dict[int, TweetMeasurements] = {}

    def get(self, tweet) -> TweetMeasurements:
        m = self._records.get(tweet.id)
        if m is None:
            m = self._records[tweet.id] = _MemoRecord(tweet, self.resources)
        return m


class _MemoRecord(TweetMeasurements):
    def lexicon_counts(self) -> list[int]:
        if not hasattr(self, "_counts"):
            self._counts = super().lexicon_counts()
        return self._counts


def dp_edit_distance(a: str, b: str) -> int:
    """Levenshtein distance by the full dynamic-programming matrix."""
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    if len(a) < len(b):
        a, b = b, a
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i]
        for j, cb in enumerate(b, start=1):
            cost = 0 if ca == cb else 1
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + cost))
        prev = cur
    return prev[-1]


def pairwise_u_statistic(xs, ys) -> float:
    """U = #{(x, y): x > y} + 0.5 * #ties, counted over every pair."""
    u = 0.0
    for x in xs:
        for y in ys:
            if x > y:
                u += 1.0
            elif x == y:
                u += 0.5
    return u


def _pairwise_exact_p(values: list, n1: int, u_obs: float) -> float:
    idx = range(len(values))
    total = n_le = n_ge = 0
    eps = 1e-9
    for subset in combinations(idx, n1):
        chosen = set(subset)
        xs = [values[i] for i in subset]
        ys = [values[i] for i in idx if i not in chosen]
        u = pairwise_u_statistic(xs, ys)
        total += 1
        if u <= u_obs + eps:
            n_le += 1
        if u >= u_obs - eps:
            n_ge += 1
    return min(1.0, 2.0 * min(n_le, n_ge) / total)


def _pairwise_normal_p(xs, ys, u: float) -> float:
    n1, n2 = len(xs), len(ys)
    n = n1 + n2
    counts: dict = {}
    for v in list(xs) + list(ys):
        counts[v] = counts.get(v, 0) + 1
    tie_term = sum(c ** 3 - c for c in counts.values())
    var = (n1 * n2 / 12.0) * ((n + 1) - tie_term / (n * (n - 1)))
    if var <= 0:
        return 1.0
    diff = u - n1 * n2 / 2.0
    if diff > 0:
        z = (diff - 0.5) / math.sqrt(var)
    elif diff < 0:
        z = (diff + 0.5) / math.sqrt(var)
    else:
        z = 0.0
    return min(1.0, 2.0 * (0.5 * math.erfc(abs(z) / math.sqrt(2.0))))


def pairwise_mann_whitney(xs, ys, exact_limit: int = 16) -> tuple[float, float]:
    """(U, two-sided p) with U counted pairwise and, up to ``exact_limit``
    pooled values, recounted pairwise for every assignment of the null."""
    xs, ys = list(xs), list(ys)
    u = pairwise_u_statistic(xs, ys)
    if len(xs) + len(ys) <= exact_limit:
        return u, _pairwise_exact_p(xs + ys, len(xs), u)
    return u, _pairwise_normal_p(xs, ys, u)


def scan_categories(lexicon, word: str) -> set[int]:
    """Category indices matching ``word``, by a full scan of the patterns."""
    low = word.lower()
    hits = set()
    for idx, (_, patterns) in enumerate(lexicon.categories):
        for pat in patterns:
            pat = pat.lower()
            matched = low.startswith(pat[:-1]) if pat.endswith("*") else low == pat
            if matched:
                hits.add(idx)
    return hits


def uncached_tag_word(tok) -> str:
    """RuleTagger's former word rule: no memo, ``any(...)`` suffix tests."""
    w = tok.normalized
    if w == "rt":
        return "discourse_marker"
    if w in textkit._PRONOUNS:
        return "pronoun"
    if w in textkit._DETERMINERS:
        return "determiner"
    if w in textkit._PREPOSITIONS:
        return "preposition"
    if w in textkit._CONJUNCTIONS:
        return "conjunction"
    if w in textkit._INTERJECTIONS:
        return "interjection"
    if w == "there":
        return "existential"
    if w in textkit._COMMON_VERBS or "'" in w or "\u2019" in w:
        return "verb"
    if w.endswith("ly"):
        return "adverb"
    if any(w.endswith(s) for s in textkit._VERB_SUFFIXES):
        return "verb"
    if any(w.endswith(s) for s in textkit._ADJ_SUFFIXES):
        return "adjective"
    if any(w.endswith(s) for s in textkit._NOUN_SUFFIXES):
        return "common_noun"
    if tok.surface[:1].isupper():
        return "proper_noun"
    return "common_noun"


def uncached_tags(tokens) -> list[str]:
    """RuleTagger's former ``tag``: one rule evaluation per token."""
    return [
        uncached_tag_word(tok) if tok.cls == "word" else textkit._STRUCTURAL_TAGS[tok.cls]
        for tok in tokens
    ]


def index_pos_counts(tags, tagset) -> np.ndarray:
    """Tag counts in tagset order, one ``tagset.index`` lookup per tag."""
    counts = np.zeros(len(tagset), dtype=np.float64)
    for t in tags:
        counts[tagset.index(t)] += 1.0
    return counts


def lexicon_score(tokens, lex) -> list[float]:
    """Per-category percentages of word tokens matching the category.

    The basis is word-class tokens only; all-zero when there are none.
    """
    words = tokens.words()
    if not words:
        return [0.0] * textkit.Lexicon.SIZE
    n = len(words)
    return [100.0 * c / n for c in textkit.lexicon_counts(words, lex)]


def pos_counts(tags, tagset) -> list[int]:
    """Tag counts in tagset order, through one Counter."""
    counts = Counter(tags)
    return [counts.get(t, 0) for t in tagset]


def dense_vector(m, resources, now) -> np.ndarray:
    """The former dense row of the record ``m``: one list, one ``np.array``."""
    tweet, profile = m.tweet, m.tweet.user
    created = tweet.created_at
    return np.array([
        *lexicon_score(m.tokens, resources.lexicon), m.sentiment(),
        *pos_counts(m.tags, resources.tagger.tagset),  # slots 0-89
        created.hour, created.weekday(), profile.timezone_offset_min or 0,
        tweet.in_reply_to_id is not None, tweet.quoted_id is not None,
        len(tweet.urls), len(tweet.mentions), len(tweet.hashtags), tweet.has_geo,  # 90-98
        (now - profile.account_created_at).total_seconds() / 86400.0,  # 99
        *[getattr(profile, name) for name in _PROFILE_SLOTS],  # 100-110
        math.nan,  # the derived slot
    ], dtype=np.float64)


def response_vector(tweet, responses, cache) -> np.ndarray:
    """The former response row: each of ``responses`` in the order given,
    a reply's rows added to the sums one reply at a time."""
    vec = np.zeros(RESPONSE_SIZE, dtype=np.float64)
    lexicon, tagset = cache.resources.lexicon, cache.resources.tagger.tagset
    for r in responses:
        if r.id in set(tweet.retweet_ids):
            vec[0] += 1.0
        if r.id in set(tweet.quote_ids):
            vec[1] += 1.0
        if r.id in set(tweet.reply_ids):
            vec[2] += 1.0
            m = cache.get(r)
            vec[3:67] += lexicon_score(m.tokens, lexicon)
            vec[67:92] += pos_counts(m.tags, tagset)
            vec[92] += m.sentiment()
    return vec


def loop_table_columns(tweets, cache) -> dict[str, list]:
    """Every standard ``MeasurementTable`` column by the former row loop:
    one list per tweet, the POS columns by one ``tags.count`` per tag."""
    names = (
        analytics.STRUCTURAL_COLUMNS + analytics.SENTIMENT_COLUMNS + analytics.WORD_COLUMNS
        + analytics.TAG_COLUMNS + analytics.SCALAR_COLUMNS
    )
    columns = {name: [] for name in names}
    for t in tweets:
        m = cache.get(t)
        s = m.sentiment()
        row = [
            bool(t.hashtags), bool(t.urls), bool(t.mentions), t.in_reply_to_id is not None,
            s > 0, s < 0, *m.lexicon_counts(), m.n_words,
            *[m.tags.count(tag) for tag in analytics.POS_TAGS], len(m.tokens), *m.stats(),
        ]
        for name, value in zip(names, row):
            columns[name].append(value)
    return columns


def row_pegasos_weights(X, y, c: float, epochs: int, seed: int) -> np.ndarray:
    """LinearSvmModel's former fit loop: ``X.row(i)`` and numpy-scalar
    labels on every step, the bias updated in place as ``w[v]``."""
    ypm = np.asarray(y).astype(np.float64) * 2.0 - 1.0
    n = len(X)
    v = X.n_cols
    lam = 1.0 / (n * c)
    w = np.zeros(v + 1, dtype=np.float64)
    rng = np.random.default_rng(seed)
    t = 0
    for _ in range(epochs):
        order = rng.permutation(n)
        for i in order:
            t += 1
            eta = 1.0 / (lam * t)
            idx, vals = X.row(i)
            margin = ypm[i] * (float(np.dot(vals, w[idx])) + w[v])
            w *= 1.0 - eta * lam
            if margin < 1.0:
                w[idx] += eta * ypm[i] * vals
                w[v] += eta * ypm[i]
    return w


class ReferenceTree(DecisionTree):
    """The former tree builder: every node copies its rows out of X and
    stable-argsorts the whole node matrix again to find its split."""

    def fit(self, X, y, w) -> "ReferenceTree":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        w = np.asarray(w, dtype=np.float64)
        self.feature, self.threshold = [], []
        self.left, self.right, self.value = [], [], []
        _copy_build(self, X, y, w, depth=0)
        return self


def _copy_build(tree, X, y, w, depth) -> int:
    node = tree._add_node()
    wpos = float(w[y > 0].sum())
    wtot = float(w.sum())
    pure = wpos < _EPS or (wtot - wpos) < _EPS
    if depth >= tree.max_depth or len(y) < 2 or pure:
        tree.value[node] = tree._leaf_value(y, w)
        return node
    split = reference_best_split(X, y, w)
    if split is None:
        tree.value[node] = tree._leaf_value(y, w)
        return node
    j, thr = split
    go_left = X[:, j] <= thr
    if not go_left.any() or go_left.all():
        tree.value[node] = tree._leaf_value(y, w)
        return node
    tree.feature[node] = j
    tree.threshold[node] = thr
    tree.left[node] = _copy_build(tree, X[go_left], y[go_left], w[go_left], depth + 1)
    tree.right[node] = _copy_build(tree, X[~go_left], y[~go_left], w[~go_left], depth + 1)
    return node


def reference_best_split(X, y, w):
    """Lowest weighted-Gini split as (feature, threshold), or None, from a
    fresh stable argsort of the (samples x features) node matrix."""
    n, n_features = X.shape
    order = np.argsort(X, axis=0, kind="stable")
    xs = np.take_along_axis(X, order, axis=0)
    ys = y[order]
    ws = w[order]
    wy_pos = ws * (ys > 0)
    cum_w = np.cumsum(ws, axis=0)
    cum_pos = np.cumsum(wy_pos, axis=0)
    w_tot = cum_w[-1]
    pos_tot = cum_pos[-1]

    wl = cum_w[:-1]
    pl = cum_pos[:-1]
    wr = w_tot - wl
    pr = pos_tot - pl
    nl = wl - pl
    nr = wr - pr
    impurity = 2.0 * (pl * nl / np.maximum(wl, _EPS) + pr * nr / np.maximum(wr, _EPS))
    valid = (xs[1:] > xs[:-1]) & (wl > _EPS) & (wr > _EPS)
    if not valid.any():
        return None
    impurity = np.where(valid, impurity, np.inf)
    flat = int(np.argmin(impurity))
    i, j = divmod(flat, n_features)
    thr = float((xs[i, j] + xs[i + 1, j]) / 2.0)
    if thr >= xs[i + 1, j]:
        thr = float(xs[i, j])
    return j, thr


# ---------------------------------------------------------------------------
# Group comparison by one Python function per (tweet, attribute)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LambdaAttribute:
    """The former attribute extractor: ``fn(tweet, record)`` gives a flag
    (binary), a float (scalar) or (matching, total) (token_fraction)."""

    name: str
    kind: str
    fn: object


def lambda_attributes(resources, structural_only: bool = False) -> list[LambdaAttribute]:
    """The ``analyze`` attribute list, one lambda per attribute."""
    out = [
        LambdaAttribute("tweets_w_hashtags", "binary", lambda t, m: len(t.hashtags) > 0),
        LambdaAttribute("tweets_w_urls", "binary", lambda t, m: len(t.urls) > 0),
        LambdaAttribute("tweets_w_mentions", "binary", lambda t, m: len(t.mentions) > 0),
        LambdaAttribute("replies", "binary", lambda t, m: t.in_reply_to_id is not None),
    ]
    if structural_only:
        return out
    for tag in ("proper_noun", "common_noun", "verb", "adjective", "adverb", "emoticon"):
        out.append(LambdaAttribute(
            f"pos_{tag}", "token_fraction",
            lambda t, m, tag=tag: (sum(1 for x in m.tags if x == tag), len(m.tokens)),
        ))
    out.append(LambdaAttribute("lexical_density", "scalar", lambda t, m: m.stats()[0]))
    out.append(LambdaAttribute("dictionary_words", "scalar", lambda t, m: m.stats()[1]))
    for idx, name in enumerate(resources.lexicon.category_names):
        out.append(LambdaAttribute(
            f"lexicon_{name}", "token_fraction",
            lambda t, m, idx=idx: (m.lexicon_counts()[idx], m.n_words),
        ))
    return out


def _prevalence(attr, tweets, cache):
    if attr.kind == "binary":
        hits = sum(1 for t in tweets if bool(attr.fn(t, cache.get(t))))
        return hits / len(tweets), (hits, len(tweets))
    match = total = 0
    for t in tweets:
        m, n = attr.fn(t, cache.get(t))
        match += m
        total += n
    if total == 0:
        return 0.0, (0, 0)
    return match / total, (match, total)


def _lambda_compare(attr, del_tweets, nondel_tweets, cache, alpha):
    if attr.kind == "scalar":
        dv = [float(attr.fn(t, cache.get(t))) for t in del_tweets]
        nv = [float(attr.fn(t, cache.get(t))) for t in nondel_tweets]
        test = mann_whitney_u(dv, nv, alpha)
        return median(dv), median(nv), test
    dfrac, (dnum, dden) = _prevalence(attr, del_tweets, cache)
    nfrac, (nnum, nden) = _prevalence(attr, nondel_tweets, cache)
    test = fisher_exact(Contingency2x2(dnum, dden - dnum, nnum, nden - nnum), alpha)
    return dfrac, nfrac, test


def lambda_ntd(attr, del_tweets, nondel_tweets, cache, alpha=0.05):
    if not del_tweets or not nondel_tweets:
        raise ValidationError("both tweet sets must be non-empty")
    dval, nval, test = _lambda_compare(attr, del_tweets, nondel_tweets, cache, alpha)
    return ntd_value(dval, nval), test


def lambda_nud(attr, corpus, cache, alpha=0.05):
    """NUD re-splitting every user's timeline for the attribute."""
    eligible, higher_del, higher_nondel = [], [], []
    for user_id in corpus.user_ids():
        timeline = corpus.tweets_of(user_id)
        del_tweets = [t for t in timeline if t.deleted]
        nondel_tweets = [t for t in timeline if not t.deleted]
        if len(del_tweets) < NUD_MIN_TWEETS or len(nondel_tweets) < NUD_MIN_TWEETS:
            continue
        eligible.append(user_id)
        try:
            dval, nval, test = _lambda_compare(attr, del_tweets, nondel_tweets, cache, alpha)
        except ValidationError:
            if attr.kind == "scalar":
                raise
            continue
        if test.significant and dval > nval:
            higher_del.append(user_id)
        elif test.significant and dval < nval:
            higher_nondel.append(user_id)
    if not eligible:
        raise UndefinedDifferenceError("NUD undefined: no eligible users")
    duf = len(higher_del) / len(eligible)
    nuf = len(higher_nondel) / len(eligible)
    return nud_value(duf, nuf), NudDetail(eligible, higher_del, higher_nondel, duf, nuf)


def lambda_group_compare_report(corpus, attrs, cache, alpha=0.05) -> list[dict]:
    """``analytics.group_compare_report`` by per-tweet lambdas."""
    deleters, _ = partition_users(corpus)
    pool = [t for t in corpus if t.user_id in deleters]
    del_tweets = [t for t in pool if t.deleted]
    nondel_tweets = [t for t in pool if not t.deleted]
    rows = []
    for attr in attrs:
        row = {"attribute": attr.name, "kind": attr.kind}
        try:
            value, test = lambda_ntd(attr, del_tweets, nondel_tweets, cache, alpha)
            row["ntd"] = value
            row["ntd_test"] = asdict(test)
        except (UndefinedDifferenceError, ValidationError) as exc:
            row["ntd"] = None
            row["ntd_error"] = str(exc)
        try:
            value, detail = lambda_nud(attr, corpus, cache, alpha)
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


def loop_reply_sentiment_split(corpus, cache, firsts) -> dict:
    """``analytics.reply_sentiment_split`` by scoring each first reply."""
    out = {}
    for group, deleted in (("deleted", True), ("non_deleted", False)):
        scores = [
            cache.get(first).sentiment()
            for tid, first in firsts.items() if corpus.get(tid).deleted == deleted
        ]
        n = len(scores)
        pos = sum(1 for s in scores if s > 0)
        neg = sum(1 for s in scores if s < 0)
        out[group] = {
            "n_replied": n,
            "pct_positive": 100.0 * pos / n if n else 0.0,
            "pct_negative": 100.0 * neg / n if n else 0.0,
            "pct_zero": 100.0 * (n - pos - neg) / n if n else 0.0,
        }
    return out


def loop_user_category_medians(corpus, cache, deleters, non_deleters) -> dict:
    """``analytics.user_category_medians`` by a Python loop over each
    user's timeline."""
    per_user = {}
    names = cache.resources.lexicon.category_names
    for user_id in corpus.user_ids():
        timeline = corpus.tweets_of(user_id)
        counts = [0] * textkit.Lexicon.SIZE
        words = pos = neg = hashtags = urls = 0
        for t in timeline:
            m = cache.get(t)
            for i, c in enumerate(m.lexicon_counts()):
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


def walker_fields(fields, strict: bool = False) -> tuple:
    """The decode table ``fields`` with its ``user`` converter decoding by
    the ``codec.decode_fields`` walker alone, every profile anew, as each
    table decoded before the profile memo."""
    table = codec.record_fields(UserProfile, "user.", strict)

    def user(raw) -> UserProfile:
        return UserProfile(**codec.decode_fields(raw, table, prefix="user.", closed=strict))
    return tuple((name, user if name == "user" else convert, default)
                 for name, convert, default in fields)


def walker_parse_event(line: str, line_number=None):
    """``events.parse_event`` of a JSON object line by the walker alone."""
    raw = json.loads(line)
    if raw["kind"] == "delete":
        return DeletePayload(**codec.decode_fields(raw, events._DELETE_FIELDS, line_number))
    fields = codec.decode_fields(raw, walker_fields(events._TWEET_FIELDS), line_number)
    if "hashtags" not in raw and "urls" not in raw and "mentions" not in raw:
        fields["hashtags"], fields["urls"], fields["mentions"] = \
            events._entities_from_text(fields["text"])
    try:
        return TweetRecord(**fields)
    except SchemaError as exc:
        raise SchemaError(exc.field, str(exc), line_number) from None


def walker_corpus_tweets(path) -> list[TweetRecord]:
    """The tweet records of the corpus file at ``path`` as ``Corpus.load``
    decodes them, by the walker alone, with its errors."""
    with open(path, encoding="utf-8") as fh:
        raws = json.load(fh)["tweets"]
    table = walker_fields(events._RECORD_FIELDS)
    tweets = []
    try:
        for i, raw in enumerate(raws):
            tweets.append(TweetRecord(**codec.decode_fields(raw, table)))
    except SchemaError as exc:
        raise SchemaError(exc.field, f"{path}: tweet record {i}: {exc}") from None
    except ValidationError as exc:
        raise ValidationError(f"{path}: tweet record {i}: {exc}") from None
    return tweets


def term_cosine(a: str, b: str) -> float:
    """Cosine similarity of lowercased token term-frequency vectors, each
    side tokenized on every call; 0.0 when either side has no tokens."""
    ta = Counter(t.surface.lower() for t in textkit.tokenize(a))
    tb = Counter(t.surface.lower() for t in textkit.tokenize(b))
    if not ta or not tb:
        return 0.0
    dot = sum(ta[w] * tb[w] for w in ta.keys() & tb.keys())
    na = math.sqrt(sum(v * v for v in ta.values()))
    nb = math.sqrt(sum(v * v for v in tb.values()))
    return dot / (na * nb)


def near_duplicate(a: str, b: str, cfg) -> bool:
    """The near-duplicate predicate on two texts, worked out anew on every
    call: edit distance strictly below ``_EDIT_DISTANCE_MAX`` or term cosine
    strictly above ``cfg.cosine_min``."""
    if abs(len(a) - len(b)) < _EDIT_DISTANCE_MAX:
        if textkit.edit_distance(a, b) < _EDIT_DISTANCE_MAX:
            return True
    return term_cosine(a, b) > cfg.cosine_min


def superficial_fixpoint(timeline, cfg) -> list[TweetRecord]:
    """One user's chronological ``timeline`` after the superficial pass:
    every window rescanned with ``near_duplicate`` until no deleted tweet
    has a near-duplicate among its next ``superficial_lookahead`` tweets."""
    tl = list(timeline)
    while True:
        flagged = [
            i for i, t in enumerate(tl) if t.deleted and any(
                near_duplicate(t.text, f.text, cfg)
                for f in tl[i + 1 : i + 1 + cfg.superficial_lookahead])
        ]
        if not flagged:
            return tl
        for i in reversed(flagged):
            del tl[i]


def link_records(tweets: dict[int, TweetRecord], deletion_lags: dict[int, int]) -> list[TweetRecord]:
    """``events.link_records`` rebuilding every tweet: each is labelled and
    given its reply, retweet and quote links through ``replace``."""
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
    return [
        replace(
            t,
            deleted=deletion_lags.get(t.id) is not None,
            deletion_lag_sec=deletion_lags.get(t.id),
            reply_ids=tuple(sorted(replies.get(t.id, ()))),
            retweet_ids=tuple(sorted(retweets.get(t.id, ()))),
            quote_ids=tuple(sorted(quotes.get(t.id, ()))),
        )
        for t in tweets.values()
    ]
