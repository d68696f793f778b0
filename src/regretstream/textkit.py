"""Tokenization and per-tweet linguistic measurements.

Everything here is a pure function of its inputs: tokenizing, Levenshtein
distance, term-frequency vectors and their cosine, lexicon category counts,
valence sentiment, part-of-speech tagging, and lexical-density statistics.
The lexicon, valence and pre-tagged resources are read through ``codec``.
"""

from __future__ import annotations

import functools
import math
import re
from collections import Counter
from pathlib import Path
from typing import NamedTuple

from . import codec
from .errors import ContractError, ValidationError

# Longest-match-first emoticon inventory. Kept deliberately small; scorers
# only need the common ASCII forms.
EMOTICONS = (
    ">:(", ">:)", ":'(", ":'-(", ":-)", ":-(", ":-D", ":-P", ":-/", ":-|",
    ";-)", "=)", "=(", "=D", ":)", ":(", ":D", ":P", ":p", ":/", ":|", ";)",
    ";D", "D:", "xD", "XD", "<3", "</3", "^_^", "o_O", "O_o", "-_-", "\\o/",
)

NEGATIONS = frozenset({"no", "not", "never", "n't"})

# Score normalizer constant for sentiment (keeps scores in (-1, 1)).
_SENTIMENT_ALPHA = 15.0

_URL_RE = r"(?:[A-Za-z][A-Za-z0-9+.-]*://\S+|t\.co/\S+|www\.\S+)"
_MENTION_RE = r"@\w+"
_HASHTAG_RE = r"#\w+"
_NUMBER_RE = r"\d+(?:[.,:]\d+)*"
_WORD_RE = r"[^\W\d_]+(?:['\u2019][^\W\d_]+)*"
_EMOTICON_RE = "|".join(re.escape(e) for e in sorted(EMOTICONS, key=len, reverse=True))

_TOKEN_RE = re.compile(
    f"(?P<url>{_URL_RE})"
    f"|(?P<mention>{_MENTION_RE})"
    f"|(?P<hashtag>{_HASHTAG_RE})"
    f"|(?P<emoticon>{_EMOTICON_RE})"
    f"|(?P<number>{_NUMBER_RE})"
    f"|(?P<word>{_WORD_RE})"
    f"|(?P<punct>\\S)"
)


class Token(NamedTuple):
    surface: str
    cls: str  # word, mention, hashtag, url, emoticon, punct or number
    normalized: str  # lowercased surface for words; surface unchanged otherwise


class TokenList(list):
    """Ordered list of Token with convenience views."""

    def words(self) -> list[str]:
        """Normalized surfaces of word-class tokens."""
        return [t.normalized for t in self if t.cls == "word"]

    def count_class(self, cls: str) -> int:
        return sum(1 for t in self if t.cls == cls)


def tokenize(text: str) -> TokenList:
    """Split ``text`` into classified tokens.

    Matching priority: urls, mentions, hashtags, emoticons, numbers, words,
    then single punctuation characters. Deterministic for any input;
    an empty string yields an empty TokenList.
    """
    tokens = TokenList()
    for m in _TOKEN_RE.finditer(text):
        surface, cls = m.group(), m.lastgroup
        tokens.append(Token(surface, cls, surface.lower() if cls == "word" else surface))
    return tokens


def edit_distance(a: str, b: str) -> int:
    """Levenshtein distance with unit insert/delete/substitute costs.

    Operates on unicode scalar values of the raw strings. Bit-parallel
    (Myers 1999, in Hyyrö's edit-distance form): bit i of the vertical
    delta vectors ``pv``/``mv`` holds whether D[i+1][j] - D[i][j] is +1/-1
    down the column of the longer string ``a``, and one step of the loop
    advances a whole column by one character of ``b``. Python ints are the
    bit vectors, so any length works; the result is the exact distance.
    """
    if a == b:
        return 0
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    peq: dict[str, int] = {}
    bit = 1
    for c in a:
        peq[c] = peq.get(c, 0) | bit
        bit <<= 1
    mask = bit - 1
    high = bit >> 1
    pv, mv, dist = mask, 0, len(a)
    for c in b:
        eq = peq.get(c, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        if ph & high:
            dist += 1
        elif mh & high:
            dist -= 1
        ph = ((ph << 1) | 1) & mask
        mh = (mh << 1) & mask
        pv = (mh | ~(xv | ph)) & mask
        mv = ph & xv
    return dist


class TermCounts(NamedTuple):
    counts: Counter  # lowercased token surface -> occurrences
    norm: float  # Euclidean norm of ``counts``


def term_counts(text: str) -> TermCounts:
    """The term-frequency vector of ``text``'s lowercased token surfaces."""
    counts = Counter(t.surface.lower() for t in tokenize(text))
    return TermCounts(counts, math.sqrt(sum(v * v for v in counts.values())))


def counts_cosine(a: TermCounts, b: TermCounts) -> float:
    """Cosine similarity of two term-frequency vectors; 0.0 when either is
    empty."""
    if not a.counts or not b.counts:
        return 0.0
    dot = sum(a.counts[w] * b.counts[w] for w in a.counts.keys() & b.counts.keys())
    return dot / (a.norm * b.norm)


# One category of the JSON lexicon format.
_CATEGORY_FIELDS = (("name", codec.converter(str), codec.REQUIRED),
                    ("patterns", codec.converter(list[str]), codec.REQUIRED))


class Lexicon:
    """Closed-vocabulary category lexicon (at most 64 categories, prefix
    wildcards).

    Categories are ordered and hold only what was loaded; count vectors
    always have 64 slots, those past the last category zero.
    """

    SIZE = 64

    def __init__(self, categories: list[tuple[str, list[str]]]):
        if len(categories) > self.SIZE:
            raise ValidationError(
                f"lexicon has {len(categories)} categories; at most {self.SIZE} allowed"
            )
        self.categories: list[tuple[str, list[str]]] = [
            (name, list(patterns)) for name, patterns in categories
        ]
        self.category_names: list[str] = [name for name, _ in self.categories]
        self._literal: dict[str, set[int]] = {}
        self._prefixes: list[tuple[str, int]] = []
        self._memo: dict[str, frozenset[int]] = {}
        for idx, (_, patterns) in enumerate(self.categories):
            for pat in patterns:
                pat = pat.lower()
                if pat.endswith("*"):
                    self._prefixes.append((pat[:-1], idx))
                else:
                    self._literal.setdefault(pat, set()).add(idx)

    def categories_for(self, word: str) -> frozenset[int]:
        """Category indices whose patterns match ``word`` (lowercased).

        Memoized per word: the patterns never change after construction.
        """
        hits = self._memo.get(word)
        if hits is None:
            low = word.lower()
            hits = set(self._literal.get(low, ()))
            for prefix, idx in self._prefixes:
                if low.startswith(prefix):
                    hits.add(idx)
            hits = self._memo[word] = frozenset(hits)
        return hits

    @classmethod
    def from_categories(cls, raw, prefix: str = "category.") -> "Lexicon":
        """The lexicon of the JSON array ``raw`` of categories, each
        {"name", "patterns"}; an error names the field behind ``prefix``."""
        return cls([
            (c["name"], c["patterns"])
            for c in (codec.decode_fields(c, _CATEGORY_FIELDS, prefix=prefix) for c in raw)
        ])

    @classmethod
    def from_file(cls, path: str | Path) -> "Lexicon":
        """Load the JSON lexicon format: {"categories": [{"name", "patterns"}]}."""
        return codec.decode_json(path, lambda raw: cls.from_categories(raw["categories"]))


def lexicon_counts(words, lex: Lexicon) -> list[int]:
    """Per-category counts of ``words`` matching the category."""
    counts = [0] * Lexicon.SIZE
    for w in words:
        for idx in lex.categories_for(w):
            counts[idx] += 1
    return counts


def valence_table(raw, prefix: str = "valence.") -> dict[str, float]:
    """The word -> valence table of the JSON object ``raw``, each word
    lowercased; a valence that is not an exact finite number is a
    SchemaError naming its word behind ``prefix``."""
    finite = codec.converter(float)
    fields = tuple((word, finite, codec.REQUIRED) for word in raw)
    return {word.lower(): v for word, v in codec.decode_fields(raw, fields, prefix=prefix).items()}


def load_valence(path: str | Path) -> dict[str, float]:
    """Load a JSON word -> valence score table."""
    return codec.decode_json(path, valence_table)


def _is_negation(tok: Token) -> bool:
    s = tok.normalized
    return s in NEGATIONS or s.endswith("n't") or s.endswith("n\u2019t")


def sentiment_score(tokens: TokenList, valence: dict[str, float]) -> float:
    """Valence-sum sentiment normalized to (-1, 1).

    A valenced token immediately preceded by a negation token has its sign
    flipped. The raw sum s is squashed as s / sqrt(s^2 + 15); empty or
    valence-free input scores 0.0.
    """
    s = 0.0
    prev: Token | None = None
    for tok in tokens:
        v = valence.get(tok.normalized if tok.cls == "word" else tok.surface.lower())
        if v is not None:
            if prev is not None and _is_negation(prev):
                v = -v
            s += v
        prev = tok
    if s == 0.0:
        return 0.0
    return s / math.sqrt(s * s + _SENTIMENT_ALPHA)


# ---------------------------------------------------------------------------
# Part-of-speech tagging
# ---------------------------------------------------------------------------

# 25-tag Twitter-style tagset used by the shipped fallback tagger.
DEFAULT_TAGSET = (
    "common_noun", "proper_noun", "pronoun", "nominal_possessive",
    "proper_noun_possessive", "verb", "nominal_verbal", "proper_noun_verbal",
    "adjective", "adverb", "interjection", "determiner", "preposition",
    "conjunction", "verb_particle", "existential", "existential_verbal",
    "hashtag", "mention", "discourse_marker", "url", "emoticon", "numeral",
    "punctuation", "other",
)

CONTENT_TAGS = frozenset({"common_noun", "proper_noun", "verb", "adjective", "adverb"})

_STRUCTURAL_TAGS = {
    "mention": "mention",
    "hashtag": "hashtag",
    "url": "url",
    "emoticon": "emoticon",
    "punct": "punctuation",
    "number": "numeral",
}

_PRONOUNS = frozenset(
    "i me my mine we us our ours you your yours he him his she her hers it its "
    "they them their theirs who whom whose this that these those myself yourself "
    "himself herself itself ourselves themselves".split()
)
_DETERMINERS = frozenset("a an the some any each every no all both few many much".split())
_PREPOSITIONS = frozenset(
    "in on at by for with about against between into through during before after "
    "above below to from up down of off over under".split()
)
_CONJUNCTIONS = frozenset("and or but nor so yet".split())
_INTERJECTIONS = frozenset("oh hey wow lol omg haha hahaha yay ugh hmm ah uh huh".split())
_COMMON_VERBS = frozenset(
    "be am is are was were been being have has had having do does did doing will "
    "would shall should can could may might must go goes went gone get gets got "
    "make makes made say says said see sees saw know knows knew think thinks "
    "thought want wants take takes took come comes came".split()
)
_VERB_SUFFIXES = ("ing", "ed", "ize", "ise", "ify", "ate")
_ADJ_SUFFIXES = ("ful", "ous", "ive", "able", "ible", "al", "ic", "less", "ish", "est")
_NOUN_SUFFIXES = ("ness", "tion", "sion", "ment", "ity", "ship", "hood", "ism", "ist", "er", "or")


class RuleTagger:
    """Rule-based fallback tagger over the shipped 25-tag tagset.

    Structural token classes map 1:1; words get small-wordlist and suffix
    heuristics. This is a stand-in for a trained tagger, kept deterministic
    and dependency-free.

    A word's tag depends only on its normalized form and whether its surface
    starts with a capital, never on the tokens around it, so each instance
    memoizes ``_tag_word`` on that pair. A context-dependent tagger must not
    be cached per token.
    """

    tagset = DEFAULT_TAGSET

    def __init__(self):
        self._memo: dict[tuple[str, bool], str] = {}

    def tag(self, tokens: TokenList) -> list[str]:
        memo = self._memo
        tags = []
        for tok in tokens:
            if tok.cls != "word":
                tags.append(_STRUCTURAL_TAGS[tok.cls])
                continue
            key = (tok.normalized, tok.surface[:1].isupper())
            tag = memo.get(key)
            if tag is None:
                tag = memo[key] = self._tag_word(*key)
            tags.append(tag)
        return tags

    @staticmethod
    def _tag_word(w: str, capitalized: bool) -> str:
        if w == "rt":
            return "discourse_marker"
        if w in _PRONOUNS:
            return "pronoun"
        if w in _DETERMINERS:
            return "determiner"
        if w in _PREPOSITIONS:
            return "preposition"
        if w in _CONJUNCTIONS:
            return "conjunction"
        if w in _INTERJECTIONS:
            return "interjection"
        if w == "there":
            return "existential"
        if w in _COMMON_VERBS or "'" in w or "\u2019" in w:
            return "verb"
        if w.endswith("ly"):
            return "adverb"
        if w.endswith(_VERB_SUFFIXES):
            return "verb"
        if w.endswith(_ADJ_SUFFIXES):
            return "adjective"
        if w.endswith(_NOUN_SUFFIXES):
            return "common_noun"
        if capitalized:
            return "proper_noun"
        return "common_noun"


class PretaggedStore:
    """Tags loaded from a pre-tagged JSONL file ({"id": u64, "tags": [...]})."""

    def __init__(self, tags_by_id: dict[int, list[str]]):
        self._tags = tags_by_id

    def get(self, tweet_id: int) -> list[str] | None:
        return self._tags.get(tweet_id)

    @classmethod
    def from_file(cls, path: str | Path) -> "PretaggedStore":
        return cls(dict(codec.decode_jsonl(
            path, lambda rec: codec.decode_fields(rec, _TAGGED_FIELDS).values())))


# One line of the pre-tagged JSON Lines format.
_TAGGED_FIELDS = (("id", codec.converter(codec.TweetId), codec.REQUIRED),
                  ("tags", codec.converter(list[str]), codec.REQUIRED))


@functools.cache
def _tag_members(tagset: tuple) -> frozenset[str]:
    return frozenset(tagset)


def check_tags(tags: list[str], tokens: TokenList, tagger, source: str) -> list[str]:
    """``tags`` for ``tokens``, after checking that ``source`` (named in the
    error) gave one tag per token, each from ``tagger``'s tagset: the set
    that POS counts index into."""
    if len(tags) != len(tokens):
        raise ContractError(f"{source} has {len(tags)} tags for {len(tokens)} tokens")
    tagset = _tag_members(tuple(tagger.tagset))
    for t in tags:
        if t not in tagset:
            raise ContractError(f"{source} has unknown tag {t!r}")
    return tags


def pos_tag(tokens: TokenList, tagger) -> list[str]:
    """Tag ``tokens`` through ``tagger``, enforcing the interface contract."""
    if len(tagger.tagset) != 25:
        raise ContractError(f"tagger declares {len(tagger.tagset)} tags, expected 25")
    return check_tags(tagger.tag(tokens), tokens, tagger, "tagger output")


def load_wordlist(path: str | Path) -> frozenset[str]:
    """Load a one-word-per-line dictionary wordlist (lowercased)."""
    words = set()
    for _, line in codec.text_lines(path):
        w = line.strip().lower()
        if w:
            words.add(w)
    return frozenset(words)


def text_stats(
    tokens: TokenList,
    tags: list[str],
    wordlist: frozenset[str],
) -> tuple[float, float]:
    """(lexical_density, dictionary_fraction) over word tokens.

    Lexical density counts content tags (noun/verb/adjective/adverb) against
    the word-token count; dictionary fraction counts word tokens found in
    ``wordlist`` case-insensitively. Both are 0 when there are no word tokens.
    """
    if len(tags) != len(tokens):
        raise ContractError(f"{len(tags)} tags for {len(tokens)} tokens")
    n_words = tokens.count_class("word")
    if n_words == 0:
        return (0.0, 0.0)
    content = sum(1 for t in tags if t in CONTENT_TAGS)
    in_dict = sum(
        1 for tok in tokens if tok.cls == "word" and tok.normalized in wordlist
    )
    return (content / n_words, in_dict / n_words)
