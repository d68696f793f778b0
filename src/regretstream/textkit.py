"""Tokenization and per-tweet linguistic measurements.

Everything here is a pure function of its inputs: tokenizing, Levenshtein
distance, term-frequency cosine, lexicon category counts, valence
sentiment, part-of-speech tagging, and lexical-density statistics. The
JSON readers here are the ones every JSON and JSON Lines input goes through,
and ``_decode`` is the one walker that decodes a JSON object by its table:
events, corpus records and headers, configs, container manifests and their
stage models, and lexicon categories. A dataclass's table is derived from its
declared field types, and ``encode_record`` writes any of them back; its
``NDArray`` fields are left to the binary container that holds it.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import re
import reprlib
import types
import typing
from collections import Counter
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .errors import ConfigError, ContractError, SchemaError, ValidationError

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


@dataclass(frozen=True)
class Token:
    surface: str
    cls: str  # word, mention, hashtag, url, emoticon, punct or number

    @property
    def normalized(self) -> str:
        """Lowercased surface for words; surface unchanged otherwise."""
        return self.surface.lower() if self.cls == "word" else self.surface


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
        cls = m.lastgroup
        tokens.append(Token(m.group(), cls))
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


def term_cosine(a: str, b: str) -> float:
    """Cosine similarity of lowercased token term-frequency vectors.

    Returns 0.0 when either side has no tokens.
    """
    ta = Counter(t.surface.lower() for t in tokenize(a))
    tb = Counter(t.surface.lower() for t in tokenize(b))
    if not ta or not tb:
        return 0.0
    dot = sum(ta[w] * tb[w] for w in ta.keys() & tb.keys())
    na = math.sqrt(sum(v * v for v in ta.values()))
    nb = math.sqrt(sum(v * v for v in tb.values()))
    return dot / (na * nb)


def _not_utf8(path) -> ValidationError:
    """The error for a file that failed to decode as UTF-8, naming the line
    of its first invalid byte."""
    data = Path(path).read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        return ValidationError(f"{path}: line {line}: not valid UTF-8: {exc.reason}")
    return ValidationError(f"{path}: not valid UTF-8")


def text_lines(path: str | Path):
    """(line number, line) for each line of a UTF-8 text file; a file that
    is not UTF-8 raises ValidationError naming the file and line."""
    with open(path, encoding="utf-8") as fh:
        try:
            yield from enumerate(fh, 1)
        except UnicodeDecodeError:
            raise _not_utf8(path) from None


def _parse_json(text: str, path, line: int = 1):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"{path}: line {line + exc.lineno - 1}: not valid JSON: {exc.msg}"
        ) from None


def _shaped(decode, value, where: str):
    """``decode(value)``; a value of the wrong shape for ``decode`` (it
    raises AttributeError, KeyError, TypeError, ValueError or OverflowError,
    as ``int`` does on ``Infinity``) raises ValidationError naming ``where``,
    and a ValidationError or ConfigError that ``decode`` raises itself is
    raised again with ``where`` in front (a SchemaError, as a
    ValidationError)."""
    try:
        return decode(value)
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{where}: unexpected JSON shape: {exc!r}") from None
    except (ConfigError, ValidationError) as exc:
        raise type(exc)(f"{where}: {exc}") from None
    except SchemaError as exc:
        raise ValidationError(f"{where}: {exc}") from None


def decode_json(path: str | Path, decode):
    """``decode`` applied to the value in a JSON file. Malformed JSON raises
    ValidationError naming the file and line; a value of the wrong shape, one
    naming the file."""
    return _shaped(decode, _parse_json("".join(text for _, text in text_lines(path)), path), path)


def decode_jsonl(path: str | Path, decode) -> list:
    """``decode`` applied to the value on each non-blank line of a JSON Lines
    file, once every line has parsed. Malformed JSON, or a value of the wrong
    shape, raises ValidationError naming the file and line."""
    values = [(n, _parse_json(text, path, n)) for n, text in text_lines(path) if text.strip()]
    return [_shaped(decode, value, f"{path}: line {n}") for n, value in values]


class _Rejected(ValueError):
    """A converter's own reason for rejecting a value."""


_REQUIRED = object()


def _decode(raw, fields, line_number=None, prefix: str = "", closed: bool = False) -> dict:
    """Keyword arguments built from the JSON object ``raw`` by its format's
    decode table ``fields`` of (field, converter, default) entries. A field
    absent from ``raw`` is converted from its default; without one
    (``_REQUIRED``) it is a SchemaError, as is a value its converter
    rejects. With ``closed``, a key outside the table is a SchemaError too.
    Each error names the field (behind ``prefix``) and ``line_number``."""
    if not isinstance(raw, dict):
        whole = prefix[:-1] or "record"
        raise SchemaError(whole, f"{whole} must be a JSON object", line_number)
    if closed:
        names = {name for name, _, _ in fields}
        for name in raw:
            if name not in names:
                raise SchemaError(f"{prefix}{name}", f"unknown field: {prefix}{name}", line_number)
    kwargs = {}
    for name, convert, default in fields:
        value = raw.get(name, default)
        if value is _REQUIRED:
            raise SchemaError(prefix + name, line_number=line_number)
        try:
            kwargs[name] = convert(value)
        except SchemaError as exc:  # a nested object names its own field
            raise SchemaError(exc.field, str(exc), line_number) from None
        except (TypeError, ValueError, OverflowError) as exc:
            reason = f" ({exc})" if isinstance(exc, _Rejected) else ""
            raise SchemaError(
                prefix + name, f"invalid {prefix}{name}: {reprlib.repr(value)}{reason}", line_number
            ) from None
    return kwargs


def _exactly(kind: type, reason: str):
    """A converter that passes only values of type ``kind``."""
    def convert(value):
        if type(value) is not kind:
            raise _Rejected(reason)
        return value
    return convert


_json_int = _exactly(int, "not a JSON integer")
_object_list = _exactly(list, "not an array of objects")


def _finite(value) -> float:
    if type(value) not in (int, float) or not math.isfinite(value):
        raise _Rejected("not a finite number")
    return float(value)


def _utc(value) -> datetime:
    """An RFC 3339 timestamp as an aware UTC datetime."""
    if not isinstance(value, str):
        raise _Rejected("not a string timestamp")
    try:
        dt = datetime.fromisoformat(value.replace("Z", "+00:00").replace("z", "+00:00"))
    except ValueError:
        raise _Rejected("not RFC 3339") from None
    if dt.tzinfo is None:
        raise _Rejected("missing a timezone offset")
    return dt.astimezone(timezone.utc)


def format_rfc3339(dt: datetime) -> str:
    dt = dt.astimezone(timezone.utc)
    if dt.microsecond:
        return dt.strftime("%Y-%m-%dT%H:%M:%S.%f").rstrip("0") + "Z"
    return dt.strftime("%Y-%m-%dT%H:%M:%SZ")


# Feature matrices, bundles and scores store tweet ids as int64.
TweetId = typing.NewType("TweetId", int)


def _tweet_id(value) -> int:
    ident = _json_int(value)
    if not 0 < ident < 2 ** 63:
        raise _Rejected("a tweet id lies in 1..2**63-1")
    return ident


# The converter for each type a record field is declared with.
_JSON_TYPES = {bool: _exactly(bool, "not true or false"), int: _json_int, float: _finite,
               str: _exactly(str, "not a string"), datetime: _utc, TweetId: _tweet_id,
               frozenset: lambda value: frozenset(_str_list(value))}


def _array_of(kind: type, noun: str):
    """A converter that passes a JSON array whose every item converts as
    ``kind``, as a list of the converted items."""
    item = _JSON_TYPES[kind]

    def convert(value) -> list:
        if type(value) is list:
            try:
                return [item(v) for v in value]
            except _Rejected:
                pass
        raise _Rejected(f"not an array of {noun}")
    return convert


_ARRAYS = {str: _array_of(str, "strings"), int: _array_of(int, "integers"),
           float: _array_of(float, "finite numbers")}
_str_list = _ARRAYS[str]
# The JSON form of each declared type that is not its own JSON form.
_JSON_FORMS = {datetime: format_rfc3339, tuple: list, frozenset: sorted, dict: dict}


def _optional(convert):
    return lambda value: None if value is None else convert(value)


def _converter(hint, prefix: str, default, strict: bool):
    """The converter for a field declared ``hint`` whose own fields, if it
    has any, sit behind ``prefix``."""
    kind = typing.get_origin(hint) or hint
    args = typing.get_args(hint)
    if kind is types.UnionType:  # X | None
        return _optional(_converter(_inner(hint), prefix, default, strict))
    if kind is list and dataclasses.is_dataclass(args[0]):  # list[<dataclass>]
        item = _converter(args[0], prefix, None, strict)
        return lambda value: [item(v) for v in _object_list(value)]
    if kind is list:  # list[X]
        return _ARRAYS[args[0]]
    if kind is tuple:  # tuple[X, ...]
        array = _ARRAYS[args[0]]
        return lambda value: tuple(array(value))
    if kind is dict:
        nested = tuple((k, _JSON_TYPES[type(v)], v) for k, v in default.items())
        return functools.partial(_decode, fields=nested, prefix=prefix, closed=True)
    if dataclasses.is_dataclass(kind):
        fields = _record_fields(kind, prefix, strict)
        return lambda raw: kind(**_decode(raw, fields, prefix=prefix, closed=strict))
    return _JSON_TYPES[kind]


def _inner(hint):
    """X of a hint declared ``X | None``."""
    (inner,) = (a for a in typing.get_args(hint) if a is not type(None))
    return inner


@functools.cache
def array_fields(cls) -> types.MappingProxyType:
    """The little-endian dtype of each field of the dataclass ``cls`` declared
    ``NDArray[<scalar>]`` (or that ``| None``), by name: the fields a binary
    container holds as array blocks, not in its JSON manifest."""
    arrays = {}
    for name, hint in typing.get_type_hints(cls).items():
        if typing.get_origin(hint) is types.UnionType:
            hint = _inner(hint)
        if typing.get_origin(hint) is np.ndarray:
            arrays[name] = np.dtype(typing.get_args(typing.get_args(hint)[1])[0]).newbyteorder("<")
    return types.MappingProxyType(arrays)


def json_field(json_default, **kwargs):
    """A dataclass field that a JSON object leaving it out gives
    ``json_default``, where that differs from its Python default
    (``_REQUIRED``: it may not be left out)."""
    return dataclasses.field(metadata={"json_default": json_default}, **kwargs)


@functools.cache
def _record_fields(cls, prefix: str = "", strict: bool = False) -> tuple:
    """The decode table of the dataclass ``cls`` whose fields sit behind
    ``prefix``; its ``NDArray`` fields are not in it. Each field converts by
    the type it is declared with: a JSON type, a timestamp, a tweet id,
    ``X | None``, a list or tuple as an array, a dict as an object holding
    only its default's keys (each converted by the type of its default
    value), and a dataclass, or a list of them, as an object decoded by its
    own table, whose unknown keys are ignored. A field defaults to the JSON
    form of its ``json_field`` default, else of its Python default; without
    either it is required (``_REQUIRED``). With ``strict`` every field is
    required, here and in each nested object, which may hold no unknown key
    either."""
    hints = typing.get_type_hints(cls)
    table = []
    for f in dataclasses.fields(cls):
        if f.name in array_fields(cls):
            continue
        hint = hints[f.name]
        default = f.default if f.default_factory is dataclasses.MISSING else f.default_factory()
        convert = _converter(hint, f"{prefix}{f.name}.", default, strict)
        default = f.metadata.get("json_default", default)
        if default is dataclasses.MISSING or strict:
            default = _REQUIRED
        elif default is not _REQUIRED and _encoder(hint):
            default = _encoder(hint)(default)
        table.append((f.name, convert, default))
    return tuple(table)


def _encoder(hint):
    """The function giving the JSON form of a value declared ``hint``, or
    None where the value is its own JSON form."""
    kind = typing.get_origin(hint) or hint
    if kind is types.UnionType:  # X | None
        inner = _encoder(_inner(hint))
        return None if inner is None else _optional(inner)
    if kind is list and dataclasses.is_dataclass(typing.get_args(hint)[0]):
        item = _record_encoder(typing.get_args(hint)[0])
        return lambda items: [item(v) for v in items]
    return _record_encoder(kind) if dataclasses.is_dataclass(kind) else _JSON_FORMS.get(kind)


@functools.cache
def _record_encoder(cls):
    """The function giving the JSON object of an instance of the dataclass
    ``cls``, each field but its arrays encoded by its declared type."""
    hints = typing.get_type_hints(cls)
    table = tuple((f.name, _encoder(hints[f.name])) for f in dataclasses.fields(cls)
                  if f.name not in array_fields(cls))

    def encode(obj) -> dict:
        out = {}
        for name, to_json in table:
            value = getattr(obj, name)
            out[name] = value if to_json is None else to_json(value)
        return out
    return encode


def encode_record(obj) -> dict:
    """The JSON object of the dataclass ``obj``, field by field: a datetime
    in RFC 3339, a tuple as an array, a frozenset as a sorted array, a dict
    copied, a nested dataclass (or each of a list of them) as its own JSON
    object, and every other value as it is. Its ``array_fields`` are left
    out. ``decode_record`` reads it back."""
    return _record_encoder(type(obj))(obj)


def decode_record(cls, raw, prefix: str = "", arrays=None, strict: bool = False):
    """The dataclass ``cls`` built from the JSON object ``raw`` by
    ``_record_fields(cls, prefix, strict)`` and from ``arrays``, the values
    of its ``array_fields`` by name; a key outside the table is a
    SchemaError."""
    fields = _decode(raw, _record_fields(cls, prefix, strict), prefix=prefix, closed=True)
    return cls(**fields, **(arrays or {}))


def decode_config(declared, raw, prefix: str = ""):
    """``decode_record(declared, raw)``, raising a ConfigError naming the field;
    a dict ``declared`` is the default of an object field behind ``prefix``."""
    try:
        if isinstance(declared, dict):
            return _converter(dict, prefix, declared, False)(raw)
        return decode_record(declared, raw)
    except SchemaError as exc:
        raise ConfigError(str(exc)) from None


# One category of the JSON lexicon format.
_CATEGORY_FIELDS = (("name", _JSON_TYPES[str], _REQUIRED), ("patterns", _str_list, _REQUIRED))


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
            for c in (_decode(c, _CATEGORY_FIELDS, prefix=prefix) for c in raw)
        ])

    @classmethod
    def from_file(cls, path: str | Path) -> "Lexicon":
        """Load the JSON lexicon format: {"categories": [{"name", "patterns"}]}."""
        return decode_json(path, lambda raw: cls.from_categories(raw["categories"]))


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
    fields = tuple((word, _finite, _REQUIRED) for word in raw)
    return {word.lower(): v for word, v in _decode(raw, fields, prefix=prefix).items()}


def load_valence(path: str | Path) -> dict[str, float]:
    """Load a JSON word -> valence score table."""
    return decode_json(path, valence_table)


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
        return cls(dict(decode_jsonl(path, lambda rec: _decode(rec, _TAGGED_FIELDS).values())))


# One line of the pre-tagged JSON Lines format.
_TAGGED_FIELDS = (("id", _tweet_id, _REQUIRED), ("tags", _str_list, _REQUIRED))


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
    for _, line in text_lines(path):
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
