import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regretstream import textkit
from regretstream.errors import ContractError, ValidationError
from regretstream.textkit import (
    Lexicon,
    RuleTagger,
    TokenList,
    counts_cosine,
    edit_distance,
    pos_tag,
    sentiment_score,
    term_counts,
    text_stats,
    tokenize,
)
from regretstream.features import FeatureResources, Vocabulary, featurize_corpus

import oracles
from conftest import make_tweet, make_window
from oracles import dp_edit_distance, lexicon_score, scan_categories, uncached_tags


def term_cosine(a: str, b: str) -> float:
    return counts_cosine(term_counts(a), term_counts(b))


class TestTokenize:
    def test_one_of_each_class(self):
        toks = tokenize("@bob hi! #fun http://x.co")
        assert [(t.surface, t.cls) for t in toks] == [
            ("@bob", "mention"),
            ("hi", "word"),
            ("!", "punct"),
            ("#fun", "hashtag"),
            ("http://x.co", "url"),
        ]

    def test_empty_string(self):
        assert tokenize("") == []

    def test_emoticons(self):
        toks = tokenize(":) :(")
        assert [t.cls for t in toks] == ["emoticon", "emoticon"]

    def test_numbers_and_contractions(self):
        toks = tokenize("don't stop 42 3.14")
        assert [(t.surface, t.cls) for t in toks] == [
            ("don't", "word"),
            ("stop", "word"),
            ("42", "number"),
            ("3.14", "number"),
        ]

    def test_tco_url(self):
        toks = tokenize("see t.co/abc123")
        assert toks[1].cls == "url"

    def test_normalized_lowercases_words_only(self):
        toks = tokenize("Hello @Bob")
        assert toks[0].normalized == "hello"
        assert toks[1].normalized == "@Bob"

    def test_deterministic(self):
        text = "RT @a: Some #Tag http://x.co :) 12"
        assert tokenize(text) == tokenize(text)


class TestEditDistance:
    def test_identity(self):
        assert edit_distance("abc", "abc") == 0

    def test_pure_insertion(self):
        assert edit_distance("", "abc") == 3

    def test_kitten_sitting(self):
        # cross-checked against the classic DP table
        assert edit_distance("kitten", "sitting") == 3

    def test_unicode_scalars(self):
        assert edit_distance("café", "cafe") == 1

    @given(st.text(max_size=12), st.text(max_size=12))
    @settings(max_examples=150, deadline=None)
    def test_symmetry(self, a, b):
        assert edit_distance(a, b) == edit_distance(b, a)

    @given(st.text(max_size=10), st.text(max_size=10), st.text(max_size=10))
    @settings(max_examples=100, deadline=None)
    def test_triangle_inequality(self, a, b, c):
        assert edit_distance(a, c) <= edit_distance(a, b) + edit_distance(b, c)

    @given(st.text(max_size=12), st.text(max_size=12))
    @settings(max_examples=150, deadline=None)
    def test_identity_of_indiscernibles(self, a, b):
        d = edit_distance(a, b)
        assert (d == 0) == (a == b)
        assert d >= abs(len(a) - len(b))

    def test_dp_oracle_small(self):
        # independent recursive oracle on a handful of short pairs
        from functools import lru_cache

        def oracle(a, b):
            @lru_cache(maxsize=None)
            def rec(i, j):
                if i == 0:
                    return j
                if j == 0:
                    return i
                cost = 0 if a[i - 1] == b[j - 1] else 1
                return min(rec(i - 1, j) + 1, rec(i, j - 1) + 1, rec(i - 1, j - 1) + cost)

            return rec(len(a), len(b))

        pairs = [("kitten", "sitting"), ("flaw", "lawn"), ("abcdef", "azced"), ("x", "")]
        for a, b in pairs:
            assert edit_distance(a, b) == oracle(a, b)

    @given(st.text(max_size=90), st.text(max_size=90))
    @settings(max_examples=200, deadline=None)
    def test_matches_dp_on_any_text(self, a, b):
        assert edit_distance(a, b) == dp_edit_distance(a, b)

    @given(
        st.text(alphabet="ab \U0001F600\ud800", min_size=65, max_size=200),
        st.integers(0, 200),
        st.integers(0, 40),
        st.text(alphabet="ab \U0001F600\ud800", max_size=40),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_dp_on_long_near_pairs(self, a, start, cut, infix):
        # more than 64 characters, so the bit vectors span machine words;
        # astral characters and lone surrogates are single scalar values
        b = a[:start] + infix + a[start + cut:]
        assert edit_distance(a, b) == dp_edit_distance(a, b)
        assert edit_distance(b, a) == dp_edit_distance(a, b)

    def test_lengths_around_word_boundaries(self):
        for n in (63, 64, 65, 127, 128, 129):
            a = "x" * n
            assert edit_distance(a, "") == n
            assert edit_distance(a, a[1:]) == 1
            assert edit_distance(a, "y" + a[1:]) == 1
            assert edit_distance(a, "y" * n) == n


class TestTermCosine:
    def test_identical(self):
        assert term_cosine("a b c", "a b c") == pytest.approx(1.0)

    def test_disjoint(self):
        assert term_cosine("a b", "c d") == 0.0

    def test_hand_computed(self):
        assert term_cosine("a b", "a") == pytest.approx(1 / math.sqrt(2), abs=1e-9)

    def test_empty_side(self):
        assert term_cosine("", "a") == 0.0
        assert term_cosine("a", "") == 0.0

    def test_case_insensitive(self):
        assert term_cosine("DOG Cat", "dog cat") == pytest.approx(1.0)

    def test_symmetry_and_order_invariance(self):
        a, b = "x y z y", "y x q"
        assert term_cosine(a, b) == pytest.approx(term_cosine(b, a))
        assert term_cosine("x y z y", "y x q") == pytest.approx(term_cosine("y y x z", "q x y"))

    @given(st.lists(st.sampled_from("abcde"), max_size=8), st.lists(st.sampled_from("abcde"), max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_bounds(self, ws1, ws2):
        v = term_cosine(" ".join(ws1), " ".join(ws2))
        assert 0.0 <= v <= 1.0 + 1e-12

    @given(st.text(st.sampled_from("aAbB c:)#@1.\u00e9"), max_size=30),
           st.text(st.sampled_from("aAbB c:)#@1.\u00e9"), max_size=30))
    @settings(max_examples=300, deadline=None)
    def test_counts_give_the_oracles_cosine_exactly(self, a, b):
        assert term_cosine(a, b) == oracles.term_cosine(a, b)

    def test_counts_hold_the_lowercased_surfaces_and_their_norm(self):
        counts = term_counts("Dog dog #Tag :) CAT")
        assert counts.counts == {"dog": 2, "#tag": 1, ":)": 1, "cat": 1}
        assert counts.norm == math.sqrt(7)


@pytest.fixture()
def tiny_lexicon():
    return Lexicon([("posemo", ["happy", "happi*"]), ("negemo", ["sad"])])


def lexicon_percentages(text: str, lex: Lexicon) -> list[float]:
    """Dense slots 0-63 of a tweet with ``text``: featurization's lexicon
    percentages, which must equal the reference rule's."""
    res = FeatureResources(lexicon=lex, valence={}, wordlist=frozenset(), tagger=RuleTagger())
    row = featurize_corpus({}, Vocabulary({}, 1), res, [make_tweet(id=1, text=text)],
                           now=make_window().post_end).dense[0]
    got = row[:64].tolist()
    assert got == lexicon_score(tokenize(text), lex)
    return got


class TestLexicon:
    def test_direct_count(self, tiny_lexicon):
        scores = lexicon_percentages("happy sad happy car", tiny_lexicon)
        assert scores[0] == pytest.approx(50.0)
        assert scores[1] == pytest.approx(25.0)

    def test_wildcard_prefix(self, tiny_lexicon):
        scores = lexicon_percentages("happiness wins", tiny_lexicon)
        assert scores[0] == pytest.approx(50.0)

    def test_no_word_tokens(self, tiny_lexicon):
        assert lexicon_percentages("@a #b :)", tiny_lexicon) == [0.0] * 64

    def test_padded_to_64(self, tiny_lexicon):
        # Count vectors have 64 slots; the categories are the loaded ones only.
        assert len(textkit.lexicon_counts(["happy"], tiny_lexicon)) == 64
        assert tiny_lexicon.category_names == ["posemo", "negemo"]
        assert [name for name, _ in tiny_lexicon.categories] == ["posemo", "negemo"]

    def test_word_basis_excludes_structural_tokens(self, tiny_lexicon):
        # percentages are over word tokens only
        scores = lexicon_percentages("happy @someone http://x.co", tiny_lexicon)
        assert scores[0] == pytest.approx(100.0)

    def test_monotone_in_matching_words(self, tiny_lexicon):
        base = lexicon_percentages("happy car car car", tiny_lexicon)[0]
        more = lexicon_percentages("happy happy car car", tiny_lexicon)[0]
        assert more >= base

    def test_memo_equals_scan_on_mixed_case(self, resources, tiny_lexicon):
        words = ["happy", "HAPPY", "Happiness", "happi", "sad", "Sad", "car", "",
                 "the", "The", "THINK", "thinking", "know", "win", "damn", "I", "i"]
        for lex in (tiny_lexicon, resources.lexicon):
            for w in words + words:
                assert lex.categories_for(w) == scan_categories(lex, w), w

    def test_result_cannot_be_mutated(self, tiny_lexicon):
        hits = tiny_lexicon.categories_for("happiness")
        assert hits == {0}
        with pytest.raises(AttributeError):
            hits.add(1)
        assert tiny_lexicon.categories_for("happiness") == {0}

    def test_scores_within_bounds(self, resources):
        text = "happy sad the a and I you think know win damn"
        for v in lexicon_percentages(text, resources.lexicon):
            assert 0.0 <= v <= 100.0


class TestSentiment:
    def test_no_valenced_tokens(self):
        assert sentiment_score(tokenize("neutral words here"), {"good": 1.9}) == 0.0

    def test_hand_computed_normalizer(self):
        s = sentiment_score(tokenize("good"), {"good": 1.9})
        assert s == pytest.approx(1.9 / math.sqrt(1.9**2 + 15), abs=1e-9)
        assert s == pytest.approx(0.4404, abs=1e-4)

    def test_negation_flip(self):
        table = {"good": 1.9}
        assert sentiment_score(tokenize("not good"), table) == pytest.approx(
            -sentiment_score(tokenize("good"), table), abs=1e-12
        )

    def test_contraction_negation(self):
        table = {"good": 1.9}
        assert sentiment_score(tokenize("isn't good"), table) < 0

    def test_odd_under_table_negation(self):
        table = {"good": 1.9, "bad": -1.2}
        neg_table = {k: -v for k, v in table.items()}
        text = "good bad good"
        assert sentiment_score(tokenize(text), neg_table) == pytest.approx(
            -sentiment_score(tokenize(text), table), abs=1e-12
        )

    def test_strictly_bounded(self):
        table = {"w": 100.0}
        s = sentiment_score(tokenize("w " * 50), table)
        assert -1.0 < s < 1.0

    def test_emoticon_valence(self):
        assert sentiment_score(tokenize(":)"), {":)": 1.0}) > 0


class TestPosTagger:
    def test_structural_mapping(self):
        toks = tokenize("@bob :) http://x.co #tag 42 ,")
        tags = pos_tag(toks, RuleTagger())
        assert tags == ["mention", "emoticon", "url", "hashtag", "numeral", "punctuation"]

    def test_adverb_suffix(self):
        toks = tokenize("quickly")
        assert pos_tag(toks, RuleTagger()) == ["adverb"]

    def test_tagset_size(self):
        assert len(RuleTagger.tagset) == 25

    def test_unknown_tag_rejected(self):
        class BadTagger:
            tagset = tuple(f"t{i}" for i in range(25))

            def tag(self, tokens):
                return ["nope"] * len(tokens)

        with pytest.raises(ContractError):
            pos_tag(tokenize("word"), BadTagger())

    def test_length_mismatch_rejected(self):
        class ShortTagger:
            tagset = RuleTagger.tagset

            def tag(self, tokens):
                return []

        with pytest.raises(ContractError):
            pos_tag(tokenize("two words"), ShortTagger())


# Words that reach every rule of RuleTagger: closed-class words, each
# suffix list, both apostrophes, and text whose case mapping is not ASCII.
TAGGER_WORDS = (
    sorted(textkit._PRONOUNS)[:6] + sorted(textkit._DETERMINERS)[:4]
    + sorted(textkit._PREPOSITIONS)[:4] + sorted(textkit._CONJUNCTIONS)
    + sorted(textkit._INTERJECTIONS)[:4] + sorted(textkit._COMMON_VERBS)[:6]
    + ["rt", "there", "don't", "can\u2019t", "quickly", "ly"]
    + ["walk" + s for s in textkit._VERB_SUFFIXES]
    + ["hope" + s for s in textkit._ADJ_SUFFIXES]
    + ["kind" + s for s in textkit._NOUN_SUFFIXES]
    + ["apple", "london", "İstanbul", "ÉCOLE", "straße", "ǅemal", "ΣΟΦΊΑ", "ﬁne"]
)
CASINGS = (str.lower, str.upper, str.title, str.capitalize, str.swapcase, lambda w: w)


@st.composite
def tagger_texts(draw):
    words = draw(st.lists(
        st.one_of(
            st.sampled_from(TAGGER_WORDS),
            st.text(st.characters(codec="utf-8", exclude_categories=("Cs",)), max_size=8),
        ),
        max_size=10,
    ))
    return " ".join(draw(st.sampled_from(CASINGS))(w) for w in words)


class TestTaggerMemo:
    @given(st.lists(tagger_texts(), min_size=1, max_size=4))
    @settings(max_examples=300, deadline=None)
    def test_cold_and_warm_memo_match_uncached_rules(self, texts):
        tagger = RuleTagger()
        for text in texts + texts:  # each text once cold, once warm
            toks = tokenize(text)
            assert tagger.tag(toks) == uncached_tags(toks)

    def test_capital_flag_is_part_of_the_key(self):
        tagger = RuleTagger()
        for text in ("apple Apple APPLE", "Apple apple", "ÉCOLE école", "İstanbul istanbul"):
            toks = tokenize(text)
            assert tagger.tag(toks) == uncached_tags(toks)
        assert tagger.tag(tokenize("apple Apple")) == ["common_noun", "proper_noun"]

    def test_memo_belongs_to_the_instance(self):
        class NounTagger(RuleTagger):
            @staticmethod
            def _tag_word(w, capitalized):
                return "common_noun"

        toks = tokenize("quickly")
        assert RuleTagger().tag(toks) == ["adverb"]
        assert NounTagger().tag(toks) == ["common_noun"]


class TestTextStats:
    def test_full_density(self):
        toks = tokenize("dogs run quickly tired")
        tags = ["common_noun", "verb", "adverb", "adjective"]
        density, _ = text_stats(toks, tags, frozenset())
        assert density == pytest.approx(1.0)

    def test_empty_basis(self):
        toks = tokenize("@a :)")
        tags = pos_tag(toks, RuleTagger())
        assert text_stats(toks, tags, frozenset({"a"})) == (0.0, 0.0)

    def test_dictionary_fraction(self):
        toks = tokenize("alpha beta gamma delta")
        tags = ["common_noun"] * 4
        _, frac = text_stats(toks, tags, frozenset({"alpha", "beta"}))
        assert frac == pytest.approx(0.5)

    def test_case_insensitive_lookup(self):
        toks = tokenize("Alpha")
        _, frac = text_stats(toks, ["common_noun"], frozenset({"alpha"}))
        assert frac == pytest.approx(1.0)

    def test_misaligned_lengths(self):
        with pytest.raises(ContractError):
            text_stats(tokenize("a b"), ["common_noun"], frozenset())


class TestPretagged:
    def test_pretagged_store_roundtrip(self, tmp_path):
        path = tmp_path / "tags.jsonl"
        path.write_text('{"id": 7, "tags": ["common_noun", "verb"]}\n')
        store = textkit.PretaggedStore.from_file(path)
        assert store.get(7) == ["common_noun", "verb"]
        assert store.get(8) is None

    def test_infinite_id_is_a_validation_error(self, tmp_path):
        path = tmp_path / "tags.jsonl"
        path.write_text('{"id": Infinity, "tags": ["verb"]}\n')
        with pytest.raises(ValidationError, match="line 1"):
            textkit.PretaggedStore.from_file(path)
