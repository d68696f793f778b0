import hashlib
import math
import warnings
import weakref

import numpy as np
import pytest

from regretstream.analytics import MeasurementTable
from regretstream.errors import ValidationError
from regretstream.features import (
    DENSE_SIZE,
    DERIVED_SLOT,
    FEATURE_GROUPS,
    FeatureResources,
    TweetMeasurements,
    Vocabulary,
    build_vocab,
    featurize_corpus,
    load_feature_matrix,
    measure,
    open_text_vector,
    save_feature_matrix,
)
from regretstream import textkit
from regretstream.textkit import Lexicon, RuleTagger, tokenize

from conftest import make_corpus, make_profile, make_tweet, make_window, ts
import oracles
from oracles import index_pos_counts


# An empty vocabulary: a one-row ``featurize_corpus`` call for a tweet's
# dense or response row needs no terms.
NO_TERMS = Vocabulary({}, 1)


@pytest.fixture()
def tokenize_calls(monkeypatch):
    """The text of every ``textkit.tokenize`` call made during the test."""
    calls = []
    real = textkit.tokenize

    def counting(text):
        calls.append(text)
        return real(text)

    monkeypatch.setattr(textkit, "tokenize", counting)
    return calls


class TestVocabulary:
    def test_direct_df_count(self):
        corpus = [
            make_tweet(id=1, text="a b"),
            make_tweet(id=2, text="b c"),
        ]
        vocab = build_vocab(corpus)
        assert len(vocab) == 3
        assert vocab.df[vocab.index["b"]] == 2
        assert vocab.df[vocab.index["a"]] == 1

    def test_mentions_and_urls_excluded(self):
        vocab = build_vocab([make_tweet(id=1, text="@x a http://t.co/q")])
        assert list(vocab.terms) == ["a"]

    def test_hashtags_kept(self):
        vocab = build_vocab([make_tweet(id=1, text="#tag word")])
        assert "#tag" in vocab.index

    def test_determinism(self):
        tweets = [make_tweet(id=i, text=f"word{i} shared") for i in range(1, 5)]
        v1 = build_vocab(tweets)
        v2 = build_vocab(tweets)
        assert v1.terms == v2.terms
        assert np.array_equal(v1.df, v2.df)

    def test_lexicographic_indices(self):
        vocab = build_vocab([make_tweet(id=1, text="zebra apple mango")])
        assert vocab.terms == sorted(vocab.terms)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValidationError):
            build_vocab([])


class TestOpenTextVector:
    def test_all_oov_is_empty(self):
        vocab = build_vocab([make_tweet(id=1, text="known words")])
        assert open_text_vector(tokenize("unseen stuff"), vocab) == []

    def test_unit_norm(self):
        corpus = [make_tweet(id=1, text="a a b"), make_tweet(id=2, text="b c d")]
        vocab = build_vocab(corpus)
        vec = open_text_vector(tokenize("a b d d"), vocab)
        norm = math.sqrt(sum(w * w for _, w in vec))
        assert norm == pytest.approx(1.0, abs=1e-9)

    def test_hand_computed_idf_ratio(self):
        # single document "a a b": idf identical for both terms, so the
        # weight ratio equals the tf ratio
        vocab = build_vocab([make_tweet(id=1, text="a a b")])
        vec = dict(open_text_vector(tokenize("a a b"), vocab))
        wa = vec[vocab.index["a"]]
        wb = vec[vocab.index["b"]]
        assert wa / wb == pytest.approx(2.0, abs=1e-12)

    def test_idf_formula(self):
        # two docs; term "b" in both, "a" in one
        corpus = [make_tweet(id=1, text="a b"), make_tweet(id=2, text="b")]
        vocab = build_vocab(corpus)
        vec = dict(open_text_vector(tokenize("a b"), vocab))
        idf_a = math.log(3 / 2) + 1
        idf_b = math.log(3 / 3) + 1
        expected_ratio = idf_a / idf_b
        assert vec[vocab.index["a"]] / vec[vocab.index["b"]] == pytest.approx(expected_ratio, abs=1e-12)

    def test_indices_sorted(self):
        corpus = [make_tweet(id=1, text="zeta alpha mid")]
        vocab = build_vocab(corpus)
        vec = open_text_vector(tokenize("zeta alpha mid"), vocab)
        idx = [i for i, _ in vec]
        assert idx == sorted(idx)


@pytest.fixture()
def small_resources():
    lex = Lexicon([("posemo", ["good"]), ("negemo", ["bad"])])
    return FeatureResources(
        lexicon=lex,
        valence={"good": 1.9},
        wordlist=frozenset({"good", "bad", "day"}),
        tagger=RuleTagger(),
    )


class TestDenseFeatures:
    def test_golden_vector(self, small_resources):
        # Layout walk-through computed by hand for this fixture tweet.
        profile = make_profile(
            user_id=9,
            account_created_at=ts(days=0) - __import__("datetime").timedelta(days=400),
            profile_customized=True,
            custom_image=False,
            bio_length=42,
            geo_enabled=True,
            has_location=False,
            has_profile_url=True,
            favourites_count=7,
            followees_count=11,
            followers_count=13,
            listed_count=3,
            statuses_count=99,
            timezone_offset_min=-300,
        )
        tweet = make_tweet(
            id=5,
            user_id=9,
            created_at=ts(days=2, hours=23, minutes=10),  # 2015-08-05T23:10Z, Wednesday
            text="good good bad stuff http://t.co/x http://t.co/y @pal #one #two #three",
            profile=profile,
            in_reply_to_id=77,
            hashtags=("#one", "#two", "#three"),
            urls=("http://t.co/x", "http://t.co/y"),
            mentions=("@pal",),
        )
        now = make_window().post_end
        vec = featurize_corpus({}, NO_TERMS, small_resources, [tweet], now=now).dense[0]
        assert len(vec) == DENSE_SIZE
        # 4 word tokens: good good bad stuff -> posemo 50%, negemo 25%
        assert vec[0] == pytest.approx(50.0)
        assert vec[1] == pytest.approx(25.0)
        assert vec[2:64] == pytest.approx(np.zeros(62))
        # sentiment: 2 * 1.9 = 3.8 -> 3.8/sqrt(3.8^2+15)
        assert vec[64] == pytest.approx(3.8 / math.sqrt(3.8**2 + 15), abs=1e-9)
        # POS counts: 4 common nouns, 2 urls, 1 mention, 3 hashtags
        tagset = small_resources.tagger.tagset
        assert vec[65 + tagset.index("common_noun")] == 4
        assert vec[65 + tagset.index("url")] == 2
        assert vec[65 + tagset.index("mention")] == 1
        assert vec[65 + tagset.index("hashtag")] == 3
        assert vec[90] == 23          # hour
        assert vec[91] == 2           # Wednesday
        assert vec[92] == -300        # timezone offset
        assert vec[93] == 1.0         # is_reply
        assert vec[94] == 0.0         # is_quote
        assert vec[95] == 2 and vec[96] == 1 and vec[97] == 3
        assert vec[98] == 0.0         # has_geo
        # account age: 400 days before post_start, +14 window days
        assert vec[99] == pytest.approx(414.0)
        assert vec[100] == 1.0 and vec[101] == 0.0
        assert vec[102] == 42
        assert vec[103] == 1.0 and vec[104] == 0.0 and vec[105] == 1.0
        assert vec[106] == 7 and vec[107] == 11 and vec[108] == 13
        assert vec[109] == 3 and vec[110] == 99
        assert math.isnan(vec[DERIVED_SLOT])

    def test_slots_finite_except_derived(self, small_resources):
        tweet = make_tweet(id=1, text="whatever words")
        now = make_window().post_end
        vec = featurize_corpus({}, NO_TERMS, small_resources, [tweet], now=now).dense[0]
        assert np.isfinite(vec[:DERIVED_SLOT]).all()

    def test_missing_timezone_encodes_zero(self, small_resources):
        profile = make_profile(1, timezone_offset_min=None)
        tweet = make_tweet(id=1, profile=profile)
        now = make_window().post_end
        vec = featurize_corpus({}, NO_TERMS, small_resources, [tweet], now=now).dense[0]
        assert vec[92] == 0.0

    def test_determinism(self, small_resources):
        tweet = make_tweet(id=1, text="some words #tag")
        now = make_window().post_end
        a, b = (featurize_corpus({}, NO_TERMS, small_resources, [tweet], now=now).dense[0]
                for _ in range(2))
        np.testing.assert_array_equal(np.nan_to_num(a), np.nan_to_num(b))


def response_row(tweet, responses, resources) -> np.ndarray:
    """The 93-slot response block of ``tweet`` alone, whose responses are
    the records ``responses``: a one-row ``featurize_corpus`` call (any
    reference time does, as the dense row is not read)."""
    lookup = {r.id: r for r in responses}
    return featurize_corpus(lookup, NO_TERMS, resources, [tweet], with_responses=True,
                            now=tweet.created_at).response[0]


class TestResponseFeatures:
    def _tweet_with_responses(self):
        target = make_tweet(
            id=1, user_id=1, created_at=ts(hours=1), text="target",
            reply_ids=(2, 3), retweet_ids=(4,), quote_ids=(5,),
        )
        replies = [
            make_tweet(id=2, user_id=2, created_at=ts(hours=2), text="good stuff", in_reply_to_id=1),
            make_tweet(id=3, user_id=3, created_at=ts(hours=3), text="bad", in_reply_to_id=1),
        ]
        others = [
            make_tweet(id=4, user_id=4, created_at=ts(hours=4), text="rt", retweet_of_id=1),
            make_tweet(id=5, user_id=5, created_at=ts(hours=5), text="quote", quoted_id=1),
        ]
        return target, replies, others

    def test_counts_and_sums(self, small_resources):
        target, replies, others = self._tweet_with_responses()
        vec = response_row(target, replies + others, small_resources)
        assert vec[0] == 1.0 and vec[1] == 1.0 and vec[2] == 2.0
        # reply lexicon sums: "good stuff" -> posemo 50; "bad" -> negemo 100
        assert vec[3] == pytest.approx(50.0)
        assert vec[4] == pytest.approx(100.0)
        # reply sentiment sum: only "good" is valenced
        assert vec[92] == pytest.approx(1.9 / math.sqrt(1.9**2 + 15), abs=1e-9)

    def test_empty_responses_zero_vector(self, small_resources):
        target = make_tweet(id=1)
        vec = response_row(target, [], small_resources)
        assert np.count_nonzero(vec) == 0 and len(vec) == 93

    def test_aggregation_linearity(self, small_resources):
        target, replies, others = self._tweet_with_responses()
        full = response_row(target, replies + others, small_resources)
        part_a = response_row(target, replies, small_resources)
        part_b = response_row(target, others, small_resources)
        np.testing.assert_allclose(full, part_a + part_b, atol=1e-12)


class TestFeaturizeAndSerialize:
    def _matrix(self, small_resources, with_responses=False):
        target = make_tweet(id=1, user_id=1, created_at=ts(hours=1), text="good day", reply_ids=(2,))
        reply = make_tweet(id=2, user_id=2, created_at=ts(hours=2), text="bad reply", in_reply_to_id=1)
        deleted = make_tweet(id=3, user_id=1, created_at=ts(hours=3), text="bad day", deleted=True)
        corpus = make_corpus([target, reply, deleted])
        vocab = build_vocab(corpus)
        return featurize_corpus(corpus, vocab, small_resources, with_responses=with_responses)

    def test_shapes_and_labels(self, small_resources):
        m = self._matrix(small_resources)
        assert m.dense.shape == (3, DENSE_SIZE)
        assert m.labels.tolist() == [0, 0, 1]
        assert m.response is None

    def test_response_block(self, small_resources):
        m = self._matrix(small_resources, with_responses=True)
        assert m.response.shape == (3, 93)
        assert m.response[0, 2] == 1.0  # the target's one reply

    def test_rsf1_roundtrip(self, small_resources, tmp_path):
        m = self._matrix(small_resources, with_responses=True)
        path = tmp_path / "features.rsf1"
        save_feature_matrix(m, path)
        with open(path, "rb") as fh:
            assert fh.read(4) == b"RSF1"
        loaded = load_feature_matrix(path)
        np.testing.assert_array_equal(loaded.tweet_ids, m.tweet_ids)
        np.testing.assert_array_equal(loaded.labels, m.labels)
        np.testing.assert_array_equal(loaded.sparse_indptr, m.sparse_indptr)
        np.testing.assert_array_equal(loaded.sparse_indices, m.sparse_indices)
        np.testing.assert_allclose(loaded.sparse_data, m.sparse_data, atol=0)
        np.testing.assert_allclose(
            np.nan_to_num(loaded.dense), np.nan_to_num(m.dense), atol=0
        )
        np.testing.assert_allclose(loaded.response, m.response, atol=0)
        assert loaded.vocab_size == m.vocab_size

    def test_truncated_rsf1_names_file_and_section(self, small_resources, tmp_path):
        path = tmp_path / "features.rsf1"
        save_feature_matrix(self._matrix(small_resources, with_responses=True), path)
        data = path.read_bytes()
        header = 16 + int.from_bytes(data[8:16], "little")
        offsets = {
            "bad magic": 2, "version": 6, "manifest length": 10, "manifest": header - 5,
            "array tweet_ids": header + 3, "array dense": len(data) - 93 * 8 * 3 - 9,
            "array response": len(data) - 9, "half": len(data) // 2,
        }
        for section, cut in offsets.items():
            short = tmp_path / f"cut{cut}.rsf1"
            short.write_bytes(data[:cut])
            with pytest.raises(ValidationError) as exc:
                load_feature_matrix(short)
            assert str(short) in str(exc.value), section
            if section != "half":
                assert section in str(exc.value)

    @pytest.mark.parametrize("manifest", [b"{bad", b"{}", b'{"arrays": 3}', b"\xff\xfe"])
    def test_bad_rsf1_manifest_names_file(self, tmp_path, manifest):
        path = tmp_path / "features.rsf1"
        path.write_bytes(
            b"RSF1" + (1).to_bytes(4, "little") + len(manifest).to_bytes(8, "little") + manifest
        )
        with pytest.raises(ValidationError, match="manifest") as exc:
            load_feature_matrix(path)
        assert str(path) in str(exc.value)

    @pytest.mark.parametrize("with_responses, digest", [
        (False, "57107f140cf26353a4e28403b43b79e1c785279fed998fc02cba1a90f9861c18"),
        (True, "6037645d5e000c0dc6688be118712f651c25fb164c589d52ddce1d1b1e958319"),
    ])
    def test_golden_rsf1_files(self, synth_small, resources, tmp_path, with_responses, digest):
        """The RSF1 bytes of the featurized ``synth_small`` corpus, pinned:
        the manifest codec writes what the hand-written one wrote."""
        corpus = synth_small.cleaned
        m = featurize_corpus(corpus, build_vocab(corpus), resources, with_responses=with_responses)
        path = tmp_path / "features.rsf1"
        save_feature_matrix(m, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_feature_groups_partition_dense_layout(self):
        all_slots = sorted(i for slots in FEATURE_GROUPS.values() for i in slots)
        assert all_slots == list(range(DENSE_SIZE))


class TestPretaggedPath:
    def _resources_with_tags(self, small_resources, tags_by_id):
        from regretstream.textkit import PretaggedStore

        return FeatureResources(
            lexicon=small_resources.lexicon,
            valence=small_resources.valence,
            wordlist=small_resources.wordlist,
            tagger=small_resources.tagger,
            pretagged=PretaggedStore(tags_by_id),
        )

    def test_pretagged_tags_override_fallback(self, small_resources):
        tweet = make_tweet(id=9, text="two words")
        res = self._resources_with_tags(small_resources, {9: ["verb", "adverb"]})
        corpus = make_corpus([tweet])
        m = featurize_corpus(corpus, build_vocab(corpus), res)
        tagset = small_resources.tagger.tagset
        assert m.dense[0, 65 + tagset.index("verb")] == 1
        assert m.dense[0, 65 + tagset.index("adverb")] == 1
        assert m.dense[0, 65 + tagset.index("common_noun")] == 0

    def test_pretagged_length_mismatch_rejected(self, small_resources):
        from regretstream.errors import ContractError

        tweet = make_tweet(id=9, text="two words")
        res = self._resources_with_tags(small_resources, {9: ["verb"]})
        corpus = make_corpus([tweet])
        with pytest.raises(ContractError):
            featurize_corpus(corpus, build_vocab(corpus), res)

    def test_pretagged_unknown_tag_rejected(self, small_resources):
        from regretstream.errors import ContractError

        tweet = make_tweet(id=9, text="two words")
        res = self._resources_with_tags(small_resources, {9: ["verb", "wat"]})
        corpus = make_corpus([tweet])
        with pytest.raises(ContractError):
            featurize_corpus(corpus, build_vocab(corpus), res)

    def test_pretagged_tags_reach_the_response_block(self, small_resources):
        target = make_tweet(id=1, user_id=1, created_at=ts(hours=1), text="good day", reply_ids=(2,))
        reply = make_tweet(id=2, user_id=2, created_at=ts(hours=2), text="bad reply", in_reply_to_id=1)
        res = self._resources_with_tags(small_resources, {2: ["verb", "adverb"]})
        corpus = make_corpus([target, reply])
        m = featurize_corpus(corpus, build_vocab(corpus), res, with_responses=True)
        tagset = small_resources.tagger.tagset
        for tag, count in (("verb", 1), ("adverb", 1), ("common_noun", 0)):
            assert m.dense[1, 65 + tagset.index(tag)] == count  # the reply's own row
            assert m.response[0, 67 + tagset.index(tag)] == count  # the target's replies

    def test_missing_id_falls_back_to_tagger(self, small_resources):
        tweet = make_tweet(id=9, text="quickly")
        res = self._resources_with_tags(small_resources, {8: ["verb"]})
        corpus = make_corpus([tweet])
        m = featurize_corpus(corpus, build_vocab(corpus), res)
        tagset = small_resources.tagger.tagset
        assert m.dense[0, 65 + tagset.index("adverb")] == 1


class TestOneTextPass:
    def test_each_row_tokenized_once(self, synth_small, resources, tokenize_calls):
        corpus = synth_small.cleaned
        tweets = list(corpus)[:200]
        vocab = build_vocab(tweets)
        tokenize_calls.clear()
        featurize_corpus(corpus, vocab, resources, tweets=tweets)
        assert sorted(tokenize_calls) == sorted(t.text for t in tweets)

    def test_records_shared_by_vocabulary_and_rows(self, synth_small, resources, tokenize_calls):
        corpus = synth_small.cleaned
        tweets = list(corpus)[:200]
        records = [TweetMeasurements(t, resources) for t in tweets]
        m = featurize_corpus(corpus, build_vocab(records), resources, tweets=records)
        assert sorted(tokenize_calls) == sorted(t.text for t in tweets)
        plain = featurize_corpus(corpus, build_vocab(tweets), resources, tweets=tweets)
        for name in ("sparse_indptr", "sparse_indices", "sparse_data", "dense", "tweet_ids"):
            assert getattr(m, name).tobytes() == getattr(plain, name).tobytes()

    def test_each_record_released_once_read(self, synth_small, resources):
        corpus = synth_small.cleaned
        tweets = list(corpus)[:50]
        records = [TweetMeasurements(t, resources) for t in tweets]
        read = [weakref.ref(m) for m in records]
        featurize_corpus(corpus, build_vocab(records), resources, tweets=records)
        assert records == tweets  # the caller's list now holds the tweets
        assert all(ref() is None for ref in read)

    def test_reply_measured_once_with_responses(self, synth_small, resources, tokenize_calls):
        corpus = synth_small.cleaned
        assert any(corpus.get(r) is not None for t in corpus for r in t.reply_ids)
        vocab = build_vocab(corpus)
        tokenize_calls.clear()
        featurize_corpus(corpus, vocab, resources, with_responses=True)
        assert sorted(tokenize_calls) == sorted(t.text for t in corpus)

    def test_train_tokenizes_each_text_once(self, synth_small, resources, tokenize_calls):
        from regretstream.classify import TrainConfig, two_stage_train

        cfg = TrainConfig(n_per_class=60, stage2_hyper={"ada_depth": 2, "ada_rounds": 5})
        two_stage_train(synth_small.cleaned, cfg, 1, resources)
        assert tokenize_calls
        assert len(tokenize_calls) == len(set(tokenize_calls))

    def test_measurements_match_former_per_tag_and_per_word_paths(self, synth_small, resources):
        tagset = resources.tagger.tagset
        corpus = synth_small.cleaned
        dense = featurize_corpus(corpus, build_vocab(corpus), resources).dense
        for i, t in enumerate(corpus):
            m = TweetMeasurements(t, resources)
            counts = np.array(oracles.pos_counts(m.tags, tagset), dtype=np.float64)
            assert counts.tobytes() == index_pos_counts(m.tags, tagset).tobytes()
            assert dense[i, 65:90].tobytes() == counts.tobytes()
            assert dense[i, :64].tolist() == oracles.lexicon_score(m.tokens, resources.lexicon)

    def test_rows_match_single_tweet_features(self, synth_small, resources):
        corpus = synth_small.cleaned
        replied = [t for t in corpus if t.reply_ids]
        assert replied
        tweets = replied[:100] + [t for t in corpus if not t.reply_ids][:50]
        now = corpus.window.post_end
        m = featurize_corpus(
            corpus, build_vocab(tweets), resources, tweets=tweets, with_responses=True
        )
        for i, t in enumerate(tweets):
            dense = featurize_corpus({}, NO_TERMS, resources, [t], now=now).dense[0]
            np.testing.assert_array_equal(m.dense[i], dense)
            ids = sorted(set(t.reply_ids) | set(t.retweet_ids) | set(t.quote_ids))
            linked = [corpus.get(r) for r in ids if corpus.get(r) is not None]
            np.testing.assert_array_equal(m.response[i], response_row(t, linked, resources))


class TestOneFill:
    def test_rows_and_columns_equal_former_per_tweet_paths(self, synth_small, resources):
        corpus = synth_small.cleaned
        m = featurize_corpus(corpus, build_vocab(corpus), resources, with_responses=True)
        memo = oracles.RecordMemo(resources)
        assert any(t.reply_ids for t in corpus)
        for i, t in enumerate(corpus):
            want = oracles.dense_vector(memo.get(t), resources, corpus.window.post_end)
            assert m.dense[i].tobytes() == want.tobytes()
            ids = sorted(set(t.reply_ids) | set(t.retweet_ids) | set(t.quote_ids))
            linked = [corpus.get(r) for r in ids if corpus.get(r) is not None]
            assert m.response[i].tobytes() == oracles.response_vector(t, linked, memo).tobytes()
        want = oracles.loop_table_columns(corpus, memo)
        table = MeasurementTable(list(corpus), resources, dict.fromkeys(want, True))
        for name, values in want.items():
            got = np.asarray(table.columns[name], dtype=np.float64)
            assert got.tobytes() == np.asarray(values, dtype=np.float64).tobytes(), name

    def test_masked_groups_read_only_their_rows(self, synth_small, resources, tokenize_calls):
        """A group measured at some rows reads zero elsewhere and equals the
        unmasked fill where it is measured; a row no group marks is never
        tokenized."""
        tweets = list(synth_small.cleaned)[:60]
        groups = dict.fromkeys(("words", "tags", "sentiment", "stats"), True)
        full = measure((TweetMeasurements(t, resources) for t in tweets), 60, resources, groups)
        rows = np.arange(60)
        at = {"words": rows % 2 == 0, "tags": rows % 3 == 0, "stats": rows % 3 == 0,
              "sentiment": rows < 10}
        tokenize_calls.clear()
        got = measure((TweetMeasurements(t, resources) for t in tweets), 60, resources, at)
        marked = at["words"] | at["tags"] | at["sentiment"]
        assert sorted(tokenize_calls) == sorted(t.text for t, m in zip(tweets, marked) if m)
        for group, names in (("words", ("lexicon", "n_words")), ("tags", ("pos", "n_tokens")),
                             ("sentiment", ("sentiment",)), ("stats", ("stats",))):
            for name in names:
                mask = at[group]
                assert got[name][mask].tobytes() == full[name][mask].tobytes(), name
                assert not got[name][~mask].any(), name

    def test_zero_rows(self, small_resources):
        corpus = make_corpus([make_tweet(id=1, text="good day")])
        m = featurize_corpus(corpus, build_vocab(corpus), small_resources, tweets=[],
                             with_responses=True)
        assert m.dense.shape == (0, DENSE_SIZE) and m.response.shape == (0, 93)
        assert len(m) == 0 and m.sparse_indptr.tolist() == [0]
        cols = measure(iter(()), 0, small_resources,
                       dict.fromkeys(("words", "tags", "sentiment", "stats"), True))
        assert {name: c.shape for name, c in cols.items()} == {
            "lexicon": (0, 64), "n_words": (0,), "pos": (0, 25), "n_tokens": (0,),
            "sentiment": (0,), "stats": (0, 2),
        }

    def test_tweet_without_word_tokens(self, small_resources):
        tweets = [make_tweet(id=1, text="123 !! @pal #tag"), make_tweet(id=2, text="good day"),
                  make_tweet(id=3, text="")]
        corpus = make_corpus(tweets)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m = featurize_corpus(corpus, build_vocab(corpus), small_resources)
        assert np.isfinite(m.dense[:, :DERIVED_SLOT]).all()
        assert m.dense[[0, 2], :64].tolist() == [[0.0] * 64] * 2
        assert m.dense[1, 0] == 50.0

    def test_reply_outside_the_featurized_rows(self, small_resources, tokenize_calls):
        target = make_tweet(id=1, user_id=1, created_at=ts(hours=1), text="good day",
                            reply_ids=(2, 3))
        replies = [
            make_tweet(id=2, user_id=2, created_at=ts(hours=2), text="bad reply", in_reply_to_id=1),
            make_tweet(id=3, user_id=3, created_at=ts(hours=3), text="good", in_reply_to_id=1),
        ]
        corpus = make_corpus([target, *replies])
        vocab = build_vocab(corpus)
        tokenize_calls.clear()
        m = featurize_corpus(corpus, vocab, small_resources, tweets=[target, replies[1]],
                             with_responses=True)
        assert sorted(tokenize_calls) == sorted(t.text for t in corpus)  # each text once
        want = oracles.response_vector(target, replies, oracles.RecordMemo(small_resources))
        assert m.response[0].tobytes() == want.tobytes()
        assert m.response[0, 2] == 2.0 and m.response[0, 3:5].tolist() == [100.0, 50.0]
