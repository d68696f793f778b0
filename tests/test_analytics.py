import json
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regretstream import analytics
from regretstream.analytics import (
    AttributeExtractor,
    MeasurementTable,
    aggregate_annotations,
    analysis_table,
    first_replies,
    nud,
    nud_value,
    ntd,
    ntd_value,
    partition_users,
    reply_sentiment_split,
    response_report,
    temporal_histogram,
    trait_tally,
    user_group_compare,
)
from regretstream.errors import UndefinedDifferenceError, ValidationError
from regretstream.resources import (
    load_default_trait_map,
    trait_reference_medians_path,
)
from regretstream.synth import SynthConfig
from regretstream.textkit import tokenize

import oracles
from conftest import make_corpus, make_profile, make_tweet, run_synth_pipeline, ts

HASHTAG_ATTR = AttributeExtractor("tweets_w_hashtags", "binary", "tweets_w_hashtags")


def category_medians(corpus, resources, deleters, non_deleters):
    table = analysis_table(corpus, resources, traits=True)
    return analytics.user_category_medians(table, resources.lexicon, deleters, non_deleters)


def sentiment_split(corpus, resources):
    firsts = first_replies(corpus)
    table = analysis_table(corpus, resources, firsts=firsts)
    return reply_sentiment_split(corpus, table, firsts)


def compare_report(corpus, resources, attrs):
    return analytics.group_compare_report(analysis_table(corpus, resources, attrs), attrs)


class TestPartitionUsers:
    def test_basic_partition(self):
        tweets = [
            make_tweet(id=1, user_id=1, deleted=True),
            make_tweet(id=2, user_id=1),
            make_tweet(id=3, user_id=2),
        ]
        deleters, non_deleters = partition_users(make_corpus(tweets))
        assert deleters == {1}
        assert non_deleters == {2}

    def test_superficial_only_user_is_non_deleter(self, whitelist):
        # after cleanup the user's lone deletion is gone entirely
        from regretstream.cleanup import CleanupConfig, run_cleanup

        tweets = [
            make_tweet(id=1, user_id=1, created_at=ts(hours=1), text="Good mornng all", deleted=True),
            make_tweet(id=2, user_id=1, created_at=ts(hours=2), text="Good morning all"),
        ]
        cleaned, _ = run_cleanup(make_corpus(tweets), CleanupConfig(client_whitelist=whitelist))
        deleters, non_deleters = partition_users(cleaned)
        assert deleters == set()
        assert non_deleters == {1}

    def test_disjoint_and_covering(self):
        tweets = [
            make_tweet(id=i, user_id=i % 5 + 1, deleted=(i % 3 == 0))
            for i in range(1, 20)
        ]
        corpus = make_corpus(tweets)
        deleters, non_deleters = partition_users(corpus)
        assert deleters & non_deleters == set()
        assert deleters | non_deleters == set(corpus.user_ids())


class TestNormalizedDifferenceFormulas:
    def test_halved_fraction(self):
        assert ntd_value(0.10, 0.20) == pytest.approx(-50.0)

    def test_equal_fractions(self):
        assert ntd_value(0.3, 0.3) == 0.0

    def test_zero_denominator_errors(self):
        with pytest.raises(UndefinedDifferenceError):
            ntd_value(0.1, 0.0)
        with pytest.raises(UndefinedDifferenceError):
            nud_value(0.1, 0.0)

    def test_doubling(self):
        assert nud_value(0.02, 0.01) == pytest.approx(100.0)

    def test_identity_random_quadruples(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            d, n = rng.uniform(0.0, 1.0), rng.uniform(1e-6, 1.0)
            assert abs(ntd_value(d, n) - (d - n) / n * 100.0) < 1e-12
            assert abs(nud_value(d, n) - (d - n) / n * 100.0) < 1e-12

    def test_lower_bound(self):
        assert ntd_value(0.0, 0.5) == pytest.approx(-100.0)


class TestNtdOnCorpora:
    def test_binary_attribute_fixture(self, resources):
        del_tweets = [
            make_tweet(id=1, deleted=True, hashtags=("#a",)),
            make_tweet(id=2, deleted=True),
        ]
        nondel = [
            make_tweet(id=3, hashtags=("#b",)),
            make_tweet(id=4, hashtags=("#c",)),
            make_tweet(id=5),
            make_tweet(id=6),
        ]
        value, test = ntd(HASHTAG_ATTR, MeasurementTable(del_tweets + nondel, resources))
        assert value == pytest.approx(0.0)  # 1/2 vs 2/4
        assert test.method == "fisher_exact"

    def test_scalar_attribute_uses_medians_and_mwu(self, resources):
        attr = AttributeExtractor("text_len", "scalar", "text_len")
        del_tweets = [make_tweet(id=i, deleted=True, text="x" * (10 + i)) for i in range(1, 5)]
        nondel = [make_tweet(id=i + 10, text="x" * (5 + i)) for i in range(1, 5)]
        table = MeasurementTable(del_tweets + nondel, resources)
        table.columns["text_len"] = np.array([float(len(t.text)) for t in del_tweets + nondel])
        value, test = ntd(attr, table)
        assert value > 0
        assert test.method.startswith("mann_whitney")

    def test_zero_nondeleted_prevalence_errors(self, resources):
        del_tweets = [make_tweet(id=1, deleted=True, hashtags=("#a",))]
        nondel = [make_tweet(id=2)]
        with pytest.raises(UndefinedDifferenceError):
            ntd(HASHTAG_ATTR, MeasurementTable(del_tweets + nondel, resources))

    def test_planted_sign_on_generator_corpus(self, resources, whitelist):
        cfg = SynthConfig(
            seed=11, n_users=60, tweet_rate_min=2.0, tweet_rate_max=3.0,
            deletion_rate=0.25, hashtag_rate_deleted=0.5, hashtag_rate_non_deleted=0.10,
            orphan_deletes=0,
        )
        sp = run_synth_pipeline(cfg, whitelist)
        deleters, _ = partition_users(sp.cleaned)
        pool = [t for t in sp.cleaned if t.user_id in deleters]
        value, test = ntd(HASHTAG_ATTR, MeasurementTable(pool, resources))
        assert value > 0
        assert test.significant


class TestNud:
    def _user_tweets(self, user_id, start_id, n_del, del_hits, n_non, non_hits):
        tweets = []
        tid = start_id
        for k in range(n_del):
            tweets.append(
                make_tweet(
                    id=tid, user_id=user_id, created_at=ts(minutes=tid),
                    deleted=True, hashtags=("#x",) if k < del_hits else (),
                )
            )
            tid += 1
        for k in range(n_non):
            tweets.append(
                make_tweet(
                    id=tid, user_id=user_id, created_at=ts(minutes=tid),
                    hashtags=("#x",) if k < non_hits else (),
                )
            )
            tid += 1
        return tweets

    def test_exact_arithmetic_on_constructed_corpus(self, resources):
        tweets = []
        tid = 1
        # 4 users skewed high-in-deleted, 1 reversed, 3 neutral
        for u in range(1, 5):
            tweets += self._user_tweets(u, tid, 15, 13, 15, 1)
            tid += 30
        tweets += self._user_tweets(5, tid, 15, 1, 15, 13)
        tid += 30
        for u in range(6, 9):
            tweets += self._user_tweets(u, tid, 15, 2, 15, 2)
            tid += 30
        corpus = make_corpus(tweets)
        value, detail = nud(HASHTAG_ATTR, MeasurementTable(corpus, resources))
        assert set(detail.higher_in_deleted) == {1, 2, 3, 4}
        assert set(detail.higher_in_nondeleted) == {5}
        assert len(detail.eligible_users) == 8
        assert value == pytest.approx((4 / 8 - 1 / 8) / (1 / 8) * 100.0)

    def test_eligibility_threshold(self, resources):
        # 9 deleted tweets -> ineligible even with a strong skew
        tweets = self._user_tweets(1, 1, 9, 9, 20, 0)
        tweets += self._user_tweets(2, 100, 15, 13, 15, 1)
        tweets += self._user_tweets(3, 200, 15, 1, 15, 13)
        corpus = make_corpus(tweets)
        _, detail = nud(HASHTAG_ATTR, MeasurementTable(corpus, resources))
        assert 1 not in detail.eligible_users
        assert set(detail.eligible_users) == {2, 3}

    def test_no_eligible_users_errors(self, resources):
        corpus = make_corpus([make_tweet(id=1, deleted=True), make_tweet(id=2)])
        with pytest.raises(UndefinedDifferenceError):
            nud(HASHTAG_ATTR, MeasurementTable(corpus, resources))

    def test_planted_users_flagged_on_generator_corpus(self, resources, whitelist):
        cfg = SynthConfig(
            seed=13, n_users=40, tweet_rate_min=6.0, tweet_rate_max=7.5,
            deleter_fraction=0.6, deletion_rate=0.3,
            non_english_fraction=0.05, automated_fraction=0.05, retweet_fraction=0.08,
            nud_attr_skew_fraction=0.4, nud_attr_reverse_fraction=0.2,
            nud_attr_rate_high=0.85, hashtag_rate_deleted=0.08, hashtag_rate_non_deleted=0.08,
            orphan_deletes=0,
        )
        sp = run_synth_pipeline(cfg, whitelist)
        planted = {r["user_id"] for r in sp.ledger if r.get("kind") == "user" and r.get("nud_planted")}
        reverse = {r["user_id"] for r in sp.ledger if r.get("kind") == "user" and r.get("nud_reverse")}
        value, detail = nud(HASHTAG_ATTR, MeasurementTable(sp.cleaned, resources))
        eligible = set(detail.eligible_users)
        assert planted & eligible, "generator must produce eligible planted users"
        assert planted & eligible <= set(detail.higher_in_deleted)
        assert reverse & eligible <= set(detail.higher_in_nondeleted)
        assert value > 0


class TestUserGroupCompare:
    def test_constant_groups(self):
        tweets = [
            make_tweet(id=1, user_id=1, deleted=True, profile=make_profile(1, followers_count=2)),
            make_tweet(id=2, user_id=2, profile=make_profile(2, followers_count=1)),
            make_tweet(id=3, user_id=3, profile=make_profile(3, followers_count=1)),
        ]
        corpus = make_corpus(tweets)
        dist = user_group_compare(corpus, "followers", {1}, {2, 3})
        assert dist.median_deleters == 2
        assert dist.median_non_deleters == 1

    def test_identical_groups_null(self):
        tweets = [
            make_tweet(id=i, user_id=i, deleted=(i <= 3), profile=make_profile(i, followers_count=5))
            for i in range(1, 7)
        ]
        corpus = make_corpus(tweets)
        dist = user_group_compare(corpus, "followers", {1, 2, 3}, {4, 5, 6})
        assert dist.test.p_two_sided >= 0.99

    def test_render_format(self):
        tweets = [
            make_tweet(id=1, user_id=1, deleted=True, profile=make_profile(1, followers_count=508)),
            make_tweet(id=2, user_id=2, profile=make_profile(2, followers_count=375)),
        ]
        corpus = make_corpus(tweets)
        dist = user_group_compare(corpus, "followers", {1}, {2})
        rendered = f"{dist.median_deleters:g} vs {dist.median_non_deleters:g}"
        assert rendered == "508 vs 375"

    def test_tweet_rate_metric(self):
        tweets = [make_tweet(id=i, user_id=1, created_at=ts(hours=i), deleted=(i == 1)) for i in range(1, 29)]
        tweets += [make_tweet(id=100, user_id=2, created_at=ts(hours=1))]
        corpus = make_corpus(tweets)
        dist = user_group_compare(corpus, "tweet_rate", {1}, {2})
        assert dist.median_deleters == pytest.approx(28 / 14)
        assert dist.median_non_deleters == pytest.approx(1 / 14)

    def test_ccdf_shape(self):
        tweets = [
            make_tweet(id=i, user_id=i, deleted=(i <= 2), profile=make_profile(i, followers_count=i * 10))
            for i in range(1, 6)
        ]
        corpus = make_corpus(tweets)
        dist = user_group_compare(corpus, "followers", {1, 2}, {3, 4, 5})
        values = [v for v, _ in dist.ccdf_deleters]
        probs = [p for _, p in dist.ccdf_deleters]
        assert values == sorted(values)
        assert probs[0] == 1.0 and all(0 < p <= 1 for p in probs)

    def test_ccdf_equals_direct_count_with_ties(self):
        from regretstream.analytics import _ccdf

        rng = np.random.default_rng(11)
        for n in (1, 2, 7, 300):
            values = [float(v) for v in rng.integers(0, 12, size=n)] + [-0.0, 0.0]
            got = _ccdf(values)
            vals = np.asarray(values)
            want = [(float(v), float(np.sum(vals >= v) / len(vals))) for v in np.unique(vals)]
            assert got == want

    def test_empty_group_rejected(self):
        corpus = make_corpus([make_tweet(id=1, user_id=1)])
        with pytest.raises(ValidationError):
            user_group_compare(corpus, "followers", set(), {1})


class TestTraitTally:
    def test_shipped_reference_anchor(self):
        with open(trait_reference_medians_path(), encoding="utf-8") as fh:
            medians = {k: tuple(v) for k, v in json.load(fh).items()}
        tally, unmapped = trait_tally(medians, load_default_trait_map())
        assert unmapped == []
        assert tally["C-"] == 10
        assert tally["C+"] == 1
        assert tally["N+"] == 3
        assert tally["N-"] == 0

    def test_single_attribute_direction(self):
        tally, _ = trait_tally({"negations": (1.11, 1.71)}, {"negations": ["C-"]})
        assert tally["C-"] == 1

    def test_flip_when_deleters_lower(self):
        tally, _ = trait_tally({"work": (0.95, 0.91)}, {"work": ["C+", "O+"]})
        assert tally["C-"] == 1 and tally["O-"] == 1

    def test_equal_medians_skipped(self):
        tally, _ = trait_tally({"x": (1.0, 1.0)}, {"x": ["E+"]})
        assert all(v == 0 for v in tally.values())

    def test_empty_map_reports_unmapped(self):
        tally, unmapped = trait_tally({"mystery": (1.0, 2.0)}, {})
        assert unmapped == ["mystery"]
        assert all(v == 0 for v in tally.values())


class TestUserCategoryMedians:
    """Trait-tally input on two deleters (users 1, 2) and two non-deleters
    (users 3, 4). In the toy resources "good" is affect + posemo with
    positive valence, "bad" affect + negemo with negative valence, "work"
    and "money" their own categories, and "plain" and "day" match nothing."""

    def _corpus(self):
        rows = [
            # user 1: 4 words (posemo 1, negemo 1, affect 2, work 1); 1 of 2
            # tweets positive, 1 negative, 1 with a hashtag.
            (1, "good work", True, ("#a",), ()),
            (1, "bad day", False, (), ()),
            # user 2: 4 words (money 2, posemo 1, affect 1); 1 of 3 tweets
            # positive, 1 with a url.
            (2, "money money", True, (), ("http://t.co/x",)),
            (2, "good", False, (), ()),
            (2, "plain", False, (), ()),
            # user 3: 4 words (work 3, negemo 1, affect 1); its one tweet
            # negative and with a hashtag.
            (3, "work work work bad", False, ("#b",), ()),
            # user 4: 3 words (posemo 2, affect 2); 1 of 2 tweets positive,
            # 1 with a url.
            (4, "plain", False, (), ()),
            (4, "good good", False, (), ("http://t.co/y",)),
        ]
        return make_corpus([
            make_tweet(id=i, user_id=u, text=text, deleted=deleted, hashtags=tags, urls=urls)
            for i, (u, text, deleted, tags, urls) in enumerate(rows, 1)
        ])

    def test_hand_computed_medians(self, resources):
        corpus = self._corpus()
        deleters, non_deleters = partition_users(corpus)
        assert (deleters, non_deleters) == ({1, 2}, {3, 4})
        medians = category_medians(corpus, resources, deleters, non_deleters)
        # (non-deleter median, deleter median); a median of two users is
        # their mean. Per-user values in the order (3, 4) and (1, 2).
        expected = {
            "lexicon_posemo": ((0.0 + 200 / 3) / 2, (25.0 + 25.0) / 2),
            "lexicon_negemo": ((25.0 + 0.0) / 2, (25.0 + 0.0) / 2),
            "lexicon_affect": ((25.0 + 200 / 3) / 2, (50.0 + 25.0) / 2),
            "lexicon_work": ((75.0 + 0.0) / 2, (25.0 + 0.0) / 2),
            "lexicon_money": (0.0, (0.0 + 50.0) / 2),
            "tweets_w_positive_sentiment": ((0.0 + 50.0) / 2, (50.0 + 100 / 3) / 2),
            "tweets_w_negative_sentiment": ((100.0 + 0.0) / 2, (50.0 + 0.0) / 2),
            "tweets_w_hashtags": ((100.0 + 0.0) / 2, (50.0 + 0.0) / 2),
            "tweets_w_urls": ((0.0 + 50.0) / 2, (0.0 + 100 / 3) / 2),
        }
        n_categories = len(resources.lexicon.category_names)
        assert len(medians) == n_categories + 4
        for attr, pair in expected.items():
            assert medians[attr] == pytest.approx(pair), attr
        for attr in set(medians) - set(expected):
            assert medians[attr] == (0.0, 0.0), attr

    def test_pair_order_is_non_deleter_first(self, resources):
        corpus = self._corpus()
        deleters, non_deleters = partition_users(corpus)
        swapped = category_medians(corpus, resources, non_deleters, deleters)
        medians = category_medians(corpus, resources, deleters, non_deleters)
        assert medians["lexicon_money"] == (0.0, 25.0)
        assert swapped == {attr: (d, n) for attr, (n, d) in medians.items()}


class TestTemporalHistogram:
    def test_single_hour(self):
        tweets = [make_tweet(id=i, created_at=ts(hours=23, minutes=i)) for i in range(1, 6)]
        histo = temporal_histogram(tweets)
        assert histo[23] == pytest.approx(100.0)
        assert sum(histo) == pytest.approx(100.0, abs=1e-9)

    def test_sums_to_100(self):
        rng = np.random.default_rng(3)
        tweets = [
            make_tweet(id=i, created_at=ts(hours=int(rng.integers(0, 24)), minutes=i % 60, days=int(rng.integers(0, 13))))
            for i in range(1, 200)
        ]
        assert sum(temporal_histogram(tweets)) == pytest.approx(100.0, abs=1e-9)

    def test_uniform_generator(self):
        rng = np.random.default_rng(4)
        tweets = [
            make_tweet(id=i, created_at=ts(days=int(rng.integers(0, 13)), hours=int(rng.integers(0, 24))))
            for i in range(1, 4801)
        ]
        histo = temporal_histogram(tweets)
        for pct in histo:
            assert pct == pytest.approx(100 / 24, abs=1.5)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            temporal_histogram([])


class TestResponseReport:
    def test_no_responses(self):
        corpus = make_corpus([make_tweet(id=1), make_tweet(id=2, deleted=True)])
        report = response_report(corpus, first_replies(corpus))
        assert report.deleted.pct_with_replies == 0.0
        assert report.non_deleted.pct_with_replies == 0.0
        assert report.median_first_reply_sec_all is None

    def test_replied_then_deleted_medians(self):
        # one deleted tweet, replied after 85 s, deleted after 5h49m
        target = make_tweet(
            id=1, user_id=1, created_at=ts(hours=1), deleted=True,
            deletion_lag_sec=20940, reply_ids=(2,),
        )
        reply = make_tweet(
            id=2, user_id=2, created_at=ts(hours=1, seconds=85),
            text="a reply", in_reply_to_id=1,
        )
        corpus = make_corpus([target, reply])
        report = response_report(corpus, first_replies(corpus))
        assert report.deleted.median_first_reply_sec == pytest.approx(85.0)
        assert report.median_deletion_lag_sec == pytest.approx(20940.0)
        assert report.median_deletion_lag_sec_replied == pytest.approx(20940.0)

    def test_constructed_percentages(self):
        tweets = [
            make_tweet(id=1, user_id=1, created_at=ts(hours=1), deleted=True, reply_ids=(10,)),
            make_tweet(id=2, user_id=1, created_at=ts(hours=2), deleted=True),
            make_tweet(id=3, user_id=1, created_at=ts(hours=3), retweet_ids=(11,)),
            make_tweet(id=4, user_id=1, created_at=ts(hours=4)),
            make_tweet(id=10, user_id=2, created_at=ts(hours=5), in_reply_to_id=1),
            make_tweet(id=11, user_id=3, created_at=ts(hours=6), retweet_of_id=3),
        ]
        corpus = make_corpus(tweets)
        report = response_report(corpus, first_replies(corpus))
        assert report.deleted.pct_with_replies == pytest.approx(50.0)
        assert report.non_deleted.pct_with_retweets == pytest.approx(25.0)

    def test_first_reply_is_earliest(self):
        target = make_tweet(id=1, user_id=1, created_at=ts(hours=1), reply_ids=(2, 3))
        late = make_tweet(id=3, user_id=2, created_at=ts(hours=3), in_reply_to_id=1)
        early = make_tweet(id=2, user_id=3, created_at=ts(hours=2), in_reply_to_id=1)
        corpus = make_corpus([target, late, early])
        report = response_report(corpus, first_replies(corpus))
        assert report.non_deleted.median_first_reply_sec == pytest.approx(3600.0)


class TestReplySentimentSplit:
    def test_all_positive(self, resources):
        target = make_tweet(id=1, user_id=1, created_at=ts(hours=1), deleted=True, reply_ids=(2,))
        reply = make_tweet(id=2, user_id=2, created_at=ts(hours=2), text="good stuff", in_reply_to_id=1)
        corpus = make_corpus([target, reply])
        split = sentiment_split(corpus, resources)
        assert split["deleted"]["pct_positive"] == pytest.approx(100.0)
        assert split["deleted"]["pct_negative"] == 0.0

    def test_two_to_one_ratio(self, resources):
        tweets = [
            make_tweet(id=1, user_id=1, created_at=ts(hours=1), deleted=True, reply_ids=(11,)),
            make_tweet(id=2, user_id=1, created_at=ts(hours=2), deleted=True, reply_ids=(12,)),
            make_tweet(id=3, user_id=1, created_at=ts(hours=3), deleted=True, reply_ids=(13,)),
            make_tweet(id=11, user_id=2, created_at=ts(hours=4), text="good", in_reply_to_id=1),
            make_tweet(id=12, user_id=2, created_at=ts(hours=5), text="great", in_reply_to_id=2),
            make_tweet(id=13, user_id=2, created_at=ts(hours=6), text="awful", in_reply_to_id=3),
        ]
        corpus = make_corpus(tweets)
        split = sentiment_split(corpus, resources)
        assert split["deleted"]["pct_positive"] == pytest.approx(200 / 3, abs=0.01)
        assert split["deleted"]["pct_negative"] == pytest.approx(100 / 3, abs=0.01)

    def test_zero_score_counted_separately(self, resources):
        target = make_tweet(id=1, user_id=1, created_at=ts(hours=1), reply_ids=(2,))
        reply = make_tweet(id=2, user_id=2, created_at=ts(hours=2), text="neutral words", in_reply_to_id=1)
        corpus = make_corpus([target, reply])
        split = sentiment_split(corpus, resources)
        g = split["non_deleted"]
        assert g["pct_zero"] == pytest.approx(100.0)
        assert g["pct_positive"] == 0.0 and g["pct_negative"] == 0.0


def annotation_item(item_id, group, regret, answers=None):
    return {
        "item_id": item_id,
        "group": group,
        "answers": answers or {},
        "regret": regret,
    }


class TestAggregateAnnotations:
    def test_majority_rule(self):
        items = [
            annotation_item(1, "deleted", ["yes", "yes", "no"],
                            {"expressive": ["yes", "yes", "no"]}),
            annotation_item(2, "non_deleted", ["no", "no", "no"],
                            {"expressive": ["yes", "no", "cant_say"]}),
        ]
        out = aggregate_annotations(items)
        assert out["labels"][0]["categories"] == ["expressive"]
        assert out["labels"][1]["categories"] == []
        assert out["labels"][1]["unclassified"] == ["expressive"]

    def test_regret_sixteen_vs_six_reference(self):
        items = []
        for i in range(100):
            items.append(
                annotation_item(i, "deleted", ["yes"] * 3 if i < 16 else ["no"] * 3)
            )
        for i in range(100):
            items.append(
                annotation_item(100 + i, "non_deleted", ["yes"] * 3 if i < 6 else ["no"] * 3)
            )
        out = aggregate_annotations(items)
        fisher = out["regret"]["fisher"]
        assert fisher["effect"] == pytest.approx(0.335, abs=0.005)
        assert fisher["p_two_sided"] == pytest.approx(0.04, abs=0.01)
        assert out["regret"]["yes_deleted"] == 16
        assert out["regret"]["yes_non_deleted"] == 6

    def test_agreement_rates(self):
        items = [
            annotation_item(1, "deleted", ["yes", "yes", "yes"]),
            annotation_item(2, "non_deleted", ["yes", "yes", "no"]),
            annotation_item(3, "non_deleted", ["yes", "no", "cant_say"]),
        ]
        out = aggregate_annotations(items)
        assert out["agreement"]["unanimous_rate"] == pytest.approx(1 / 3)
        assert out["agreement"]["majority_rate"] == pytest.approx(2 / 3)

    def test_malformed_answer_rejected(self):
        items = [annotation_item(1, "deleted", ["yes", "maybe", "no"])]
        with pytest.raises(ValidationError):
            aggregate_annotations(items)

    def test_unhashable_answer_rejected(self):
        items = [annotation_item(1, "deleted", [["x"], "no", "no"])]
        with pytest.raises(ValidationError):
            aggregate_annotations(items)

    def test_wrong_answer_count_rejected(self):
        items = [annotation_item(1, "deleted", ["yes", "yes"])]
        with pytest.raises(ValidationError):
            aggregate_annotations(items)


class TestGroupCompareReport:
    def test_rows_shape_on_synth(self, synth_small, resources):
        attrs = analytics.structural_extractors()
        rows = compare_report(synth_small.cleaned, resources, attrs)
        names = [r["attribute"] for r in rows]
        assert "tweets_w_hashtags" in names and "replies" in names
        for row in rows:
            assert "ntd" in row
            assert row.get("nud") is not None or "nud_error" in row

    def test_linguistic_extractors_cover_lexicon(self, resources):
        attrs = analytics.linguistic_extractors(resources)
        names = {a.name for a in attrs}
        assert "lexical_density" in names
        assert "pos_proper_noun" in names
        assert "lexicon_swear" in names


class TestSharedMeasurements:
    def test_analyze_tokenizes_each_text_once(self, synth_small, tmp_path, monkeypatch):
        from regretstream import textkit
        from regretstream.cli import main

        path = tmp_path / "cleaned.json"
        synth_small.cleaned.save(path)
        calls = []
        tokenize = textkit.tokenize

        def counting(text):
            calls.append(text)
            return tokenize(text)

        monkeypatch.setattr(textkit, "tokenize", counting)
        assert main(["analyze", "--corpus", str(path), "--out", str(tmp_path / "r")]) == 0
        assert len(calls) == len({t.text for t in synth_small.cleaned})
        assert len(calls) == len(set(calls))

    def test_ntd_row_with_no_words_on_one_side_keeps_error(self, resources):
        words_attr = analytics.linguistic_extractors(resources)[-1]
        assert words_attr.kind == "token_fraction" and words_attr.name.startswith("lexicon_")
        tweets = [
            make_tweet(id=1, deleted=True, text="123 !!"),
            make_tweet(id=2, deleted=True, text="42"),
            make_tweet(id=3, text="good words here"),
        ]
        (row,) = compare_report(make_corpus(tweets), resources, [words_attr])
        assert row["ntd"] is None
        assert row["ntd_error"] == "each row of the contingency table must be nonempty"

    def test_nud_user_with_no_words_on_one_side_not_flagged(self, resources):
        good = AttributeExtractor("good_words", "token_fraction", "good", "n_words")
        tweets = []
        for i in range(12):
            # user 1: no word tokens in any deleted tweet
            tweets.append(make_tweet(id=100 + i, user_id=1, deleted=True, text="123"))
            tweets.append(make_tweet(id=200 + i, user_id=1, text="good day"))
            # user 2: "good" only in kept tweets, so flagged on the kept side
            tweets.append(make_tweet(id=300 + i, user_id=2, deleted=True, text="bad day"))
            tweets.append(make_tweet(id=400 + i, user_id=2, text="good good"))
        corpus = make_corpus(tweets)
        table = MeasurementTable(corpus, resources, {"n_words": True})
        table.columns["good"] = np.array([tokenize(t.text).words().count("good") for t in corpus])
        value, detail = nud(good, table)
        assert set(detail.eligible_users) == {1, 2}
        assert detail.higher_in_nondeleted == [2]
        assert detail.higher_in_deleted == []
        assert value == pytest.approx(-100.0)


# Texts with no tokens, with tokens but no words, and with tagger, lexicon
# and valence hits; repeated, so that scalar columns tie.
WORDLESS_TEXTS = ("", "123", "!! ?")
ORACLE_TEXTS = WORDLESS_TEXTS + (
    "good", "bad day", "work work money", "The Cat runs quickly",
    "not good at all", ":) lol", "plain day", "Amazing tiny houses were built",
)


@st.composite
def oracle_corpora(draw):
    """Small corpora with NUD-eligible users (10+ deleted and 10+ kept
    tweets), a user with exactly 9 deleted tweets, and a few others. User
    2's deleted tweets have no tokens (an empty NUD side); in some corpora
    no deleted tweet has a word (an empty NTD side). User ids from 2**63 up
    do not fit an int64."""
    sizes = [(draw(st.integers(10, 12)), draw(st.integers(10, 12))) for _ in range(2)]
    sizes.append((9, draw(st.integers(10, 12))))
    sizes += draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=3))
    wordless_deletions = draw(st.booleans())
    tweets = []
    for user, (n_del, n_kept) in enumerate(sizes, 1):
        user_id = user * 2 ** 62
        for k in range(n_del + n_kept):
            tid = len(tweets) + 1
            if k < n_del and user == 2:
                texts = ("",)
            elif k < n_del and wordless_deletions:
                texts = WORDLESS_TEXTS
            else:
                texts = ORACLE_TEXTS
            tweets.append(make_tweet(
                id=tid, user_id=user_id, created_at=ts(minutes=tid), deleted=k < n_del,
                text=draw(st.sampled_from(texts)),
                hashtags=("#x",) if draw(st.booleans()) else (),
                urls=("http://t.co/x",) if draw(st.booleans()) else (),
                mentions=("@y",) if draw(st.booleans()) else (),
                in_reply_to_id=draw(st.sampled_from((None, 1))),
            ))
    return make_corpus(tweets)


class TestColumnarOracle:
    @given(oracle_corpora())
    @settings(max_examples=30, deadline=None)
    def test_reports_equal_lambda_path(self, resources, corpus):
        deleters, non_deleters = partition_users(corpus)
        attrs = analytics.structural_extractors() + analytics.linguistic_extractors(resources)
        table = analysis_table(corpus, resources, attrs, traits=True)
        memo = oracles.RecordMemo(resources)
        got = analytics.group_compare_report(table, attrs)
        want = oracles.lambda_group_compare_report(
            corpus, oracles.lambda_attributes(resources), memo
        )
        assert json.dumps(got) == json.dumps(want)
        assert all(row.get("nud_error") != "NUD undefined: no eligible users" for row in got)
        got = analytics.user_category_medians(table, resources.lexicon, deleters, non_deleters)
        want = oracles.loop_user_category_medians(corpus, memo, deleters, non_deleters)
        assert json.dumps(got) == json.dumps(want)

    def test_one_table_serves_every_family(self, synth_small, resources):
        """The table of a run with every family gives each family the report
        that a table of that family alone gives, and the oracles' report."""
        corpus = synth_small.cleaned
        deleters, non_deleters = partition_users(corpus)
        attrs = analytics.structural_extractors() + analytics.linguistic_extractors(resources)
        firsts = first_replies(corpus)
        assert firsts
        memo = oracles.RecordMemo(resources)
        both = analysis_table(corpus, resources, attrs, traits=True, firsts=firsts)
        for table in (both, analysis_table(corpus, resources, attrs)):
            got = analytics.group_compare_report(table, attrs)
            want = oracles.lambda_group_compare_report(
                corpus, oracles.lambda_attributes(resources), memo
            )
            assert json.dumps(got) == json.dumps(want)
        for table in (both, analysis_table(corpus, resources, traits=True)):
            got = analytics.user_category_medians(table, resources.lexicon, deleters, non_deleters)
            want = oracles.loop_user_category_medians(corpus, memo, deleters, non_deleters)
            assert json.dumps(got) == json.dumps(want)
        for table in (both, analysis_table(corpus, resources, firsts=firsts)):
            got = reply_sentiment_split(corpus, table, firsts)
            assert got == oracles.loop_reply_sentiment_split(corpus, memo, firsts)

    def test_zero_row_table(self, resources):
        table = MeasurementTable([], resources, dict.fromkeys(analytics.WORD_COLUMNS, True))
        assert table.columns["n_words"].shape == (0,)
        assert table.nud_users == []
        with pytest.raises(ValidationError):
            ntd(HASHTAG_ATTR, table)
        with pytest.raises(UndefinedDifferenceError):
            nud(HASHTAG_ATTR, table)


class TestAnalyzeWorkCounts:
    def test_stats_once_per_pool_tweet_and_timelines_once_per_family(
        self, synth_small, tmp_path, monkeypatch
    ):
        from regretstream import textkit
        from regretstream.cli import main
        from regretstream.events import Corpus

        path = tmp_path / "cleaned.json"
        synth_small.cleaned.save(path)
        deleters, _ = partition_users(synth_small.cleaned)
        pool = [t for t in synth_small.cleaned if t.user_id in deleters]
        n_users = len(synth_small.cleaned.user_ids())
        stats_calls, timelines = [], []
        text_stats, tweets_of = textkit.text_stats, Corpus.tweets_of
        monkeypatch.setattr(
            textkit, "text_stats", lambda *a: stats_calls.append(a) or text_stats(*a)
        )
        monkeypatch.setattr(
            Corpus, "tweets_of", lambda self, u: timelines.append(u) or tweets_of(self, u)
        )
        assert main(["analyze", "--corpus", str(path), "--out", str(tmp_path / "all")]) == 0
        assert len(stats_calls) == len(pool)
        for family in ("ntd", "nud", "users", "temporal", "response", "traits"):
            timelines.clear()
            out = str(tmp_path / family)
            assert main(["analyze", "--corpus", str(path), "--metrics", family, "--out", out]) == 0
            assert len(timelines) <= n_users, family

    @pytest.mark.parametrize(
        "metrics", ["ntd", "nud", "users", "temporal", "response", "traits", "ntd,traits,response"]
    )
    def test_each_family_measures_only_the_rows_it_reads(
        self, synth_small, tmp_path, monkeypatch, metrics
    ):
        """NTD/NUD tokenize and tag the pool rows (deleter-set users), the
        trait medians tokenize every row, the reply tone each first reply;
        no text is tokenized or tagged twice."""
        from regretstream import textkit
        from regretstream.cli import main

        corpus = synth_small.cleaned
        path = tmp_path / "cleaned.json"
        corpus.save(path)
        deleters, _ = partition_users(corpus)
        pool = {t.id for t in corpus if t.user_id in deleters}
        replies = {r.id for r in first_replies(corpus).values()}
        family = set(metrics.split(","))
        compared = bool(family & {"ntd", "nud"})
        tokenized = [t.text for t in corpus if "traits" in family
                     or (compared and t.id in pool) or ("response" in family and t.id in replies)]
        calls = {"tokenize": [], "pos_tag": []}
        for name in calls:
            real = getattr(textkit, name)
            monkeypatch.setattr(textkit, name, lambda first, *rest, real=real, name=name: (
                calls[name].append(first) or real(first, *rest)))
        assert main(["analyze", "--corpus", str(path), "--metrics", metrics,
                     "--out", str(tmp_path / "r")]) == 0
        assert sorted(calls["tokenize"]) == sorted(tokenized)
        assert len(calls["pos_tag"]) == (len(pool) if compared else 0)

    def test_each_record_made_once_and_released(self, synth_small, resources, monkeypatch):
        made = []
        real = analytics.TweetMeasurements

        def record(tweet, res):
            m = real(tweet, res)
            made.append(weakref.ref(m))
            return m

        monkeypatch.setattr(analytics, "TweetMeasurements", record)
        corpus = synth_small.cleaned
        attrs = analytics.structural_extractors() + analytics.linguistic_extractors(resources)
        table = analysis_table(corpus, resources, attrs, traits=True, firsts=first_replies(corpus))
        assert len(made) == len(corpus) == len(table.deleted)
        assert all(ref() is None for ref in made)
