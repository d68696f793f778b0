from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regretstream import textkit
from regretstream.cleanup import (
    CleanupConfig,
    CleanupReport,
    NearDuplicates,
    detect_superficial,
    load_whitelist,
    run_cleanup,
)
from regretstream.codec import decode_config, encode_record
from regretstream.errors import ConfigError
from regretstream.textkit import edit_distance

import oracles
from conftest import call_counts, make_corpus, make_profile, make_tweet, record_builds, ts

WL = frozenset({"Twitter Web Client", "Twitter for iPhone", "TweetDeck", "HootSuite"})
CFG = CleanupConfig(client_whitelist=WL)


def deleted_tweet(text, id=1, user_id=1, hour=0):
    return make_tweet(id=id, user_id=user_id, created_at=ts(hours=hour), text=text, deleted=True)


def followup(text, id=100, user_id=1, hour=1):
    return make_tweet(id=id, user_id=user_id, created_at=ts(hours=hour), text=text)


# 20 golden cases pinning the strict thresholds: (deleted_text,
# followup_texts, expected). Commentary marks the boundary pairs.
def _cosine_text(w_count: int, z_count: int) -> str:
    return " ".join(["w"] * w_count + ["z"] * z_count)


GOLDEN_CASES = [
    # 1: classic typo fix, distance 1
    ("Good mornng all", ["Good morning all"], True),
    # 2: identical repost, distance 0
    ("same text here", ["same text here"], True),
    # 3: distance exactly 4 (strictly below 5) via 4 substitutions
    ("aaaa bbbb cccc", ["zzza bbbb cccz"], True),
    # 4: distance exactly 5 and low cosine -> not superficial
    ("abcdefghij", ["vwxyzfghij"], False),
    # 5: distance 6 but cosine 0.816 ( > 0.6 ) -> superficial via cosine
    ("alpha beta", ["alpha beta gammas"], True),
    # 6: three unrelated followups
    ("totally original thought", ["pizza tonight", "going for a run", "new phone arrived"], False),
    # 7: empty followups
    ("anything at all", [], False),
    # 8: match on the second followup
    ("helo wrld today", ["unrelated words entirely", "hello world today"], True),
    # 9: match on the third followup
    ("helo wrld today", ["first filler tweet", "second filler tweet", "hello world today"], True),
    # 10: cosine exactly 0.6 (3 shared / (1 * 5)), distance 12 -> false
    ("w", [_cosine_text(3, 4)], False),
    # 11: cosine just above 0.6 -> true
    ("w", [_cosine_text(3000, 3999)], True),
    # 12: both at their boundaries (distance 5, cosine 0.6) -> false
    ("aaaaa", ["bbbbb"], False),
    # 13: case-flipped text: high distance, cosine 1.0 -> true
    ("DOG CAT BIRD FISH", ["dog cat bird fish"], True),
    # 14: disjoint vocab and long distance
    ("completely different message", ["nothing shared whatsoever"], False),
    # 15: empty deleted text vs short followup (distance < 5)
    ("", ["hml"], True),
    # 16: empty vs long followup (distance >= 5, cosine 0)
    ("", ["a much longer followup text"], False),
    # 17: distance 2 via two edits
    ("twete about stuff", ["tweet about stuff"], True),
    # 18: shared word but cosine 0.5 (1 shared / (1*2)), distance >= 5
    ("w", ["w z z z longer tail pads"], False),
    # 19: near-dup present but beyond the 3-followup window
    ("helo wrld today", ["f1 x", "f2 y", "f3 z", "hello world today"], False),
    # 20: unicode tweak, distance 1
    ("café time", ["cafe time"], True),
]


class TestDetectSuperficial:
    @pytest.mark.parametrize("case_no", range(1, len(GOLDEN_CASES) + 1))
    def test_golden_cases(self, case_no):
        text, followups, expected = GOLDEN_CASES[case_no - 1]
        deleted = deleted_tweet(text)
        fus = [followup(t, id=100 + i, hour=1 + i) for i, t in enumerate(followups)]
        assert detect_superficial(deleted, fus, CFG) is expected, (case_no, text)

    def test_boundary_values_confirmed(self):
        # sanity-pin the constructions used by the golden cases
        assert edit_distance("aaaa bbbb cccc", "zzza bbbb cccz") == 4
        assert edit_distance("abcdefghij", "vwxyzfghij") == 5
        assert edit_distance("aaaaa", "bbbbb") == 5
        assert oracles.term_cosine("aaaaa", "bbbbb") == 0.0
        assert oracles.term_cosine("w", _cosine_text(3, 4)) == 0.6
        assert oracles.term_cosine("w", _cosine_text(3000, 3999)) > 0.6
        assert oracles.term_cosine("alpha beta", "alpha beta gammas") > 0.6

    def test_lookahead_respected(self):
        deleted = deleted_tweet("helo wrld today")
        fus = [followup(t, id=100 + i, hour=1 + i) for i, t in enumerate(["a b", "c d", "hello world today"])]
        assert detect_superficial(deleted, fus, CFG)
        tight = CleanupConfig(client_whitelist=WL, superficial_lookahead=2)
        assert not detect_superficial(deleted, fus, tight)


def build_mixed_corpus():
    """10 tweets: 2 non-English, 1 bad source, 3 retweets, 1 superficial
    deletion (plus its correction), 3 ordinary keepers."""
    tweets = [
        make_tweet(id=1, user_id=1, created_at=ts(hours=1), text="hola amigos", lang="es"),
        make_tweet(id=2, user_id=2, created_at=ts(hours=2), text="bonjour tout", lang="fr"),
        make_tweet(id=3, user_id=3, created_at=ts(hours=3), text="autoposted stuff", source="twittbot.net"),
        make_tweet(id=4, user_id=4, created_at=ts(hours=4), text="rt content one", retweet_of_id=900),
        make_tweet(id=5, user_id=4, created_at=ts(hours=5), text="rt content two", retweet_of_id=901),
        make_tweet(id=6, user_id=5, created_at=ts(hours=6), text="rt content three", retweet_of_id=902),
        make_tweet(id=7, user_id=6, created_at=ts(hours=7), text="Good mornng all", deleted=True),
        make_tweet(id=8, user_id=6, created_at=ts(hours=8), text="Good morning all"),
        make_tweet(id=9, user_id=7, created_at=ts(hours=9), text="keeper tweet alpha"),
        make_tweet(id=10, user_id=8, created_at=ts(hours=10), text="keeper tweet beta"),
    ]
    return make_corpus(tweets)


class TestRunCleanup:
    def test_constructed_fixture_counts(self):
        corpus = build_mixed_corpus()
        cleaned, report = run_cleanup(corpus, CFG)
        assert report.stages["non_language"]["removed"] == 2
        assert report.stages["non_whitelisted"]["removed"] == 1
        assert report.stages["retweets"]["removed"] == 3
        assert report.stages["superficial"]["removed"] == 1
        assert report.retained["tweets"] == 3
        assert {t.id for t in cleaned} == {8, 9, 10}

    def test_identity_on_clean_corpus(self):
        tweets = [
            make_tweet(id=i, user_id=i, created_at=ts(hours=i), text=f"totally unique text {i}")
            for i in range(1, 6)
        ]
        corpus = make_corpus(tweets)
        cleaned, report = run_cleanup(corpus, CFG)
        assert report.retained["tweets"] == 5
        assert [encode_record(t) for t in cleaned] == [encode_record(t) for t in corpus]

    def test_removal_conservation(self):
        corpus = build_mixed_corpus()
        _, report = run_cleanup(corpus, CFG)
        removed = sum(sc["removed"] for sc in report.stages.values())
        assert removed + report.retained["tweets"] == report.input["tweets"]

    def test_empty_whitelist_rejected(self):
        corpus = build_mixed_corpus()
        with pytest.raises(ConfigError):
            run_cleanup(corpus, CleanupConfig(client_whitelist=frozenset()))

    def test_idempotence_on_fixture(self):
        corpus = build_mixed_corpus()
        once, _ = run_cleanup(corpus, CFG)
        twice, report2 = run_cleanup(once, CFG)
        assert [encode_record(t) for t in twice] == [encode_record(t) for t in once]
        assert sum(sc["removed"] for sc in report2.stages.values()) == 0

    def test_superficial_removed_not_relabeled(self):
        corpus = build_mixed_corpus()
        cleaned, _ = run_cleanup(corpus, CFG)
        assert cleaned.get(7) is None

    def test_window_shift_cascade(self):
        # timeline A(del) B(del) C E F with E ~ B and F ~ A: removing B
        # shifts A's 3-slot window onto F, so A is removed on the second
        # pass of the fixpoint.
        tweets = [
            make_tweet(id=1, user_id=1, created_at=ts(hours=1), text="alpha beta gamma", deleted=True),
            make_tweet(id=2, user_id=1, created_at=ts(hours=2), text="delta epsilon zeta", deleted=True),
            make_tweet(id=3, user_id=1, created_at=ts(hours=3), text="unrelated one x"),
            make_tweet(id=4, user_id=1, created_at=ts(hours=4), text="delta epsilon zeta"),
            make_tweet(id=5, user_id=1, created_at=ts(hours=5), text="alpha beta gamma"),
        ]
        corpus = make_corpus(tweets)
        cleaned, report = run_cleanup(corpus, CFG)
        assert report.stages["superficial"]["removed"] == 2
        assert cleaned.get(1) is None and cleaned.get(2) is None

    def test_response_links_pruned(self):
        target = make_tweet(
            id=1, user_id=1, created_at=ts(hours=1), text="target tweet words",
            reply_ids=(2, 3),
        )
        keep_reply = make_tweet(id=2, user_id=2, created_at=ts(hours=2), text="kept reply", in_reply_to_id=1)
        drop_reply = make_tweet(id=3, user_id=3, created_at=ts(hours=3), text="dropped reply", lang="es", in_reply_to_id=1)
        corpus = make_corpus([target, keep_reply, drop_reply])
        cleaned, _ = run_cleanup(corpus, CFG)
        assert cleaned.get(1).reply_ids == (2,)

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=20, deadline=None)
    def test_idempotence_random_corpora(self, rnd):
        words = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta"]
        tweets = []
        tid = 1
        for user in (1, 2, 3):
            for k in range(rnd.randint(2, 8)):
                n = rnd.randint(1, 4)
                text = " ".join(rnd.choice(words) for _ in range(n))
                deleted = rnd.random() < 0.4
                tweets.append(
                    make_tweet(
                        id=tid, user_id=user, created_at=ts(hours=tid),
                        text=text, deleted=deleted,
                    )
                )
                tid += 1
        corpus = make_corpus(tweets)
        once, _ = run_cleanup(corpus, CFG)
        twice, report2 = run_cleanup(once, CFG)
        assert [encode_record(t) for t in twice] == [encode_record(t) for t in once]
        assert report2.stages["superficial"]["removed"] == 0


# Texts over a few words, some cut by up to two characters, so that pairs
# fall on both sides of both thresholds.
_TEXTS = st.builds(lambda words, cut: " ".join(words)[cut:],
                   st.lists(st.sampled_from(["alpha", "beta", "gamma", "Beta", "d"]), max_size=5),
                   st.integers(0, 2))


class TestNearDuplicatesMatchOracle:
    """The memoized predicate against the text-in oracle, which works
    every pair out anew."""

    @given(st.lists(st.tuples(_TEXTS, _TEXTS), max_size=30))
    @settings(max_examples=200, deadline=None)
    def test_one_judge_over_many_pairs(self, pairs):
        judge = NearDuplicates(CFG)
        for a, b in pairs + pairs[::-1] + [(b, a) for a, b in pairs]:
            assert judge.near_duplicate(a, b) is oracles.near_duplicate(a, b, CFG), (a, b)

    @given(st.lists(st.tuples(_TEXTS, st.booleans(), st.sampled_from([1, 2])), max_size=14),
           st.integers(1, 3))
    @settings(max_examples=200, deadline=None)
    def test_fixpoint_removes_what_rescanning_every_window_removes(self, rows, lookahead):
        # Two interleaved timelines share one judge; each removal shifts
        # the windows after it, which the fixpoint then scans again.
        cfg = CleanupConfig(client_whitelist=WL, superficial_lookahead=lookahead)
        corpus = make_corpus([
            make_tweet(id=i + 1, user_id=user, created_at=ts(hours=i), text=text, deleted=deleted)
            for i, (text, deleted, user) in enumerate(rows)
        ])
        cleaned, _ = run_cleanup(corpus, cfg)
        want = [t for user in corpus.user_ids()
                for t in oracles.superficial_fixpoint(corpus.tweets_of(user), cfg)]
        assert sorted(t.id for t in cleaned) == sorted(t.id for t in want)


class TestWorkDoneOnce:
    @pytest.mark.parametrize("kernel", ["tokenize", "edit_distance"])
    def test_each_text_or_pair_is_measured_once(self, synth_small, whitelist, monkeypatch,
                                                kernel):
        calls = call_counts(monkeypatch, textkit, kernel)
        run_cleanup(synth_small.corpus, CleanupConfig(client_whitelist=whitelist))
        assert calls and max(calls.values()) == 1

    def test_only_survivors_that_lose_a_link_are_rebuilt(self, synth_small, whitelist,
                                                        monkeypatch):
        built = record_builds(monkeypatch)
        cleaned, _ = run_cleanup(synth_small.corpus, CleanupConfig(client_whitelist=whitelist))

        def links(t):
            return t.reply_ids, t.retweet_ids, t.quote_ids
        pruned = {t.id for t in cleaned if links(t) != links(synth_small.corpus.get(t.id))}
        assert pruned and sorted(t.id for t in built) == sorted(pruned)
        assert all(t is synth_small.corpus.get(t.id) for t in cleaned if t.id not in pruned)


class TestReportAndConfig:
    def test_report_json_and_text(self):
        corpus = build_mixed_corpus()
        _, report = run_cleanup(corpus, CFG)
        payload = asdict(report)
        assert payload["retained"]["tweets"] == 3
        text = report.to_text()
        assert "Dataset before cleanup" in text
        assert "Dataset after cleanup" in text
        assert "Superficial deletions" in text

    def test_whitelist_file_loading(self, tmp_path):
        path = tmp_path / "wl.txt"
        path.write_text("# comment\nTweetDeck\n\nHootSuite\n")
        assert load_whitelist(path) == frozenset({"TweetDeck", "HootSuite"})

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            CleanupConfig(client_whitelist=WL, superficial_lookahead=0)
        with pytest.raises(ConfigError):
            CleanupConfig(client_whitelist=WL, cosine_min=1.5)

    def test_config_roundtrip(self):
        cfg = CleanupConfig(client_whitelist=WL, cosine_min=0.7)
        again = decode_config(CleanupConfig, encode_record(cfg))
        assert again == cfg


class TestSynthClosure:
    def test_filter_tallies_match_ledger_exactly(self, synth_small):
        sp = synth_small
        assert sp.report.stages == sp.summary["stages"]
        assert sp.report.retained == sp.summary["retained"]

    def test_ingest_stats_match_ledger(self, synth_small):
        sp = synth_small
        assert sp.corpus.stats.orphan_deletes == sp.summary["orphan_deletes"]
        assert sp.corpus.stats.late_deletes == sp.summary["late_deletes"]
        assert sp.corpus.stats.tweets_in == sp.summary["total_tweet_events"]
        assert sp.corpus.stats.deletes_in == sp.summary["total_delete_events"]
