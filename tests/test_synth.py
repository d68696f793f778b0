import functools
import hashlib
import json
import math
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conftest
import oracles
from regretstream import synth, textkit
from regretstream.cleanup import CleanupConfig
from regretstream.codec import decode_config, encode_record
from regretstream.errors import ConfigError, ValidationError
from regretstream.synth import (
    SynthConfig,
    generate_synthetic,
    load_ledger_summary,
    write_synthetic,
)

from conftest import call_counts, run_synth_pipeline


class TestConfig:
    def test_exclusive_fractions_must_fit(self):
        with pytest.raises(ConfigError):
            SynthConfig(non_english_fraction=0.5, automated_fraction=0.4, retweet_fraction=0.2)

    def test_nud_attribute_fractions_must_fit(self):
        # One roll draws both, so past 1 the reverse fraction would be capped.
        with pytest.raises(ConfigError, match=r"exclusive NUD attribute fractions sum to 1\.300 > 1 "
                                              r"\(nud_attr_skew \+ nud_attr_reverse\)"):
            SynthConfig(nud_attr_skew_fraction=0.8, nud_attr_reverse_fraction=0.5)
        SynthConfig(nud_attr_skew_fraction=0.8, nud_attr_reverse_fraction=0.2)

    def test_fraction_bounds(self):
        with pytest.raises(ConfigError):
            SynthConfig(deletion_rate=1.2)

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError):
            decode_config(SynthConfig, {"seed": 1, "mystery_knob": 2})

    def test_rate_range_ordering(self):
        with pytest.raises(ConfigError):
            SynthConfig(tweet_rate_min=3.0, tweet_rate_max=2.0)

    def test_file_roundtrip(self, tmp_path):
        cfg = SynthConfig(seed=9, n_users=10)
        path = tmp_path / "synth.json"
        path.write_text(json.dumps(encode_record(cfg)))
        assert SynthConfig.from_file(path) == cfg


class TestDeterminism:
    def test_same_seed_byte_identical_files(self, tmp_path):
        cfg = SynthConfig(seed=5, n_users=40)
        e1, l1 = tmp_path / "e1.jsonl", tmp_path / "l1.jsonl"
        e2, l2 = tmp_path / "e2.jsonl", tmp_path / "l2.jsonl"
        write_synthetic(cfg, e1, l1)
        write_synthetic(cfg, e2, l2)
        assert e1.read_bytes() == e2.read_bytes()
        assert l1.read_bytes() == l2.read_bytes()

    def test_golden_files(self, tmp_path):
        """The bytes a small config writes, pinned: the fixed reply, lag,
        text-length and entity draws keep their values."""
        epath, lpath = tmp_path / "e.jsonl", tmp_path / "l.jsonl"
        write_synthetic(SynthConfig(seed=5, n_users=40), epath, lpath)
        assert hashlib.sha256(epath.read_bytes()).hexdigest() == (
            "3a1254d28b21c2d0c4e2f7fbcf329e2ee791caf3c339a94f5bd0bb10b2e3e3fa")
        assert hashlib.sha256(lpath.read_bytes()).hexdigest() == (
            "86405ab994d2cab86d26a095ea73c1f0a9aafaf0674c41a004e34fab6f941796")

    def test_different_seed_differs(self, tmp_path):
        e1, l1 = tmp_path / "e1.jsonl", tmp_path / "l1.jsonl"
        e2, l2 = tmp_path / "e2.jsonl", tmp_path / "l2.jsonl"
        write_synthetic(SynthConfig(seed=5, n_users=40), e1, l1)
        write_synthetic(SynthConfig(seed=6, n_users=40), e2, l2)
        assert e1.read_bytes() != e2.read_bytes()

    def test_summary_loader(self, tmp_path):
        cfg = SynthConfig(seed=5, n_users=20)
        epath, lpath = tmp_path / "e.jsonl", tmp_path / "l.jsonl"
        summary = write_synthetic(cfg, epath, lpath)
        assert load_ledger_summary(lpath) == summary

    @pytest.mark.parametrize("line, reason", [
        (b"{bad", "not valid JSON"),
        (b"[1, 2]", "unexpected JSON shape"),
        (b'{"kind": "\xff"}', "not valid UTF-8"),
    ])
    def test_summary_loader_names_a_bad_line(self, tmp_path, line, reason):
        path = tmp_path / "ledger.jsonl"
        path.write_bytes(b'{"kind": "user"}\n' + line + b'\n{"kind": "summary"}\n')
        with pytest.raises(ValidationError) as exc:
            load_ledger_summary(path)
        assert str(exc.value).startswith(f"{path}: line 2: {reason}")

    def test_summary_loader_without_a_summary(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        path.write_text('{"kind": "user"}\n')
        with pytest.raises(ConfigError, match="no summary record found"):
            load_ledger_summary(path)


class TestLedger:
    def test_every_event_id_in_ledger(self):
        cfg = SynthConfig(seed=8, n_users=30)
        events, ledger = generate_synthetic(cfg)
        tweet_ids = {r["id"] for r in ledger if r.get("kind") == "tweet"}
        orphan_base = 10**15
        for ev in events:
            if ev["kind"] == "tweet":
                assert ev["id"] in tweet_ids
            else:
                assert ev["id"] in tweet_ids or ev["id"] >= orphan_base

    def test_summary_consistent_with_records(self):
        cfg = SynthConfig(seed=8, n_users=30)
        _, ledger = generate_synthetic(cfg)
        summary = ledger[-1]
        tweets = [r for r in ledger if r.get("kind") == "tweet"]
        assert summary["total_tweet_events"] == len(tweets)
        assert summary["input"]["deleted"] == sum(1 for r in tweets if r["deleted"])
        by_class = {}
        for r in tweets:
            by_class[r["filter_class"]] = by_class.get(r["filter_class"], 0) + 1
        assert summary["stages"]["non_language"]["removed"] == by_class.get("non_english", 0)
        assert summary["stages"]["retweets"]["removed"] == by_class.get("retweet", 0)
        superficial = sum(1 for r in tweets if r["superficial"])
        assert summary["stages"]["superficial"]["removed"] == superficial

    def test_superficial_only_among_clean_deleted(self):
        cfg = SynthConfig(seed=8, n_users=30)
        _, ledger = generate_synthetic(cfg)
        for r in ledger:
            if r.get("kind") == "tweet" and r["superficial"]:
                assert r["filter_class"] == "clean"
                assert r["deleted"]

    def test_closure_holds_for_the_cleanup_lookahead(self, whitelist, monkeypatch):
        """Planting and the near-duplicate guard read the cleanup's
        followup window, so a one-slot window still closes the ledger."""
        one_slot = functools.partial(CleanupConfig, superficial_lookahead=1)
        monkeypatch.setattr(synth, "CleanupConfig", one_slot)
        monkeypatch.setattr(conftest, "CleanupConfig", one_slot)
        sp = run_synth_pipeline(SynthConfig(n_users=80), whitelist)
        assert sp.summary["stages"]["superficial"]["removed"] > 0
        assert sp.report.stages == sp.summary["stages"]

    def test_zero_superficial_config(self, whitelist):
        cfg = SynthConfig(seed=4, n_users=40, superficial_fraction=0.0)
        sp = run_synth_pipeline(cfg, whitelist)
        assert sp.summary["stages"]["superficial"]["removed"] == 0
        assert sp.report.stages["superficial"]["removed"] == 0


class TextJudge:
    """``NearDuplicates`` without its memos: the text-in oracle decides
    every pair anew."""

    def __init__(self, cfg):
        self.cfg = cfg

    def near_duplicate(self, a: str, b: str) -> bool:
        return oracles.near_duplicate(a, b, self.cfg)


def _guarded_texts(rows, judge=None) -> list[str] | str:
    """The texts of clean tweets made from ``rows`` of (words, deleted,
    superficial, user id) once the near-duplicate guard has run, or its
    error, with ``synth.NearDuplicates`` replaced by ``judge`` if one is
    given."""
    tweets = []
    for i, (words, deleted, superficial, user_id) in enumerate(rows, start=1):
        t = synth._Tweet(id=i, user=SimpleNamespace(user_id=user_id), created_at=None,
                         filter_class="clean", deleted=deleted,
                         superficial=deleted and superficial, words=list(words))
        synth._render_text(t)
        tweets.append(t)
    with pytest.MonkeyPatch.context() as mp:
        if judge is not None:
            mp.setattr(synth, "NearDuplicates", judge)
        try:
            synth._guard_near_duplicates(tweets)
        except RuntimeError as exc:  # the guard did not converge
            return str(exc)
    return [t.text for t in tweets]


class TestNearDuplicateGuard:
    @given(st.lists(st.tuples(st.lists(st.sampled_from(["ab", "abc", "cd", "good", "sad"]),
                                       min_size=1, max_size=5),
                              st.booleans(), st.booleans(), st.sampled_from([1, 2])),
                    max_size=10))
    @settings(max_examples=150, deadline=None)
    def test_resampled_texts_are_judged_as_the_oracle_judges_them(self, rows):
        assert _guarded_texts(rows) == _guarded_texts(rows, TextJudge)

    def test_a_resampled_followup_is_judged_afresh(self):
        # Three deleted copies of one text: the first two are resampled in
        # turn, and the second is judged anew as the first one's followup.
        rows = [(["ab", "cd", "good"], True, False, 1)] * 3
        got = _guarded_texts(rows)
        assert got[0] != got[1] != "ab cd good" == got[2]
        assert got == _guarded_texts(rows, TextJudge)

    @pytest.mark.parametrize("words,copies", [(["ab", "cd"], 3), (["ab"], 5)])
    def test_copies_of_a_short_text_converge(self, words, copies):
        # A resampled word must stay one token, or two resamples of a short
        # text share the split-off token and stay near-duplicates.
        got = _guarded_texts([(words, True, False, 1)] * copies)
        assert isinstance(got, list) and got[-1] == " ".join(words)
        assert all(len(textkit.tokenize(text)) == len(words) for text in got)

    def test_each_text_is_tokenized_once(self, synth_small, monkeypatch):
        texts = call_counts(monkeypatch, textkit, "tokenize")
        generate_synthetic(synth_small.config)
        assert texts and max(texts.values()) == 1


class TestComposition:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_deletion_count_within_binomial_band(self, seed):
        cfg = SynthConfig(seed=seed, n_users=250, deletion_rate=0.1111)
        _, ledger = generate_synthetic(cfg)
        summary = ledger[-1]
        n = summary["total_tweet_events"]
        attempted = summary["attempted_deletions"]
        mean = cfg.deletion_rate * n
        sd = math.sqrt(n * cfg.deletion_rate * (1 - cfg.deletion_rate))
        assert abs(attempted - mean) <= 2.576 * sd, (attempted, mean, sd)

    def test_superficial_share_near_target(self):
        cfg = SynthConfig()
        _, ledger = generate_synthetic(cfg)
        summary = ledger[-1]
        clean_deleted = summary["retained"]["deleted"] + summary["stages"]["superficial"]["removed"]
        share = summary["stages"]["superficial"]["removed"] / clean_deleted
        assert share == pytest.approx(cfg.superficial_fraction, abs=0.01)

    def test_reply_rate_direction(self, synth_small):
        # replies to deleted tweets are planted at a lower rate
        replied_deleted = replied_kept = deleted = kept = 0
        for t in synth_small.cleaned:
            if t.in_reply_to_id is not None or t.retweet_of_id is not None:
                continue
            if t.deleted:
                deleted += 1
                replied_deleted += bool(t.reply_ids)
            else:
                kept += 1
                replied_kept += bool(t.reply_ids)
        assert replied_deleted / deleted < replied_kept / kept

    def test_marker_families_balanced_marginally(self, synth_default):
        # the user-conditioned marker cannot be a marginal signal
        tweets = [r for r in synth_default.ledger if r.get("kind") == "tweet"]
        marked = [r for r in tweets if r["marker"] and r["filter_class"] == "clean"]
        pos_in_deleted = sum(1 for r in marked if r["marker"] == "pos" and r["deleted"])
        pos_in_kept = sum(1 for r in marked if r["marker"] == "pos" and not r["deleted"])
        deleted = sum(1 for r in marked if r["deleted"])
        kept = len(marked) - deleted
        assert pos_in_deleted / deleted == pytest.approx(pos_in_kept / kept, abs=0.08)
