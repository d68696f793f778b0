import csv
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import oracles
from conftest import make_corpus, make_tweet, run_synth_pipeline
from regretstream import analytics, classify, cli
from regretstream.cli import main
from regretstream.events import (
    CollectionWindow,
    Corpus,
    TweetRecord,
    build_corpus,
    parse_event,
    parse_rfc3339,
    read_events,
)
from regretstream.features import load_feature_matrix
from regretstream.resources import load_default_trait_map
from regretstream.synth import POST_START, SynthConfig

WINDOW = ("2015-08-03T00:00:00Z", "2015-08-17T00:00:00Z", "2015-08-24T00:00:00Z")
SRC = Path(__file__).resolve().parent.parent / "src"


def run_fresh(argv: list[str]) -> subprocess.CompletedProcess:
    """``python -m regretstream`` with ``argv``, in a new interpreter."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "regretstream", *argv], env=env,
                          capture_output=True, text=True, timeout=600)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A small synthetic stream driven end-to-end through the CLI."""
    root = tmp_path_factory.mktemp("cli")
    synth_cfg = root / "synth.json"
    synth_cfg.write_text(json.dumps({
        "seed": 3, "n_users": 60, "tweet_rate_min": 1.5, "tweet_rate_max": 2.2,
        "orphan_deletes": 1,
    }))
    assert main([
        "synth", "--config", str(synth_cfg),
        "--out-events", str(root / "events.jsonl"),
        "--out-ledger", str(root / "ledger.jsonl"),
    ]) == 0
    assert main([
        "ingest", "--events", str(root / "events.jsonl"),
        "--window", *WINDOW,
        "--out", str(root / "corpus.json"),
    ]) == 0
    assert main([
        "clean", "--corpus", str(root / "corpus.json"),
        "--out", str(root / "cleaned.json"),
        "--report", str(root / "cleanup.json"),
    ]) == 0
    return root


class TestSynthCommand:
    def test_byte_identical_reruns(self, workdir, tmp_path):
        cfg = workdir / "synth.json"
        for tag in ("a", "b"):
            assert main([
                "synth", "--config", str(cfg),
                "--out-events", str(tmp_path / f"e{tag}.jsonl"),
                "--out-ledger", str(tmp_path / f"l{tag}.jsonl"),
            ]) == 0
        assert (tmp_path / "ea.jsonl").read_bytes() == (tmp_path / "eb.jsonl").read_bytes()
        assert (tmp_path / "la.jsonl").read_bytes() == (tmp_path / "lb.jsonl").read_bytes()

    def test_seed_flag_overrides_config(self, workdir, tmp_path):
        cfg = workdir / "synth.json"
        assert main([
            "synth", "--config", str(cfg), "--seed", "99",
            "--out-events", str(tmp_path / "e.jsonl"),
            "--out-ledger", str(tmp_path / "l.jsonl"),
        ]) == 0
        assert (tmp_path / "e.jsonl").read_bytes() != (workdir / "events.jsonl").read_bytes()


class TestIngestCommand:
    def test_corpus_file_valid(self, workdir):
        corpus = Corpus.load(workdir / "corpus.json")
        assert len(corpus) > 0

    def test_missing_events_file_is_io_error(self, tmp_path):
        code = main([
            "ingest", "--events", str(tmp_path / "nope.jsonl"),
            "--window", *WINDOW, "--out", str(tmp_path / "c.json"),
        ])
        assert code == 2

    def test_bad_window_is_validation_error(self, workdir, tmp_path):
        code = main([
            "ingest", "--events", str(workdir / "events.jsonl"),
            "--window", WINDOW[1], WINDOW[0], WINDOW[2],
            "--out", str(tmp_path / "c.json"),
        ])
        assert code == 1

    def test_usage_error_exit_code(self):
        assert main(["ingest", "--events"]) == 1

    def test_id_beyond_int64_exits_1(self, tmp_path, capsys):
        event = {
            "kind": "tweet", "id": 2 ** 70, "user_id": 3, "created_at": "2015-08-05T10:00:00Z",
            "text": "hello", "user": {"user_id": 3, "account_created_at": "2014-01-01T00:00:00Z"},
        }
        events = tmp_path / "events.jsonl"
        events.write_text(json.dumps(event) + "\n")
        code = main(["ingest", "--events", str(events), "--window", *WINDOW,
                     "--out", str(tmp_path / "c.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {events}: line 1: invalid id") and "Traceback" not in err

    def test_author_id_mismatch_exits_1(self, tmp_path, capsys):
        event = {
            "kind": "tweet", "id": 1, "user_id": 30, "created_at": "2015-08-05T10:00:00Z",
            "text": "hello", "user": {"user_id": 31, "account_created_at": "2014-01-01T00:00:00Z"},
        }
        events = tmp_path / "events.jsonl"
        events.write_text(json.dumps(event) + "\n")
        code = main(["ingest", "--events", str(events), "--window", *WINDOW,
                     "--out", str(tmp_path / "c.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {events}: line 1: user.user_id 31") and "Traceback" not in err

    def test_non_integer_wire_field_exits_1(self, workdir, tmp_path, capsys):
        lines = (workdir / "events.jsonl").read_text().splitlines()
        n = next(i for i, line in enumerate(lines) if json.loads(line)["kind"] == "tweet")
        event = json.loads(lines[n])
        event["user"]["followers_count"] = "many"
        lines[n] = json.dumps(event)
        bad = tmp_path / "events.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        code = main(["ingest", "--events", str(bad), "--window", *WINDOW,
                     "--out", str(tmp_path / "c.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert f"line {n + 1}" in err and "user.followers_count" in err

    @pytest.mark.parametrize("strict", [False, True])
    def test_repeated_id_under_strict_exits_1(self, tmp_path, capsys, strict):
        user = {"user_id": 3, "account_created_at": "2014-01-01T00:00:00Z"}
        events = tmp_path / "events.jsonl"
        events.write_text("".join(json.dumps({
            "kind": "tweet", "id": tid, "user_id": 3, "created_at": "2015-08-05T10:00:00Z",
            "text": f"text {k}", "user": user,
        }) + "\n" for k, tid in enumerate((4, 5, 5))))
        out = tmp_path / "c.json"
        flags = ["--strict"] if strict else []
        code = main(["ingest", "--events", str(events), "--window", *WINDOW, "--out", str(out),
                     *flags])
        captured = capsys.readouterr()
        if not strict:  # the first occurrence wins
            assert code == 0
            assert [t.text for t in Corpus.load(out)] == ["text 0", "text 1"]
            return
        assert code == 1
        assert captured.err == f"error: {events}: duplicate tweet id 5\n"
        assert captured.out == ""
        assert not out.exists()

    # Wire values of another JSON type than their field's: (path, value).
    @pytest.mark.parametrize("path,value", [
        (("user", "followers_count"), "5"),
        (("user", "bio_length"), 5.7),
        (("has_geo",), "no"),
        (("quoted_id",), True),
        (("hashtags",), "#tag"),
    ])
    def test_wire_value_of_another_json_type_exits_1(self, tmp_path, capsys, path, value):
        event = {
            "kind": "tweet", "id": 5, "user_id": 3, "created_at": "2015-08-05T10:00:00Z",
            "text": "hello", "user": {"user_id": 3, "account_created_at": "2014-01-01T00:00:00Z"},
        }
        parent = event
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        events = tmp_path / "events.jsonl"
        events.write_text(json.dumps(event) + "\n")
        code = main(["ingest", "--events", str(events), "--window", *WINDOW,
                     "--out", str(tmp_path / "c.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {events}: line 1: invalid {'.'.join(path)}: ")
        assert "Traceback" not in err
        assert not (tmp_path / "c.json").exists()


class TestCleanCommand:
    def test_report_written(self, workdir):
        report = json.loads((workdir / "cleanup.json").read_text())
        assert set(report["stages"]) == {"non_language", "non_whitelisted", "retweets", "superficial"}
        removed = sum(s["removed"] for s in report["stages"].values())
        assert removed + report["retained"]["tweets"] == report["input"]["tweets"]

    def test_cleaned_corpus_loadable(self, workdir):
        cleaned = Corpus.load(workdir / "cleaned.json")
        assert all(t.lang == "en" for t in cleaned)


class TestFeaturizeCommand:
    def test_rsf1_output(self, workdir, tmp_path):
        out = tmp_path / "features.rsf1"
        assert main([
            "featurize", "--corpus", str(workdir / "cleaned.json"),
            "--out", str(out), "--with-responses",
        ]) == 0
        matrix = load_feature_matrix(out)
        assert matrix.dense.shape[1] == 112
        assert matrix.response.shape[1] == 93

    def test_pretagged_input_honored(self, workdir, tmp_path):
        from regretstream.textkit import RuleTagger, tokenize

        cleaned = Corpus.load(workdir / "cleaned.json")
        first = cleaned.tweets[0]
        n_tokens = len(tokenize(first.text))
        tags_path = tmp_path / "tags.jsonl"
        tags_path.write_text(json.dumps({"id": first.id, "tags": ["interjection"] * n_tokens}) + "\n")
        out = tmp_path / "features.rsf1"
        assert main([
            "featurize", "--corpus", str(workdir / "cleaned.json"),
            "--tags", str(tags_path), "--out", str(out),
        ]) == 0
        matrix = load_feature_matrix(out)
        row = list(matrix.tweet_ids).index(first.id)
        slot = 65 + RuleTagger.tagset.index("interjection")
        assert matrix.dense[row, slot] == n_tokens


class TestAnalyzeCommand:
    def test_all_metrics(self, workdir, tmp_path):
        out = tmp_path / "reports"
        assert main([
            "analyze", "--corpus", str(workdir / "cleaned.json"),
            "--metrics", "ntd,nud,users,temporal,response,traits",
            "--alpha", "0.05", "--out", str(out),
            "--structural-only",
        ]) == 0
        assert (out / "group_comparison.json").exists()
        assert (out / "group_comparison.csv").exists()
        assert (out / "user_groups.json").exists()
        assert (out / "ccdf_followers.csv").exists()
        assert (out / "temporal.json").exists()
        assert (out / "response.json").exists()
        assert (out / "traits.json").exists()
        temporal = json.loads((out / "temporal.json").read_text())
        assert sum(temporal["deleted"]) == pytest.approx(100.0, abs=1e-9)

    def test_every_loaded_lexicon_category_is_reported(self, workdir, tmp_path):
        lexicon = tmp_path / "lexicon.json"
        lexicon.write_text(json.dumps({"categories": [
            {"name": "_empty_swear", "patterns": ["damn"]}, {"name": "work", "patterns": ["job*"]},
        ]}))
        out = tmp_path / "reports"
        assert main([
            "analyze", "--corpus", str(workdir / "cleaned.json"), "--metrics", "ntd,traits",
            "--lexicon", str(lexicon), "--out", str(out),
        ]) == 0
        rows = json.loads((out / "group_comparison.json").read_text())
        lexicon_rows = [r["attribute"] for r in rows if r["attribute"].startswith("lexicon_")]
        assert lexicon_rows == ["lexicon__empty_swear", "lexicon_work"]
        medians = json.loads((out / "traits.json").read_text())["medians"]
        assert sorted(a for a in medians if a.startswith("lexicon_")) == lexicon_rows

    # damage -> (edit of tweet record 3, the field the error names)
    RECORD_DAMAGE = {
        "missing_lang": (lambda r: r.pop("lang"), "lang"),
        "bad_count": (lambda r: r["user"].update(followers_count="many"), "user.followers_count"),
        "nested_reply_ids": (lambda r: r.update(reply_ids=[[2]]), "reply_ids"),
        "object_reply_ids": (lambda r: r.update(reply_ids=[{"a": 1}]), "reply_ids"),
        "text_reply_target": (lambda r: r.update(in_reply_to_id="x"), "in_reply_to_id"),
        "text_lag": (lambda r: r.update(deleted=True, deletion_lag_sec="90"), "deletion_lag_sec"),
    }

    @pytest.mark.parametrize("damage", [
        "missing_lang", "bad_count", "truncated",
        "nested_reply_ids", "object_reply_ids", "text_reply_target", "text_lag",
    ])
    def test_malformed_corpus_exits_1(self, workdir, tmp_path, capsys, damage):
        path = tmp_path / "corpus.json"
        text = (workdir / "cleaned.json").read_text()
        if damage == "truncated":
            path.write_text(text[: len(text) // 2])
        else:
            payload = json.loads(text)
            edit, field = self.RECORD_DAMAGE[damage]
            edit(payload["tweets"][3])
            path.write_text(json.dumps(payload))
        code = main(["analyze", "--corpus", str(path), "--metrics", "temporal",
                     "--out", str(tmp_path / "r")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert str(path) in err
        if damage != "truncated":
            assert "tweet record 3" in err
            assert field in err

    # damage -> (edit of the corpus header, the text the error names)
    HEADER_DAMAGE = {
        "window_out_of_order": (
            lambda p: p["window"].update(post_end="2015-09-30T00:00:00Z"),
            "collection window requires post_start < post_end <= delete_end",
        ),
        "text_stats_count": (
            lambda p: p["stats"].update(tweets_in="many"), "invalid stats.tweets_in: 'many'",
        ),
    }

    @pytest.mark.parametrize("damage", sorted(HEADER_DAMAGE))
    def test_malformed_corpus_header_exits_1(self, workdir, tmp_path, capsys, damage):
        path = tmp_path / "corpus.json"
        payload = json.loads((workdir / "cleaned.json").read_text())
        edit, text = self.HEADER_DAMAGE[damage]
        edit(payload)
        path.write_text(json.dumps(payload))
        code = main(["analyze", "--corpus", str(path), "--metrics", "temporal",
                     "--out", str(tmp_path / "r")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: invalid corpus header: {text}")
        assert "Traceback" not in err

    @pytest.mark.parametrize("family", ["ntd", "nud"])
    def test_single_family_rows_carry_only_that_family(self, tmp_path, family):
        keys = {
            "ntd": {"ntd", "ntd_test", "ntd_error"},
            "nud": {"nud", "eligible_users", "del_sig_users", "nondel_sig_users",
                    "del_user_frac", "nondel_user_frac", "nud_error"},
        }
        path = tmp_path / "corpus.json"
        make_corpus([
            make_tweet(id=1, hashtags=("#x",), deleted=True),
            make_tweet(id=2),
        ]).save(path)
        out = tmp_path / "r"
        assert main(["analyze", "--corpus", str(path), "--metrics", family,
                     "--out", str(out)]) == 0
        rows = json.loads((out / "group_comparison.json").read_text())
        assert rows
        for row in rows:
            assert family in row
            assert set(row) - {"attribute", "kind"} <= keys[family], row["attribute"]

    def test_unknown_metric_rejected(self, workdir, tmp_path):
        code = main([
            "analyze", "--corpus", str(workdir / "cleaned.json"),
            "--metrics", "ntd,bogus", "--out", str(tmp_path / "r"),
        ])
        assert code == 1


def _degenerate_corpus(kind):
    if kind == "empty":
        return make_corpus([])
    tweets = [
        make_tweet(id=i, user_id=i % 3 + 1, text=text, deleted=kind == "all_deleted",
                   hashtags=("#x",) if i % 2 else ())
        for i, text in enumerate(["good day", "123", "", "bad work", "The Cat runs"], 1)
    ]
    return make_corpus(tweets)


def _json_file_bytes(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("kind", ["empty", "no_deleted", "all_deleted"])
def test_analyze_degenerate_corpus_matches_oracle(tmp_path, resources, kind):
    """A corpus with no pool tweets builds zero-row measurement tables."""
    corpus = _degenerate_corpus(kind)
    path = tmp_path / "corpus.json"
    corpus.save(path)
    out = tmp_path / "r"
    assert main(["analyze", "--corpus", str(path), "--metrics", "ntd,nud", "--out", str(out)]) == 0
    memo = oracles.RecordMemo(resources)
    rows = oracles.lambda_group_compare_report(corpus, oracles.lambda_attributes(resources), memo)
    assert (out / "group_comparison.json").read_text() == _json_file_bytes(rows)
    assert main(["analyze", "--corpus", str(path), "--metrics", "traits", "--out", str(out)]) == 0
    deleters, non_deleters = analytics.partition_users(corpus)
    medians = oracles.loop_user_category_medians(corpus, memo, deleters, non_deleters)
    tally, unmapped = analytics.trait_tally(medians, load_default_trait_map())
    traits = {"tally": tally, "unmapped": unmapped, "medians": medians}
    assert (out / "traits.json").read_text() == _json_file_bytes(traits)


# --metrics value -> {report file: sha256} that ``analyze`` writes for the
# cleaned ``synth_small`` corpus; pinned so that a change to how the
# measurements are computed cannot move a report byte unnoticed.
GOLDEN_ANALYZE = {
    "ntd,nud,users,temporal,response,traits": {
        "ccdf_followees.csv": "b3992cf9636267c1240a97875fb35bdef93e3a16cc08cf12e14c5dd6a6194918",
        "ccdf_followers.csv": "a0773ade16e8fc3c1ad62f17b1f133f34598cb3382aa0bb6daf6067ac9e23bbd",
        "ccdf_listed.csv": "5cdb62acbc0108ebe2082af6850fc40515f0a5c4199e42632b1e83e3bb7c342e",
        "ccdf_tweet_rate.csv": "ef5c0e58fa4460d1390c0ba95e9ca05c1ab71ba1a176c21952136072c82e5343",
        "group_comparison.csv": "d9609bc20792ab726e146f2e40e6e00035b7857d584338992d02aa9068d60da1",
        "group_comparison.json": "06c0ec6bf08dfec700ca93b815b22ada3c4513930ea774cb8ad1beab65bd9de5",
        "response.json": "afe69f0c5d4824a5b9d27c82539fb8515a3418fff3ca96950f8a47daa458e886",
        "temporal.csv": "2b35445e65d1fc54d8635994dea3cc973f6515f6a4ff21e8f3d7b87527136ab8",
        "temporal.json": "bb2af4da9a8c65227b94fb21163e48df937ab8cfd59de76b7e95ce28f10681fb",
        "traits.json": "d128235085ce6a18deb1fc99237e769973d35e84e3d434d9075f7a20fba4acb1",
        "user_groups.json": "8d68a0f5753f2d6cc4738ba7c83abfa2ea0375c72993a9e634154fcee91efea3",
    },
    "ntd": {
        "group_comparison.csv": "d9609bc20792ab726e146f2e40e6e00035b7857d584338992d02aa9068d60da1",
        "group_comparison.json": "9e4884a9b1a6dc068f5f967249d67dbddfd834a96ed8196e6a7ccdfe43f3da52",
    },
    "nud": {
        "group_comparison.csv": "d553d7d91e60a535e8f71b8419b702ac71343e4e7465458fb9e15879736ec1b5",
        "group_comparison.json": "5447dd5bd5c6b1bb190544682206bddb76fd119e9fb8067ed4c5c17dba339deb",
    },
}


@pytest.mark.parametrize("metrics", sorted(GOLDEN_ANALYZE))
def test_golden_analyze_files(synth_small, tmp_path, metrics):
    path = tmp_path / "cleaned.json"
    synth_small.cleaned.save(path)
    out = tmp_path / "r"
    assert main(["analyze", "--corpus", str(path), "--metrics", metrics, "--out", str(out)]) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert digests == GOLDEN_ANALYZE[metrics]


# with_responses -> sha256 of the score file ``predict`` writes for the
# ``synth_small`` event stream, scored by a small bundle trained on its
# cleaned corpus; pinned so that a change to how events are parsed, linked
# or scored cannot move a score byte unnoticed.
GOLDEN_PREDICT = {
    False: "1ec969f2693dce2fb7e3d8b8340d7ae7c0a6b73c136453fbef303e6f05d780bb",
    True: "bcd770c11d79e00fa4308c4070c9e477da607007e4f63941a93097d0497e33c5",
}


@pytest.mark.parametrize("with_responses", sorted(GOLDEN_PREDICT))
def test_golden_predict_file(synth_small, resources, tmp_path, with_responses):
    events = tmp_path / "events.jsonl"
    events.write_text("".join(
        json.dumps(e, sort_keys=True, separators=(",", ":")) + "\n" for e in synth_small.events
    ))
    cfg = classify.TrainConfig(
        n_per_class=40, derived_feature_folds=2, with_responses=with_responses,
        stage1_hyper={"svm_c": 1e-6, "svm_epochs": 3},
        stage2_hyper={"ada_depth": 2, "ada_rounds": 5},
    )
    bundle, _ = classify.two_stage_train(synth_small.cleaned, cfg, 6, resources)
    classify.save_bundle(bundle, tmp_path / "model.rsb1")
    out = tmp_path / "predictions.jsonl"
    assert main(["predict", "--bundle", str(tmp_path / "model.rsb1"),
                 "--events", str(events), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_PREDICT[with_responses]


def test_golden_clean_report_files(whitelist, tmp_path, capsys):
    """The ``clean --report`` JSON and the accounting table ``clean``
    prints, for the small synthetic stream whose corpus bytes
    ``test_golden_corpus_files`` pins."""
    pipeline = run_synth_pipeline(SynthConfig(seed=5, n_users=40), whitelist)
    pipeline.corpus.save(tmp_path / "corpus.json")
    report = tmp_path / "report.json"
    capsys.readouterr()
    assert main(["clean", "--corpus", str(tmp_path / "corpus.json"),
                 "--out", str(tmp_path / "cleaned.json"), "--report", str(report)]) == 0
    table = capsys.readouterr().out
    assert table == pipeline.report.to_text() + "\n"
    assert hashlib.sha256(report.read_bytes()).hexdigest() == (
        "32a969f591977dacc3e4b068fa4f5674035f9f18ab7d503f46feaa40173ae037")
    assert hashlib.sha256(table.encode("utf-8")).hexdigest() == (
        "616bc83937ef6a7debe7226aa5f4388a91e188faf0c4d67c526ead71ebb5ad29")


class TestAnnotateAggCommand:
    def test_regret_reference_counts(self, tmp_path):
        path = tmp_path / "annotations.jsonl"
        with open(path, "w") as fh:
            for i in range(100):
                fh.write(json.dumps({
                    "item_id": i, "group": "deleted",
                    "answers": {"expressive": ["yes", "yes", "no"]},
                    "regret": ["yes"] * 3 if i < 16 else ["no"] * 3,
                }) + "\n")
            for i in range(100):
                fh.write(json.dumps({
                    "item_id": 100 + i, "group": "non_deleted",
                    "answers": {},
                    "regret": ["yes"] * 3 if i < 6 else ["no"] * 3,
                }) + "\n")
        out = tmp_path / "agg.json"
        assert main(["annotate-agg", "--annotations", str(path), "--out", str(out)]) == 0
        result = json.loads(out.read_text())
        assert result["regret"]["fisher"]["effect"] == pytest.approx(0.335, abs=0.005)
        assert result["regret"]["fisher"]["p_two_sided"] == pytest.approx(0.04, abs=0.01)


@pytest.mark.parametrize("value", ["nan", "-1", "1.5", "inf", "0", "1"])
@pytest.mark.parametrize("command", ["analyze", "annotate-agg"])
def test_alpha_outside_the_open_unit_interval_exits_1(tmp_path, capsys, command, value):
    """A significance level of 0, 1 or beyond makes every test significant, or none."""
    corpus = tmp_path / "corpus.json"
    make_corpus([make_tweet(id=1, deleted=True), make_tweet(id=2, user_id=2)]).save(corpus)
    annotations = tmp_path / "annotations.jsonl"
    annotations.write_text("".join(
        json.dumps({"item_id": i, "group": group, "answers": {}, "regret": ["no"] * 3}) + "\n"
        for i, group in enumerate(("deleted", "non_deleted"))
    ))
    inputs = {"analyze": ["--corpus", str(corpus), "--metrics", "temporal"],
              "annotate-agg": ["--annotations", str(annotations)]}
    code = main([command, *inputs[command], f"--alpha={value}", "--out", str(tmp_path / "out")])
    assert code == 1
    assert f"argument --alpha: {value!r} is not in (0, 1)" in capsys.readouterr().err


def _typed_options():
    """(subcommand, option) for every option the parser converts by a type."""
    (commands,) = (a for a in cli.build_parser()._actions if a.dest == "command")
    return [(name, action.option_strings[-1]) for name, sub in commands.choices.items()
            for action in sub._actions if action.type is not None]


@pytest.mark.parametrize("command,option", _typed_options())
def test_typed_option_given_a_non_number_states_its_rule(capsys, command, option):
    assert main([command, f"{option}=abc"]) == 1
    message = capsys.readouterr().err.splitlines()[-1]
    assert f"argument {option}: 'abc' is not " in message
    assert "invalid" not in message and "_" not in message


@pytest.mark.parametrize("argv,message", [
    (["synth", "--seed", "-1"], "argument --seed: '-1' is not a non-negative integer"),
    (["train", "--seed", "-3"], "argument --seed: '-3' is not a non-negative integer"),
    (["ablate", "--seed", "-2"], "argument --seed: '-2' is not a non-negative integer"),
    (["train", "--seed", "1.5"], "argument --seed: '1.5' is not a non-negative integer"),
    (["synth", "--config", "seed.json"], "error: seed.json: seed must be >= 0, got -4"),
])
def test_negative_seed_exits_1(workdir, tmp_path, capsys, monkeypatch, argv, message):
    """numpy takes only non-negative seeds."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "seed.json").write_text(json.dumps({"seed": -4}))
    outputs = {"synth": ["--out-events", "e.jsonl", "--out-ledger", "l.jsonl"],
               "train": ["--corpus", str(workdir / "cleaned.json"), "--out", "m.rsb1"],
               "ablate": ["--corpus", str(workdir / "cleaned.json"), "--out", "a.json"]}
    assert main([*argv, *outputs[argv[0]]]) == 1
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["seed.json"]


@pytest.fixture(scope="module")
def train_config_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "train.json"
    path.write_text(json.dumps({
        "n_per_class": 50,
        "stage2_hyper": {"ada_depth": 2, "ada_rounds": 8},
        "derived_feature_folds": 3,
    }))
    return path


def test_python_dash_m_runs_the_command_line():
    done = run_fresh(["--help"])
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: regretstream")


def test_commands_rerun_in_one_process_write_a_fresh_processs_bytes(workdir, train_config_path,
                                                                   tmp_path):
    """synth, ingest + clean and predict, each called twice through
    ``main`` in this process, write the bytes one fresh process per command
    writes: nothing a call keeps outlives it."""
    bundle = tmp_path / "model.rsb1"
    assert main(["train", "--corpus", str(workdir / "cleaned.json"),
                 "--config", str(train_config_path), "--out", str(bundle)]) == 0

    def commands(out):
        out.mkdir()
        return [
            ["synth", "--config", str(workdir / "synth.json"),
             "--out-events", str(out / "events.jsonl"), "--out-ledger", str(out / "ledger.jsonl")],
            ["ingest", "--events", str(out / "events.jsonl"), "--window", *WINDOW,
             "--out", str(out / "corpus.json")],
            ["clean", "--corpus", str(out / "corpus.json"), "--out", str(out / "cleaned.json"),
             "--report", str(out / "cleanup.json")],
            ["predict", "--bundle", str(bundle), "--events", str(out / "events.jsonl"),
             "--out", str(out / "scores.jsonl")],
        ]

    def digests(out):
        return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}

    for argv in commands(tmp_path / "fresh"):
        done = run_fresh(argv)
        assert done.returncode == 0, done.stderr
    want = digests(tmp_path / "fresh")
    assert len(want) == 6
    for run in ("warm1", "warm2"):
        for argv in commands(tmp_path / run):
            assert main(argv) == 0
        assert digests(tmp_path / run) == want, run


class TestTrainPredictAblate:
    def test_train_writes_bundle_and_metrics(self, workdir, train_config_path, tmp_path):
        bundle = tmp_path / "model.rsb1"
        metrics = tmp_path / "metrics.json"
        assert main([
            "train", "--corpus", str(workdir / "cleaned.json"),
            "--config", str(train_config_path), "--seed", "7",
            "--out", str(bundle), "--metrics-out", str(metrics),
        ]) == 0
        assert bundle.read_bytes()[:4] == b"RSB1"
        payload = json.loads(metrics.read_text())
        assert 0.0 <= payload["metrics"]["f1"] <= 1.0
        model = classify.load_bundle(bundle).stage2
        stage2 = payload["stage2"]
        assert stage2 == {
            "algorithm": "adaboost",
            "rounds_used": len(model.trees),
            "stage_errors": model.stage_errors,
            "early_stop": model.early_stop,
            "training_error_bound": model.training_error_bound(),
        }
        assert 1 <= stage2["rounds_used"] <= 8
        assert all(0.0 <= e < 0.5 for e in stage2["stage_errors"])

    def test_metrics_csv_equals_metrics_json(self, workdir, train_config_path, tmp_path):
        metrics, table = tmp_path / "metrics.json", tmp_path / "metrics.csv"
        assert main([
            "train", "--corpus", str(workdir / "cleaned.json"),
            "--config", str(train_config_path), "--seed", "7", "--out", str(tmp_path / "m.rsb1"),
            "--metrics-out", str(metrics), "--metrics-csv", str(table),
        ]) == 0
        want = json.loads(metrics.read_text())["metrics"]
        with open(table, newline="", encoding="utf-8") as fh:
            (row,) = csv.DictReader(fh)
        assert row.pop("name") == "heldout"
        assert set(row) == set(want)
        for key, value in row.items():
            assert type(want[key])(value) == want[key], key

    def test_truncated_bundle_exits_1(self, workdir, train_config_path, tmp_path, capsys):
        bundle = tmp_path / "model.rsb1"
        assert main([
            "train", "--corpus", str(workdir / "cleaned.json"),
            "--config", str(train_config_path), "--seed", "7", "--out", str(bundle),
        ]) == 0
        data = bundle.read_bytes()
        header = 16 + int.from_bytes(data[8:16], "little")
        offsets = {
            "magic": 2, "version": 6, "manifest length": 12, "manifest": header - 40,
            "vocab_terms": header + 3, "array": len(data) - 9,
        }
        capsys.readouterr()
        for section, cut in offsets.items():
            short = tmp_path / f"cut{cut}.rsb1"
            short.write_bytes(data[:cut])
            code = main([
                "predict", "--bundle", str(short),
                "--events", str(workdir / "events.jsonl"), "--out", str(tmp_path / "p.jsonl"),
            ])
            err = capsys.readouterr().err
            assert code == 1, section
            assert err.startswith("error: ") and "Traceback" not in err
            assert str(short) in err
            assert (section if section != "magic" else "bad magic") in err

    @pytest.mark.parametrize("manifest", [
        {},
        {"blobs": "vocab_terms"},
        {"blobs": {"vocab_terms": "3", "wordlist": 0}, "arrays": []},
    ])
    def test_bundle_manifest_missing_or_mistyped_keys_exits_1(self, workdir, tmp_path,
                                                               capsys, manifest):
        raw = json.dumps(manifest).encode("utf-8")
        bundle = tmp_path / "model.rsb1"
        bundle.write_bytes(
            b"RSB1" + (1).to_bytes(4, "little") + len(raw).to_bytes(8, "little") + raw
        )
        code = main([
            "predict", "--bundle", str(bundle),
            "--events", str(workdir / "events.jsonl"), "--out", str(tmp_path / "p.jsonl"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert f"{bundle}: invalid bundle manifest" in err

    def test_train_config_not_json_exits_1(self, workdir, tmp_path, capsys):
        cfg = tmp_path / "train.json"
        cfg.write_text('{\n  "n_per_class": 50,\n  {bad\n')
        code = main([
            "train", "--corpus", str(workdir / "cleaned.json"),
            "--config", str(cfg), "--out", str(tmp_path / "m.rsb1"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert f"{cfg}: line 3" in err

    def test_train_byte_identical_on_retrain(self, workdir, train_config_path, tmp_path):
        outs = []
        for tag in ("a", "b"):
            bundle = tmp_path / f"model_{tag}.rsb1"
            metrics = tmp_path / f"metrics_{tag}.json"
            assert main([
                "train", "--corpus", str(workdir / "cleaned.json"),
                "--config", str(train_config_path), "--seed", "7",
                "--out", str(bundle), "--metrics-out", str(metrics),
            ]) == 0
            outs.append((bundle.read_bytes(), metrics.read_bytes()))
        assert outs[0] == outs[1]

    def test_predict_on_events(self, workdir, train_config_path, tmp_path):
        bundle = tmp_path / "model.rsb1"
        assert main([
            "train", "--corpus", str(workdir / "cleaned.json"),
            "--config", str(train_config_path), "--seed", "7",
            "--out", str(bundle),
        ]) == 0
        out = tmp_path / "predictions.jsonl"
        assert main([
            "predict", "--bundle", str(bundle),
            "--events", str(workdir / "events.jsonl"),
            "--out", str(out),
        ]) == 0
        lines = [json.loads(l) for l in out.read_text().splitlines()]
        assert lines
        assert {"id", "predicted_deleted", "score"} <= set(lines[0])
        assert any(l["predicted_deleted"] for l in lines)
        assert any(not l["predicted_deleted"] for l in lines)

    def test_predict_links_match_build_corpus(self, workdir, tmp_path, monkeypatch):
        window = CollectionWindow(*(parse_rfc3339(w, "window") for w in WINDOW))
        parsed = [(line, parse_event(line)) for line in (workdir / "events.jsonl").read_text().splitlines()]
        lines = [
            line for line, rec in parsed
            if isinstance(rec, TweetRecord)
            and window.post_start <= rec.created_at <= window.post_end
        ]
        events = tmp_path / "in_window.jsonl"
        events.write_text("\n".join(lines) + "\n")
        expected = build_corpus(read_events(events), window, strict=False)

        seen = []

        class RecordingBundle:
            config = classify.TrainConfig(with_responses=True)

            def predict_records(self, tweets, lookup):
                seen.append((tweets, lookup))
                return [], [], []

        monkeypatch.setattr(classify, "load_bundle", lambda path: RecordingBundle())
        assert main([
            "predict", "--bundle", "unused.rsb1",
            "--events", str(events), "--out", str(tmp_path / "p.jsonl"),
        ]) == 0

        def links(corpus):
            return {t.id: (t.reply_ids, t.retweet_ids, t.quote_ids) for t in corpus}

        tweets, lookup = seen[0]
        assert any(t.reply_ids for t in expected)
        assert links(tweets) == links(expected)
        assert [t.id for t in tweets] == [t.id for t in expected]  # the corpus order
        assert all(lookup[t.id] is t for t in tweets)

    @pytest.mark.parametrize("with_responses", [False, True])
    def test_predict_scores_the_first_of_a_repeated_id(self, tmp_path, monkeypatch,
                                                       with_responses):
        user = {"user_id": 3, "account_created_at": "2014-01-01T00:00:00Z"}
        events = tmp_path / "events.jsonl"
        events.write_text("".join(json.dumps({
            "kind": "tweet", "id": 5, "user_id": 3, "created_at": "2015-08-05T10:00:00Z",
            "text": text, "user": user,
        }) + "\n" for text in ("first text", "second text")))
        window = CollectionWindow(*(parse_rfc3339(w, "window") for w in WINDOW))
        assert [t.text for t in build_corpus(read_events(events), window, strict=False)] == [
            "first text"
        ]
        seen = []

        class RecordingBundle:
            config = classify.TrainConfig(with_responses=with_responses)

            def predict_records(self, tweets, lookup):
                seen.append([t.text for t in tweets])
                return [5], [0], [0.5]

        monkeypatch.setattr(classify, "load_bundle", lambda path: RecordingBundle())
        assert main([
            "predict", "--bundle", "unused.rsb1",
            "--events", str(events), "--out", str(tmp_path / "p.jsonl"),
        ]) == 0
        assert seen == [["first text"]]

    def test_predict_without_response_features_links_nothing(self, workdir, tmp_path,
                                                              monkeypatch):
        seen = []

        class RecordingBundle:
            config = classify.TrainConfig()

            def predict_records(self, tweets, lookup):
                seen.append(tweets)
                return [], [], []

        def no_links(*args):
            raise AssertionError("link_records called")

        monkeypatch.setattr(classify, "load_bundle", lambda path: RecordingBundle())
        monkeypatch.setattr(cli, "link_records", no_links)
        assert main([
            "predict", "--bundle", "unused.rsb1",
            "--events", str(workdir / "events.jsonl"), "--out", str(tmp_path / "p.jsonl"),
        ]) == 0
        assert seen[0] and not any(t.reply_ids for t in seen[0])

    def test_ablate_report(self, workdir, train_config_path, tmp_path):
        out = tmp_path / "ablation.json"
        assert main([
            "ablate", "--corpus", str(workdir / "cleaned.json"),
            "--config", str(train_config_path), "--seed", "7",
            "--groups", "user,tweet", "--out", str(out),
        ]) == 0
        report = json.loads(out.read_text())
        assert set(report["dropped"]) == {"user", "tweet"}

    def test_ablate_csv_equals_report(self, workdir, train_config_path, tmp_path):
        out, table = tmp_path / "ablation.json", tmp_path / "ablation.csv"
        assert main([
            "ablate", "--corpus", str(workdir / "cleaned.json"),
            "--config", str(train_config_path), "--seed", "7",
            "--groups", "tweet,user", "--out", str(out), "--csv", str(table),
        ]) == 0
        report = json.loads(out.read_text())
        with open(table, newline="", encoding="utf-8") as fh:
            rows = [{k: v if k == "group" else float(v) for k, v in row.items()}
                    for row in csv.DictReader(fh)]
        b = report["baseline"]
        want = [{"group": "baseline", "precision": b["precision"], "recall": b["recall"],
                 "f1": b["f1"], "relative_f1": 1.0, "delta_f1": 0.0}]
        for group in ("tweet", "user"):
            cell = report["dropped"][group]
            m = cell["metrics"]
            want.append({"group": group, "precision": m["precision"], "recall": m["recall"],
                         "f1": m["f1"], "relative_f1": cell["relative"]["f1"],
                         "delta_f1": cell["delta_f1"]})
        assert rows == want

    def test_ablate_unknown_group(self, workdir, train_config_path, tmp_path):
        code = main([
            "ablate", "--corpus", str(workdir / "cleaned.json"),
            "--config", str(train_config_path),
            "--groups", "user,wat", "--out", str(tmp_path / "x.json"),
        ])
        assert code == 1


# Each JSON or JSON Lines input, given a file whose line 3 is not JSON.
BAD_JSON_INPUTS = {
    "synth --config": ["synth", "--config", "{bad}", "--out-events", "{tmp}/e.jsonl",
                       "--out-ledger", "{tmp}/l.jsonl"],
    "clean --config": ["clean", "--corpus", "{work}/corpus.json", "--config", "{bad}",
                       "--out", "{tmp}/c.json"],
    "--lexicon": ["analyze", "--corpus", "{work}/cleaned.json", "--metrics", "temporal",
                  "--lexicon", "{bad}", "--out", "{tmp}/r"],
    "--valence": ["analyze", "--corpus", "{work}/cleaned.json", "--metrics", "temporal",
                  "--valence", "{bad}", "--out", "{tmp}/r"],
    "--traits-map": ["analyze", "--corpus", "{work}/cleaned.json", "--metrics", "traits",
                     "--traits-map", "{bad}", "--out", "{tmp}/r"],
    "--tags": ["featurize", "--corpus", "{work}/cleaned.json", "--tags", "{bad}",
               "--out", "{tmp}/f.rsf1"],
    "annotate-agg --annotations": ["annotate-agg", "--annotations", "{bad}",
                                   "--out", "{tmp}/a.json"],
}
JSONL_INPUTS = ("--tags", "annotate-agg --annotations")


@pytest.mark.parametrize("name", sorted(BAD_JSON_INPUTS))
def test_malformed_json_input_exits_1(workdir, tmp_path, capsys, name):
    bad = tmp_path / "bad.json"
    if name in JSONL_INPUTS:
        bad.write_text('{"id": 1, "tags": []}\n\n{bad\n')
    else:
        bad.write_text('{\n  "a": 1,\n  {bad\n')
    argv = [a.format(bad=bad, work=workdir, tmp=tmp_path) for a in BAD_JSON_INPUTS[name]]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert f"{bad}: line 3: not valid JSON" in err
    assert [p.name for p in tmp_path.iterdir()] == [bad.name]  # read before any output


# Inputs that are not UTF-8 (the bytes ff fe 7b) or are valid JSON of the
# wrong shape: (argv, file bytes, and the line the error names, or its text
# after the file name, or None).
NOT_UTF8 = b"\xff\xfe{"
BAD_INPUTS = {
    "non-UTF-8 --lexicon": (["analyze", "--corpus", "{work}/cleaned.json", "--metrics",
                             "temporal", "--lexicon", "{bad}", "--out", "{tmp}/r"],
                            NOT_UTF8, 1),
    "non-UTF-8 ingest --events": (["ingest", "--events", "{bad}", "--window", *WINDOW,
                                   "--out", "{tmp}/c.json"], b'\n' + NOT_UTF8, 2),
    "non-UTF-8 --wordlist": (["analyze", "--corpus", "{work}/cleaned.json", "--metrics",
                              "temporal", "--wordlist", "{bad}", "--out", "{tmp}/r"],
                             b"alpha\nbeta\n" + NOT_UTF8, 3),
    "non-UTF-8 clean --whitelist": (["clean", "--corpus", "{work}/corpus.json",
                                     "--whitelist", "{bad}", "--out", "{tmp}/c.json"],
                                    NOT_UTF8, 1),
    "--lexicon object without categories": (
        ["analyze", "--corpus", "{work}/cleaned.json", "--metrics", "temporal",
         "--lexicon", "{bad}", "--out", "{tmp}/r"], b'{"x": 1}', None),
    "--valence list": (["analyze", "--corpus", "{work}/cleaned.json", "--metrics",
                        "temporal", "--valence", "{bad}", "--out", "{tmp}/r"], b"[1,2]", None),
    "--traits-map list": (["analyze", "--corpus", "{work}/cleaned.json", "--metrics",
                           "traits", "--traits-map", "{bad}", "--out", "{tmp}/r"],
                          b"[1,2]", None),
    "annotate-agg record without group": (
        ["annotate-agg", "--annotations", "{bad}", "--out", "{tmp}/a.json"],
        b'{"item_id": 0, "group": "deleted", "regret": ["no", "no", "no"]}\n'
        b'{"item_id": 1}\n', 2),
    "annotate-agg answer list holding a list": (
        ["annotate-agg", "--annotations", "{bad}", "--out", "{tmp}/a.json"],
        b'{"item_id": 0, "group": "deleted", "regret": ["no", "no", "no"]}\n'
        b'{"item_id": 1, "group": "deleted", "regret": [["x"], "no", "no"]}\n', 2),
    "annotate-agg empty": (
        ["annotate-agg", "--annotations", "{bad}", "--out", "{tmp}/a.json"], b"",
        "annotation group 'deleted' has no items"),
    "annotate-agg deleted items only": (
        ["annotate-agg", "--annotations", "{bad}", "--out", "{tmp}/a.json"],
        b'{"item_id": 0, "group": "deleted", "regret": ["no", "no", "no"]}\n',
        "annotation group 'non_deleted' has no items"),
    "--lexicon with 65 categories": (
        ["analyze", "--corpus", "{work}/cleaned.json", "--metrics", "temporal",
         "--lexicon", "{bad}", "--out", "{tmp}/r"],
        json.dumps({"categories": [{"name": f"c{i}", "patterns": []} for i in range(65)]})
        .encode(), None),
    "--traits-map unknown symbol": (["analyze", "--corpus", "{work}/cleaned.json", "--metrics",
                                     "traits", "--traits-map", "{bad}", "--out", "{tmp}/r"],
                                    b'{"a": [1]}', None),
    "train --config list": (["train", "--corpus", "{work}/cleaned.json", "--config", "{bad}",
                             "--out", "{tmp}/m.rsb1"], b"[1,2]", None),
    "ablate --config list": (["ablate", "--corpus", "{work}/cleaned.json", "--config",
                              "{bad}", "--groups", "user", "--out", "{tmp}/x.json"],
                             b"[1,2]", None),
    "clean --config list": (["clean", "--corpus", "{work}/corpus.json", "--config", "{bad}",
                             "--out", "{tmp}/c.json"], b"[1,2]", None),
    "--tags record without id": (["featurize", "--corpus", "{work}/cleaned.json",
                                  "--tags", "{bad}", "--out", "{tmp}/f.rsf1"],
                                 b'{"id": 1, "tags": []}\n\n{"tags": []}\n', 3),
}


@pytest.mark.parametrize("name", sorted(BAD_INPUTS))
def test_bad_input_file_exits_1(workdir, tmp_path, capsys, name):
    argv, content, where = BAD_INPUTS[name]
    bad = tmp_path / "bad.input"
    bad.write_bytes(content)
    argv = [a.format(bad=bad, work=workdir, tmp=tmp_path) for a in argv]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert f"error: {bad}: " in err
    assert [p.name for p in tmp_path.iterdir()] == [bad.name]  # read before any output
    if isinstance(where, str):
        assert err == f"error: {bad}: {where}\n"
    elif where is not None:
        assert f"{bad}: line {where}: " in err


# Resource files holding a value of another JSON type: (argv, file bytes, the
# error after the file name).
VALENCE_ARGV = ["analyze", "--corpus", "{work}/cleaned.json", "--metrics", "temporal",
                "--valence", "{bad}", "--out", "{tmp}/r"]
TAGS_ARGV = ["featurize", "--corpus", "{work}/cleaned.json", "--tags", "{bad}",
             "--out", "{tmp}/f.rsf1"]
MISTYPED_RESOURCES = {
    "--valence string": (VALENCE_ARGV, b'{"good": "NaN"}',
                         "invalid valence.good: 'NaN' (not a finite number)"),
    "--valence bool": (VALENCE_ARGV, b'{"bad": -1, "good": true}',
                       "invalid valence.good: True (not a finite number)"),
    "--tags id string": (TAGS_ARGV, b'{"id": "5", "tags": []}\n',
                         "line 1: invalid id: '5' (not a JSON integer)"),
    "--tags id fraction": (TAGS_ARGV, b'{"id": 1, "tags": []}\n{"id": 7.9, "tags": []}\n',
                           "line 2: invalid id: 7.9 (not a JSON integer)"),
    "--tags id bool": (TAGS_ARGV, b'{"id": true, "tags": []}\n',
                       "line 1: invalid id: True (not a JSON integer)"),
    "--tags tag number": (TAGS_ARGV, b'{"id": 5, "tags": ["url", 1]}\n',
                          "line 1: invalid tags: ['url', 1] (not an array of strings)"),
}


@pytest.mark.parametrize("name", sorted(MISTYPED_RESOURCES))
def test_mistyped_resource_value_exits_1_naming_the_field(workdir, tmp_path, capsys, name):
    argv, content, message = MISTYPED_RESOURCES[name]
    bad = tmp_path / "bad.input"
    bad.write_bytes(content)
    assert main([a.format(bad=bad, work=workdir, tmp=tmp_path) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {bad}: {message}\n"


# Config files holding a value of the wrong JSON type, an unknown key or a
# number that is not finite: (command, config, the error after the file name).
BAD_CONFIGS = {
    "train with_responses string": (
        "train", {"with_responses": "no"}, "invalid with_responses: 'no' (not true or false)"),
    "train unknown hyperparameter": (
        "train", {"stage1_hyper": {"svm_cc": 1}}, "unknown field: stage1_hyper.svm_cc"),
    "train hyperparameter string": (
        "train", {"stage1_hyper": {"svm_c": "x"}}, "invalid stage1_hyper.svm_c: 'x'"),
    "train hyperparameter null": (
        "train", {"stage2_algorithm": "rbf_svm", "stage2_hyper": {"rbf_gamma": None}},
        "invalid stage2_hyper.rbf_gamma: None"),
    "train count infinite": ("train", {"n_per_class": math.inf}, "invalid n_per_class: inf"),
    "clean whitelist string": (
        "clean", {"client_whitelist": "Twitter Web Client"},
        "invalid client_whitelist: 'Twitter Web Client' (not an array of strings)"),
    "clean language number": ("clean", {"language_tag": 5}, "invalid language_tag: 5"),
    "clean lookahead fraction": (
        "clean", {"superficial_lookahead": 2.7}, "invalid superficial_lookahead: 2.7"),
    "clean lookahead infinite": (
        "clean", {"superficial_lookahead": math.inf}, "invalid superficial_lookahead: inf"),
    "synth users string": ("synth", {"n_users": "5"}, "invalid n_users: '5'"),
    "synth users fraction": ("synth", {"n_users": 5.5}, "invalid n_users: 5.5"),
    "synth seed string": ("synth", {"seed": "x"}, "invalid seed: 'x'"),
    "synth coupling string": (
        "synth", {"reply_sentiment_coupling": "no"}, "invalid reply_sentiment_coupling: 'no'"),
    # Values of the right type outside the field's range.
    "synth window zero": ("synth", {"window_days": 0}, "window_days must be >= 1, got 0"),
    "synth window negative": ("synth", {"window_days": -3}, "window_days must be >= 1, got -3"),
    "synth delete window negative": (
        "synth", {"delete_extra_days": -20}, "delete_extra_days must be >= 0, got -20"),
    "synth orphans negative": (
        "synth", {"orphan_deletes": -1}, "orphan_deletes must be >= 0, got -1"),
    "synth users zero": ("synth", {"n_users": 0}, "n_users must be >= 1, got 0"),
    "synth users negative": (
        "synth", {"n_users": -3, "deletion_rate": 0.0}, "n_users must be >= 1, got -3"),
    "train test fraction zero": (
        "train", {"test_fraction": 0}, "test_fraction must lie in (0, 1), got 0.0"),
    "train test fraction negative": (
        "train", {"test_fraction": -1}, "test_fraction must lie in (0, 1), got -1.0"),
    "train test fraction one": (
        "train", {"test_fraction": 1}, "test_fraction must lie in (0, 1), got 1.0"),
    "train test fraction two": (
        "train", {"test_fraction": 2.0}, "test_fraction must lie in (0, 1), got 2.0"),
    "train per class zero": ("train", {"n_per_class": 0}, "n_per_class must be >= 1, got 0"),
    "train per class negative": ("train", {"n_per_class": -1}, "n_per_class must be >= 1, got -1"),
    "train folds zero": (
        "train", {"derived_feature_folds": 0}, "derived_feature_folds must be >= 2, got 0"),
    "train folds one": (
        "train", {"derived_feature_folds": 1}, "derived_feature_folds must be >= 2, got 1"),
    "old synth field": ("synth", {"replies_max": 3}, "unknown field: replies_max"),
    # Each stage names one of its model classes.
    "train stage-1 algorithm": (
        "train", {"stage1_algorithm": "zzz"},
        "invalid stage1_algorithm: 'zzz' (not one of multinomial_nb, linear_svm)"),
    "train stage-2 algorithm": (
        "train", {"stage2_algorithm": "mlp"},
        "invalid stage2_algorithm: 'mlp' (not one of adaboost, rbf_svm)"),
    "ablate stage-1 algorithm": (
        "ablate", {"stage1_algorithm": "zzz"},
        "invalid stage1_algorithm: 'zzz' (not one of multinomial_nb, linear_svm)"),
    "ablate stage-2 algorithm": (
        "ablate", {"stage2_algorithm": "mlp"},
        "invalid stage2_algorithm: 'mlp' (not one of adaboost, rbf_svm)"),
    "old clean field": ("clean", {"edit_distance_max": 5}, "unknown field: edit_distance_max"),
}
CONFIG_COMMANDS = {
    "train": ["train", "--corpus", "{work}/cleaned.json", "--config", "{cfg}",
              "--out", "{tmp}/m.rsb1"],
    "ablate": ["ablate", "--corpus", "{work}/cleaned.json", "--config", "{cfg}",
               "--out", "{tmp}/a.json"],
    "clean": ["clean", "--corpus", "{work}/corpus.json", "--config", "{cfg}",
              "--out", "{tmp}/c.json"],
    "synth": ["synth", "--config", "{cfg}", "--out-events", "{tmp}/e.jsonl",
              "--out-ledger", "{tmp}/l.jsonl"],
}


@pytest.mark.parametrize("name", sorted(BAD_CONFIGS))
def test_mistyped_config_exits_1_naming_the_field(workdir, tmp_path, capsys, monkeypatch, name):
    def sample(*args):
        raise AssertionError("sampled before the config was checked")

    monkeypatch.setattr(classify.pipeline, "balanced_sample", sample)
    command, config, message = BAD_CONFIGS[name]
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    argv = [a.format(cfg=cfg, work=workdir, tmp=tmp_path) for a in CONFIG_COMMANDS[command]]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}: {message}") and "Traceback" not in err


def test_analyze_reads_the_trait_map_before_writing_reports(workdir, tmp_path, capsys):
    bad = tmp_path / "traits.json"
    bad.write_text("{bad")
    out = tmp_path / "reports"
    code = main(["analyze", "--corpus", str(workdir / "cleaned.json"), "--traits-map", str(bad),
                 "--out", str(out)])
    assert code == 1 and capsys.readouterr().err.startswith(f"error: {bad}: line 1: ")
    assert not out.exists()


# Each command with every output file under {tmp}; each output option in
# turn is pointed into a directory that does not exist.
OUTPUT_ARGV = {
    "ingest": ["ingest", "--events", "{work}/events.jsonl", "--window", *WINDOW,
               "--out", "{tmp}/c.json"],
    "clean": ["clean", "--corpus", "{work}/corpus.json", "--out", "{tmp}/c.json",
              "--report", "{tmp}/r.json"],
    "featurize": ["featurize", "--corpus", "{work}/cleaned.json", "--out", "{tmp}/f.rsf1"],
    "annotate-agg": ["annotate-agg", "--annotations", "{made}/annotations.jsonl",
                     "--out", "{tmp}/a.json"],
    "train": ["train", "--corpus", "{work}/cleaned.json", "--config", "{made}/train.json",
              "--out", "{tmp}/m.rsb1", "--metrics-out", "{tmp}/m.json",
              "--metrics-csv", "{tmp}/m.csv"],
    "predict": ["predict", "--bundle", "{made}/m.rsb1", "--events", "{work}/events.jsonl",
                "--out", "{tmp}/s.jsonl"],
    "ablate": ["ablate", "--corpus", "{work}/cleaned.json", "--config", "{made}/train.json",
               "--groups", "user", "--out", "{tmp}/a.json", "--csv", "{tmp}/a.csv"],
    "synth": ["synth", "--config", "{work}/synth.json", "--out-events", "{tmp}/e.jsonl",
              "--out-ledger", "{tmp}/l.jsonl"],
}
OUTPUT_OPTIONS = [(command, option) for command, argv in OUTPUT_ARGV.items()
                  for option, value in zip(argv, argv[1:]) if value.startswith("{tmp}/")]


@pytest.fixture(scope="module")
def made(workdir, train_config_path, tmp_path_factory):
    """The inputs OUTPUT_ARGV reads that the workdir lacks: a train config,
    a bundle trained with it, and an annotation file."""
    root = tmp_path_factory.mktemp("made")
    (root / "train.json").write_bytes(train_config_path.read_bytes())
    assert main(["train", "--corpus", str(workdir / "cleaned.json"), "--config",
                 str(root / "train.json"), "--out", str(root / "m.rsb1")]) == 0
    (root / "annotations.jsonl").write_text("".join(
        json.dumps({"item_id": i, "group": group, "answers": {}, "regret": ["no"] * 3}) + "\n"
        for i, group in enumerate(("deleted", "non_deleted"))))
    return root


@pytest.mark.parametrize("command,option", OUTPUT_OPTIONS)
def test_output_in_a_missing_directory_exits_2_before_any_output(workdir, made, tmp_path,
                                                                 capsys, command, option):
    argv = [a.format(work=workdir, made=made, tmp=tmp_path) for a in OUTPUT_ARGV[command]]
    missing = tmp_path / "missing" / "out"
    argv[argv.index(option) + 1] = str(missing)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert str(missing) in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


class TestRemovedTrainFlags:
    @pytest.mark.parametrize("flag", [["--threads", "2"], ["--with-responses"]])
    def test_flag_is_a_usage_error(self, workdir, tmp_path, capsys, flag):
        for command in ("train", "ablate"):
            out = tmp_path / f"{command}.out"
            code = main([command, "--corpus", str(workdir / "cleaned.json"),
                         "--out", str(out), *flag])
            assert code == 1
            err = capsys.readouterr().err
            assert f"unrecognized arguments: {' '.join(flag)}" in err
            assert not out.exists()


class TestPretaggedContractThroughCli:
    @pytest.mark.parametrize("damage", ["short", "unknown_tag"])
    def test_bad_pretagged_entry_exits_1(self, workdir, tmp_path, capsys, damage):
        from regretstream.textkit import tokenize

        first = Corpus.load(workdir / "cleaned.json").tweets[0]
        tags = ["common_noun"] * len(tokenize(first.text))
        if damage == "short":
            tags = tags[:-1]
        else:
            tags[0] = "wat"
        tags_path = tmp_path / "tags.jsonl"
        tags_path.write_text(json.dumps({"id": first.id, "tags": tags}) + "\n")
        code = main([
            "featurize", "--corpus", str(workdir / "cleaned.json"),
            "--tags", str(tags_path), "--out", str(tmp_path / "f.rsf1"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: tweet {first.id}: pre-tagged file ")
        assert "Traceback" not in err
        assert ("unknown tag 'wat'" if damage == "unknown_tag" else "tags for") in err
