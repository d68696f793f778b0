"""Property tests for the input contract of ``ingest``, ``analyze`` and
``predict``.

A damaged event line, corpus file, RSF1 feature matrix or RSB1 bundle
(truncated, a flipped bit, a value of the wrong type, a missing key) makes
``events.parse_event``, ``Corpus.load``, ``load_feature_matrix`` and
``load_bundle`` raise only ``RegretstreamError``; through the CLI it exits
1 with an ``error:`` line and no traceback.
"""

import contextlib
import functools
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regretstream.classify import TrainConfig, load_bundle, save_bundle, two_stage_train
from regretstream.cli import main
from regretstream.errors import RegretstreamError
from regretstream.events import Corpus, parse_event
from regretstream.features import (
    build_vocab, featurize_corpus, load_feature_matrix, save_feature_matrix,
)
from regretstream.resources import load_default_resources

from conftest import make_corpus, make_profile, make_tweet, ts

WINDOW = ("2015-08-03T00:00:00Z", "2015-08-17T00:00:00Z", "2015-08-24T00:00:00Z")

TWEET_EVENT = {
    "kind": "tweet", "id": 7, "user_id": 3, "created_at": "2015-08-05T10:00:00Z",
    "text": "good #day @you http://t.co/x", "lang": "en", "source": "Twitter Web Client",
    "in_reply_to_id": 5, "quoted_id": None, "retweet_of_id": None,
    "hashtags": ["#day"], "urls": ["http://t.co/x"], "mentions": ["@you"], "has_geo": False,
    "user": {
        "user_id": 3, "account_created_at": "2014-01-01T00:00:00Z",
        "profile_customized": True, "custom_image": False, "bio_length": 12,
        "geo_enabled": False, "has_location": True, "has_profile_url": False,
        "favourites_count": 4, "followees_count": 20, "followers_count": 10,
        "listed_count": 1, "statuses_count": 30, "timezone_offset_min": -300,
    },
}
DELETE_EVENT = {"kind": "delete", "id": 7, "user_id": 3, "observed_at": "2015-08-05T11:00:00Z"}
EVENT_LINES = [json.dumps(TWEET_EVENT).encode(), json.dumps(DELETE_EVENT).encode()]


def _corpus_bytes() -> bytes:
    profile = make_profile(2, timezone_offset_min=60, listed_count=3)
    corpus = make_corpus([
        make_tweet(id=1, user_id=1, created_at=ts(hours=1), hashtags=("#a",), reply_ids=(2,)),
        make_tweet(id=2, user_id=2, created_at=ts(hours=2), in_reply_to_id=1, profile=profile,
                   deleted=True, deletion_lag_sec=90),
    ])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "corpus.json"
        corpus.save(path)
        return path.read_bytes()


WORDS = ["good", "bad", "day", "work", "#fun", "@pal", "http://t.co/x", "hate", "love", "lol"]


def _forty_tweets():
    return make_corpus([
        make_tweet(id=i, user_id=(i // 2) % 4 + 1, created_at=ts(hours=i), deleted=i % 2 == 0,
                   text=" ".join(WORDS[i * k % len(WORDS)] for k in (1, 3, 7)),
                   in_reply_to_id=i - 1 if i % 5 == 0 else None)
        for i in range(1, 41)
    ])


@functools.cache
def _container_bytes() -> tuple[bytes, bytes]:
    """An RSF1 feature matrix and an RSB1 bundle of a 40-tweet corpus."""
    corpus = _forty_tweets()
    resources = load_default_resources()
    config = TrainConfig(n_per_class=8, derived_feature_folds=2, stage1_hyper={"svm_epochs": 2},
                         stage2_hyper={"ada_depth": 2, "ada_rounds": 3})
    bundle, _ = two_stage_train(corpus, config, 0, resources)
    matrix = featurize_corpus(corpus, build_vocab(corpus), resources, with_responses=True)
    with tempfile.TemporaryDirectory() as tmp:
        save_feature_matrix(matrix, Path(tmp) / "m.rsf1")
        save_bundle(bundle, Path(tmp) / "b.rsb1")
        return (Path(tmp) / "m.rsf1").read_bytes(), (Path(tmp) / "b.rsb1").read_bytes()


@functools.cache
def _rbf_bundle_bytes() -> bytes:
    """An RSB1 bundle of the same corpus with an RBF-SVM stage 2 and its scaler."""
    config = TrainConfig(n_per_class=8, derived_feature_folds=2, stage1_hyper={"svm_epochs": 2},
                         stage2_algorithm="rbf_svm")
    bundle, _ = two_stage_train(_forty_tweets(), config, 0, load_default_resources())
    with tempfile.TemporaryDirectory() as tmp:
        save_bundle(bundle, Path(tmp) / "b.rsb1")
        return (Path(tmp) / "b.rsb1").read_bytes()


WRONG_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-(2 ** 70), 2 ** 70),
    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=6),
    st.lists(st.integers(), max_size=2), st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)


def _key_paths(obj, prefix=()):
    """Every path of dict keys and list indices inside ``obj``."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _key_paths(value, prefix + (key,))


@st.composite
def damaged(draw, base: bytes, container: bool = False) -> bytes:
    """``base`` truncated, with one bit flipped, or with one JSON value
    retyped or dropped; in a ``container`` (RSF1 or RSB1: magic, version,
    manifest length, JSON manifest, binary sections) the JSON is the
    manifest, and its length is rewritten to match."""
    how = draw(st.sampled_from(("truncate", "flip", "retype", "drop")))
    if how == "truncate":
        return base[: draw(st.integers(0, len(base) - 1))]
    if how == "flip":
        data = bytearray(base)
        data[draw(st.integers(0, len(data) - 1))] ^= 1 << draw(st.integers(0, 7))
        return bytes(data)
    obj = json.loads(_manifest(base) if container else base)
    path = draw(st.sampled_from(list(_key_paths(obj))))
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    if how == "retype":
        parent[path[-1]] = draw(WRONG_VALUES)
    else:
        del parent[path[-1]]
    return _repacked(base, obj) if container else json.dumps(obj).encode()


def _manifest(container: bytes) -> bytes:
    return container[16:16 + int.from_bytes(container[8:16], "little")]


def _repacked(container: bytes, manifest) -> bytes:
    """``container`` with its manifest replaced by ``manifest``."""
    raw = json.dumps(manifest).encode()
    rest = container[16 + len(_manifest(container)):]
    return container[:8] + len(raw).to_bytes(8, "little") + raw + rest


damaged_events = st.sampled_from(EVENT_LINES).flatmap(damaged)
damaged_corpora = damaged(_corpus_bytes())
damaged_matrices = st.deferred(lambda: damaged(_container_bytes()[0], container=True))
damaged_bundles = st.deferred(lambda: damaged(_container_bytes()[1], container=True))


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("contract")


def _run_cli(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue()


def _assert_exit_contract(code: int, err: str) -> None:
    """Exit 0 on input the damage left valid, else 1 with one error line."""
    assert code in (0, 1), err
    if code == 1:
        assert err.startswith("error: ") and "Traceback" not in err


def test_undamaged_inputs_are_valid(scratch):
    for line in EVENT_LINES:
        parse_event(line.decode())
    path = scratch / "valid.json"
    path.write_bytes(_corpus_bytes())
    assert len(Corpus.load(path)) == 2
    matrix, bundle = _container_bytes()
    (scratch / "valid.rsf1").write_bytes(matrix)
    assert len(load_feature_matrix(scratch / "valid.rsf1")) == 40
    (scratch / "valid.rsb1").write_bytes(bundle)
    assert load_bundle(scratch / "valid.rsb1").stage2.trees


@given(damaged_events)
@settings(max_examples=300, deadline=None)
def test_parse_event_raises_only_package_errors(data):
    try:
        parse_event(data.decode("utf-8", "replace"), line_number=1)
    except RegretstreamError:
        pass


@given(damaged_corpora)
@settings(max_examples=150, deadline=None)
def test_corpus_load_raises_only_package_errors(scratch, data):
    path = scratch / "corpus.json"
    path.write_bytes(data)
    try:
        Corpus.load(path)
    except RegretstreamError:
        pass


@given(damaged_events)
@settings(max_examples=60, deadline=None)
def test_ingest_of_damaged_event_exits_1(scratch, data):
    events = scratch / "events.jsonl"
    events.write_bytes(data + b"\n")
    code, err = _run_cli([
        "ingest", "--events", str(events), "--window", *WINDOW, "--out", str(scratch / "c.json"),
    ])
    _assert_exit_contract(code, err)


@given(damaged_corpora)
@settings(max_examples=60, deadline=None)
def test_analyze_of_damaged_corpus_exits_1(scratch, data):
    path = scratch / "corpus.json"
    path.write_bytes(data)
    code, err = _run_cli([
        "analyze", "--corpus", str(path), "--out", str(scratch / "reports"),
    ])
    _assert_exit_contract(code, err)


@given(damaged_matrices)
@settings(max_examples=150, deadline=None)
def test_load_feature_matrix_raises_only_package_errors(scratch, data):
    path = scratch / "m.rsf1"
    path.write_bytes(data)
    try:
        load_feature_matrix(path)
    except RegretstreamError:
        pass


@given(damaged_bundles)
@settings(max_examples=150, deadline=None)
def test_load_bundle_raises_only_package_errors(scratch, data):
    path = scratch / "b.rsb1"
    path.write_bytes(data)
    try:
        load_bundle(path)
    except RegretstreamError:
        pass


@given(damaged_bundles)
@settings(max_examples=60, deadline=None)
def test_predict_with_damaged_bundle_exits_1(scratch, data):
    bundle = scratch / "b.rsb1"
    bundle.write_bytes(data)
    events = scratch / "predict.jsonl"
    events.write_bytes(EVENT_LINES[0] + b"\n")
    code, err = _run_cli([
        "predict", "--bundle", str(bundle), "--events", str(events),
        "--out", str(scratch / "scores.jsonl"),
    ])
    _assert_exit_contract(code, err)


def _damage_bundle_manifest(manifest, damage) -> None:
    tree = manifest["stage2"]["model"]["trees"][0]
    split = next(i for i, f in enumerate(tree["feature"]) if f >= 0)
    weights = next(a for a in manifest["arrays"] if a["name"] == "svm_weights")
    if damage == "child_out_of_range":
        tree["left"][split] = tree["right"][split] = len(tree["feature"])
    elif damage == "feature_beyond_width":
        tree["feature"][split] = 500
    elif damage == "empty_tree":
        for key in ("feature", "threshold", "left", "right", "value"):
            tree[key] = []
    elif damage == "array_rank":
        weights["shape"] = []
    else:
        weights["shape"] = [2 ** 40]


@pytest.mark.parametrize("damage", [
    "child_out_of_range", "feature_beyond_width", "empty_tree", "array_rank", "array_size",
])
def test_predict_with_inconsistent_bundle_exits_1(scratch, damage):
    base = _container_bytes()[1]
    manifest = json.loads(_manifest(base))
    _damage_bundle_manifest(manifest, damage)
    bundle = scratch / f"{damage}.rsb1"
    bundle.write_bytes(_repacked(base, manifest))
    events = scratch / "predict.jsonl"
    events.write_bytes(EVENT_LINES[0] + b"\n")
    code, err = _run_cli([
        "predict", "--bundle", str(bundle), "--events", str(events),
        "--out", str(scratch / "scores.jsonl"),
    ])
    assert code == 1 and err.startswith(f"error: {bundle}: ") and "Traceback" not in err


# A manifest value the package itself rejects: (key path, value, the error
# after "invalid bundle manifest: ").
REJECTED_MANIFEST_VALUES = {
    "reference_time": (("reference_time",), "yesterday",
                       "invalid reference_time: 'yesterday' (not RFC 3339)"),
    "config_field": (("config", "stage1_hyper", "svm_c"), "x",
                     "invalid config.stage1_hyper.svm_c: 'x' (not a finite number)"),
    "metrics_field": (("metrics", "tp"), "x", "invalid metrics.tp: 'x' (not a JSON integer)"),
    "config_test_fraction": (("config", "test_fraction"), 0,
                             "test_fraction must lie in (0, 1), got 0.0"),
    "config_n_per_class": (("config", "n_per_class"), 0, "n_per_class must be >= 1, got 0"),
    "config_algorithm": (("config", "stage2_algorithm"), "mlp",
                         "invalid stage2_algorithm: 'mlp' (not one of adaboost, rbf_svm)"),
    "mask_group": (("mask_groups",), ["nonsense"], "unknown feature group 'nonsense'"),
    # Model values of another JSON type are rejected, never converted.
    "tree_threshold": (("stage2", "model", "trees", 0, "threshold", 0), "NaN",
                       "invalid stage2.model.trees.threshold: ['NaN', 0.0, 0.0] "
                       "(not an array of finite numbers)"),
    "tree_feature": (("stage2", "model", "trees", 0, "feature", 0), 3.9,
                     "invalid stage2.model.trees.feature: [3.9, -1, -1] (not an array of integers)"),
    "tree_max_depth": (("stage2", "model", "trees", 0, "max_depth"), "5",
                       "invalid stage2.model.trees.max_depth: '5' (not a JSON integer)"),
    "stage_weights": (("stage2", "model", "stage_weights", 0), "1e300",
                      "invalid stage2.model.stage_weights: ['1e300'] (not an array of finite numbers)"),
    "model_max_depth": (("stage2", "model", "max_depth"), "5",
                        "invalid stage2.model.max_depth: '5' (not a JSON integer)"),
    # Model values outside the range their field declares.
    "model_max_depth_zero": (("stage2", "model", "max_depth"), 0, "max_depth must be >= 1, got 0"),
    "stage1_c_negative": (("stage1", "c"), -1.0, "c must be > 0, got -1.0"),
    "early_stop": (("stage2", "model", "early_stop"), 1,
                   "invalid stage2.model.early_stop: 1 (not a string)"),
    "stage1_seed": (("stage1", "seed"), True, "invalid stage1.seed: True (not a JSON integer)"),
    "bundle_seed": (("seed",), 4.7, "invalid seed: 4.7 (not a JSON integer)"),
    # Each model's class comes from one table; an unknown algorithm is no model.
    "stage1_algorithm": (("stage1", "algorithm"), "nonsense",
                         "invalid stage1.algorithm: 'nonsense' (not one of multinomial_nb, linear_svm)"),
    "stage2_kind": (("stage2", "kind"), "zzz",
                    "invalid stage2.kind: 'zzz' (not one of adaboost, rbf_svm)"),
    "stage2_algorithm": (("stage2", "model", "algorithm"), "zzz",
                         "invalid stage2.model.algorithm: 'zzz' (not one of adaboost)"),
    "stage2_unknown_key": (("stage2", "junk"), 1, "unknown field: stage2.junk"),
    # Values written but not otherwise read are checked against what they count.
    "n_terms_type": (("vocab", "n_terms"), "x", "invalid vocab.n_terms: 'x' (not a JSON integer)"),
    "n_terms_count": (("vocab", "n_terms"), 99, "invalid vocab.n_terms: 99 (the terms blob holds "),
    "format_version": (("format_version",), 99, "invalid format_version: 99 (the header says 1)"),
    # Resources decode as their own files do.
    "valence_nan": (("resources", "valence", "good"), "NaN",
                    "invalid resources.valence.good: 'NaN' (not a finite number)"),
    "valence_bool": (("resources", "valence", "good"), True,
                     "invalid resources.valence.good: True (not a finite number)"),
    "lexicon_pattern": (("resources", "lexicon", 0, "patterns"), [1],
                        "invalid resources.lexicon.patterns: [1] (not an array of strings)"),
}


@pytest.mark.parametrize("damage", sorted(REJECTED_MANIFEST_VALUES))
def test_predict_with_rejected_manifest_value_names_the_bundle(tmp_path, damage):
    path, value, message = REJECTED_MANIFEST_VALUES[damage]
    base = _container_bytes()[1]
    manifest = json.loads(_manifest(base))
    parent = manifest
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    bundle = tmp_path / f"{damage}.rsb1"
    bundle.write_bytes(_repacked(base, manifest))
    events = tmp_path / "predict.jsonl"
    events.write_bytes(EVENT_LINES[0] + b"\n")
    code, err = _run_cli([
        "predict", "--bundle", str(bundle), "--events", str(events),
        "--out", str(tmp_path / "scores.jsonl"),
    ])
    assert code == 1 and "Traceback" not in err
    assert err.startswith(f"error: {bundle}: invalid bundle manifest: {message}")


# A document frequency outside 1..n_documents would turn the idf weights
# negative or NaN.
@pytest.mark.parametrize("df", [-1, 0, 10 ** 6])
def test_predict_with_vocab_df_out_of_range_names_the_bundle(tmp_path, df):
    base = tmp_path / "base.rsb1"
    base.write_bytes(_container_bytes()[1])
    bundle = load_bundle(base)
    bundle.vocab.df[1] = df
    damaged = tmp_path / "df.rsb1"
    save_bundle(bundle, damaged)
    events = tmp_path / "predict.jsonl"
    events.write_bytes(EVENT_LINES[0] + b"\n")
    code, err = _run_cli([
        "predict", "--bundle", str(damaged), "--events", str(events),
        "--out", str(tmp_path / "scores.jsonl"),
    ])
    assert code == 1
    n = bundle.vocab.n_documents
    assert err == (f"error: {damaged}: invalid bundle manifest: invalid vocab_df: {df} "
                   f"(not in 1..{n}, the vocab.n_documents)\n")


# An RSF1 manifest value the package rejects: (key, value, the error after
# "invalid feature-matrix manifest: ").
REJECTED_MATRIX_VALUES = {
    "vocab_size_fraction": ("vocab_size", 5.9, "invalid vocab_size: 5.9 (not a JSON integer)"),
    "vocab_size_string": ("vocab_size", "5", "invalid vocab_size: '5' (not a JSON integer)"),
    "n_rows_negative": ("n_rows", -3, "invalid n_rows: -3 (the arrays hold 40)"),
    "n_rows_fraction": ("n_rows", 40.0, "invalid n_rows: 40.0 (the arrays hold 40)"),
    "n_rows_off_by_one": ("n_rows", 41, "invalid n_rows: 41 (the arrays hold 40)"),
}


@pytest.mark.parametrize("damage", sorted(REJECTED_MATRIX_VALUES))
def test_rejected_matrix_value_names_the_file(tmp_path, damage):
    key, value, message = REJECTED_MATRIX_VALUES[damage]
    base = _container_bytes()[0]
    manifest = json.loads(_manifest(base))
    manifest[key] = value
    path = tmp_path / f"{damage}.rsf1"
    path.write_bytes(_repacked(base, manifest))
    with pytest.raises(RegretstreamError) as exc:
        load_feature_matrix(path)
    assert str(exc.value) == f"{path}: invalid feature-matrix manifest: {message}"


def _without_block(container: bytes, name: str) -> bytes:
    """``container`` without the array block ``name``: its manifest entry
    and its bytes."""
    manifest = json.loads(_manifest(container))
    start = 16 + len(_manifest(container)) + sum(manifest.get("blobs", {}).values())
    for entry in manifest["arrays"]:
        size = np.dtype(entry["dtype"]).itemsize * int(np.prod(entry["shape"]))
        if entry["name"] == name:
            break
        start += size
    manifest["arrays"].remove(entry)
    return _repacked(container[:start] + container[start + size:], manifest)


# The array blocks of each container, in file order.
CONTAINER_BLOCKS = {
    "default.rsb1": (lambda: _container_bytes()[1], ("vocab_df", "svm_weights")),
    "rbf.rsb1": (_rbf_bundle_bytes, ("vocab_df", "svm_weights", "rbf_support_vectors",
                                     "rbf_dual_coef", "scaler_mean", "scaler_scale")),
    "responses.rsf1": (lambda: _container_bytes()[0], (
        "tweet_ids", "labels", "sparse_indptr", "sparse_indices", "sparse_data", "dense",
        "response")),
}


@pytest.mark.parametrize("kind, block", [
    (kind, block) for kind, (_, blocks) in CONTAINER_BLOCKS.items() for block in blocks
])
def test_missing_array_block_is_named(tmp_path, kind, block):
    make, blocks = CONTAINER_BLOCKS[kind]
    base = make()
    assert tuple(a["name"] for a in json.loads(_manifest(base))["arrays"]) == blocks
    path = tmp_path / kind
    path.write_bytes(_without_block(base, block))
    if kind.endswith(".rsf1"):
        if block == "response":  # a valid matrix without responses
            assert load_feature_matrix(path).response is None
            return
        with pytest.raises(RegretstreamError) as exc:
            load_feature_matrix(path)
        assert str(exc.value).startswith(f"{path}: invalid feature-matrix manifest: ")
        assert repr(block) in str(exc.value)
        return
    events = tmp_path / "predict.jsonl"
    events.write_bytes(EVENT_LINES[0] + b"\n")
    code, err = _run_cli([
        "predict", "--bundle", str(path), "--events", str(events),
        "--out", str(tmp_path / "scores.jsonl"),
    ])
    assert code == 1 and "Traceback" not in err
    assert err.startswith(f"error: {path}: ") and repr(block) in err
