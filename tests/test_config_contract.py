"""Property tests for the config files and the JSON resource readers.

A damaged synth, cleanup or training config, lexicon, valence table, trait
map, pre-tagged file or annotation file (a value retyped, ``Infinity`` or
``null``; a key dropped or added; the file truncated) makes its decoder
raise only ``RegretstreamError``; through the CLI it exits 1 with an
``error:`` line and no traceback. Each config also survives
``decode_config(cls, encode_record(c))`` unchanged. A value just outside
the range a config or model field declares, NaN included, is rejected
naming the field, before any output.
"""

import json
import math
from dataclasses import fields
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regretstream import analytics, classify, codec, textkit
from regretstream.classify import TrainConfig
from regretstream.classify.pipeline import STAGE1_MODELS, STAGE2_MODELS
from regretstream.cleanup import CleanupConfig
from regretstream.errors import ConfigError, RegretstreamError
from regretstream.synth import SynthConfig

from conftest import make_corpus, make_tweet, ts
from test_input_contract import WRONG_VALUES, _assert_exit_contract, _key_paths, _run_cli

WORDS = ["good", "bad", "day", "work", "#fun", "@pal", "http://t.co/x", "hate", "love", "lol"]
CORPUS = make_corpus([
    make_tweet(id=i, user_id=(i // 2) % 4 + 1, created_at=ts(hours=i), deleted=i % 2 == 0,
               text=" ".join(WORDS[i * k % len(WORDS)] for k in (1, 3, 7)),
               in_reply_to_id=i - 1 if i % 5 == 0 else None)
    for i in range(1, 41)
])
TAGGER = textkit.RuleTagger()

# name -> (valid content, JSON Lines?, decoder, CLI argv reading it as {file})
INPUTS = {
    "synth config": (
        {"seed": 3, "n_users": 6, "tweet_rate_min": 1.5, "tweet_rate_max": 2.2,
         "deletion_rate": 0.1, "reply_sentiment_coupling": False},
        False, SynthConfig.from_file,
        ["synth", "--config", "{file}", "--out-events", "{tmp}/e.jsonl",
         "--out-ledger", "{tmp}/l.jsonl"],
    ),
    "clean config": (
        {"language_tag": "en", "client_whitelist": ["Twitter Web Client"],
         "superficial_lookahead": 3, "cosine_min": 0.6},
        False, lambda path: codec.decode_json(path, partial(codec.decode_config, CleanupConfig)),
        ["clean", "--corpus", "{corpus}", "--config", "{file}", "--out", "{tmp}/c.json"],
    ),
    "train config": (
        {"n_per_class": 4, "test_fraction": 0.25, "stage1_algorithm": "linear_svm",
         "stage1_hyper": {"svm_epochs": 2}, "stage2_hyper": {"ada_depth": 2, "ada_rounds": 3},
         "derived_feature_folds": 2, "with_responses": False},
        False, lambda path: codec.decode_json(path, partial(codec.decode_config, TrainConfig)),
        ["train", "--corpus", "{corpus}", "--config", "{file}", "--out", "{tmp}/m.rsb1"],
    ),
    "lexicon": (
        {"categories": [{"name": "posemo", "patterns": ["good", "lov*"]},
                        {"name": "work", "patterns": ["work", "job"]}]},
        False, textkit.Lexicon.from_file,
        ["analyze", "--corpus", "{corpus}", "--metrics", "ntd", "--lexicon", "{file}",
         "--out", "{tmp}/r"],
    ),
    "valence": (
        {"good": 1.9, "bad": -2.5, "love": 2.0},
        False, textkit.load_valence,
        ["analyze", "--corpus", "{corpus}", "--metrics", "response", "--valence", "{file}",
         "--out", "{tmp}/r"],
    ),
    "trait map": (
        {"funct": ["O+", "C-"], "posemo": ["E+"], "tweets_w_hashtags": []},
        False, analytics.load_trait_map,
        ["analyze", "--corpus", "{corpus}", "--metrics", "traits", "--traits-map", "{file}",
         "--out", "{tmp}/r"],
    ),
    "tags": (
        [{"id": t.id, "tags": TAGGER.tag(textkit.tokenize(t.text))} for t in CORPUS.tweets[:3]],
        True, textkit.PretaggedStore.from_file,
        ["featurize", "--corpus", "{corpus}", "--tags", "{file}", "--out", "{tmp}/f.rsf1"],
    ),
    "annotations": (
        [{"item_id": i, "group": ("deleted", "non_deleted")[i % 2],
          "answers": {"family": ["yes", "no", "yes"]}, "regret": ["yes", "no", ("no", "yes")[i % 2]]}
         for i in range(4)],
        True,
        lambda path: analytics.aggregate_annotations(
            codec.decode_jsonl(path, analytics.annotation_item)),
        ["annotate-agg", "--annotations", "{file}", "--out", "{tmp}/a.json"],
    ),
}

# Values no config field accepts, apart from a bool for a bool field: at
# the CLI a valid config runs the command, and a valid huge count (synth
# users, SVM epochs) would run it for hours.
INVALID_VALUES = st.one_of(
    st.none(), st.booleans(), st.sampled_from([math.inf, -math.inf, math.nan]),
    st.text(max_size=6), st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)


def _encode(content, jsonl: bool) -> bytes:
    if jsonl:
        return "".join(json.dumps(line) + "\n" for line in content).encode()
    return json.dumps(content).encode()


@st.composite
def damaged(draw, name: str, ways=("truncate", "retype", "drop", "add"), values=WRONG_VALUES):
    """The input ``name`` truncated, or with one value retyped, one key or
    element dropped, or one key added to an object."""
    content, jsonl = INPUTS[name][:2]
    how = draw(st.sampled_from(ways))
    if how == "truncate":
        data = _encode(content, jsonl)
        return data[: draw(st.integers(0, len(data) - 1))]
    obj = json.loads(json.dumps(content))
    if how == "add":
        objects = [()] + [p for p in _key_paths(obj) if isinstance(_at(obj, p), dict)]
        if jsonl:
            objects.remove(())
        _at(obj, draw(st.sampled_from(objects)))[draw(st.text(max_size=4))] = draw(values)
        return _encode(obj, jsonl)
    path = draw(st.sampled_from(list(_key_paths(obj))))
    parent = _at(obj, path[:-1])
    if how == "retype":
        parent[path[-1]] = draw(values)
    else:
        del parent[path[-1]]
    return _encode(obj, jsonl)


def _at(obj, path):
    for key in path:
        obj = obj[key]
    return obj


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("config-contract")
    CORPUS.save(root / "corpus.json")
    return root


def _argv(name: str, files, path) -> list[str]:
    return [a.format(file=path, corpus=files / "corpus.json", tmp=files)
            for a in INPUTS[name][3]]


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_undamaged_inputs_are_valid(files, name):
    content, jsonl, decode, _ = INPUTS[name]
    path = files / f"valid-{name}.json"
    path.write_bytes(_encode(content, jsonl))
    decode(path)
    code, err = _run_cli(_argv(name, files, path))
    assert code == 0, err


@pytest.mark.parametrize("name", sorted(INPUTS))
@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_decoders_raise_only_package_errors(files, name, data):
    path = files / "input.json"
    path.write_bytes(data.draw(damaged(name)))
    try:
        INPUTS[name][2](path)
    except RegretstreamError:
        pass


@pytest.mark.parametrize("name", sorted(INPUTS))
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_cli_with_damaged_input_exits_1(files, name, data):
    path = files / "input.json"
    path.write_bytes(data.draw(damaged(name, ("truncate", "retype", "add"), INVALID_VALUES)))
    _assert_exit_contract(*_run_cli(_argv(name, files, path)))


# The other choice of each config field that must name one of two
# algorithms.
OTHER_CHOICE = {"linear_svm": "multinomial_nb", "adaboost": "rbf_svm"}


def _changed(value):
    """A value of the same JSON type as ``value`` that differs from it."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return value / 2 if value else 0.25
    if isinstance(value, str):
        return OTHER_CHOICE.get(value, value + "x")
    if isinstance(value, dict):
        return {k: _changed(v) for k, v in value.items()}
    return frozenset({"TweetDeck", "Twitter Web Client"})


@pytest.mark.parametrize("cls", [SynthConfig, CleanupConfig, TrainConfig])
def test_config_round_trip(cls):
    """The decode table and ``asdict`` agree on every field: at the
    defaults, and with a non-default value in every field at once."""
    default = cls()
    changed = cls(**{f.name: _changed(getattr(default, f.name)) for f in fields(cls)})
    for cfg in (default, changed):
        assert codec.decode_config(cls, json.loads(json.dumps(codec.encode_record(cfg)))) == cfg
    assert all(getattr(changed, f.name) != getattr(default, f.name) for f in fields(cls))


@pytest.mark.parametrize("cls", [SynthConfig, CleanupConfig, TrainConfig])
def test_absent_fields_decode_to_their_defaults(cls):
    """A config file may leave any field out, a set-valued one included."""
    assert codec.decode_config(cls, {}) == cls()


# The config file each command reads, and the value of INPUTS it starts from.
RANGED_CONFIGS = {SynthConfig: "synth config", CleanupConfig: "clean config",
                  TrainConfig: "train config"}
MODEL_CLASSES = {"stage1": STAGE1_MODELS, "stage2": STAGE2_MODELS}


def _outside(f):
    """The values just outside the declared range of the field ``f``."""
    low, high, above, below = f.metadata["range"]
    step = 1 if type(f.default) is int else 0.5
    values = [low if above else low - step]
    if high != math.inf:
        values.append(high if below else high + step)
    return [float(v) if type(f.default) is float else v for v in values]


def _ranged(cls):
    return [f for f in fields(cls) if "range" in f.metadata]


def _range_cases():
    """(input name, config, the name the error gives, value) for each value
    just outside each declared range: of each config field, and of each
    hyperparameter key, given with its model's algorithm chosen."""
    for cls, name in RANGED_CONFIGS.items():
        for f in _ranged(cls):
            for value in _outside(f):
                yield name, {f.name: value}, f.name, value
    for stage, models in MODEL_CLASSES.items():
        for model in models.values():
            keys = {field_name: key for key, field_name in model.hyper_keys.items()}
            for f in _ranged(model):
                for value in _outside(f):
                    hyper = {**INPUTS["train config"][0][f"{stage}_hyper"], keys[f.name]: value}
                    yield ("train config",
                           {f"{stage}_algorithm": model.algorithm, f"{stage}_hyper": hyper},
                           f"{stage}_hyper.{keys[f.name]}", value)


RANGE_CASES = list(_range_cases())


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name,change,field,value", RANGE_CASES,
                         ids=[f"{c[2]}={c[3]}" for c in RANGE_CASES])
def test_value_outside_a_declared_range_exits_1_naming_the_field(
        files, tmp_path, monkeypatch, name, change, field, value):
    def sample(*args):
        raise AssertionError("sampled before the config was checked")

    monkeypatch.setattr(classify.pipeline, "balanced_sample", sample)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**INPUTS[name][0], **change}))
    argv = [a.format(file=path, corpus=files / "corpus.json", tmp=tmp_path)
            for a in INPUTS[name][3]]
    code, err = _run_cli(argv)
    assert code == 1, err
    assert err.startswith(f"error: {path}: {field} must ") and err.endswith(f", got {value}\n")
    assert "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


@pytest.mark.parametrize("cls", [*RANGED_CONFIGS, *STAGE1_MODELS.values(),
                                 *STAGE2_MODELS.values()], ids=lambda cls: cls.__name__)
def test_nan_in_a_ranged_field_raises_config_error(cls):
    assert _ranged(cls)
    for f in _ranged(cls):
        with pytest.raises(ConfigError, match=f"^{f.name} must "):
            cls(**{f.name: math.nan})
