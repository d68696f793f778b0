"""Versioned model bundle ("RSB1", a ``codec`` container).

A bundle is self-contained for prediction: it embeds the vocabulary, both
stage models, the dense scaler, the feature-group mask, the training config
and seed, and the lexicon/valence/wordlist resources the dense features
depend on. Serialization is byte-deterministic for identical contents.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime
from pathlib import Path

import numpy as np

from .. import codec, textkit
from ..errors import SchemaError, ValidationError
from ..features import (
    DENSE_SIZE,
    DERIVED_SLOT,
    RESPONSE_SIZE,
    FeatureResources,
    Vocabulary,
    featurize_corpus,
)
from .pipeline import (STAGE2_MODELS, DenseScaler, EvalMetrics, TrainConfig, mask_slots,
                       stage2_design)
from .smo import RbfSvmModel
from .stage1 import (STAGE1_MODELS, LinearSvmModel, NaiveBayesModel, SparseRows, derived_feature,
                     model_class)
from .trees import AdaBoostModel

_MAGIC = b"RSB1"
_VERSION = 1

# The prefix of the names of each class's array blocks.
_BLOCKS = {NaiveBayesModel: "nb_", LinearSvmModel: "svm_", AdaBoostModel: "",
           RbfSvmModel: "rbf_", DenseScaler: "scaler_"}


@dataclass
class ModelBundle:
    config: TrainConfig
    seed: int
    mask_groups: tuple[str, ...]
    vocab: Vocabulary
    stage1: object
    stage2: object
    scaler: DenseScaler | None
    resources: FeatureResources
    reference_time: datetime
    metrics: EvalMetrics | None = None

    # -- prediction --------------------------------------------------------

    def predict_records(self, tweets, lookup):
        """(tweet_ids, labels, scores) for the tweet records ``tweets``.

        ``lookup`` maps a tweet id to its record for response links (a dict,
        or a Corpus); the bundle's stored reference time anchors account-age
        features.
        """
        matrix = featurize_corpus(
            lookup,
            self.vocab,
            self.resources,
            tweets=tweets,
            with_responses=self.config.with_responses,
            now=self.reference_time,
        )
        sparse = SparseRows.from_feature_matrix(matrix)
        matrix.dense[:, DERIVED_SLOT] = derived_feature(self.stage1, sparse)
        X = stage2_design(matrix, self.mask_groups)
        if self.scaler is not None:
            X = self.scaler.transform(X)
        scores = self.stage2.decision_values(X)
        labels = (scores > 0).astype(np.int8)
        return matrix.tweet_ids, labels, scores


@dataclass
class _Manifest:
    """The fields of an RSB1 manifest besides its stage models, resources
    and arrays, each decoded by its declared type."""

    format_version: int
    config: TrainConfig
    seed: int
    mask_groups: tuple[str, ...]
    reference_time: datetime
    has_scaler: bool
    metrics: EvalMetrics | None
    # Each dict default names the keys of its object and their JSON types.
    vocab: dict = field(default_factory=lambda: {"n_documents": 0, "n_terms": 0})
    blobs: dict = field(default_factory=lambda: {"vocab_terms": 0, "wordlist": 0})


def _model_json(model, tag: str, blocks: list) -> dict:
    """The manifest object of a stage model: its algorithm under ``tag`` and
    its declared fields; its array fields are appended to ``blocks``."""
    blocks += codec.to_blocks(model, _BLOCKS[type(model)])
    return {tag: model.algorithm, **codec.encode_record(model)}


def save_bundle(bundle: ModelBundle, path: str | Path) -> None:
    res = bundle.resources
    if tuple(res.tagger.tagset) != textkit.DEFAULT_TAGSET:
        raise ValidationError("only the shipped tagger's tagset can be bundled")

    blocks: list[tuple[str, np.ndarray]] = [("vocab_df", bundle.vocab.df.astype("<i8"))]
    stage1 = _model_json(bundle.stage1, "algorithm", blocks)
    if isinstance(bundle.stage2, AdaBoostModel):
        stage2 = {"kind": AdaBoostModel.algorithm,
                  "model": _model_json(bundle.stage2, "algorithm", blocks)}
    else:
        stage2 = _model_json(bundle.stage2, "kind", blocks)
    if bundle.scaler is not None:
        blocks += codec.to_blocks(bundle.scaler, _BLOCKS[DenseScaler])
    terms_blob = "\n".join(bundle.vocab.terms).encode("utf-8")
    wordlist_blob = "\n".join(sorted(res.wordlist)).encode("utf-8")

    head = _Manifest(
        _VERSION, bundle.config, bundle.seed, bundle.mask_groups, bundle.reference_time,
        bundle.scaler is not None, bundle.metrics,
        vocab={"n_documents": bundle.vocab.n_documents, "n_terms": len(bundle.vocab)},
        blobs={"vocab_terms": len(terms_blob), "wordlist": len(wordlist_blob)},
    )
    lexicon = [{"name": name, "patterns": patterns} for name, patterns in res.lexicon.categories]
    manifest = {**codec.encode_record(head), "stage1": stage1, "stage2": stage2,
                "resources": {"lexicon": lexicon, "valence": res.valence}}
    codec.write_container(path, _MAGIC, _VERSION, manifest, blocks, (terms_blob, wordlist_blob))


def load_bundle(path: str | Path) -> ModelBundle:
    """Read an RSB1 file, as ``codec.load_container`` does."""
    return codec.load_container(
        path, _MAGIC, _VERSION, "bundle", _decode_bundle, ("vocab_terms", "wordlist")
    )


def _decode_model(raw, tag: str, classes: dict, prefix: str, arrays: dict):
    """The stage model the manifest object ``raw`` holds: of the class in
    ``classes`` that its ``tag`` names, with every declared field (named
    behind ``prefix``) and every array block."""
    fields = dict(raw)
    cls = model_class(classes, fields.pop(tag, None), prefix + tag)
    blocks = codec.from_blocks(cls, arrays, _BLOCKS[cls])
    return codec.decode_record(cls, fields, prefix, blocks, strict=True)


def _decode_bundle(manifest, arrays, terms_blob: str, wordlist_blob: str) -> ModelBundle:
    s1, s2, res = (manifest.pop(key) for key in ("stage1", "stage2", "resources"))
    head = codec.decode_record(_Manifest, manifest, strict=True)
    if head.format_version != _VERSION:
        raise ValidationError(
            f"invalid format_version: {head.format_version} (the header says {_VERSION})")

    terms = terms_blob.split("\n") if terms_blob else []
    if head.vocab["n_terms"] != len(terms):
        raise ValidationError(f"invalid vocab.n_terms: {head.vocab['n_terms']} "
                              f"(the terms blob holds {len(terms)})")
    df = arrays["vocab_df"].astype(np.int64)
    outside = df[(df < 1) | (df > head.vocab["n_documents"])]
    if len(outside):
        raise ValidationError(f"invalid vocab_df: {outside[0]} "
                              f"(not in 1..{head.vocab['n_documents']}, the vocab.n_documents)")
    vocab = Vocabulary({t: int(d) for t, d in zip(terms, df)}, head.vocab["n_documents"])

    stage1 = _decode_model(s1, "algorithm", STAGE1_MODELS, "stage1.", arrays)
    # RSB1 v1 names the stage-2 algorithm ``kind`` and nests an AdaBoost
    # model, with its own ``algorithm``, under ``model``.
    if s2["kind"] == AdaBoostModel.algorithm:
        extra = sorted(set(s2) - {"kind", "model"})
        if extra:
            raise SchemaError(f"stage2.{extra[0]}", f"unknown field: stage2.{extra[0]}")
        stage2 = _decode_model(s2["model"], "algorithm", {s2["kind"]: AdaBoostModel},
                               "stage2.model.", arrays)
    else:
        stage2 = _decode_model(s2, "kind", STAGE2_MODELS, "stage2.", arrays)

    # Every array and tree must fit the rows predict builds.
    width = DENSE_SIZE + (RESPONSE_SIZE if head.config.with_responses else 0)
    n_sv = len(arrays.get("rbf_dual_coef", ()))
    shapes = {
        "vocab_df": (len(terms),), "svm_weights": (len(terms) + 1,),
        "nb_class_log_prior": (2,), "nb_feature_log_prob": (2, len(terms)),
        "rbf_support_vectors": (n_sv, width), "rbf_dual_coef": (n_sv,),
        "scaler_mean": (width,), "scaler_scale": (width,),
    }
    for name, arr in arrays.items():
        if arr.shape != shapes.get(name, arr.shape):
            raise ValueError(f"array {name} has shape {arr.shape}, expected {shapes[name]}")
    for tree in getattr(stage2, "trees", ()):
        tree.check(width)

    scaler = (DenseScaler(**codec.from_blocks(DenseScaler, arrays, _BLOCKS[DenseScaler]))
              if head.has_scaler else None)
    resources = FeatureResources(
        lexicon=textkit.Lexicon.from_categories(res["lexicon"], "resources.lexicon."),
        valence=textkit.valence_table(res["valence"], "resources.valence."),
        wordlist=frozenset(w for w in wordlist_blob.split("\n") if w),
        tagger=textkit.RuleTagger(),
    )
    mask_slots(head.mask_groups)  # every group must be one predict can mask
    return ModelBundle(head.config, head.seed, head.mask_groups, vocab, stage1, stage2, scaler,
                       resources, head.reference_time, head.metrics)
