"""Versioned model-bundle container ("RSB1", little-endian).

A bundle is self-contained for prediction: it embeds the vocabulary, both
stage models, the dense scaler, the feature-group mask, the training config
and seed, and the lexicon/valence/wordlist resources the dense features
depend on. Serialization is byte-deterministic for identical contents.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from datetime import datetime
from pathlib import Path

import numpy as np

from .. import textkit
from ..errors import RegretstreamError, ValidationError
from ..events import format_rfc3339, parse_rfc3339
from ..features import (
    DENSE_SIZE,
    DERIVED_SLOT,
    RESPONSE_SIZE,
    FeatureResources,
    Vocabulary,
    _read_arrays,
    _read_exact,
    _read_header,
    _write_container,
    featurize_corpus,
)
from ..textkit import _JSON_TYPES, _REQUIRED, _decode, _finite, _json_int
from .pipeline import DenseScaler, EvalMetrics, TrainConfig, mask_slots, stage2_design
from .smo import RbfSvmModel
from .stage1 import LinearSvmModel, NaiveBayesModel, SparseRows, derived_feature
from .trees import AdaBoostModel

_MAGIC = b"RSB1"
_VERSION = 1


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

    def predict_records(self, corpus_like, tweets=None):
        """(tweet_ids, labels, scores) for tweet records.

        ``corpus_like`` provides response-link lookups (any Corpus); the
        bundle's stored reference time anchors account-age features.
        """
        matrix = featurize_corpus(
            corpus_like,
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


def _stage1_manifest(model) -> tuple[dict, list[tuple[str, np.ndarray]]]:
    if isinstance(model, NaiveBayesModel):
        manifest = {"algorithm": "multinomial_nb", "alpha": model.alpha}
        blocks = [
            ("nb_class_log_prior", model.class_log_prior.astype("<f8")),
            ("nb_feature_log_prob", model.feature_log_prob.astype("<f8")),
        ]
        return manifest, blocks
    if isinstance(model, LinearSvmModel):
        manifest = {
            "algorithm": "linear_svm",
            "c": model.c,
            "epochs": model.epochs,
            "seed": model.seed,
        }
        return manifest, [("svm_weights", model.weights.astype("<f8"))]
    raise ValidationError(f"cannot serialize stage-1 model {type(model).__name__}")


def _stage2_manifest(model) -> tuple[dict, list[tuple[str, np.ndarray]]]:
    if isinstance(model, AdaBoostModel):
        return {"kind": "adaboost", "model": model.to_dict()}, []
    if isinstance(model, RbfSvmModel):
        manifest = {
            "kind": "rbf_svm",
            "c": model.c,
            "gamma": model.gamma,
            "bias": model.bias,
        }
        blocks = [
            ("rbf_support_vectors", model.support_vectors.astype("<f8")),
            ("rbf_dual_coef", model.dual_coef.astype("<f8")),
        ]
        return manifest, blocks
    raise ValidationError(f"cannot serialize stage-2 model {type(model).__name__}")


def save_bundle(bundle: ModelBundle, path: str | Path) -> None:
    stage1_manifest, stage1_blocks = _stage1_manifest(bundle.stage1)
    stage2_manifest, stage2_blocks = _stage2_manifest(bundle.stage2)

    res = bundle.resources
    if tuple(res.tagger.tagset) != textkit.DEFAULT_TAGSET:
        raise ValidationError("only the shipped tagger's tagset can be bundled")

    blocks: list[tuple[str, np.ndarray]] = [
        ("vocab_df", bundle.vocab.df.astype("<i8")),
    ]
    blocks += stage1_blocks + stage2_blocks
    if bundle.scaler is not None:
        blocks.append(("scaler_mean", bundle.scaler.mean.astype("<f8")))
        blocks.append(("scaler_scale", bundle.scaler.scale.astype("<f8")))
    terms_blob = "\n".join(bundle.vocab.terms).encode("utf-8")
    wordlist_blob = "\n".join(sorted(res.wordlist)).encode("utf-8")

    manifest = {
        "format_version": _VERSION,
        "config": textkit.encode_record(bundle.config),
        "seed": bundle.seed,
        "mask_groups": list(bundle.mask_groups),
        "reference_time": format_rfc3339(bundle.reference_time),
        "vocab": {"n_documents": bundle.vocab.n_documents, "n_terms": len(bundle.vocab)},
        "stage1": stage1_manifest,
        "stage2": stage2_manifest,
        "has_scaler": bundle.scaler is not None,
        "metrics": asdict(bundle.metrics) if bundle.metrics is not None else None,
        "resources": {
            "lexicon": [
                {"name": name, "patterns": patterns}
                for name, patterns in res.lexicon.categories
            ],
            "valence": {k: res.valence[k] for k in sorted(res.valence)},
        },
        "blobs": {"vocab_terms": len(terms_blob), "wordlist": len(wordlist_blob)},
    }
    _write_container(path, _MAGIC, _VERSION, manifest, blocks, (terms_blob, wordlist_blob))


def load_bundle(path: str | Path) -> ModelBundle:
    """Read an RSB1 file; a short section or a manifest that is not JSON or
    lacks, mistypes or holds an invalid field raises ValidationError naming
    the file."""
    with open(path, "rb") as fh:
        manifest = _read_header(fh, path, _MAGIC, _VERSION, "bundle")
        try:
            blobs = manifest["blobs"]
            terms_blob = _read_exact(fh, blobs["vocab_terms"], path, "vocab_terms").decode("utf-8")
            wordlist_blob = _read_exact(fh, blobs["wordlist"], path, "wordlist").decode("utf-8")
            arrays = _read_arrays(fh, path, manifest["arrays"])
            try:
                return _decode_bundle(manifest, terms_blob, wordlist_blob, arrays)
            except RegretstreamError as exc:  # a value the package itself rejects
                raise ValidationError(f"{path}: invalid bundle manifest: {exc}") from None
        except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
            raise ValidationError(f"{path}: invalid bundle manifest: {exc!r}") from None


def _scalars(raw, prefix: str, **converters) -> dict:
    """The fields of the JSON object ``raw`` that ``converters`` names, each
    required and converted by its converter; an error names the field
    behind ``prefix``."""
    fields = tuple((name, convert, _REQUIRED) for name, convert in converters.items())
    return _decode(raw, fields, prefix=prefix)


def _decode_bundle(manifest: dict, terms_blob: str, wordlist_blob: str, arrays) -> ModelBundle:
    config = textkit.decode_record(TrainConfig, manifest["config"], "config.")
    top = _scalars(manifest, "", seed=_json_int, has_scaler=_JSON_TYPES[bool])

    terms = terms_blob.split("\n") if terms_blob else []
    df = arrays["vocab_df"].astype(np.int64)
    n_documents = _scalars(manifest["vocab"], "vocab.", n_documents=_json_int)["n_documents"]
    vocab = Vocabulary({t: int(d) for t, d in zip(terms, df)}, n_documents)

    s1 = manifest["stage1"]
    if s1["algorithm"] == "multinomial_nb":
        stage1 = NaiveBayesModel(**_scalars(s1, "stage1.", alpha=_finite))
        stage1.class_log_prior = arrays["nb_class_log_prior"].astype(np.float64)
        stage1.feature_log_prob = arrays["nb_feature_log_prob"].astype(np.float64)
    else:
        stage1 = LinearSvmModel(
            **_scalars(s1, "stage1.", c=_finite, epochs=_json_int, seed=_json_int)
        )
        stage1.weights = arrays["svm_weights"].astype(np.float64)

    s2 = manifest["stage2"]
    if s2["kind"] == "adaboost":
        stage2 = AdaBoostModel.from_dict(s2["model"])
    else:
        stage2 = RbfSvmModel(**_scalars(s2, "stage2.", c=_finite, gamma=_finite, bias=_finite))
        stage2.support_vectors = arrays["rbf_support_vectors"].astype(np.float64)
        stage2.dual_coef = arrays["rbf_dual_coef"].astype(np.float64)

    # Every array and tree must fit the rows predict builds.
    width = DENSE_SIZE + (RESPONSE_SIZE if config.with_responses else 0)
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
    if any(f >= width for tree in getattr(stage2, "trees", ()) for f in tree.feature):
        raise ValueError(f"a tree splits on a feature beyond the {width} columns")

    scaler = None
    if top["has_scaler"]:
        scaler = DenseScaler(
            mean=arrays["scaler_mean"].astype(np.float64),
            scale=arrays["scaler_scale"].astype(np.float64),
        )

    res_raw = manifest["resources"]
    resources = FeatureResources(
        lexicon=textkit.Lexicon([(c["name"], c["patterns"]) for c in res_raw["lexicon"]
                                 if not c["name"].startswith("_empty_")]),
        valence={k: float(v) for k, v in res_raw["valence"].items()},
        wordlist=frozenset(w for w in wordlist_blob.split("\n") if w),
        tagger=textkit.RuleTagger(),
    )
    metrics = manifest.get("metrics")
    mask_slots(manifest["mask_groups"])  # every group must be one predict can mask
    return ModelBundle(
        config=config,
        seed=top["seed"],
        mask_groups=tuple(manifest["mask_groups"]),
        vocab=vocab,
        stage1=stage1,
        stage2=stage2,
        scaler=scaler,
        resources=resources,
        reference_time=parse_rfc3339(manifest["reference_time"], "reference_time"),
        metrics=None if metrics is None else textkit.decode_record(EvalMetrics, metrics, "metrics."),
    )
