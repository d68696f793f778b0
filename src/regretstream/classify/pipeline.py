"""Two-stage training pipeline: balanced sampling, out-of-fold derived
feature, stage-2 fitting, and ablation.

The derived open-text feature for training rows always comes from
fold-nested stage-1 models (no row is scored by a model that saw it), while
held-out rows are scored by the final stage-1 model fit on all training
rows.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, field

import numpy as np
from numpy.typing import NDArray

from .. import codec
from ..errors import InsufficientDataError, ValidationError
from ..features import (
    DERIVED_SLOT,
    FEATURE_GROUPS,
    FeatureMatrix,
    TweetMeasurements,
    build_vocab,
    featurize_corpus,
)
from .stage1 import (STAGE1_MODELS, LinearSvmModel, SparseRows, build_model, derived_feature,
                     model_class, train_stage1)
from .smo import RbfSvmModel
from .trees import AdaBoostModel

# Sub-stream ids for deriving independent RNGs from one seed.
_RNG_SAMPLE, _RNG_SPLIT, _RNG_FOLDS, _RNG_STAGE1 = 1, 2, 3, 4


def _rng(seed: int, stream: int, extra: int = 0) -> np.random.Generator:
    return np.random.default_rng([seed, stream, extra])


# The model class of each stage-2 algorithm, in the order messages list them.
STAGE2_MODELS = {m.algorithm: m for m in (AdaBoostModel, RbfSvmModel)}
_STAGE_MODELS = {"stage1": STAGE1_MODELS, "stage2": STAGE2_MODELS}
# Each hyperparameter key of a stage's classes, with the default of the field it sets.
_HYPER_DEFAULTS = {stage: {key: getattr(cls, name) for cls in models.values()
                           for key, name in cls.hyper_keys.items()}
                   for stage, models in _STAGE_MODELS.items()}


@dataclass(frozen=True)
class TrainConfig(codec.Ranged):
    n_per_class: int = codec.ranged(1200, 1)
    test_fraction: float = codec.ranged(0.25, 0, 1, above=True, below=True)
    stage1_algorithm: str = LinearSvmModel.algorithm
    stage1_hyper: dict = field(default_factory=lambda: dict(_HYPER_DEFAULTS["stage1"]))
    stage2_algorithm: str = AdaBoostModel.algorithm
    stage2_hyper: dict = field(default_factory=lambda: dict(_HYPER_DEFAULTS["stage2"]))
    derived_feature_folds: int = codec.ranged(5, 2)
    with_responses: bool = False

    def __post_init__(self):
        super().__post_init__()
        # Each hyper dict is merged over the defaults, as in a config file,
        # and checked against the ranges of every model class of its stage.
        for stage, models in _STAGE_MODELS.items():
            model_class(models, getattr(self, f"{stage}_algorithm"), f"{stage}_algorithm")
            hyper = codec.decode_config(
                _HYPER_DEFAULTS[stage], getattr(self, f"{stage}_hyper"), f"{stage}_hyper.")
            for cls in models.values():
                keys = {name: key for key, name in cls.hyper_keys.items()}
                codec.check_ranges(cls, {name: hyper[key] for name, key in keys.items()},
                                   {name: f"{stage}_hyper.{key}" for name, key in keys.items()})
            object.__setattr__(self, f"{stage}_hyper", hyper)


@dataclass(frozen=True)
class EvalMetrics:
    precision: float
    recall: float
    f1: float
    tp: int
    fp: int
    tn: int
    fn: int


def evaluate(pred, true) -> EvalMetrics:
    """Positive-class (deleted = 1) precision/recall/F1 with confusion counts."""
    pred = np.asarray(pred).astype(np.int8)
    true = np.asarray(true).astype(np.int8)
    if len(pred) != len(true):
        raise ValidationError(f"{len(pred)} predictions for {len(true)} labels")
    tp = int(np.sum((pred == 1) & (true == 1)))
    fp = int(np.sum((pred == 1) & (true == 0)))
    tn = int(np.sum((pred == 0) & (true == 0)))
    fn = int(np.sum((pred == 0) & (true == 1)))
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return EvalMetrics(precision, recall, f1, tp, fp, tn, fn)


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def balanced_sample(corpus, n_per_class: int, seed: int) -> list:
    """Per-user paired sample with exactly n_per_class tweets per class.

    Each user contributes up to min(#deleted, #non-deleted) tweets per
    class, chosen uniformly with the seeded RNG; users are visited in a
    seeded random order until the quota is filled.
    """
    rng = _rng(seed, _RNG_SAMPLE)
    per_user: dict[int, tuple[list, list]] = {}
    for user_id in corpus.user_ids():
        timeline = corpus.tweets_of(user_id)
        deleted = [t for t in timeline if t.deleted]
        kept = [t for t in timeline if not t.deleted]
        if deleted and kept:
            per_user[user_id] = (deleted, kept)
    achievable = sum(min(len(d), len(k)) for d, k in per_user.values())
    if achievable < n_per_class:
        raise InsufficientDataError(
            f"requested {n_per_class} pairs but only {achievable} are achievable",
            achievable=achievable,
        )
    users = rng.permutation(sorted(per_user))
    sample = []
    collected = 0
    for user_id in users:
        if collected >= n_per_class:
            break
        deleted, kept = per_user[int(user_id)]
        take = min(len(deleted), len(kept), n_per_class - collected)
        chosen_d = rng.choice(len(deleted), size=take, replace=False)
        chosen_k = rng.choice(len(kept), size=take, replace=False)
        sample.extend(deleted[i] for i in sorted(chosen_d.tolist()))
        sample.extend(kept[i] for i in sorted(chosen_k.tolist()))
        collected += take
    return sample


def replied_sample(corpus, n_per_class: int, seed: int) -> list:
    """Equal-sized per-class sample of replied-to tweets of deleter users."""
    rng = _rng(seed, _RNG_SAMPLE, extra=1)
    deleters = {t.user_id for t in corpus if t.deleted}
    replied = [t for t in corpus if t.reply_ids and t.user_id in deleters]
    deleted = [t for t in replied if t.deleted]
    kept = [t for t in replied if not t.deleted]
    n = min(n_per_class, len(deleted), len(kept))
    if n == 0:
        raise InsufficientDataError(
            "no replied-to tweets available in both classes",
            achievable=min(len(deleted), len(kept)),
        )
    chosen_d = rng.choice(len(deleted), size=n, replace=False)
    chosen_k = rng.choice(len(kept), size=n, replace=False)
    sample = [deleted[i] for i in sorted(chosen_d.tolist())]
    sample.extend(kept[i] for i in sorted(chosen_k.tolist()))
    return sample


def stratified_split(labels, test_fraction: float, rng) -> tuple[np.ndarray, np.ndarray]:
    labels = np.asarray(labels)
    train, test = [], []
    for cls in (0, 1):
        idx = np.nonzero(labels == cls)[0]
        idx = idx[rng.permutation(len(idx))]
        n_test = int(round(len(idx) * test_fraction))
        test.extend(idx[:n_test].tolist())
        train.extend(idx[n_test:].tolist())
    return np.array(sorted(train), dtype=np.int64), np.array(sorted(test), dtype=np.int64)


def stratified_folds(labels, k: int, rng) -> np.ndarray:
    """Fold id per row; each class dealt round-robin after a seeded shuffle."""
    if k < 2:
        raise ValidationError(f"stratified folds need k >= 2, got k={k}")
    labels = np.asarray(labels)
    folds = np.zeros(len(labels), dtype=np.int64)
    for cls in np.unique(labels):
        idx = np.nonzero(labels == cls)[0]
        if len(idx) < k:
            raise ValidationError(
                f"class {cls} has {len(idx)} rows; cannot build {k} stratified folds"
            )
        idx = idx[rng.permutation(len(idx))]
        for pos, row in enumerate(idx):
            folds[row] = pos % k
    return folds


# ---------------------------------------------------------------------------
# Scaling and stage-2
# ---------------------------------------------------------------------------

@dataclass
class DenseScaler:
    """Column z-scoring; constant (or masked-out) columns pass through."""

    mean: NDArray[np.float64] | None = None
    scale: NDArray[np.float64] | None = None

    def fit(self, X: np.ndarray) -> "DenseScaler":
        self.mean = X.mean(axis=0)
        std = X.std(axis=0)
        self.scale = np.where(std < 1e-12, 1.0, std)
        self.mean = np.where(std < 1e-12, 0.0, self.mean)
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        return (X - self.mean) / self.scale


def train_stage2(X_dense: np.ndarray, y, algorithm: str, hyper: dict | None = None):
    """Train the dense stage; returns (model, scaler-or-None).

    The RBF-SVM runs on z-scored features; AdaBoost runs on raw features
    (trees are scale-invariant). Neither draws random numbers, so the
    stage takes no seed.
    """
    model = build_model(STAGE2_MODELS, algorithm, hyper, "stage2_algorithm")
    scaler = DenseScaler().fit(X_dense) if isinstance(model, RbfSvmModel) else None
    return model.fit(X_dense if scaler is None else scaler.transform(X_dense), y), scaler


def mask_slots(groups) -> np.ndarray:
    """Dense slot indices for a list of feature-group names."""
    slots = []
    for g in groups:
        if g not in FEATURE_GROUPS:
            raise ValidationError(
                f"unknown feature group {g!r}; valid: {sorted(FEATURE_GROUPS)}"
            )
        slots.extend(FEATURE_GROUPS[g])
    return np.array(sorted(set(slots)), dtype=np.int64)


def stage2_design(matrix: FeatureMatrix, mask_groups=()) -> np.ndarray:
    """Dense design matrix with masked groups zeroed (and the response
    block appended when present). Any remaining NaN is a pipeline bug."""
    dense = matrix.dense.copy()
    slots = mask_slots(mask_groups)
    if len(slots):
        dense[:, slots] = 0.0
    if np.isnan(dense).any():
        raise ValidationError(
            "dense features contain NaN (derived open-text slot not filled?)"
        )
    if matrix.response is not None:
        return np.concatenate([dense, matrix.response], axis=1)
    return dense


# ---------------------------------------------------------------------------
# Prepared training data and the two-stage pipeline
# ---------------------------------------------------------------------------

@dataclass
class PreparedData:
    vocab: object
    stage1: object
    train: FeatureMatrix
    test: FeatureMatrix


def _fit_stage1(X: SparseRows, y, config: TrainConfig, seed: int, extra: int):
    """The stage-1 model of ``config`` fit on (X, y), seeded by ``extra``."""
    return train_stage1(X, y, config.stage1_algorithm, config.stage1_hyper,
                        seed=int(_rng(seed, _RNG_STAGE1, extra=extra).integers(0, 2**31)))


def _out_of_fold_derived(train: FeatureMatrix, config: TrainConfig, seed: int) -> np.ndarray:
    """Derived feature for training rows from fold-nested stage-1 models."""
    X = SparseRows.from_feature_matrix(train)
    y = train.labels
    k = config.derived_feature_folds
    folds = stratified_folds(y, k, _rng(seed, _RNG_FOLDS))
    out = np.zeros(len(y), dtype=np.float64)
    for f in range(k):
        holdout = np.nonzero(folds == f)[0]
        rest = np.nonzero(folds != f)[0]
        model = _fit_stage1(X.subset(rest), y[rest], config, seed, f)
        out[holdout] = derived_feature(model, X.subset(holdout))
    return out


def prepare_training_data(corpus, config: TrainConfig, seed: int, resources) -> PreparedData:
    """Sample, split, featurize, and fill the derived open-text feature.

    The vocabulary is built from the training split only; held-out rows get
    their derived feature from the final stage-1 model trained on the full
    training split.
    """
    if len(corpus) == 0:
        raise ValidationError("empty corpus")
    if config.with_responses:
        sample = replied_sample(corpus, config.n_per_class, seed)
    else:
        sample = balanced_sample(corpus, config.n_per_class, seed)
    labels = [1 if t.deleted else 0 for t in sample]
    train_idx, test_idx = stratified_split(labels, config.test_fraction, _rng(seed, _RNG_SPLIT))
    records = [TweetMeasurements(sample[i], resources) for i in train_idx]  # tokenized once
    vocab = build_vocab(records)
    train, test = (
        featurize_corpus(
            corpus, vocab, resources, tweets=tweets, with_responses=config.with_responses
        )
        for tweets in (records, [sample[i] for i in test_idx])
    )
    train.dense[:, DERIVED_SLOT] = _out_of_fold_derived(train, config, seed)
    # The final fit's stream follows those of the k fold fits, 0..k-1.
    stage1 = _fit_stage1(SparseRows.from_feature_matrix(train), train.labels, config, seed,
                         config.derived_feature_folds)
    test.dense[:, DERIVED_SLOT] = derived_feature(stage1, SparseRows.from_feature_matrix(test))
    return PreparedData(vocab, stage1, train, test)


def fit_and_evaluate(prep: PreparedData, config: TrainConfig, mask_groups=()):
    """Train stage-2 on prepared data and evaluate on the held-out split."""
    X_train = stage2_design(prep.train, mask_groups)
    X_test = stage2_design(prep.test, mask_groups)
    model, scaler = train_stage2(
        X_train, prep.train.labels, config.stage2_algorithm, config.stage2_hyper
    )
    if scaler is not None:
        X_test = scaler.transform(X_test)
    metrics = evaluate(model.predict(X_test), prep.test.labels)
    return model, scaler, metrics


def two_stage_train(corpus, config: TrainConfig, seed: int, resources):
    """Full pipeline over every feature group; returns (ModelBundle,
    held-out EvalMetrics)."""
    from .bundle import ModelBundle

    prep = prepare_training_data(corpus, config, seed, resources)
    model, scaler, metrics = fit_and_evaluate(prep, config)
    bundle = ModelBundle(
        config=config,
        seed=seed,
        mask_groups=(),
        vocab=prep.vocab,
        stage1=prep.stage1,
        stage2=model,
        scaler=scaler,
        resources=resources,
        reference_time=corpus.window.post_end,
        metrics=metrics,
    )
    return bundle, metrics


def ablate(corpus, config: TrainConfig, groups, seed: int, resources) -> dict:
    """Retrain with each feature group masked and compare to the baseline.

    Group names must come from the dense layout groups. Results carry
    absolute metrics, metric ratios relative to baseline, and the F1 delta.
    The cells run on one worker per core; results come back in group order,
    so the report does not depend on the core count.
    """
    from concurrent.futures import ThreadPoolExecutor

    groups = list(groups)
    mask_slots(groups)  # rejects an unknown group before any training
    prep = prepare_training_data(corpus, config, seed, resources)
    _, _, baseline = fit_and_evaluate(prep, config, ())

    def run_cell(group: str) -> EvalMetrics:
        return fit_and_evaluate(prep, config, (group,))[2]

    with ThreadPoolExecutor(max_workers=os.cpu_count() or 1) as pool:
        results = dict(zip(groups, pool.map(run_cell, groups)))

    def rel(x, base):
        return x / base if base else 0.0

    report = {
        "baseline": asdict(baseline),
        "dropped": {},
    }
    for group in groups:
        m = results[group]
        report["dropped"][group] = {
            "metrics": asdict(m),
            "relative": {
                "precision": rel(m.precision, baseline.precision),
                "recall": rel(m.recall, baseline.recall),
                "f1": rel(m.f1, baseline.f1),
            },
            "delta_f1": m.f1 - baseline.f1,
        }
    return report
