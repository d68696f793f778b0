import hashlib
import math
import os
from concurrent import futures
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from regretstream.classify import (
    AdaBoostModel,
    DecisionTree,
    LinearSvmModel,
    NaiveBayesModel,
    RbfSvmModel,
    SparseRows,
    TrainConfig,
    ablate,
    balanced_sample,
    derived_feature,
    evaluate,
    load_bundle,
    replied_sample,
    save_bundle,
    stratified_folds,
    stratified_split,
    train_stage1,
    train_stage2,
    two_stage_train,
)
from regretstream.classify.smo import MAX_TRAIN_ROWS
from regretstream.codec import decode_config, decode_record, encode_record
from regretstream.errors import ConfigError, InsufficientDataError, ValidationError

from conftest import make_corpus, make_tweet, ts
from oracles import ReferenceTree, row_pegasos_weights


def sparse_from_rows(rows, n_cols):
    indptr = [0]
    indices = []
    data = []
    for row in rows:
        for idx in sorted(row):
            indices.append(idx)
            data.append(row[idx])
        indptr.append(len(indices))
    return SparseRows(
        np.array(indptr, dtype=np.int64),
        np.array(indices, dtype=np.int64),
        np.array(data, dtype=np.float64),
        n_cols,
    )


class TestSparseRows:
    @given(st.lists(st.dictionaries(st.integers(0, 5), st.floats(-2, 2), max_size=4),
                    min_size=1, max_size=6), st.data())
    @settings(max_examples=100, deadline=None)
    def test_subset_holds_the_picked_rows(self, rows, data):
        X = sparse_from_rows(rows, 6)
        picked = data.draw(st.lists(st.integers(0, len(rows) - 1), max_size=8))
        got, want = X.subset(picked), sparse_from_rows([rows[r] for r in picked], 6)
        for name in ("indptr", "indices", "data"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


class TestNaiveBayes:
    def _toy(self):
        # 4 docs, 2 per class, disjoint vocab {a,b} vs {c,d}; weights are
        # the L2-normalized TF-IDF values, computed inline.
        idf_a = math.log(5 / 3) + 1  # df 2 of N 4
        idf_b = math.log(5 / 2) + 1  # df 1
        n2 = math.sqrt(idf_a**2 + idf_b**2)
        rows = [
            {0: 1.0},                             # "a a" normalized
            {0: idf_a / n2, 1: idf_b / n2},       # "a b"
            {2: 1.0},                             # "c c"
            {2: idf_a / n2, 3: idf_b / n2},       # "c d"
        ]
        X = sparse_from_rows(rows, 4)
        y = np.array([0, 0, 1, 1])
        return X, y, rows

    def test_posterior_matches_hand_computation(self):
        X, y, rows = self._toy()
        alpha = 0.1
        model = NaiveBayesModel(alpha=alpha).fit(X, y)

        # independent closed-form NB arithmetic
        counts = np.zeros((2, 4))
        for row, cls in zip(rows, y):
            for idx, w in row.items():
                counts[cls, idx] += w
        theta = (counts + alpha) / (counts.sum(axis=1, keepdims=True) + alpha * 4)
        probe = rows[1]  # held-in doc "a b"
        s = np.log([0.5, 0.5])
        for cls in (0, 1):
            for idx, w in probe.items():
                s[cls] += w * math.log(theta[cls, idx])
        want_posterior = math.exp(s[1]) / (math.exp(s[0]) + math.exp(s[1]))

        lo = model.log_odds(X.subset([1]))[0]
        got_posterior = 1.0 / (1.0 + math.exp(-lo))
        assert got_posterior == pytest.approx(want_posterior, abs=1e-9)

    def test_predictions_on_toy(self):
        X, y, _ = self._toy()
        model = NaiveBayesModel(alpha=0.1).fit(X, y)
        assert model.predict(X).tolist() == [0, 0, 1, 1]

    def test_zero_alpha_rejected(self):
        X, y, _ = self._toy()
        with pytest.raises(ConfigError):
            NaiveBayesModel(alpha=0.0).fit(X, y)

    def test_single_class_rejected(self):
        X, _, _ = self._toy()
        with pytest.raises(ValidationError):
            NaiveBayesModel(alpha=0.1).fit(X, np.zeros(4, dtype=int))

    def test_decision_invariance_under_duplication(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            n, v = 30, 12
            rows = []
            y = []
            for i in range(n):
                cls = i % 2
                base = range(0, 6) if cls == 0 else range(6, 12)
                row = {int(idx): float(rng.uniform(0.2, 1.0)) for idx in rng.choice(list(base), size=3, replace=False)}
                rows.append(row)
                y.append(cls)
            X = sparse_from_rows(rows, v)
            y = np.array(y)
            m1 = NaiveBayesModel(alpha=0.1).fit(X, y)
            X2 = sparse_from_rows(rows + rows, v)
            m2 = NaiveBayesModel(alpha=0.1).fit(X2, np.concatenate([y, y]))
            np.testing.assert_array_equal(m1.predict(X), m2.predict(X))


class TestLinearSvm:
    def _separable(self):
        rng = np.random.default_rng(17)
        rows, y = [], []
        for i in range(60):
            cls = i % 2
            base = (0, 1, 2) if cls == 0 else (3, 4, 5)
            row = {int(b): float(rng.uniform(0.4, 1.0)) for b in base[:2]}
            rows.append(row)
            y.append(cls)
        return sparse_from_rows(rows, 6), np.array(y)

    def test_training_accuracy_on_separable(self):
        X, y = self._separable()
        model = LinearSvmModel(c=1.0, epochs=30, seed=3).fit(X, y)
        assert (model.predict(X) == y).mean() == 1.0

    def test_derived_feature_scale_invariance(self):
        X, y = self._separable()
        model = LinearSvmModel(c=1.0, epochs=30, seed=3).fit(X, y)
        base = derived_feature(model, X)
        model.weights = model.weights * 7.5
        np.testing.assert_allclose(derived_feature(model, X), base, atol=1e-9)

    def test_derived_feature_sign_matches_prediction(self):
        X, y = self._separable()
        model = LinearSvmModel(c=1.0, epochs=30, seed=3).fit(X, y)
        d = derived_feature(model, X)
        np.testing.assert_array_equal(d > 0, model.predict(X).astype(bool))

    def test_boundary_point_scores_zero(self):
        model = LinearSvmModel(c=1.0)
        model.weights = np.array([1.0, -1.0, 0.0])  # w = (1,-1), b = 0
        X = sparse_from_rows([{0: 0.5, 1: 0.5}], 2)
        assert derived_feature(model, X)[0] == pytest.approx(0.0, abs=1e-12)

    def test_zero_weights_rejected(self):
        model = LinearSvmModel(c=1.0)
        model.weights = np.zeros(3)
        X = sparse_from_rows([{0: 1.0}], 2)
        with pytest.raises(ValidationError):
            derived_feature(model, X)

    def test_deterministic_given_seed(self):
        X, y = self._separable()
        w1 = LinearSvmModel(c=1.0, epochs=10, seed=5).fit(X, y).weights
        w2 = LinearSvmModel(c=1.0, epochs=10, seed=5).fit(X, y).weights
        np.testing.assert_array_equal(w1, w2)

    def test_train_stage1_dispatch(self):
        X, y = self._separable()
        assert isinstance(train_stage1(X, y, "multinomial_nb"), NaiveBayesModel)
        assert isinstance(train_stage1(X, y, "linear_svm"), LinearSvmModel)
        with pytest.raises(ConfigError):
            train_stage1(X, y, "perceptron")


class TestPegasosMatchesOracle:
    """The fit over precomputed row slices returns the former per-step
    ``X.row(i)`` loop's weights bit for bit."""

    @given(
        st.integers(0, 2**32 - 1), st.integers(2, 30), st.integers(1, 12),
        st.floats(0.0, 0.9), st.sampled_from([1e-6, 0.01, 1.0, 50.0]), st.integers(1, 4),
    )
    @settings(max_examples=150, deadline=None)
    def test_random_sparse_rows(self, seed, n, v, empty_share, c, epochs):
        rng = np.random.default_rng(seed)
        rows = []
        for _ in range(n):
            if rng.random() < empty_share:
                rows.append({})  # a tweet with no in-vocabulary term
                continue
            cols = rng.choice(v, size=int(rng.integers(1, v + 1)), replace=False)
            rows.append({int(j): float(rng.normal()) for j in cols})
        X = sparse_from_rows(rows, v)
        y = np.array([i % 2 for i in range(n)])
        rng.shuffle(y)
        model = LinearSvmModel(c=c, epochs=epochs, seed=seed).fit(X, y)
        assert model.weights.tobytes() == row_pegasos_weights(X, y, c, epochs, seed).tobytes()

    def test_seed_42_training_rows(self, synth_default, resources):
        from regretstream.classify.pipeline import prepare_training_data

        # The stage-1 algorithm does not change the sampled, featurized rows;
        # naive Bayes makes the preparation fast.
        prep = prepare_training_data(
            synth_default.cleaned, TrainConfig(stage1_algorithm="multinomial_nb"), 42, resources
        )
        X, y = SparseRows.from_feature_matrix(prep.train), prep.train.labels
        model = LinearSvmModel(c=1e-6, epochs=30, seed=42).fit(X, y)
        assert model.weights.tobytes() == row_pegasos_weights(X, y, 1e-6, 30, 42).tobytes()


def xor_dense(n_per_corner=25, jitter=0.0, seed=0):
    rng = np.random.default_rng(seed)
    corners = [(0, 0, -1), (0, 1, 1), (1, 0, 1), (1, 1, -1)]
    X, y = [], []
    for cx, cy, lab in corners:
        for _ in range(n_per_corner):
            X.append([cx + jitter * rng.normal(), cy + jitter * rng.normal()])
            y.append(1 if lab > 0 else 0)
    return np.array(X), np.array(y)


def tree_depth(tree) -> int:
    """The longest root-to-leaf path of a fitted ``DecisionTree``."""
    def walk(i, d):
        if tree.feature[i] < 0:
            return d
        return max(walk(tree.left[i], d + 1), walk(tree.right[i], d + 1))

    return walk(0, 0) if tree.feature else 0


class TestDecisionTree:
    def test_single_split(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([-1.0, -1.0, 1.0, 1.0])
        w = np.full(4, 0.25)
        tree = DecisionTree(max_depth=1).fit(X, y, w)
        np.testing.assert_array_equal(tree.predict(X), y)

    def test_depth_limit_respected(self):
        X, y01 = xor_dense(10, jitter=0.05, seed=1)
        y = y01 * 2.0 - 1.0
        w = np.full(len(y), 1.0 / len(y))
        for depth in (1, 2, 3, 5):
            tree = DecisionTree(max_depth=depth).fit(X, y, w)
            assert tree_depth(tree) <= depth

    def test_weighted_fit_prefers_heavy_samples(self):
        X = np.array([[0.0], [1.0]])
        y = np.array([1.0, -1.0])
        w = np.array([0.99, 0.01])
        tree = DecisionTree(max_depth=0).fit(X, y, w)  # forced leaf
        assert tree.predict(np.array([[0.5]]))[0] == 1.0

    def test_serialization_roundtrip(self):
        X, y01 = xor_dense(10, seed=2)
        y = y01 * 2.0 - 1.0
        tree = DecisionTree(max_depth=3).fit(X, y, np.full(len(y), 1 / len(y)))
        again = decode_record(DecisionTree, encode_record(tree), strict=True)
        assert again == tree
        np.testing.assert_array_equal(tree.predict(X), again.predict(X))


class TestAdaBoost:
    def test_xor_fixture_reaches_perfect_training(self):
        X, y = xor_dense(25)
        model = AdaBoostModel(max_depth=2, rounds=50).fit(X, y)
        assert (model.predict(X) == y).mean() == 1.0
        assert len(model.trees) <= 50

    def test_accepted_rounds_below_half_error(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(120, 4))
        y = (X[:, 0] + 0.4 * rng.normal(size=120) > 0).astype(int)
        model = AdaBoostModel(max_depth=1, rounds=40).fit(X, y)
        assert len(model.stage_errors) > 1
        assert all(e < 0.5 for e in model.stage_errors)

    def test_training_error_bound_holds(self):
        rng = np.random.default_rng(10)
        for seed in range(3):
            X = rng.normal(size=(100, 5))
            y = ((X[:, 0] * X[:, 1] > 0) ^ (X[:, 2] > 0.3)).astype(int)
            model = AdaBoostModel(max_depth=2, rounds=30).fit(X, y)
            err = float(np.mean(model.predict(X) != y))
            assert err <= model.training_error_bound() + 1e-9

    def test_perfect_round_dominates(self):
        X, y = xor_dense(10)
        model = AdaBoostModel(max_depth=3, rounds=20).fit(X, y)
        if model.early_stop == "perfect_round":
            assert model.stage_weights[-1] > sum(model.stage_weights[:-1]) - 1e-9
        assert (model.predict(X) == y).mean() == 1.0

    def test_unlearnable_data_stops_early(self):
        # identical points with contradictory labels: first stump has
        # weighted error exactly 0.5
        X = np.zeros((10, 2))
        y = np.array([0, 1] * 5)
        with pytest.raises(ValidationError):
            AdaBoostModel(max_depth=1, rounds=10).fit(X, y)

    def test_serialization_roundtrip(self):
        X, y = xor_dense(15, jitter=0.03, seed=4)
        model = AdaBoostModel(max_depth=2, rounds=15).fit(X, y)
        again = decode_record(AdaBoostModel, encode_record(model), strict=True)
        assert again == model
        assert all(type(t) is DecisionTree for t in again.trees)
        np.testing.assert_array_equal(model.predict(X), again.predict(X))
        np.testing.assert_allclose(model.decision_values(X), again.decision_values(X), atol=0)


@st.composite
def tree_problems(draw, min_rows=0, max_rows=30, levels=4, weights=None):
    """(X, y, w, max_depth): few distinct values per column, so heavy ties."""
    n = draw(st.integers(min_rows, max_rows))
    n_features = draw(st.integers(1, 5))
    values = st.integers(0, draw(st.integers(1, levels)) - 1).map(float)
    X = draw(hnp.arrays(np.float64, (n, n_features), elements=values))
    y = draw(hnp.arrays(np.float64, n, elements=st.sampled_from([-1.0, 1.0])))
    if weights is None:
        weights = st.floats(1e-3, 1.0, allow_subnormal=False)
    w = draw(hnp.arrays(np.float64, n, elements=weights))
    return X, y, w, draw(st.integers(0, 6))


def _fit_both(X, y, w, depth):
    tree = encode_record(DecisionTree(max_depth=depth).fit(X, y, w))
    assert tree == encode_record(ReferenceTree(max_depth=depth).fit(X, y, w))
    return tree


class TestTreeMatchesOracle:
    """The presorted split search builds exactly the tree that a fresh
    stable argsort of every node's matrix builds."""

    @given(tree_problems())
    @settings(max_examples=200, deadline=None)
    def test_heavy_ties(self, problem):
        _fit_both(*problem)

    @given(tree_problems(levels=2), st.data())
    @settings(max_examples=150, deadline=None)
    def test_globally_constant_columns(self, problem, data):
        X, y, w, depth = problem
        constant = data.draw(hnp.arrays(bool, X.shape[1]))
        X[:, constant] = data.draw(st.sampled_from([-1.0, 0.0, 2.5]))
        _fit_both(X, y, w, depth)

    @given(tree_problems(min_rows=1))
    @settings(max_examples=100, deadline=None)
    def test_all_constant_x_is_one_leaf_over_all_rows(self, problem):
        X, y, w, depth = problem
        X[:] = 3.0
        tree = _fit_both(X, y, w, depth)
        assert tree["feature"] == [-1]
        assert tree["value"] == [1.0 if float(np.dot(w, y)) >= 0.0 else -1.0]

    @given(tree_problems(min_rows=4, levels=2), st.data())
    @settings(max_examples=150, deadline=None)
    def test_columns_constant_inside_a_node(self, problem, data):
        X, y, w, depth = problem
        # column 1 varies only where column 0 is 1, so it is constant on one
        # side of a split on column 0
        side = data.draw(hnp.arrays(np.float64, len(X), elements=st.sampled_from([0.0, 1.0])))
        X = np.column_stack([side, np.where(side > 0, X[:, 0], 7.0), X])
        _fit_both(X, y, w, depth)

    @given(tree_problems(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_duplicated_columns(self, problem, data):
        X, y, w, depth = problem
        picks = data.draw(st.lists(st.integers(0, X.shape[1] - 1), min_size=2, max_size=6))
        _fit_both(X[:, picks], y, w, depth)

    @given(tree_problems(min_rows=2, max_rows=2, levels=3))
    @settings(max_examples=80, deadline=None)
    def test_two_rows(self, problem):
        _fit_both(*problem)

    @given(tree_problems(weights=st.floats(-300.0, 100.0).map(lambda e: 10.0 ** e)))
    @settings(max_examples=150, deadline=None)
    def test_extreme_weights(self, problem):
        _fit_both(*problem)

    @given(tree_problems(levels=3), st.data())
    @settings(max_examples=100, deadline=None)
    def test_nan_values(self, problem, data):
        X, y, w, depth = problem
        X[data.draw(hnp.arrays(bool, X.shape))] = np.nan
        _fit_both(X, y, w, depth)

    @given(tree_problems(min_rows=2, levels=3), st.integers(1, 4), st.integers(1, 12))
    @settings(max_examples=100, deadline=None)
    def test_adaboost(self, problem, depth, rounds):
        X, y, _, _ = problem
        y01 = (y > 0).astype(int)
        y01[:2] = [0, 1]

        def fit():
            try:
                return encode_record(AdaBoostModel(max_depth=depth, rounds=rounds).fit(X, y01))
            except ValidationError as exc:
                return str(exc)

        with mock.patch("regretstream.classify.trees.DecisionTree", ReferenceTree):
            expected = fit()
        assert fit() == expected

    def test_adaboost_on_continuous_and_constant_columns(self):
        rng = np.random.default_rng(5)
        X = np.column_stack([
            rng.normal(size=300), rng.integers(0, 2, 300), np.zeros(300),
            rng.integers(0, 20, 300), np.full(300, 4.0),
        ]).astype(float)
        y = ((X[:, 0] > 0.2) ^ (X[:, 1] > 0) ^ (rng.random(300) < 0.15)).astype(int)
        model = AdaBoostModel(max_depth=3, rounds=25).fit(X, y)
        with mock.patch("regretstream.classify.trees.DecisionTree", ReferenceTree):
            expected = AdaBoostModel(max_depth=3, rounds=25).fit(X, y)
        assert encode_record(model) == encode_record(expected)
        assert len(model.trees) > 1


class TestRbfSvm:
    def _blobs(self, n=120, seed=6):
        rng = np.random.default_rng(seed)
        X0 = rng.normal((-2, -2), 0.5, size=(n // 2, 2))
        X1 = rng.normal((2, 2), 0.5, size=(n // 2, 2))
        X = np.vstack([X0, X1])
        y = np.array([0] * (n // 2) + [1] * (n // 2))
        perm = rng.permutation(n)
        return X[perm], y[perm]

    def test_blob_holdout_accuracy(self):
        X_train, y_train = self._blobs(160, seed=6)
        X_test, y_test = self._blobs(100, seed=7)
        model = RbfSvmModel(c=10.0, gamma=0.5).fit(X_train, y_train)
        acc = (model.predict(X_test) == y_test).mean()
        assert acc >= 0.99

    def test_row_cap_enforced(self):
        X = np.zeros((MAX_TRAIN_ROWS + 1, 2))
        y = np.array([0, 1] * ((MAX_TRAIN_ROWS + 1) // 2) + [0])
        with pytest.raises(ValidationError):
            RbfSvmModel().fit(X, y)

    def test_stage2_dispatch_and_scaler(self):
        X_train, y_train = self._blobs(80, seed=8)
        model, scaler = train_stage2(X_train, y_train, "rbf_svm", {"rbf_c": 10.0, "rbf_gamma": 0.5})
        assert scaler is not None
        Xs = scaler.transform(X_train)
        assert (model.predict(Xs) == y_train).mean() >= 0.95
        model2, scaler2 = train_stage2(X_train, y_train, "adaboost", {"ada_depth": 2, "ada_rounds": 10})
        assert scaler2 is None
        with pytest.raises(ConfigError):
            train_stage2(X_train, y_train, "mlp", {})

    def test_diagnostics_report_support_vectors(self):
        X, y = self._blobs(80, seed=8)
        model = RbfSvmModel(c=10.0, gamma=0.5).fit(X, y)
        assert model.diagnostics() == {
            "algorithm": "rbf_svm", "n_support": len(model.support_vectors),
        }
        assert 0 < model.diagnostics()["n_support"] <= len(X)


class TestEvaluate:
    def test_all_correct(self):
        m = evaluate([1, 0, 1], [1, 0, 1])
        assert (m.precision, m.recall, m.f1) == (1.0, 1.0, 1.0)

    def test_hand_arithmetic(self):
        # TP=2, FP=1, FN=2, TN=1
        pred = [1, 1, 1, 0, 0, 0]
        true = [1, 1, 0, 1, 1, 0]
        m = evaluate(pred, true)
        assert m.precision == pytest.approx(2 / 3, abs=1e-12)
        assert m.recall == pytest.approx(0.5, abs=1e-12)
        assert m.f1 == pytest.approx(4 / 7, abs=1e-12)
        assert (m.tp, m.fp, m.fn, m.tn) == (2, 1, 2, 1)

    def test_no_positive_predictions_convention(self):
        m = evaluate([0, 0, 0], [1, 1, 0])
        assert m.precision == 0.0 and m.f1 == 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            evaluate([1], [1, 0])


def paired_corpus(n_users=30, n_del=4, n_non=6):
    tweets = []
    tid = 1
    for u in range(1, n_users + 1):
        for k in range(n_del):
            tweets.append(
                make_tweet(id=tid, user_id=u, created_at=ts(minutes=tid),
                           text=f"bad dull tweet {tid}", deleted=True)
            )
            tid += 1
        for k in range(n_non):
            tweets.append(
                make_tweet(id=tid, user_id=u, created_at=ts(minutes=tid),
                           text=f"good sweet tweet {tid}")
            )
            tid += 1
    return make_corpus(tweets)


class TestSampling:
    def test_min_rule_per_user(self):
        tweets = []
        tid = 1
        for k in range(5):
            tweets.append(make_tweet(id=tid, user_id=1, created_at=ts(minutes=tid), deleted=True))
            tid += 1
        for k in range(3):
            tweets.append(make_tweet(id=tid, user_id=1, created_at=ts(minutes=tid)))
            tid += 1
        corpus = make_corpus(tweets)
        sample = balanced_sample(corpus, 3, seed=0)
        deleted = [t for t in sample if t.deleted]
        kept = [t for t in sample if not t.deleted]
        assert len(deleted) == len(kept) == 3

    def test_insufficient_pairs_error_reports_achievable(self):
        corpus = paired_corpus(n_users=2, n_del=2, n_non=5)
        with pytest.raises(InsufficientDataError) as exc:
            balanced_sample(corpus, 10, seed=0)
        assert exc.value.achievable == 4

    def test_exact_balance_and_determinism(self):
        corpus = paired_corpus()
        s1 = balanced_sample(corpus, 50, seed=9)
        s2 = balanced_sample(corpus, 50, seed=9)
        assert [t.id for t in s1] == [t.id for t in s2]
        assert sum(t.deleted for t in s1) == 50
        assert sum(not t.deleted for t in s1) == 50

    def test_different_seed_changes_sample(self):
        corpus = paired_corpus()
        s1 = balanced_sample(corpus, 50, seed=1)
        s2 = balanced_sample(corpus, 50, seed=2)
        assert [t.id for t in s1] != [t.id for t in s2]

    def test_replied_sample_equal_classes(self):
        tweets = []
        tid = 1
        for u in (1, 2):
            for k in range(6):
                deleted = k < 3
                tweets.append(
                    make_tweet(id=tid, user_id=u, created_at=ts(minutes=tid),
                               deleted=deleted, reply_ids=(1000 + tid,))
                )
                tid += 1
        for t in list(tweets):
            tweets.append(
                make_tweet(id=1000 + t.id, user_id=9, created_at=ts(minutes=1000 + t.id),
                           text="some reply", in_reply_to_id=t.id)
            )
        corpus = make_corpus(tweets)
        sample = replied_sample(corpus, 4, seed=0)
        assert sum(t.deleted for t in sample) == 4
        assert sum(not t.deleted for t in sample) == 4
        assert all(t.reply_ids for t in sample)

    def test_stratified_split_and_folds(self):
        labels = np.array([0, 1] * 20)
        rng = np.random.default_rng(0)
        train, test = stratified_split(labels, 0.25, rng)
        assert len(test) == 10 and len(train) == 30
        assert labels[test].sum() == 5
        folds = stratified_folds(labels, 4, np.random.default_rng(0))
        for f in range(4):
            assert labels[folds == f].sum() == 5

    def test_folds_reject_small_classes(self):
        labels = np.array([0, 0, 0, 1])
        with pytest.raises(ValidationError):
            stratified_folds(labels, 3, np.random.default_rng(0))

    @pytest.mark.parametrize("k", [0, 1])
    def test_folds_reject_fewer_than_two(self, k):
        with pytest.raises(ValidationError, match=f"k={k}"):
            stratified_folds(np.array([0, 1] * 4), k, np.random.default_rng(0))


class TestTwoStage:
    def test_end_to_end_on_synth_small(self, synth_small, resources):
        cfg = TrainConfig(
            n_per_class=100,
            stage2_hyper={"ada_depth": 3, "ada_rounds": 25},
        )
        bundle, metrics = two_stage_train(synth_small.cleaned, cfg, 1, resources)
        assert 0.0 <= metrics.f1 <= 1.0
        assert metrics.tp + metrics.fn == metrics.fp + metrics.tn  # balanced test split
        assert not np.isnan(bundle.stage2.decision_values(np.zeros((1, 112)))).any()

    def test_empty_corpus_rejected(self, resources):
        corpus = make_corpus([])
        with pytest.raises(ValidationError):
            two_stage_train(corpus, TrainConfig(n_per_class=4), 0, resources)

    def test_bundle_roundtrip_same_predictions(self, synth_small, resources, tmp_path):
        cfg = TrainConfig(n_per_class=80, stage2_hyper={"ada_depth": 2, "ada_rounds": 10})
        bundle, _ = two_stage_train(synth_small.cleaned, cfg, 2, resources)
        path = tmp_path / "model.rsb1"
        save_bundle(bundle, path)
        with open(path, "rb") as fh:
            assert fh.read(4) == b"RSB1"
        loaded = load_bundle(path)
        probe = list(synth_small.cleaned)[:40]
        ids1, labels1, scores1 = bundle.predict_records(probe, synth_small.cleaned)
        ids2, labels2, scores2 = loaded.predict_records(probe, synth_small.cleaned)
        np.testing.assert_array_equal(ids1, ids2)
        np.testing.assert_array_equal(labels1, labels2)
        np.testing.assert_allclose(scores1, scores2, atol=0)

    def test_byte_identical_bundles_across_runs(self, synth_small, resources, tmp_path):
        cfg = TrainConfig(n_per_class=60, stage2_hyper={"ada_depth": 2, "ada_rounds": 8})
        b1, m1 = two_stage_train(synth_small.cleaned, cfg, 3, resources)
        b2, m2 = two_stage_train(synth_small.cleaned, cfg, 3, resources)
        p1, p2 = tmp_path / "a.rsb1", tmp_path / "b.rsb1"
        save_bundle(b1, p1)
        save_bundle(b2, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert m1 == m2

    def test_rbf_stage2_path(self, synth_small, resources):
        cfg = TrainConfig(
            n_per_class=60,
            stage2_algorithm="rbf_svm",
            stage2_hyper={"rbf_c": 10.0, "rbf_gamma": 0.05},
        )
        bundle, metrics = two_stage_train(synth_small.cleaned, cfg, 4, resources)
        assert bundle.scaler is not None
        assert 0.0 <= metrics.f1 <= 1.0

    def test_derived_feature_helps_on_lexical_only_corpus(self, whitelist, resources):
        # the only planted signal is open-text words outside every dense
        # channel, so the derived feature is the sole carrier
        from regretstream.synth import SynthConfig

        from conftest import run_synth_pipeline

        cfg = SynthConfig(
            seed=23, n_users=120, tweet_rate_min=1.5, tweet_rate_max=2.2,
            user_conditioned_skew=0.0,
            lexical_rate_deleted=0.0, lexical_rate_non_deleted=0.0,
            oov_lexical_rate_deleted=0.85, oov_lexical_rate_non_deleted=0.08,
            reply_sentiment_coupling=False, orphan_deletes=0,
        )
        sp = run_synth_pipeline(cfg, whitelist)
        base = TrainConfig(
            n_per_class=150,
            stage1_algorithm="linear_svm",
            stage1_hyper={"svm_c": 1.0, "svm_epochs": 30},
            stage2_hyper={"ada_depth": 3, "ada_rounds": 30},
        )
        report = ablate(sp.cleaned, base, ["derived_open_text"], 5, resources)
        with_derived = report["baseline"]["f1"]
        without = report["dropped"]["derived_open_text"]["metrics"]["f1"]
        assert with_derived >= without - 1e-9
        assert with_derived >= 0.75  # the planted signal is strong


# (stage 1, stage 2, with_responses) -> sha256 of the bundle a small
# training run on ``synth_small`` writes; pinned so that the manifest
# codec writes the bytes its hand-written predecessor wrote.
GOLDEN_BUNDLES = {
    ("linear_svm", "adaboost", False):
        "0f42d3773c925c57ff0e6493c809e24d74068568c3f2bc454db6acd80852e767",
    ("multinomial_nb", "adaboost", False):
        "f8e0e672f9d4cca426484b3d32acec8e8302a27045b2dc0466bd73852fe1f5ec",
    ("linear_svm", "rbf_svm", False):
        "5ede64a24bb8b4db26521300e68d6a1fa9459392e2adddab37cc1924e2171e83",
    ("multinomial_nb", "rbf_svm", False):
        "44ae41826d9b2e6339f6ceffadce75a40ad8bc0076f0445800d7ffbe4121ba67",
    ("linear_svm", "adaboost", True):
        "57061ba3e23891086690716e8954bdc27c8a7ddf2c2ffa65d05b8242ec08b573",
}


@pytest.mark.parametrize("stage1, stage2, with_responses", sorted(GOLDEN_BUNDLES))
def test_golden_bundle_files(synth_small, resources, tmp_path, stage1, stage2, with_responses):
    cfg = TrainConfig(
        n_per_class=40, derived_feature_folds=2, with_responses=with_responses,
        stage1_algorithm=stage1, stage1_hyper={"nb_alpha": 0.5, "svm_c": 1e-6, "svm_epochs": 3},
        stage2_algorithm=stage2,
        stage2_hyper={"ada_depth": 2, "ada_rounds": 5, "rbf_c": 10.0, "rbf_gamma": 0.05},
    )
    bundle, _ = two_stage_train(synth_small.cleaned, cfg, 6, resources)
    path = tmp_path / "model.rsb1"
    save_bundle(bundle, path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == GOLDEN_BUNDLES[stage1, stage2, with_responses]
    loaded = load_bundle(path)
    save_bundle(loaded, tmp_path / "again.rsb1")
    assert (tmp_path / "again.rsb1").read_bytes() == path.read_bytes()


def test_partial_hyper_bundle_round_trips(synth_small, resources, tmp_path):
    """A bundle from a Python config naming some hyperparameters saves the
    completed config, so loading and saving it again writes the same bytes."""
    cfg = TrainConfig(n_per_class=40, derived_feature_folds=2,
                      stage1_hyper={"nb_alpha": 0.5, "svm_epochs": 3},
                      stage2_hyper={"ada_depth": 2, "ada_rounds": 5})
    bundle, _ = two_stage_train(synth_small.cleaned, cfg, 6, resources)
    save_bundle(bundle, tmp_path / "model.rsb1")
    save_bundle(load_bundle(tmp_path / "model.rsb1"), tmp_path / "again.rsb1")
    assert (tmp_path / "again.rsb1").read_bytes() == (tmp_path / "model.rsb1").read_bytes()


class TestAblate:
    def test_unknown_group_rejected(self, synth_small, resources):
        with pytest.raises(ValidationError):
            ablate(synth_small.cleaned, TrainConfig(n_per_class=40), ["nonsense"], 0, resources)

    def test_empty_groups_baseline_only(self, synth_small, resources):
        cfg = TrainConfig(n_per_class=40, stage2_hyper={"ada_depth": 2, "ada_rounds": 6})
        report = ablate(synth_small.cleaned, cfg, [], 0, resources)
        assert report["dropped"] == {}
        assert 0.0 <= report["baseline"]["f1"] <= 1.0

    def test_relative_metrics_present(self, synth_small, resources):
        cfg = TrainConfig(n_per_class=60, stage2_hyper={"ada_depth": 2, "ada_rounds": 8})
        report = ablate(synth_small.cleaned, cfg, ["user", "tweet"], 0, resources)
        for group in ("user", "tweet"):
            cell = report["dropped"][group]
            assert set(cell["relative"]) == {"precision", "recall", "f1"}
            assert cell["delta_f1"] == pytest.approx(
                cell["metrics"]["f1"] - report["baseline"]["f1"], abs=1e-12
            )

    def test_threads_do_not_change_results(self, synth_small, resources, monkeypatch):
        # The pool has one worker per core, so the core count sets its size.
        cfg = TrainConfig(n_per_class=50, stage2_hyper={"ada_depth": 2, "ada_rounds": 6})
        real_pool, sizes, reports = futures.ThreadPoolExecutor, [], []
        monkeypatch.setattr(futures, "ThreadPoolExecutor",
                            lambda max_workers: sizes.append(max_workers) or real_pool(max_workers))
        for cores in (1, 4):
            monkeypatch.setattr(os, "cpu_count", lambda cores=cores: cores)
            reports.append(ablate(synth_small.cleaned, cfg, ["user", "pos"], 1, resources))
        assert sizes == [1, 4]
        assert reports[0] == reports[1]

    def test_noise_group_delta_near_zero(self, whitelist, resources):
        # tweet attributes and POS counts are unplanted; with a clean signal
        # and a large evaluation split their ablation deltas stay near zero
        from regretstream.synth import SynthConfig

        from conftest import run_synth_pipeline

        cfg = SynthConfig(
            seed=31, n_users=300, tweet_rate_min=3.0, tweet_rate_max=4.0,
            deletion_rate=0.2, user_conditioned_skew=0.97, orphan_deletes=0,
        )
        sp = run_synth_pipeline(cfg, whitelist)
        tc = TrainConfig(
            n_per_class=1700, test_fraction=0.4,
            stage2_hyper={"ada_depth": 3, "ada_rounds": 50},
        )
        report = ablate(sp.cleaned, tc, ["tweet", "pos"], 0, resources)
        assert abs(report["dropped"]["tweet"]["delta_f1"]) <= 0.02
        assert abs(report["dropped"]["pos"]["delta_f1"]) <= 0.02


class TestTrainConfig:
    def test_dict_roundtrip(self):
        cfg = TrainConfig(n_per_class=77, stage1_algorithm="multinomial_nb")
        again = decode_config(TrainConfig, encode_record(cfg))
        assert again == cfg

    @pytest.mark.parametrize("kwargs, field", [
        ({"stage2_hyper": {"ada_dept": 2}}, "unknown field: stage2_hyper.ada_dept"),
        ({"stage1_hyper": {"svm_epochs": 2.7}}, "invalid stage1_hyper.svm_epochs: 2.7"),
        ({"stage1_hyper": {"svm_c": True}}, "invalid stage1_hyper.svm_c: True"),
        ({"stage2_hyper": None}, "stage2_hyper must be a JSON object"),
        ({"stage1_algorithm": "perceptron"}, "invalid stage1_algorithm: 'perceptron'"),
        ({"stage2_algorithm": "mlp"}, "invalid stage2_algorithm: 'mlp'"),
    ])
    def test_python_config_follows_the_file_rule(self, kwargs, field):
        with pytest.raises(ConfigError) as exc:
            TrainConfig(**kwargs)
        assert str(exc.value).startswith(field)

    def test_partial_hyper_is_completed(self):
        cfg = TrainConfig(stage1_hyper={"svm_c": 1}, stage2_hyper={"ada_depth": 2})
        assert cfg.stage1_hyper == {"nb_alpha": 0.1, "svm_c": 1.0, "svm_epochs": 30}
        assert cfg.stage2_hyper == {"ada_depth": 2, "ada_rounds": 100, "rbf_c": 0.1,
                                    "rbf_gamma": 0.001}

    def test_shipped_default_hyperparameters(self):
        cfg = TrainConfig()
        assert cfg.stage1_hyper["nb_alpha"] == pytest.approx(0.1)
        assert cfg.stage1_hyper["svm_c"] == pytest.approx(1e-6)
        assert cfg.stage2_hyper["rbf_c"] == pytest.approx(0.1)
        assert cfg.stage2_hyper["rbf_gamma"] == pytest.approx(0.001)
        assert cfg.stage2_hyper["ada_depth"] == 5
        assert cfg.stage2_hyper["ada_rounds"] == 100
