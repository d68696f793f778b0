"""Depth-limited Gini decision trees and discrete two-class AdaBoost.

The tree split search is fully vectorized over (samples x features); ties
break on the first (sorted-position, feature) pair so training is
deterministic. AdaBoost stage weights are ln((1-eps)/eps)/2 and the
classic exponential-loss training-error bound is checked on every fit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ValidationError

_EPS = 1e-12


@dataclass
class DecisionTree:
    """Binary classification tree over dense features with sample weights.

    Flat-array form: internal nodes carry (feature, threshold, left, right);
    leaves carry value in {-1.0, +1.0} and feature = -1.
    """

    max_depth: int = 5
    feature: list[int] = field(default_factory=list)
    threshold: list[float] = field(default_factory=list)
    left: list[int] = field(default_factory=list)
    right: list[int] = field(default_factory=list)
    value: list[float] = field(default_factory=list)

    def _add_node(self) -> int:
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(0.0)
        return len(self.feature) - 1

    def fit(self, X: np.ndarray, y: np.ndarray, w: np.ndarray) -> "DecisionTree":
        """y in {-1, +1}; w positive sample weights."""
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        w = np.asarray(w, dtype=np.float64)
        self.feature, self.threshold = [], []
        self.left, self.right, self.value = [], [], []
        self._build(X, y, w, depth=0)
        return self

    @staticmethod
    def _leaf_value(y: np.ndarray, w: np.ndarray) -> float:
        return 1.0 if float(np.dot(w, y)) >= 0.0 else -1.0

    def _build(self, X, y, w, depth) -> int:
        node = self._add_node()
        wpos = float(w[y > 0].sum())
        wtot = float(w.sum())
        pure = wpos < _EPS or (wtot - wpos) < _EPS
        if depth >= self.max_depth or len(y) < 2 or pure:
            self.value[node] = self._leaf_value(y, w)
            return node
        split = _best_split(X, y, w)
        if split is None:
            self.value[node] = self._leaf_value(y, w)
            return node
        j, thr = split
        go_left = X[:, j] <= thr
        if not go_left.any() or go_left.all():
            self.value[node] = self._leaf_value(y, w)
            return node
        self.feature[node] = j
        self.threshold[node] = thr
        self.left[node] = self._build(X[go_left], y[go_left], w[go_left], depth + 1)
        self.right[node] = self._build(X[~go_left], y[~go_left], w[~go_left], depth + 1)
        return node

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        feature = np.asarray(self.feature)
        threshold = np.asarray(self.threshold)
        left = np.asarray(self.left)
        right = np.asarray(self.right)
        value = np.asarray(self.value)
        node = np.zeros(len(X), dtype=np.int64)
        active = feature[node] >= 0
        while active.any():
            rows = np.nonzero(active)[0]
            cur = node[rows]
            goes_left = X[rows, feature[cur]] <= threshold[cur]
            node[rows] = np.where(goes_left, left[cur], right[cur])
            active = feature[node] >= 0
        return value[node]

    @property
    def depth(self) -> int:
        def walk(i, d):
            if self.feature[i] < 0:
                return d
            return max(walk(self.left[i], d + 1), walk(self.right[i], d + 1))

        return walk(0, 0) if self.feature else 0

    def to_dict(self) -> dict:
        return {
            "max_depth": self.max_depth,
            "feature": list(self.feature),
            "threshold": list(self.threshold),
            "left": list(self.left),
            "right": list(self.right),
            "value": list(self.value),
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "DecisionTree":
        t = cls(max_depth=int(raw["max_depth"]))
        t.feature = [int(v) for v in raw["feature"]]
        t.threshold = [float(v) for v in raw["threshold"]]
        t.left = [int(v) for v in raw["left"]]
        t.right = [int(v) for v in raw["right"]]
        t.value = [float(v) for v in raw["value"]]
        return t


def _best_split(X: np.ndarray, y: np.ndarray, w: np.ndarray):
    """Lowest weighted-Gini split as (feature, threshold), or None.

    Evaluates every midpoint between adjacent distinct sorted values of
    every feature in one vectorized pass.
    """
    n, n_features = X.shape
    order = np.argsort(X, axis=0, kind="stable")
    xs = np.take_along_axis(X, order, axis=0)
    ys = y[order]
    ws = w[order]
    wy_pos = ws * (ys > 0)
    cum_w = np.cumsum(ws, axis=0)
    cum_pos = np.cumsum(wy_pos, axis=0)
    w_tot = cum_w[-1]
    pos_tot = cum_pos[-1]

    wl = cum_w[:-1]
    pl = cum_pos[:-1]
    wr = w_tot - wl
    pr = pos_tot - pl
    nl = wl - pl
    nr = wr - pr
    impurity = 2.0 * (pl * nl / np.maximum(wl, _EPS) + pr * nr / np.maximum(wr, _EPS))
    valid = (xs[1:] > xs[:-1]) & (wl > _EPS) & (wr > _EPS)
    if not valid.any():
        return None
    # Zero-gain splits are allowed (XOR-style data has no first-split gain);
    # recursion stays bounded by depth, purity, and the distinct-value check.
    impurity = np.where(valid, impurity, np.inf)
    flat = int(np.argmin(impurity))
    i, j = divmod(flat, n_features)
    thr = float((xs[i, j] + xs[i + 1, j]) / 2.0)
    # Guard against midpoint rounding onto the upper value.
    if thr >= xs[i + 1, j]:
        thr = float(xs[i, j])
    return j, thr


@dataclass
class AdaBoostModel:
    """Discrete two-class AdaBoost over depth-limited Gini trees."""

    algorithm: str = field(default="adaboost", init=False)
    max_depth: int = 5
    rounds: int = 100
    trees: list = field(default_factory=list)
    stage_weights: list[float] = field(default_factory=list)
    stage_errors: list[float] = field(default_factory=list)
    early_stop: str | None = None

    def fit(self, X: np.ndarray, y01: np.ndarray) -> "AdaBoostModel":
        X = np.asarray(X, dtype=np.float64)
        y01 = np.asarray(y01)
        if len(np.unique(y01)) < 2:
            raise ValidationError("AdaBoost training needs both classes present")
        y = y01.astype(np.float64) * 2.0 - 1.0
        n = len(y)
        d = np.full(n, 1.0 / n)
        self.trees, self.stage_weights, self.stage_errors = [], [], []
        self.early_stop = None
        for _ in range(self.rounds):
            tree = DecisionTree(max_depth=self.max_depth).fit(X, y, d)
            pred = tree.predict(X)
            eps = float(d[pred != y].sum())
            if eps >= 0.5:
                self.early_stop = "weak_learner_error_at_least_half"
                break
            if eps <= 0.0:
                # A perfect round decides every sample on its own: give it
                # more weight than all previous rounds combined and stop.
                alpha = max(1.0, 1.0 + sum(self.stage_weights))
                self.trees.append(tree)
                self.stage_weights.append(alpha)
                self.stage_errors.append(eps)
                self.early_stop = "perfect_round"
                break
            alpha = 0.5 * np.log((1.0 - eps) / eps)
            self.trees.append(tree)
            self.stage_weights.append(float(alpha))
            self.stage_errors.append(eps)
            d *= np.exp(-alpha * y * pred)
            d /= d.sum()
        if not self.trees:
            raise ValidationError("AdaBoost accepted no rounds (weak learner failed)")
        self._check_error_bound(X, y)
        return self

    def _check_error_bound(self, X, y) -> None:
        # err <= prod_t 2*sqrt(eps_t*(1-eps_t)); a perfect round forces 0.
        bound = self.training_error_bound()
        err = float(np.mean(self.decision_values(X) * y <= 0))
        if err > bound + 1e-9:
            raise AssertionError(
                f"AdaBoost training-error bound violated: err={err:.6f} > bound={bound:.6f}"
            )

    def decision_values(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        score = np.zeros(len(X))
        for tree, alpha in zip(self.trees, self.stage_weights):
            score += alpha * tree.predict(X)
        return score

    def predict(self, X: np.ndarray) -> np.ndarray:
        return (self.decision_values(X) > 0).astype(np.int8)

    def training_error_bound(self) -> float:
        bound = 1.0
        for eps in self.stage_errors:
            bound *= 2.0 * np.sqrt(max(eps, 0.0) * (1.0 - eps))
        return bound

    def to_dict(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "max_depth": self.max_depth,
            "rounds": self.rounds,
            "trees": [t.to_dict() for t in self.trees],
            "stage_weights": list(self.stage_weights),
            "stage_errors": list(self.stage_errors),
            "early_stop": self.early_stop,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "AdaBoostModel":
        m = cls(max_depth=int(raw["max_depth"]), rounds=int(raw["rounds"]))
        m.trees = [DecisionTree.from_dict(t) for t in raw["trees"]]
        m.stage_weights = [float(a) for a in raw["stage_weights"]]
        m.stage_errors = [float(e) for e in raw["stage_errors"]]
        m.early_stop = raw.get("early_stop")
        return m
