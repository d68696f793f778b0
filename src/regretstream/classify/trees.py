"""Depth-limited Gini decision trees and discrete two-class AdaBoost.

Each tree stable-sorts its non-constant feature columns once, into
per-feature row orders (features x rows). A child node's orders are its
parent's filtered by the split mask; stable filtering keeps the order, ties
included, that a fresh stable sort of the child's rows would give. A node
searches only the features that still take two values in it, vectorized
over (features x sorted positions), and ties break on the first (sorted
position, feature) pair, so training is deterministic. AdaBoost stage
weights are ln((1-eps)/eps)/2 and the classic exponential-loss
training-error bound is checked on every fit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from ..codec import Ranged, ranged
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
        w_pos = w * (y > 0)

        def grow(rows, cols, order, xs, depth) -> int:
            # rows: the node's row indices, ascending; order[k]: the same rows
            # sorted stably by column cols[k]; xs[k]: their values.
            node = self._add_node()
            yn, wn = y[rows], w[rows]
            wpos = float(wn[yn > 0].sum())
            wtot = float(wn.sum())
            pure = wpos < _EPS or (wtot - wpos) < _EPS
            if depth >= self.max_depth or len(rows) < 2 or pure:
                self.value[node] = self._leaf_value(yn, wn)
                return node
            step = xs[:, 1:] > xs[:, :-1]
            # A column without a step here has none in any descendant either.
            live = step.any(axis=1)
            cols, order, xs, step = cols[live], order[live], xs[live], step[live]
            split = _best_split(xs, step, w[order], w_pos[order])
            if split is None:
                self.value[node] = self._leaf_value(yn, wn)
                return node
            k, thr = split
            go_left = X[rows, cols[k]] <= thr
            n_left = int(go_left.sum())
            if n_left == 0 or n_left == len(rows):
                self.value[node] = self._leaf_value(yn, wn)
                return node
            self.feature[node] = int(cols[k])
            self.threshold[node] = thr
            in_left = np.zeros(len(y), dtype=bool)
            in_left[rows[go_left]] = True
            in_left = in_left[order]
            n_right = len(rows) - n_left
            self.left[node] = grow(
                rows[go_left], cols, order[in_left].reshape(-1, n_left),
                xs[in_left].reshape(-1, n_left), depth + 1,
            )
            self.right[node] = grow(
                rows[~go_left], cols, order[~in_left].reshape(-1, n_right),
                xs[~in_left].reshape(-1, n_right), depth + 1,
            )
            return node

        # A constant column never splits; NaN != NaN keeps NaN columns.
        cols = np.flatnonzero((X != X[:1]).any(axis=0))
        XT = X[:, cols].T
        order = np.argsort(XT, axis=1, kind="stable")
        grow(np.arange(len(y)), cols, order, np.take_along_axis(XT, order, axis=1), 0)
        return self

    @staticmethod
    def _leaf_value(y: np.ndarray, w: np.ndarray) -> float:
        return 1.0 if float(np.dot(w, y)) >= 0.0 else -1.0

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

    def check(self, width: int) -> None:
        """ValueError unless the tree has nodes, each split node's children
        follow it, as ``fit`` adds them, so ``predict`` ends, and each split
        is on one of ``width`` columns."""
        n = len(self.feature)
        if not n or any(len(v) != n for v in (self.threshold, self.left, self.right, self.value)):
            raise ValueError("tree node lists are empty or differ in length")
        for i, f in enumerate(self.feature):
            if f >= width:
                raise ValueError(f"a tree splits on a feature beyond the {width} columns")
            if f >= 0 and not (i < self.left[i] < n and i < self.right[i] < n):
                raise ValueError(f"tree node {i} has a child out of order")


def _best_split(xs: np.ndarray, step: np.ndarray, ws: np.ndarray, ws_pos: np.ndarray):
    """Lowest weighted-Gini split as (feature row, threshold), or None.

    Each row of the (features x samples) arrays holds one feature's node
    values in ascending order, with their weights and their weights on
    positive labels (zero on negative ones); ``step`` marks the adjacent
    pairs whose values differ. Evaluates the midpoint of every such pair in
    one vectorized pass. The weights must keep these Gini terms finite.
    """
    cum_w = np.cumsum(ws, axis=1)
    cum_pos = np.cumsum(ws_pos, axis=1)
    # Candidate cells position-major, so the first (position, feature)
    # minimum wins.
    i, k = np.nonzero(step.T)
    wl = cum_w[k, i]
    pl = cum_pos[k, i]
    wr = cum_w[k, -1] - wl
    pr = cum_pos[k, -1] - pl
    nl = wl - pl
    nr = wr - pr
    valid = (wl > _EPS) & (wr > _EPS)
    if not valid.any():
        return None
    impurity = 2.0 * (pl * nl / np.maximum(wl, _EPS) + pr * nr / np.maximum(wr, _EPS))
    # Zero-gain splits are allowed (XOR-style data has no first-split gain);
    # recursion stays bounded by depth, purity, and the distinct-value check.
    c = int(np.argmin(np.where(valid, impurity, np.inf)))
    i, k = i[c], k[c]
    thr = float((xs[k, i] + xs[k, i + 1]) / 2.0)
    # Guard against midpoint rounding onto the upper value.
    if thr >= xs[k, i + 1]:
        thr = float(xs[k, i])
    return k, thr


@dataclass
class AdaBoostModel(Ranged):
    """Discrete two-class AdaBoost over depth-limited Gini trees."""

    algorithm: ClassVar[str] = "adaboost"
    hyper_keys: ClassVar[dict[str, str]] = {"ada_depth": "max_depth", "ada_rounds": "rounds"}
    max_depth: int = ranged(5, 1)
    rounds: int = ranged(100, 1)
    trees: list[DecisionTree] = field(default_factory=list)
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

    def diagnostics(self) -> dict:
        """Training diagnostics for the metrics report."""
        return {
            "algorithm": self.algorithm,
            "rounds_used": len(self.trees),
            "stage_errors": list(self.stage_errors),
            "early_stop": self.early_stop,
            "training_error_bound": float(self.training_error_bound()),
        }

