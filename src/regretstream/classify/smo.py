"""RBF-kernel SVM trained by sequential minimal optimization.

A deterministic variant of Platt's SMO: the first-choice loop alternates
between all points and the non-bound subset; the second choice maximizes
|E1 - E2| with index order as the tie-break. Intended for desk-scale
problems; training size is capped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np
from numpy.typing import NDArray

from ..codec import ranged
from ..errors import ValidationError
from .stage1 import BinaryModel, signed_labels

MAX_TRAIN_ROWS = 20_000
# KKT tolerance and the cap on passes over the points.
_TOL = 1e-3
_MAX_PASSES = 200


@dataclass
class RbfSvmModel(BinaryModel):
    algorithm: ClassVar[str] = "rbf_svm"
    hyper_keys: ClassVar[dict[str, str]] = {"rbf_c": "c", "rbf_gamma": "gamma"}
    c: float = ranged(0.1, 0, above=True)
    gamma: float = ranged(0.001, 0, above=True)
    support_vectors: NDArray[np.float64] | None = None
    dual_coef: NDArray[np.float64] | None = None  # alpha_i * y_i
    bias: float = 0.0

    def _kernel_row(self, X: np.ndarray, i: int) -> np.ndarray:
        diff = X - X[i]
        return np.exp(-self.gamma * np.einsum("ij,ij->i", diff, diff))

    def fit(self, X: np.ndarray, y01: np.ndarray) -> "RbfSvmModel":
        X = np.asarray(X, dtype=np.float64)
        if len(X) > MAX_TRAIN_ROWS:
            raise ValidationError(
                f"RBF-SVM training capped at {MAX_TRAIN_ROWS} rows (got {len(X)}); "
                "use the AdaBoost stage-2 for larger samples"
            )
        y = signed_labels(y01)
        n = len(y)
        alpha = np.zeros(n)
        b = 0.0
        rows: dict[int, np.ndarray] = {}

        def krow(i: int) -> np.ndarray:
            row = rows.get(i)
            if row is None:
                row = self._kernel_row(X, i)
                if len(rows) < 4096:
                    rows[i] = row
            return row

        def f(i: int) -> float:
            return float(np.dot(alpha * y, krow(i))) + b

        def take_step(i1: int, i2: int) -> bool:
            nonlocal b
            if i1 == i2:
                return False
            a1_old, a2_old = alpha[i1], alpha[i2]
            y1, y2 = y[i1], y[i2]
            e1 = f(i1) - y1
            e2 = f(i2) - y2
            s = y1 * y2
            if s > 0:
                lo = max(0.0, a1_old + a2_old - self.c)
                hi = min(self.c, a1_old + a2_old)
            else:
                lo = max(0.0, a2_old - a1_old)
                hi = min(self.c, self.c + a2_old - a1_old)
            if hi - lo < 1e-12:
                return False
            k11 = krow(i1)[i1]
            k12 = krow(i1)[i2]
            k22 = krow(i2)[i2]
            eta = k11 + k22 - 2.0 * k12
            if eta <= 0:
                return False
            a2 = a2_old + y2 * (e1 - e2) / eta
            a2 = min(hi, max(lo, a2))
            if abs(a2 - a2_old) < 1e-7 * (a2 + a2_old + 1e-7):
                return False
            a1 = a1_old + s * (a2_old - a2)
            b1 = b - e1 - y1 * (a1 - a1_old) * k11 - y2 * (a2 - a2_old) * k12
            b2 = b - e2 - y1 * (a1 - a1_old) * k12 - y2 * (a2 - a2_old) * k22
            if 0.0 < a1 < self.c:
                b = b1
            elif 0.0 < a2 < self.c:
                b = b2
            else:
                b = (b1 + b2) / 2.0
            alpha[i1] = a1
            alpha[i2] = a2
            return True

        def examine(i2: int) -> bool:
            y2 = y[i2]
            a2 = alpha[i2]
            e2 = f(i2) - y2
            r2 = e2 * y2
            if (r2 < -_TOL and a2 < self.c) or (r2 > _TOL and a2 > 0):
                non_bound = np.nonzero((alpha > 0) & (alpha < self.c))[0]
                if len(non_bound) > 1:
                    errors = np.array([f(i) - y[i] for i in non_bound])
                    i1 = int(non_bound[int(np.argmax(np.abs(errors - e2)))])
                    if take_step(i1, i2):
                        return True
                for i1 in non_bound:
                    if take_step(int(i1), i2):
                        return True
                for i1 in range(n):
                    if take_step(i1, i2):
                        return True
            return False

        examine_all = True
        passes = 0
        while passes < _MAX_PASSES:
            passes += 1
            changed = 0
            if examine_all:
                for i in range(n):
                    changed += examine(i)
            else:
                for i in np.nonzero((alpha > 0) & (alpha < self.c))[0]:
                    changed += examine(int(i))
            if examine_all:
                examine_all = False
            elif changed == 0:
                break

        sv = alpha > 1e-8
        self.support_vectors = X[sv].copy()
        self.dual_coef = (alpha[sv] * y[sv]).copy()
        self.bias = float(b)
        return self

    def decision_values(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        sv = self.support_vectors
        # ||x - s||^2 = ||x||^2 + ||s||^2 - 2 x.s, blocked over query rows
        sv_norm = np.einsum("ij,ij->i", sv, sv)
        out = np.zeros(len(X))
        step = 2048
        for lo in range(0, len(X), step):
            chunk = X[lo : lo + step]
            d2 = (
                np.einsum("ij,ij->i", chunk, chunk)[:, None]
                + sv_norm[None, :]
                - 2.0 * chunk @ sv.T
            )
            out[lo : lo + step] = np.exp(-self.gamma * np.maximum(d2, 0.0)) @ self.dual_coef
        return out + self.bias

    def diagnostics(self) -> dict:
        """Training diagnostics for the metrics report."""
        n_support = 0 if self.support_vectors is None else len(self.support_vectors)
        return {"algorithm": self.algorithm, "n_support": n_support}
