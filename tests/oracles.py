"""Straightforward reference versions of the package's fast kernels.

Each is the package's former implementation, kept here so the differential
tests can require the fast kernel to return exactly the same result.
"""

from __future__ import annotations

import math
from itertools import combinations


def dp_edit_distance(a: str, b: str) -> int:
    """Levenshtein distance by the full dynamic-programming matrix."""
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    if len(a) < len(b):
        a, b = b, a
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i]
        for j, cb in enumerate(b, start=1):
            cost = 0 if ca == cb else 1
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + cost))
        prev = cur
    return prev[-1]


def pairwise_u_statistic(xs, ys) -> float:
    """U = #{(x, y): x > y} + 0.5 * #ties, counted over every pair."""
    u = 0.0
    for x in xs:
        for y in ys:
            if x > y:
                u += 1.0
            elif x == y:
                u += 0.5
    return u


def _pairwise_exact_p(values: list, n1: int, u_obs: float) -> float:
    idx = range(len(values))
    total = n_le = n_ge = 0
    eps = 1e-9
    for subset in combinations(idx, n1):
        chosen = set(subset)
        xs = [values[i] for i in subset]
        ys = [values[i] for i in idx if i not in chosen]
        u = pairwise_u_statistic(xs, ys)
        total += 1
        if u <= u_obs + eps:
            n_le += 1
        if u >= u_obs - eps:
            n_ge += 1
    return min(1.0, 2.0 * min(n_le, n_ge) / total)


def _pairwise_normal_p(xs, ys, u: float) -> float:
    n1, n2 = len(xs), len(ys)
    n = n1 + n2
    counts: dict = {}
    for v in list(xs) + list(ys):
        counts[v] = counts.get(v, 0) + 1
    tie_term = sum(c ** 3 - c for c in counts.values())
    var = (n1 * n2 / 12.0) * ((n + 1) - tie_term / (n * (n - 1)))
    if var <= 0:
        return 1.0
    diff = u - n1 * n2 / 2.0
    if diff > 0:
        z = (diff - 0.5) / math.sqrt(var)
    elif diff < 0:
        z = (diff + 0.5) / math.sqrt(var)
    else:
        z = 0.0
    return min(1.0, 2.0 * (0.5 * math.erfc(abs(z) / math.sqrt(2.0))))


def pairwise_mann_whitney(xs, ys, exact_limit: int = 16) -> tuple[float, float]:
    """(U, two-sided p) with U counted pairwise and, up to ``exact_limit``
    pooled values, recounted pairwise for every assignment of the null."""
    xs, ys = list(xs), list(ys)
    u = pairwise_u_statistic(xs, ys)
    if len(xs) + len(ys) <= exact_limit:
        return u, _pairwise_exact_p(xs + ys, len(xs), u)
    return u, _pairwise_normal_p(xs, ys, u)


def scan_categories(lexicon, word: str) -> set[int]:
    """Category indices matching ``word``, by a full scan of the patterns."""
    low = word.lower()
    hits = set()
    for idx, (_, patterns) in enumerate(lexicon.categories):
        for pat in patterns:
            pat = pat.lower()
            matched = low.startswith(pat[:-1]) if pat.endswith("*") else low == pat
            if matched:
                hits.add(idx)
    return hits
