"""Exact and nonparametric tests: Fisher's exact test and Mann-Whitney U.

Both tests are implemented from first principles. Hypergeometric point
probabilities go through log-gamma so large margins cannot overflow, and
the small-sample Mann-Whitney branch enumerates the full permutation null.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

from .errors import ValidationError

# Relative slack when comparing point probabilities against the observed
# table's probability (floating-point ties must count as ties).
_TIE_SLACK = 1e-12

# Exact Mann-Whitney enumeration is used up to this combined sample size.
MWU_EXACT_LIMIT = 16


@dataclass(frozen=True)
class Contingency2x2:
    """2x2 count table; rows are groups, columns attribute present/absent."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        for v in (self.a, self.b, self.c, self.d):
            if v < 0 or v != int(v):
                raise ValidationError(f"counts must be nonnegative integers, got {v}")
        if self.a + self.b == 0 or self.c + self.d == 0:
            raise ValidationError("each row of the contingency table must be nonempty")


@dataclass(frozen=True)
class TestResult:
    statistic: float
    p_two_sided: float
    effect: float
    significant: bool
    method: str


def _log_choose(n: int, k: int) -> float:
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def odds_ratio(t: Contingency2x2) -> float:
    """(a*d)/(b*c); +inf when b*c = 0 with a*d > 0, NaN when both are 0."""
    ad, bc = t.a * t.d, t.b * t.c
    if bc == 0:
        return math.inf if ad > 0 else math.nan
    return ad / bc


def fisher_exact(t: Contingency2x2, alpha: float = 0.05) -> TestResult:
    """Two-sided Fisher's exact test on a 2x2 table.

    The p-value sums hypergeometric probabilities of all same-margin tables
    whose point probability does not exceed the observed table's (with a
    small relative slack for floating-point ties).
    """
    if t.a + t.b + t.c + t.d == 0:
        raise ValidationError("all-zero contingency table")
    n = t.a + t.b + t.c + t.d
    r1 = t.a + t.b
    r2 = t.c + t.d
    c1 = t.a + t.c
    log_denom = _log_choose(n, c1)

    def log_p(a: int) -> float:
        return _log_choose(r1, a) + _log_choose(r2, c1 - a) - log_denom

    lo = max(0, c1 - r2)
    hi = min(r1, c1)
    p_obs = math.exp(log_p(t.a))
    cutoff = p_obs * (1.0 + _TIE_SLACK)
    p = 0.0
    for a in range(lo, hi + 1):
        pa = math.exp(log_p(a))
        if pa <= cutoff:
            p += pa
    p = min(p, 1.0)
    orv = odds_ratio(t)
    return TestResult(
        statistic=orv,
        p_two_sided=p,
        effect=orv,
        significant=p < alpha,
        method="fisher_exact",
    )


def _doubled_midranks(values) -> tuple[list[int], int]:
    """Twice the 1-based midrank of each value, and the tie term sum(t^3 - t)
    over groups of t equal values. Doubling keeps the ranks integers."""
    order = sorted(range(len(values)), key=values.__getitem__)
    ranks = [0] * len(values)
    tie_term = 0
    i = 0
    while i < len(order):
        j = i + 1
        while j < len(order) and values[order[j]] == values[order[i]]:
            j += 1
        # positions i+1 .. j share the midrank (i+1+j)/2
        for k in range(i, j):
            ranks[order[k]] = i + 1 + j
        t = j - i
        tie_term += t ** 3 - t
        i = j
    return ranks, tie_term


def _exact_mwu_p(ranks: list[int], n1: int, u_obs: float) -> float:
    """Two-sided p over all assignments of n1 of the pooled values to group 1.

    p = min(1, 2 * min(P(U <= u_obs), P(U >= u_obs))) under the permutation
    null. ``ranks`` are the pooled values' doubled midranks, so ties are
    handled and each assignment's doubled U is its rank sum minus
    n1 * (n1 + 1), an exact integer.
    """
    u2_obs = 2.0 * u_obs
    offset = n1 * (n1 + 1)
    total = n_le = n_ge = 0
    for subset in combinations(ranks, n1):
        u2 = sum(subset) - offset
        total += 1
        if u2 <= u2_obs:
            n_le += 1
        if u2 >= u2_obs:
            n_ge += 1
    return min(1.0, 2.0 * min(n_le, n_ge) / total)


def _normal_sf(z: float) -> float:
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def _approx_mwu_p(n1: int, n2: int, u: float, tie_term: int) -> float:
    """Normal approximation with tie and continuity corrections."""
    n = n1 + n2
    var = (n1 * n2 / 12.0) * ((n + 1) - tie_term / (n * (n - 1)))
    if var <= 0:
        return 1.0
    mu = n1 * n2 / 2.0
    diff = u - mu
    if diff > 0:
        z = (diff - 0.5) / math.sqrt(var)
    elif diff < 0:
        z = (diff + 0.5) / math.sqrt(var)
    else:
        z = 0.0
    return min(1.0, 2.0 * _normal_sf(abs(z)))


def mann_whitney_u(xs, ys, alpha: float = 0.05) -> TestResult:
    """Mann-Whitney U test; exact for small samples, normal approx otherwise.

    U = #{(x, y): x > y} + 0.5 * #ties, computed as group 1's midrank sum
    minus n1(n1+1)/2. The exact branch (combined size <= 16) enumerates
    every assignment of pooled values to the two groups. The effect is the
    rank-biserial correlation 2U/(n1*n2) - 1. NaN is rejected: it has no
    rank.
    """
    xs = list(xs)
    ys = list(ys)
    if not xs or not ys:
        raise ValidationError("both samples must be non-empty")
    pooled = xs + ys
    if any(v != v for v in pooled):
        raise ValidationError("samples must not contain NaN")
    n1, n2 = len(xs), len(ys)
    ranks, tie_term = _doubled_midranks(pooled)
    u = (sum(ranks[:n1]) - n1 * (n1 + 1)) / 2
    if n1 + n2 <= MWU_EXACT_LIMIT:
        p = _exact_mwu_p(ranks, n1, u)
        method = "mann_whitney_u_exact"
    else:
        p = _approx_mwu_p(n1, n2, u, tie_term)
        method = "mann_whitney_u_normal"
    effect = 2.0 * u / (n1 * n2) - 1.0
    return TestResult(
        statistic=u,
        p_two_sided=p,
        effect=effect,
        significant=p < alpha,
        method=method,
    )


def median(values) -> float:
    """Median of a non-empty sequence (mean of middle pair on even sizes)."""
    vals = sorted(values)
    if not vals:
        raise ValidationError("median of empty sequence")
    n = len(vals)
    mid = n // 2
    if n % 2:
        return float(vals[mid])
    return (vals[mid - 1] + vals[mid]) / 2.0
