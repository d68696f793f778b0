import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regretstream.errors import ValidationError
from oracles import pairwise_mann_whitney
from regretstream.stats import (
    Contingency2x2,
    fisher_exact,
    mann_whitney_u,
    median,
    odds_ratio,
)


def fisher_oracle_p(a, b, c, d) -> Fraction:
    """Exact rational two-sided Fisher p via full same-margin enumeration."""
    r1, r2, c1 = a + b, c + d, a + c
    n = r1 + r2

    def comb(n_, k_):
        return Fraction(math.comb(n_, k_))

    denom = comb(n, c1)
    lo = max(0, c1 - r2)
    hi = min(r1, c1)
    p_obs = comb(r1, a) * comb(r2, c1 - a) / denom
    total = Fraction(0)
    for a2 in range(lo, hi + 1):
        p2 = comb(r1, a2) * comb(r2, c1 - a2) / denom
        if p2 <= p_obs:
            total += p2
    return min(total, Fraction(1))


class TestFisher:
    def test_reference_table_sixteen_vs_six(self):
        # 6/100 vs 16/100 regret yes-counts
        res = fisher_exact(Contingency2x2(6, 94, 16, 84))
        assert res.effect == pytest.approx(0.335, abs=0.005)
        assert res.p_two_sided == pytest.approx(0.04, abs=0.01)
        assert res.significant

    def test_symmetric_table(self):
        res = fisher_exact(Contingency2x2(5, 5, 5, 5))
        assert res.effect == pytest.approx(1.0)
        assert res.p_two_sided == pytest.approx(1.0)

    def test_diagonal_table_enumeration(self):
        # P(a=3) + P(a=0) = 2/20 with margins (3,3,3)
        res = fisher_exact(Contingency2x2(3, 0, 0, 3))
        assert math.isinf(res.effect)
        assert res.p_two_sided == pytest.approx(0.1, abs=1e-12)

    def test_odds_ratio_conventions(self):
        assert odds_ratio(Contingency2x2(1, 1, 0, 1)) == math.inf
        assert math.isnan(odds_ratio(Contingency2x2(0, 1, 0, 1)))
        assert odds_ratio(Contingency2x2(2, 3, 4, 5)) == pytest.approx(10 / 12)

    def test_all_zero_rejected(self):
        with pytest.raises(ValidationError):
            Contingency2x2(0, 0, 0, 0)

    def test_empty_row_rejected(self):
        with pytest.raises(ValidationError):
            Contingency2x2(0, 0, 1, 2)

    def test_row_and_column_swap_invariance(self):
        base = fisher_exact(Contingency2x2(2, 5, 4, 1))
        swapped = fisher_exact(Contingency2x2(1, 4, 5, 2))  # both rows and cols
        assert swapped.p_two_sided == pytest.approx(base.p_two_sided, abs=1e-12)
        assert swapped.effect == pytest.approx(base.effect, abs=1e-12)

    def test_or_inverts_under_row_swap(self):
        a = fisher_exact(Contingency2x2(2, 5, 4, 1))
        b = fisher_exact(Contingency2x2(4, 1, 2, 5))
        assert b.effect == pytest.approx(1.0 / a.effect, abs=1e-12)
        assert b.p_two_sided == pytest.approx(a.p_two_sided, abs=1e-12)

    def test_oracle_agreement_small_tables(self):
        # every table with total <= 12 and both rows non-empty
        for n in range(2, 13):
            for a in range(0, n + 1):
                for b in range(0, n + 1 - a):
                    for c in range(0, n + 1 - a - b):
                        d = n - a - b - c
                        if a + b == 0 or c + d == 0:
                            continue
                        got = fisher_exact(Contingency2x2(a, b, c, d)).p_two_sided
                        want = float(fisher_oracle_p(a, b, c, d))
                        assert abs(got - want) < 1e-9, (a, b, c, d)

    def test_large_margins_no_overflow(self):
        res = fisher_exact(Contingency2x2(5000, 4000, 4200, 4800))
        assert 0.0 <= res.p_two_sided <= 1.0


def mwu_oracle_p(xs, ys) -> Fraction:
    """Rank-based two-sided permutation oracle (exact rational arithmetic)."""
    pooled = list(xs) + list(ys)
    n1 = len(xs)

    def u_of(subset):
        chosen = [pooled[i] for i in subset]
        rest = [pooled[i] for i in range(len(pooled)) if i not in set(subset)]
        u = Fraction(0)
        for x in chosen:
            for y in rest:
                if x > y:
                    u += 1
                elif x == y:
                    u += Fraction(1, 2)
        return u

    u_obs = u_of(tuple(range(n1)))
    n_le = n_ge = total = 0
    for subset in combinations(range(len(pooled)), n1):
        u = u_of(subset)
        total += 1
        if u <= u_obs:
            n_le += 1
        if u >= u_obs:
            n_ge += 1
    return min(Fraction(1), 2 * Fraction(min(n_le, n_ge), total))


class TestMannWhitney:
    def test_extreme_small_case(self):
        res = mann_whitney_u([1, 2], [3, 4])
        assert res.statistic == 0
        assert res.p_two_sided == pytest.approx(1 / 3, abs=1e-12)

    def test_central_case(self):
        res = mann_whitney_u([1, 4], [2, 3])
        assert res.statistic == 2
        assert res.p_two_sided == pytest.approx(1.0)

    def test_identical_multisets_null(self):
        res = mann_whitney_u([1, 2, 3], [1, 2, 3])
        assert res.p_two_sided >= 0.99

    def test_empty_sample_rejected(self):
        with pytest.raises(ValidationError):
            mann_whitney_u([], [1.0])

    def test_u_complementarity(self):
        xs, ys = [0.3, 1.7, 2.2], [0.9, 1.1]
        u1 = mann_whitney_u(xs, ys).statistic
        u2 = mann_whitney_u(ys, xs).statistic
        assert u1 + u2 == pytest.approx(len(xs) * len(ys))

    def test_oracle_agreement_random_instances(self):
        rng = np.random.default_rng(1234)
        for _ in range(60):
            n1 = int(rng.integers(1, 6))
            n2 = int(rng.integers(1, 6))
            # mix continuous values and ties
            xs = [float(x) for x in rng.integers(0, 6, size=n1)]
            ys = [float(y) for y in rng.integers(0, 6, size=n2)]
            got = mann_whitney_u(xs, ys).p_two_sided
            want = float(mwu_oracle_p(xs, ys))
            assert abs(got - want) < 1e-9, (xs, ys)

    def test_normal_approx_reasonable(self):
        rng = np.random.default_rng(7)
        xs = rng.normal(0.0, 1.0, size=40).tolist()
        ys = rng.normal(1.2, 1.0, size=40).tolist()
        res = mann_whitney_u(xs, ys)
        assert res.method == "mann_whitney_u_normal"
        assert res.p_two_sided < 0.001

    def test_normal_approx_null(self):
        rng = np.random.default_rng(8)
        xs = rng.normal(0.0, 1.0, size=50).tolist()
        res = mann_whitney_u(xs, xs)
        assert res.p_two_sided > 0.9

    def test_monotone_under_reinforcing_extremes(self):
        # adding an observation beyond the current deviation direction
        # never increases the exact p
        rng = np.random.default_rng(99)
        for _ in range(40):
            n1 = int(rng.integers(2, 7))
            n2 = int(rng.integers(2, 7))
            xs = [float(v) for v in rng.normal(0, 1, size=n1)]
            ys = [float(v) for v in rng.normal(0, 1, size=n2)]
            res = mann_whitney_u(xs, ys)
            mu = n1 * n2 / 2.0
            if res.statistic >= mu:
                xs2 = xs + [max(xs + ys) + 1.0]
            else:
                xs2 = xs + [min(xs + ys) - 1.0]
            res2 = mann_whitney_u(xs2, ys)
            assert res2.p_two_sided <= res.p_two_sided + 1e-12

    @given(
        st.lists(st.integers(0, 4), min_size=1, max_size=8),
        st.lists(st.integers(0, 4), min_size=1, max_size=8),
    )
    @settings(max_examples=150, deadline=None)
    def test_rank_sums_equal_pairwise_exact_branch(self, xs, ys):
        xs, ys = [x / 2 for x in xs], [float(y) for y in ys]
        res = mann_whitney_u(xs, ys)
        assert res.method == "mann_whitney_u_exact"
        assert (res.statistic, res.p_two_sided) == pairwise_mann_whitney(xs, ys)

    @given(
        st.lists(st.integers(-3, 3), min_size=1, max_size=60),
        st.lists(st.integers(-3, 3), min_size=1, max_size=60),
    )
    @settings(max_examples=150, deadline=None)
    def test_rank_sums_equal_pairwise_normal_branch(self, xs, ys):
        if len(xs) + len(ys) <= 16:
            xs = xs + [0] * 17
        res = mann_whitney_u(xs, ys)
        assert res.method == "mann_whitney_u_normal"
        assert (res.statistic, res.p_two_sided) == pairwise_mann_whitney(xs, ys)

    def test_rank_sums_equal_pairwise_on_mixed_ties(self):
        rng = np.random.default_rng(5)
        for n1, n2 in ((1, 13), (7, 7), (3, 200), (150, 170)):
            xs = [float(v) for v in rng.integers(0, 9, size=n1)] + [0.5]
            ys = [int(v) for v in rng.integers(0, 9, size=n2)] + [-0.0]
            res = mann_whitney_u(xs, ys)
            assert (res.statistic, res.p_two_sided) == pairwise_mann_whitney(xs, ys)

    def test_nan_rejected(self):
        with pytest.raises(ValidationError):
            mann_whitney_u([1.0, float("nan")], [2.0, 3.0])
        with pytest.raises(ValidationError):
            mann_whitney_u([1.0] * 20, [2.0] * 20 + [np.nan])

    def test_rank_biserial_effect_bounds(self):
        res = mann_whitney_u([5, 6, 7], [1, 2, 3])
        assert res.effect == pytest.approx(1.0)
        res = mann_whitney_u([1, 2, 3], [5, 6, 7])
        assert res.effect == pytest.approx(-1.0)


class TestMedian:
    def test_odd(self):
        assert median([3, 1, 2]) == 2

    def test_even(self):
        assert median([4, 1, 3, 2]) == pytest.approx(2.5)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            median([])

    @given(st.lists(st.integers(-100, 100), min_size=1, max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_within_range(self, values):
        m = median(values)
        assert min(values) <= m <= max(values)
