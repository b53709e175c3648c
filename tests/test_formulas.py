"""Closed forms: Fibonacci, Sylvester, binomial censuses, and bounds."""

import pytest

import sgforge as sf
from sgforge.errors import NegativeIndex, NotCoprime, OutOfRange


class TestFibonacci:
    def test_base_and_small(self):
        assert [sf.fibonacci(n) for n in range(8)] == [0, 1, 1, 2, 3, 5, 8, 13]
        assert sf.fibonacci(6) == 8
        assert sf.fibonacci(20) == 6765

    def test_recurrence_exact_to_90(self):
        for n in range(2, 91):
            assert sf.fibonacci(n) == sf.fibonacci(n - 1) + sf.fibonacci(n - 2)

    def test_negative_index(self):
        with pytest.raises(NegativeIndex):
            sf.fibonacci(-1)


class TestSylvester:
    def test_examples(self):
        assert sf.sylvester(2, 3) == (1, 1)
        assert sf.sylvester(3, 5) == (7, 4)

    def test_hyperelliptic_family(self):
        for g in range(1, 15):
            assert sf.sylvester(2, 2 * g + 1) == (2 * g - 1, g)

    def test_errors(self):
        with pytest.raises(NotCoprime):
            sf.sylvester(4, 6)
        with pytest.raises(OutOfRange):
            sf.sylvester(3, 3)
        with pytest.raises(OutOfRange):
            sf.sylvester(1, 5)

    def test_matches_enumeration(self):
        for a, b in [(2, 3), (3, 4), (3, 5), (4, 5), (5, 7)]:
            s = sf.from_generators({a, b})
            assert sf.sylvester(a, b) == (s.frobenius, s.genus)


class TestCountFLt2m:
    def test_examples(self):
        assert sf.count_f_lt_2m(1) == 1
        assert sf.count_f_lt_2m(5) == 8
        assert sf.count_f_lt_2m(10) == 89

    def test_equals_fibonacci(self):
        for g in range(1, 41):
            assert sf.count_f_lt_2m(g) == sf.fibonacci(g + 1)

    def test_matches_enumeration(self, census16):
        for g in range(1, 17):
            assert sf.count_f_lt_2m(g) == census16.f_lt_2m[g]

    def test_structural_characterization(self):
        # F < 2m forces S = {0, m} + subset of (m, 2m) + everything >= 2m.
        class Probe:
            def __init__(self):
                self.bad = 0

            def visit(self, node):
                frame = sf.TreeFrame(node)
                f, m = frame.frobenius, frame.multiplicity
                if f >= 2 * m or frame.genus == 0:
                    return
                for x in range(2 * m, 2 * m + 5):
                    if not (frame.mask >> x) & 1:
                        self.bad += 1

            def merge(self, other):
                self.bad += other.bad
                return self

        table = sf.enumerate_tree(10, collectors={"probe": Probe})
        assert table.extras["probe"].bad == 0

    def test_domain(self):
        with pytest.raises(OutOfRange):
            sf.count_f_lt_2m(0)


class TestAkFamilies:
    def test_tiny_families(self):
        assert sf.enumerate_Ak(1) == [(0,)]
        assert sf.enumerate_Ak(2) == [(0,)]
        assert sf.enumerate_Ak(3) == [(0,), (0, 1), (0, 2)]

    def test_nonpositive_k_rejected(self):
        with pytest.raises(OutOfRange, match="k must be positive"):
            sf.enumerate_Ak(0)

    def test_counts_follow_pair_structure(self):
        for k in range(1, 12):
            expected = 3 ** ((k - 1) // 2)
            assert len(sf.enumerate_Ak(k)) == expected

    def test_members_avoid_doubling(self):
        for k in range(1, 10):
            family = sf.enumerate_Ak(k)
            assert family == sorted(family)
            for a in family:
                assert a[0] == 0 and list(a) == sorted(set(a))
                assert k not in {x + y for x in a for y in a}

    def test_exhaustive_against_powerset(self):
        # Independent route: filter all subsets directly.
        from itertools import combinations
        for k in range(1, 9):
            expected = set()
            pool = list(range(1, k))
            for r in range(len(pool) + 1):
                for extra in combinations(pool, r):
                    a = (0,) + extra
                    if all(x + y != k for x in a for y in a):
                        expected.add(a)
            got = set(sf.enumerate_Ak(k))
            assert got == expected


class TestZhaoLowerBound:
    def test_empty_inner_sum(self):
        assert sf.zhao_lower_bound(1) == sf.fibonacci(2)
        assert sf.zhao_lower_bound(2) == sf.fibonacci(3)

    def test_g3(self):
        assert sf.zhao_lower_bound(3) == 4

    def test_nonpositive_genus_rejected(self):
        with pytest.raises(OutOfRange, match="g must be positive"):
            sf.zhao_lower_bound(0)

    def test_fibonacci_index_is_positive(self):
        # A + A misses k and A holds 0, so the index is at least g - 2k.
        for g in range(1, 41):
            for k in range(1, g // 3 + 1):
                for a in sf.enumerate_Ak(k):
                    hits = len({x + y for x in a for y in a if x + y <= k})
                    idx = g - hits + len(a) - k - 1
                    assert idx >= max(1, g - 2 * k), (g, k, a)

    def test_sandwich(self, census16):
        for g in range(1, 17):
            assert sf.zhao_lower_bound(g) <= census16.t(g) <= census16.n(g)


class TestGlobalBounds:
    def test_examples(self):
        assert sf.global_bounds(3) == (4, 4)
        assert sf.global_bounds(10) == (110, 385)
        assert sf.global_bounds(15) == (1220, 12289)

    def test_domain(self):
        with pytest.raises(OutOfRange):
            sf.global_bounds(2)

    def test_sandwich(self, census16):
        for g in range(3, 17):
            lo, hi = sf.global_bounds(g)
            assert lo <= census16.n(g) <= hi
