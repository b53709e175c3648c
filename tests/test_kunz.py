"""Kunz coordinates, the inequality system, and the lattice-point oracle."""

from itertools import product

import pytest

import sgforge as sf
from sgforge.errors import (DimensionMismatch, InvalidKunz, MultiplicityOne,
                            PreconditionViolated)


class TestKunzVector:
    def test_two_five(self):
        v = sf.kunz_vector(sf.from_generators({2, 5}))
        assert (v.m, v.coords) == (2, (2,))
        assert v.genus == 2

    def test_three_five(self):
        v = sf.kunz_vector(sf.from_generators({3, 5}))
        assert (v.m, v.coords) == (3, (3, 1))

    def test_ordinary_is_all_ones(self):
        for g in range(1, 9):
            v = sf.kunz_vector(sf.ordinary(g))
            assert v.m == g + 1
            assert v.coords == (1,) * g

    def test_trivial_semigroup_rejected(self):
        with pytest.raises(MultiplicityOne):
            sf.kunz_vector(sf.from_generators({1}))

    def test_genus_is_coordinate_sum(self):
        for gens in [{3, 7}, {4, 9, 11}, {5, 7, 9}, {6, 10, 15, 19}]:
            s = sf.from_generators(gens)
            assert sf.kunz_vector(s).genus == s.genus


def _two_case_kunz(m, coords):
    # The inequality system in its textbook two-case form: k_i + k_j >=
    # k_{i+j} when i + j < m, k_i + k_j + 1 >= k_{i+j-m} when i + j > m.
    if min(coords) < 1:
        return False
    k = (None,) + tuple(coords)   # 1-based
    for i in range(1, m):
        for j in range(i, m):
            s = i + j
            if s < m and k[i] + k[j] < k[s]:
                return False
            if s > m and k[i] + k[j] + 1 < k[s - m]:
                return False
    return True


class TestSatisfiesKunz:
    def test_matches_two_case_system(self):
        # The Apéry form w_i + w_j >= w_((i+j) mod m) against the oracle,
        # zero coordinates included.
        for m in range(2, 7):
            for coords in product(range(0, 6), repeat=m - 1):
                assert sf.satisfies_kunz(m, coords) \
                    == _two_case_kunz(m, coords), (m, coords)

    def test_examples(self):
        assert sf.satisfies_kunz(3, (3, 1))
        assert not sf.satisfies_kunz(3, (1, 3))     # 2 k1 >= k2 fails
        assert sf.satisfies_kunz(2, (5,))

    def test_positivity_required(self):
        assert not sf.satisfies_kunz(3, (0, 2))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            sf.satisfies_kunz(4, (1, 2))
        with pytest.raises(MultiplicityOne):
            sf.satisfies_kunz(1, ())

    def test_characterizes_actual_vectors(self):
        # Every candidate vector is valid iff it round-trips to a semigroup
        # whose coordinates come straight back.
        for m in (3, 4, 5):
            for coords in product(range(1, 5), repeat=m - 1):
                if sf.satisfies_kunz(m, coords):
                    s = sf.semigroup_from_kunz(m, coords)
                    assert s.multiplicity == m
                    assert sf.kunz_vector(s).coords == coords
                else:
                    with pytest.raises(InvalidKunz):
                        sf.semigroup_from_kunz(m, coords)


class TestSemigroupFromKunz:
    def test_round_trip_example(self):
        assert sf.semigroup_from_kunz(2, (2,)) == sf.from_generators({2, 5})

    def test_ordinary(self):
        for g in range(1, 8):
            assert sf.semigroup_from_kunz(g + 1, (1,) * g) == sf.ordinary(g)

    def test_four_coordinates(self):
        s = sf.semigroup_from_kunz(4, (2, 1, 1))
        assert s == sf.from_generators({4, 6, 7, 9})
        assert s.gaps() == (1, 2, 3, 5)

    def test_round_trip_sweep(self):
        # All valid vectors with m <= 6 and genus <= 12.
        for m in range(2, 7):
            for g in range(1, 13):
                for coords in sf.kunz_vectors(m, g):
                    s = sf.semigroup_from_kunz(m, coords)
                    v = sf.kunz_vector(s)
                    assert (v.m, v.coords) == (m, coords)


class TestCountByPolytope:
    def test_examples(self):
        assert sf.count_by_polytope(3, 6) == 3
        assert sf.count_by_polytope(5, 8) == 13
        for g in range(1, 12):
            assert sf.count_by_polytope(2, g) == 1

    def test_ceiling_formula_for_m3(self):
        # Multiplicity 3 needs gaps {1, 2}, so the count is 0 at g = 1; the
        # ceiling formula takes over from g = 2.
        assert sf.count_by_polytope(3, 1) == 0
        for g in range(2, 31):
            assert sf.count_by_polytope(3, g) == (g + 3) // 3

    def test_matches_tree(self, census16):
        for m in range(2, 8):
            for g in range(1, 13):
                assert sf.count_by_polytope(m, g) == census16.n_mg(m, g)

    def test_zero_above_diagonal(self):
        assert sf.count_by_polytope(7, 3) == 0

    def test_enumeration_is_lexicographic_and_valid(self):
        vecs = list(sf.kunz_vectors(5, 9))
        assert vecs == sorted(vecs)
        assert len(vecs) == len(set(vecs))
        assert all(sf.satisfies_kunz(5, v) for v in vecs)


class TestRecurrenceBijection:
    @pytest.mark.parametrize("m,g", [(7, 10), (9, 10), (3, 3), (5, 7), (8, 11)])
    def test_examples_hold(self, m, g):
        ok, witnesses = sf.recurrence_bijection_check(m, g)
        assert ok, witnesses

    def test_precondition(self):
        with pytest.raises(PreconditionViolated):
            sf.recurrence_bijection_check(5, 8)       # 2g = 16 >= 15 = 3m
        with pytest.raises(PreconditionViolated):
            sf.recurrence_bijection_check(2, 1)

    def test_counts_consistency(self, census16):
        # Where the bijection applies, the two target slices partition the
        # image by the size of the dropped coordinate.
        for m, g in [(7, 10), (6, 8)]:
            ok, _ = sf.recurrence_bijection_check(m, g)
            assert ok
            assert census16.n_mg(m - 1, g - 1) + census16.n_mg(m - 1, g - 2) \
                == census16.n_mg(m, g)
