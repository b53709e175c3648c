"""Kunz coordinates, the inequality system, and the lattice-point oracle."""

from itertools import combinations, product

import pytest

import sgforge as sf
from sgforge import kunz
from sgforge.errors import (DimensionMismatch, InvalidKunz, MultiplicityOne,
                            PreconditionViolated)
from test_acceptance import A007323


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
    # Given a prefix, only the inequalities whose indices all lie in it.
    if min(coords) < 1:
        return False
    k = (None,) + tuple(coords)   # 1-based
    p = len(coords)
    for i in range(1, p + 1):
        for j in range(i, p + 1):
            s = i + j
            if s < m and s <= p and k[i] + k[j] < k[s]:
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
        vec = sf.KunzVector(3, (1, 1))
        with pytest.raises(DimensionMismatch):
            vec._replace(m=4)
        with pytest.raises(MultiplicityOne):
            vec._replace(m=1, coords=())

    def test_characterizes_actual_vectors(self):
        # Every candidate vector is valid iff it round-trips to a semigroup
        # whose coordinates come straight back; zero coordinates and
        # non-int ones are invalid.
        for m in (3, 4, 5):
            for coords in product(range(0, 5), repeat=m - 1):
                if sf.satisfies_kunz(m, coords):
                    s = sf.semigroup_from_kunz(m, coords)
                    assert s.multiplicity == m
                    assert sf.kunz_vector(s).coords == coords
                else:
                    with pytest.raises(InvalidKunz):
                        sf.semigroup_from_kunz(m, coords)
        for bad in (True, "a", 1.0):
            for coords in ((bad, 1), (1, bad)):
                assert not sf.satisfies_kunz(3, coords)
                with pytest.raises(InvalidKunz, match="violates"):
                    sf.semigroup_from_kunz(3, coords)


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


def _compositions(g, parts):
    # Every composition of g into `parts` positive parts.
    for cuts in combinations(range(1, g), parts - 1):
        ends = (0,) + cuts + (g,)
        yield tuple(b - a for a, b in zip(ends, ends[1:]))


def _max_tail(m, pre):
    # k_j <= k_i + k_{j-i} bounds each later coordinate by the min-plus
    # closure of the prefix, so the tail sums to at most this.
    top = [None, *pre]
    for j in range(len(pre) + 1, m):
        top.append(min(top[i] + top[j - i] for i in range(1, j // 2 + 1)))
    return sum(top[len(pre) + 1:])


class TestKunzVectors:
    def test_matches_brute_force_compositions(self):
        # The enumerator against a filter over every composition of g,
        # sorted: same vectors, same (lexicographic) order, and the count
        # of the same intervals.
        for m in range(2, 10):
            for g in range(1, 14):
                expected = sorted(c for c in _compositions(g, m - 1)
                                  if sf.satisfies_kunz(m, c))
                assert list(sf.kunz_vectors(m, g)) == expected, (m, g)
                assert sf.count_by_polytope(m, g) == len(expected), (m, g)

    def test_counts_sum_to_the_published_genus_row(self):
        # Every semigroup of genus g >= 1 has a multiplicity in 2..g + 1.
        for g in range(1, 19):
            assert sum(sf.count_by_polytope(m, g)
                       for m in range(2, g + 2)) == A007323[g], g

    def test_empty_slices_and_bad_multiplicity(self):
        for m in range(2, 7):
            for g in (0, -1, -5):
                assert list(sf.kunz_vectors(m, g)) == []
        for m in (1, 0, -3):
            with pytest.raises(MultiplicityOne):
                list(sf.kunz_vectors(m, 5))

    def test_first_vector_of_a_huge_slice(self):
        # N(30, 200) is far beyond enumeration, so the first vector has to
        # come lazily.  It is certified least: for each position p and each
        # smaller value x there, the prefix breaks an inequality, or its tail
        # cannot reach sum 200 even at the min-plus closure caps, or needs
        # more than 200 with every later coordinate at 1.
        m, g = 30, 200
        first = next(sf.kunz_vectors(m, g))
        assert sum(first) == g and sf.satisfies_kunz(m, first)
        for p in range(m - 1):
            for x in range(1, first[p]):
                pre = first[:p] + (x,)
                assert not (_two_case_kunz(m, pre)
                            and sum(pre) + m - 1 - len(pre) <= g
                            <= sum(pre) + _max_tail(m, pre)), (p, x)


class TestTailRecords:
    # Once the sum left exceeds the tail's length by at most 1 and no prefix
    # value exceeds 3, the loop counts the prefix's tails in {1, 2} without
    # visiting them.

    def test_every_tail_of_ones_and_twos_is_valid(self):
        # The rule itself, without the loop: a prefix with values in
        # {1, 2, 3} that keeps the inequalities among its own indices,
        # followed by any tail in {1, 2}, is a Kunz vector.
        for m in range(3, 10):
            for size in range(m - 1):
                for pre in product((1, 2, 3), repeat=size):
                    if pre and not _two_case_kunz(m, pre):
                        continue
                    for tail in product((1, 2), repeat=m - 1 - size):
                        assert sf.satisfies_kunz(m, pre + tail), (pre, tail)

    def test_the_prefix_bound_is_needed(self):
        # With a 4 in the prefix an all-ones tail can break a wrap bound:
        # k_2 + k_3 + 1 >= k_1 fails at m = 4.
        assert _two_case_kunz(4, (4,))
        assert not sf.satisfies_kunz(4, (4, 1, 1))
        assert (4, 1, 1) not in list(sf.kunz_vectors(4, 6))

    def test_cells_counted_from_the_first_position(self):
        # At g = m - 1 the only vector is all ones; at g = m the one 2 sits
        # at each position in turn, moving left.
        for m in range(2, 61):
            ones = (1,) * (m - 1)
            assert sf.count_by_polytope(m, m - 1) == 1
            assert sf.count_by_polytope(m, m) == m - 1
            assert list(sf.kunz_vectors(m, m - 1)) == [ones]
            assert list(sf.kunz_vectors(m, m)) == [
                ones[:j] + (2,) + ones[j + 1:] for j in reversed(range(m - 1))]

    def test_vectors_and_count_agree(self):
        # Past the brute-force test's m <= 9, g <= 13.
        for g in range(1, 18):
            for m in range(2, g + 2):
                assert len(list(sf.kunz_vectors(m, g))) \
                    == sf.count_by_polytope(m, g), (m, g)


# Kunz slices for recurrence_bijection_check(3, 2): (1, 2) shares its image
# (1,) with (1, 1), (4, 0) maps to (4,) outside the targets, and the target
# (7,) is never hit.
DOCTORED_VECTORS = {(3, 2): [(1, 1), (1, 2), (4, 0)], (2, 1): [(1,)],
                    (2, 0): [(7,)]}
DOCTORED_WITNESSES = [
    {"kind": "collision", "m": 3, "g": 2, "vector": [1, 2], "other": [1, 1]},
    {"kind": "image-outside-target", "m": 3, "g": 2, "vector": [4, 0]},
    {"kind": "never-hit", "m": 3, "g": 2, "target": [7]},
]


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

    def test_doctored_slices_give_every_witness_kind(self, monkeypatch):
        monkeypatch.setattr(kunz, "kunz_vectors",
                            lambda m, g: iter(DOCTORED_VECTORS.get((m, g), ())))
        assert sf.recurrence_bijection_check(3, 2) \
            == (False, DOCTORED_WITNESSES)

    def test_counts_consistency(self, census16):
        # Where the bijection applies, the two target slices partition the
        # image by the size of the dropped coordinate.
        for m, g in [(7, 10), (6, 8)]:
            ok, _ = sf.recurrence_bijection_check(m, g)
            assert ok
            assert census16.n_mg(m - 1, g - 1) + census16.n_mg(m - 1, g - 2) \
                == census16.n_mg(m, g)
