"""Semigroup construction, invariants, and per-semigroup operations."""

import math
import random
from bisect import bisect_left
from itertools import combinations

import pytest

import sgforge as sf
from sgforge.errors import (EmptyGenerators, GcdNotOne, InvalidKunz,
                            NotAMember, NotEffective)
from test_tree import _complement_closed


def all_semigroups(g_max):
    """Every semigroup of genus <= g_max, via the tree walk's gap sets."""
    class Harvest:
        def __init__(self):
            self.gapsets = []

        def visit(self, node):
            self.gapsets.append(sf.TreeFrame(node).gap_tuple())

        def merge(self, other):
            self.gapsets.extend(other.gapsets)
            return self

    table = sf.enumerate_tree(g_max, collectors={"harvest": Harvest})
    return [sf.from_gaps(gaps) for gaps in table.extras["harvest"].gapsets]


# -- per-gap and per-step oracles ---------------------------------------------

def weight_data_by_gaps(s):
    """(weight, ewt, parts) summed gap by gap over the sorted gap list."""
    gap_list = s.gaps()
    weight = sum(l - i for i, l in enumerate(gap_list, start=1))
    ewt = sum(bisect_left(s.min_generators, l) for l in gap_list)
    parts = tuple(l - i for i, l in zip(range(len(gap_list) - 1, -1, -1),
                                        reversed(gap_list)))
    return weight, ewt, parts


def apery_by_steps(s, n):
    """Least member per residue mod n, stepping by n from each residue."""
    out = [0] * n
    for i in range(1, n):
        x = i
        while x not in s:
            x += n
        out[i] = x
    return out


class TestFromGenerators:
    def test_two_three(self):
        s = sf.from_generators({2, 3})
        assert s.gaps() == (1,)
        assert s.frobenius == 1
        assert s.genus == 1
        assert s.min_generators == (2, 3)

    def test_unit_generator_gives_trivial_semigroup(self):
        s = sf.from_generators({1})
        assert s.frobenius == -1
        assert s.genus == 0
        assert s.min_generators == (1,)
        assert 0 in s and 5 in s

    def test_three_five(self):
        s = sf.from_generators({3, 5})
        assert s.frobenius == 7
        assert s.genus == 4
        assert s.gaps() == (1, 2, 4, 7)

    def test_gcd_not_one(self):
        with pytest.raises(GcdNotOne):
            sf.from_generators({2, 4})

    def test_empty(self):
        with pytest.raises(EmptyGenerators):
            sf.from_generators(set())

    def test_redundant_generators_reduce(self):
        s = sf.from_generators({4, 6, 9, 10, 13})
        assert s == sf.from_generators({4, 6, 9})
        assert s.min_generators == (4, 6, 9)

    def test_large_two_generator(self):
        # Window growth: Frobenius number far beyond 2 * max(gens).
        s = sf.from_generators({11, 13})
        assert s.frobenius == 11 * 13 - 11 - 13
        assert s.genus == 10 * 12 // 2

    def test_membership_closure_on_window(self):
        s = sf.from_generators({4, 7, 9})
        members = s.members(60)
        member_set = set(members)
        for u in members:
            for v in members:
                if 0 < u and 0 < v and u + v <= 60:
                    assert u + v in member_set


class TestFromGaps:
    def test_round_trip(self):
        s = sf.from_gaps((1, 2, 4, 7))
        assert s == sf.from_generators({3, 5})
        assert sf.from_gaps([7, 1, 4, 2, 4, 1]) == s

    def test_round_trip_of_a_wide_mask(self):
        # <20, 59> has genus 551 and F = 1101, the tail of the benchmark's
        # draw, so both mask builders run on about 1,100 bits.
        s = sf.from_generators((20, 59))
        assert (s.genus, s.frobenius) == (551, 1101)
        assert sf.from_gaps(s.gaps()) == s
        assert sf.from_gaps(reversed(s.gaps())) == s
        assert sf.semigroup_from_kunz(20, sf.kunz_vector(s).coords) == s

    def test_rejects_non_coideal(self):
        # 2 and 3 would be members, but 2 + 2 = 4 is listed as a gap.
        with pytest.raises(ValueError):
            sf.from_gaps((1, 4))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            sf.from_gaps((0, 1))

    def test_closure_check_matches_pairwise_sums(self):
        # Every subset of [1, 12] as a gap set: accepted exactly when no two
        # nonzero members below its largest element sum to an element of it.
        for size in range(13):
            for gaps in combinations(range(1, 13), size):
                frob = gaps[-1] if gaps else 0
                members = [x for x in range(1, frob) if x not in gaps]
                closed = not any(u + v in gaps for u in members
                                 for v in members)
                if closed:
                    assert sf.from_gaps(gaps).gaps() == gaps
                else:
                    with pytest.raises(ValueError):
                        sf.from_gaps(gaps)


class TestInputTypes:
    # Each bad element raises ValueError before a mask is built; bool is an
    # int subclass, so True would otherwise pass as the number 1.
    @pytest.mark.parametrize("gaps", [(1, "a"), (1, 2, None), (1, 2, 3, True),
                                      (1, 2.0)])
    def test_from_gaps(self, gaps):
        with pytest.raises(ValueError, match="positive integers"):
            sf.from_gaps(gaps)

    @pytest.mark.parametrize("gens", [(3, None), ("3", 5), [True, 3],
                                      (False, 3), (3, 5.0)])
    def test_from_generators(self, gens):
        with pytest.raises(ValueError, match="positive integers"):
            sf.from_generators(gens)

    @pytest.mark.parametrize("coords", [(True, 1), (2, True), ("a", 1),
                                        (2, None)])
    def test_kunz(self, coords):
        assert not sf.satisfies_kunz(3, coords)
        with pytest.raises(InvalidKunz):
            sf.semigroup_from_kunz(3, coords)


class TestAperySet:
    def test_three_five(self):
        s = sf.from_generators({3, 5})
        assert s.apery_set(3) == [0, 10, 5]

    def test_trivial(self):
        assert sf.from_generators({1}).apery_set(1) == [0]

    def test_four_six_nine(self):
        s = sf.from_generators({4, 6, 9})
        assert s.apery_set(4) == [0, 9, 6, 15]

    def test_two_generator_form(self):
        # Ap(a, <a,b>) = {0, b, 2b, ..., (a-1) b}
        for a, b in [(3, 5), (4, 7), (5, 6)]:
            s = sf.from_generators({a, b})
            assert sorted(s.apery_set(a)) == sorted(i * b for i in range(a))

    def test_errors(self):
        s = sf.from_generators({3, 5})
        with pytest.raises(NotAMember):
            s.apery_set(4)
        with pytest.raises(NotAMember):
            s.apery_set(0)

    def test_selmer_and_genus_postconditions(self):
        # max Ap(m) - m = F, and the per-residue quotients sum to the genus.
        for s in all_semigroups(8):
            m = s.multiplicity
            ap = s.apery_set(m)
            if m >= 2:
                assert max(ap) - m == s.frobenius
            assert sum(a // m for a in ap) == s.genus

    def test_matches_step_oracle(self):
        # Every semigroup of genus <= 14, mod each minimal generator.
        for s in all_semigroups(14):
            for n in s.min_generators:
                assert s.apery_set(n) == apery_by_steps(s, n)

    def test_quotient_sum_for_any_member(self):
        s = sf.from_generators({3, 5})
        for n in (3, 5, 6, 8):
            ap = s.apery_set(n)
            assert sum(a // n for a in ap) == s.genus


class TestMinimalGenerators:
    def test_apery_reduction_agrees(self):
        # Independent route: m plus the nonzero Apéry elements that are not
        # sums of two nonzero Apéry elements.
        for s in all_semigroups(9):
            m = s.multiplicity
            if m == 1:
                continue
            ap = set(s.apery_set(m)) - {0}
            sums = {a + b for a in ap for b in ap}
            expected = tuple(sorted({m} | {a for a in ap if a not in sums}))
            assert expected == s.min_generators

    def test_gcd_is_one(self):
        for s in all_semigroups(8):
            assert math.gcd(*s.min_generators) == 1

    def test_embedding_dimension_at_most_multiplicity(self):
        for s in all_semigroups(9):
            assert s.embedding_dimension <= s.multiplicity

    def test_regeneration(self):
        for s in all_semigroups(9):
            assert sf.from_generators(s.min_generators) == s


class TestEffectiveGenerators:
    def test_ordinary_efficacy(self):
        assert sf.ordinary(3).efficacy == 4
        assert sf.ordinary(5).efficacy == 6
        tags = sf.ordinary(3).effective_generators()
        assert [t.value for t in tags] == [4, 5, 6, 7]
        assert all(t.effective for t in tags)

    def test_effective_follows_strength(self):
        for strength in sf.Strength:
            tag = sf.GeneratorTag(7, strength)
            assert tag.effective == (strength is not sf.Strength.NOT_EFFECTIVE)

    def test_three_four_has_none(self):
        s = sf.from_generators({3, 4})
        assert s.efficacy == 0
        assert all(t.strength is sf.Strength.NOT_EFFECTIVE
                   for t in s.effective_generators())

    def test_two_three_both_strong(self):
        tags = sf.from_generators({2, 3}).effective_generators()
        assert [(t.value, t.strength) for t in tags] == [
            (2, sf.Strength.STRONG),
            (3, sf.Strength.STRONG),
        ]

    def test_weak_example(self):
        # In <3,5,7>, removing 7 leaves <3,5>, where 3 + 7 = 10 = 5 + 5.
        s = sf.from_generators({3, 5, 7})
        by_value = {t.value: t.strength for t in s.effective_generators()}
        assert by_value[7] is sf.Strength.WEAK
        assert by_value[5] is sf.Strength.STRONG


class TestRemoveGenerator:
    def test_examples(self):
        assert sf.from_generators({2, 3}).remove_generator(2) == \
            sf.from_generators({3, 4, 5})
        assert sf.from_generators({2, 5}).remove_generator(5) == \
            sf.from_generators({2, 7})

    def test_not_effective(self):
        with pytest.raises(NotEffective):
            sf.from_generators({3, 4}).remove_generator(3)
        with pytest.raises(NotEffective):
            sf.from_generators({2, 3}).remove_generator(4)

    def test_child_invariants(self):
        for s in all_semigroups(8):
            for tag in s.effective_generators():
                if not tag.effective:
                    continue
                child = s.remove_generator(tag.value)
                assert child.genus == s.genus + 1
                assert child.frobenius == tag.value


class TestSylvesterAndSymmetry:
    def test_sylvester_invariant(self):
        for a in range(2, 13):
            for b in range(a + 1, 13):
                if math.gcd(a, b) != 1:
                    continue
                s = sf.from_generators({a, b})
                assert s.frobenius == a * b - a - b
                assert s.genus == (a - 1) * (b - 1) // 2

    def test_two_generator_symmetry(self):
        for a, b in [(2, 3), (3, 5), (4, 7), (5, 8), (7, 9)]:
            s = sf.from_generators({a, b})
            f = s.frobenius
            for x in range(f + 1):
                assert (x in s) != (f - x in s)


class TestWeightData:
    def test_ordinary_is_flat(self):
        for g in (0, 1, 4, 9):
            weight, ewt, part = sf.ordinary(g).weight_data()
            assert weight == 0
            assert ewt == 0
            assert part.parts == (1,) * g

    def test_three_four(self):
        # gaps {1, 2, 5}: weight 2, both generators below the top gap.
        weight, ewt, part = sf.from_generators({3, 4}).weight_data()
        assert weight == 2
        assert ewt == 2
        assert part.parts == (3, 1, 1)
        assert part.size == weight + 3

    def test_hyperelliptic_effective_weight(self):
        for g in range(1, 11):
            s = sf.from_generators({2, 2 * g + 1})
            weight, ewt, part = s.weight_data()
            assert ewt == g - 1
            assert part.size == weight + g

    def test_partition_size_identity(self):
        for s in all_semigroups(10):
            weight, _ewt, part = s.weight_data()
            assert part.size == weight + s.genus
            assert all(part.parts[i] >= part.parts[i + 1]
                       for i in range(len(part.parts) - 1))

    def test_matches_per_gap_oracle(self):
        for s in all_semigroups(14):
            weight, ewt, part = s.weight_data()
            assert (weight, ewt, part.parts) == weight_data_by_gaps(s)

    def test_partition_validation(self):
        with pytest.raises(ValueError):
            sf.Partition((1, 2))
        with pytest.raises(ValueError):
            sf.Partition((2, 0))
        with pytest.raises(ValueError):
            sf.Partition((2, 1))._replace(parts=(1, 2))


class TestOrdinary:
    def test_zero_is_trivial(self):
        assert sf.ordinary(0) == sf.from_generators({1})

    def test_three(self):
        s = sf.ordinary(3)
        assert s.frobenius == 3
        assert s.min_generators == (4, 5, 6, 7)

    def test_frobenius_is_genus(self):
        for g in range(1, 12):
            s = sf.ordinary(g)
            assert s.frobenius == g
            assert s.genus == g
            assert s.efficacy == g + 1


class TestRecordAndDunder:
    def test_record_field_order(self):
        rec = sf.from_generators({2, 5}).to_record()
        assert list(rec) == ["generators", "multiplicity", "frobenius",
                             "genus", "gaps", "efficacy", "weight", "ewt",
                             "kunz"]
        assert rec["kunz"] == [2]
        assert rec["genus"] == 2

    def test_trivial_record_has_empty_kunz(self):
        assert sf.from_generators({1}).to_record()["kunz"] == []

    def test_immutable(self):
        s = sf.from_generators({2, 3})
        with pytest.raises(AttributeError):
            s.genus = 7

    def test_eq_hash(self):
        a = sf.from_generators({3, 5})
        b = sf.from_gaps((1, 2, 4, 7))
        assert a == b
        assert hash(a) == hash(b)
        assert a != sf.from_generators({2, 5})

    def test_genus_counts_gaps_below_frobenius(self):
        for s in all_semigroups(9):
            f = s.frobenius
            assert s.genus == sum(1 for x in range(1, f + 1) if x not in s)
            if s.genus:
                assert s.multiplicity == min(x for x in s.members(f + 1) if x)


# -- property tests on seeded generator sets -----------------------------------

def oracle_generator_sets(seed, count):
    """Generator sets drawn the way the benchmark's oracle workload draws
    them: m uniform in 3..20, then 1 to 5 more generators in (m, 3m)."""
    rng = random.Random(seed)
    sets = []
    while len(sets) < count:
        m = rng.randint(3, 20)
        gens = sorted([m] + rng.sample(range(m + 1, 3 * m), rng.randint(1, 5)))
        if math.gcd(*gens) == 1:
            sets.append(tuple(gens))
    return sets


def members_by_search(gens):
    """Membership of 0..bound, with every larger integer a member, found by
    dynamic programming; the bound clears F + m by the Schur bound
    F <= (m - 1)(max - 1) - 1."""
    m = gens[0]
    bound = (m - 1) * (gens[-1] - 1) + m
    member = [True] + [False] * bound
    for x in range(1, bound + 1):
        member[x] = any(member[x - n] for n in gens if n <= x)
    return member


def minimal_generators_by_search(member, frob, m):
    """Nonzero members up to F + m that are no sum of two nonzero members."""
    return tuple(x for x in range(1, frob + m + 1) if member(x)
                 and not any(member(u) and member(x - u)
                             for u in range(1, x // 2 + 1)))


def least_in_residue(member, n, i):
    x = i
    while not member(x):
        x += n
    return x


class TestProperties:
    SETS = oracle_generator_sets(seed=20170901, count=500)

    @pytest.fixture(scope="class")
    def drawn(self):
        """(generators, semigroup, membership oracle, gap oracle) per set."""
        out = []
        for gens in self.SETS:
            table = members_by_search(gens)
            gaps = tuple(x for x, inside in enumerate(table) if not inside)
            out.append((gens, sf.from_generators(gens),
                        lambda x, t=table: x >= len(t) or t[x], gaps))
        return out

    def test_from_generators_and_from_gaps_round_trip(self, drawn):
        for gens, s, member, gaps in drawn:
            assert s.gaps() == gaps
            assert _complement_closed(gaps)
            assert (s.frobenius, s.genus, s.multiplicity) == \
                (gaps[-1], len(gaps), gens[0])
            assert s.min_generators == minimal_generators_by_search(
                member, s.frobenius, s.multiplicity)
            assert sf.from_gaps(gaps) == s
            assert sf.from_generators(s.min_generators) == s

    def test_record_matches_search_oracles(self, drawn):
        # Every field recomputed from the searched membership alone: weight
        # and ewt gap by gap as in weight_data_by_gaps, Kunz coordinates
        # from the least member per residue.
        for gens, s, member, gaps in drawn:
            m, f = gens[0], gaps[-1]
            mingens = minimal_generators_by_search(member, f, m)
            record = s.to_record()
            expected = {
                "generators": list(mingens),
                "multiplicity": m,
                "frobenius": f,
                "genus": len(gaps),
                "gaps": list(gaps),
                "efficacy": sum(1 for n in mingens if n > f),
                "weight": sum(l - i for i, l in enumerate(gaps, start=1)),
                "ewt": sum(bisect_left(mingens, l) for l in gaps),
                "kunz": [(least_in_residue(member, m, i) - i) // m
                         for i in range(1, m)],
            }
            assert record == expected
            assert list(record) == list(expected)
            assert s.weight_data()[:2] == (record["weight"], record["ewt"])

    def test_kunz_round_trip(self, drawn):
        for _gens, s, member, _gaps in drawn:
            m = s.multiplicity
            coords = tuple((least_in_residue(member, m, i) - i) // m
                           for i in range(1, m))
            assert sf.kunz_vector(s).coords == coords
            assert sf.satisfies_kunz(m, coords)
            assert sf.semigroup_from_kunz(m, coords) == s

    def test_remove_generator_children(self, drawn):
        for _gens, s, member, _gaps in drawn:
            for lam in s.min_generators:
                if lam <= s.frobenius:
                    continue
                child = s.remove_generator(lam)
                assert child.gaps() == s.gaps() + (lam,)
                assert (child.frobenius, child.genus) == (lam, s.genus + 1)
                assert _complement_closed(child.gaps())
                in_child = lambda x, lam=lam: x != lam and member(x)
                assert child.min_generators == minimal_generators_by_search(
                    in_child, lam, child.multiplicity)
                # The parent is the child with its Frobenius number filled in.
                assert sf.from_gaps(child.gaps()[:-1]) == s

    def test_effective_generator_strengths(self, drawn):
        # Strong iff m + lam is a minimal generator of the child, found by
        # searching the child's members.
        for _gens, s, member, _gaps in drawn:
            m = s.multiplicity
            for tag in s.effective_generators():
                lam = tag.value
                assert tag.effective == (lam > s.frobenius)
                if not tag.effective:
                    continue
                in_child = lambda x, lam=lam: x != lam and member(x)
                child_m = m + 1 if lam == m else m
                strong = m + lam in minimal_generators_by_search(
                    in_child, lam, child_m)
                assert tag.strength is (sf.Strength.STRONG if strong
                                        else sf.Strength.WEAK)

    def test_apery_set_of_other_members(self, drawn):
        rng = random.Random(7)
        for _gens, s, member, _gaps in drawn:
            m, f = s.multiplicity, s.frobenius
            picks = {s.min_generators[-1],
                     rng.choice([x for x in range(m + 1, f + m + 1)
                                 if member(x)])}
            for n in picks:
                assert n != m
                assert s.apery_set(n) == [least_in_residue(member, n, i)
                                          for i in range(n)]
