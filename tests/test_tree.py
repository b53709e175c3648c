"""Tree enumeration: exactness, census identities, determinism, parallelism."""

import math
from collections import defaultdict
from itertools import combinations

import pytest

import sgforge as sf
from sgforge.cli import _render_table
from sgforge.errors import IncompleteCensus

FIG1 = [1, 1, 2, 4, 7, 12, 23, 39, 67, 118, 204, 343, 592, 1001, 1693, 2857]

# Census by multiplicity for g <= 10; row g holds (N(2,g), N(3,g), ...).
FIG4 = {
    1: [1],
    2: [1, 1],
    3: [1, 2, 1],
    4: [1, 2, 3, 1],
    5: [1, 2, 4, 4, 1],
    6: [1, 3, 6, 7, 5, 1],
    7: [1, 3, 7, 10, 11, 6, 1],
    8: [1, 3, 9, 13, 17, 16, 7, 1],
    9: [1, 4, 11, 16, 27, 28, 22, 8, 1],
    10: [1, 4, 13, 22, 37, 44, 44, 29, 9, 1],
}


# -- independent oracle ------------------------------------------------------

def brute_force_gapsets(g):
    """All genus-g gap sets, by filtering subsets of [1, 2g - 1].

    Deliberately ignorant of the tree: a candidate gap set is kept iff no
    two of its complement's members sum to a gap.
    """
    if g == 0:
        return {()}
    found = set()
    for rest in combinations(range(2, 2 * g), g - 1):
        gaps = (1,) + rest
        if _complement_closed(gaps):
            found.add(gaps)
    return found


def _complement_closed(gaps):
    gapset = set(gaps)
    frob = gaps[-1]
    members = [x for x in range(2, frob) if x not in gapset]
    for i, u in enumerate(members):
        if 2 * u > frob:
            break
        for v in members[i:]:
            total = u + v
            if total > frob:
                break
            if total in gapset:
                return False
    return True


class GapSetCollector:
    def __init__(self):
        self.by_genus = defaultdict(set)

    def visit(self, frame):
        self.by_genus[frame.genus].add(frame.gap_tuple())

    def merge(self, other):
        for g, sets in other.by_genus.items():
            self.by_genus[g] |= sets
        return self


class NoopCollector:
    # Any collector switches the walk to building every child, so a no-op
    # one gives an unfolded reference walk.
    def visit(self, frame):
        pass

    def merge(self, other):
        return self


# -- reference counts --------------------------------------------------------

class TestCounts:
    def test_genus_counts_match_reference_row(self, census16):
        assert census16.n_of_g[:16] == FIG1

    def test_multiplicity_table(self, census16):
        for g, row in FIG4.items():
            for m, expected in enumerate(row, start=2):
                assert census16.n_mg(m, g) == expected
        assert census16.n_mg(1, 0) == 1

    def test_accessors_zero_outside_stored_range(self, census16):
        # Flat storage must not alias a neighbouring cell or raise.
        assert census16.n_mg(40, 3) == 0
        assert census16.n_mg(-1, 2) == 0
        assert census16.t_gh(3, 40) == 0
        assert census16.s_gh(3, -1) == 0

    def test_zero_depth(self):
        table = sf.enumerate_tree(0)
        assert table.n_of_g == [1]
        assert table.n_mg(1, 0) == 1

    def test_children_sum_identity(self, census16):
        # N(g + 1) equals the efficacy-weighted count at level g.
        for g in range(15):
            assert census16.n(g + 1) == sum(
                h * census16.t_gh(g, h) for h in range(g + 3)
            )

    def test_level_marginals_agree(self, census16):
        for g in range(17):
            assert census16.n(g) == sum(
                c for (m, gg), c in census16.n_of_mg.items() if gg == g
            )
            assert census16.n(g) == sum(
                c for (gg, h), c in census16.t_of_gh.items() if gg == g
            )

    def test_oracle_equivalence_small(self):
        table = sf.enumerate_tree(9, collectors={"gapsets": GapSetCollector})
        seen = table.extras["gapsets"].by_genus
        for g in range(10):
            assert seen[g] == brute_force_gapsets(g)


# -- strength bookkeeping ----------------------------------------------------

class TestStrength:
    def test_strong_census_small_values(self, census16):
        sc = sf.strongly_descended_census(census16)
        assert sc.by_genus[0] == 1       # root, by convention
        assert sc.by_genus[1] == 1
        assert sc.by_genus[2] == 2
        assert sc.by_genus[3] == 3
        assert sc.r[-1] == 1 and sc.r[0] == 1

    def test_s_gh_bounded_by_ordinary_efficacy(self, census16):
        for (g, h), c in census16.s_of_gh.items():
            if h > g + 1:
                assert c == 0

    def test_incomplete_table_error(self, census16):
        with pytest.raises(IncompleteCensus):
            sf.strongly_descended_census(census16, g_upto=40)

    def test_descent_strength_examples(self):
        two_three = sf.from_generators({2, 3})
        assert sf.descent_strength(two_three, 2) is sf.Strength.STRONG
        assert sf.descent_strength(two_three, 3) is sf.Strength.STRONG

    def test_engine_tags_match_first_principles(self):
        # The walk's inline probes against the definition-level classifier.
        class TagCheck:
            def __init__(self):
                self.mismatches = []

            def visit(self, frame):
                sg = frame.semigroup
                for tag in frame.effective:
                    expected = sf.descent_strength(sg, tag.value)
                    if expected is not tag.strength:
                        self.mismatches.append((frame.gap_tuple(), tag.value))

            def merge(self, other):
                self.mismatches.extend(other.mismatches)
                return self

        table = sf.enumerate_tree(7, collectors={"tags": TagCheck})
        assert table.extras["tags"].mismatches == []

    def test_weak_descendant_bound(self):
        # N_g(S) <= C(h(S), g - g(S)) for strongly descended S, checked by
        # explicitly enumerating weak descendants with core operations.
        class StrongHarvest:
            def __init__(self):
                self.gapsets = []

            def visit(self, frame):
                if frame.descent is not sf.Strength.WEAK:
                    self.gapsets.append(frame.gap_tuple())

            def merge(self, other):
                self.gapsets.extend(other.gapsets)
                return self

        def weak_descendants(sg, depth):
            counts = defaultdict(int)
            counts[sg.genus] += 1
            if sg.genus >= depth:
                return counts
            for tag in sg.effective_generators():
                if tag.strength is sf.Strength.WEAK:
                    child = sg.remove_generator(tag.value)
                    for g, c in weak_descendants(child, depth).items():
                        counts[g] += c
            return counts

        table = sf.enumerate_tree(8, collectors={"strong": StrongHarvest})
        for gaps in table.extras["strong"].gapsets:
            sg = sf.from_gaps(gaps)
            h = sg.efficacy
            for g, count in weak_descendants(sg, 10).items():
                assert count <= math.comb(h, g - sg.genus)


# -- parent structure --------------------------------------------------------

class TestParent:
    def test_parent_is_frobenius_fill_in(self):
        table = sf.enumerate_tree(8, collectors={"gapsets": GapSetCollector})
        by_genus = table.extras["gapsets"].by_genus
        for g in range(1, 9):
            for gaps in by_genus[g]:
                child = sf.from_gaps(gaps)
                parent = sf.from_gaps(tuple(x for x in gaps
                                            if x != child.frobenius))
                assert parent.gaps() in by_genus[g - 1] or g == 1
                assert parent.remove_generator(child.frobenius) == child


# -- Frobenius-bounded runs --------------------------------------------------

class TestNsByFrobenius:
    def test_small_values(self):
        ns = sf.ns_by_frobenius(6)
        assert ns == {1: 1, 2: 1, 3: 2, 4: 2, 5: 5, 6: 4}

    def test_agrees_with_genus_run(self, census16):
        ns = sf.ns_by_frobenius(16)
        for f in range(1, 17):
            assert ns[f] == census16.ns(f)

    def test_ns_accessor_raises_outside_cap(self, census16):
        with pytest.raises(IncompleteCensus):
            census16.ns(17)

    def test_parallel_pruned_run(self):
        seq = sf.ns_by_frobenius(14)
        par = sf.ns_by_frobenius(14, workers=3)
        assert seq == par

    def test_minimal_bound(self):
        assert sf.ns_by_frobenius(1) == {1: 1}


# -- determinism and merging -------------------------------------------------

class TestDeterminism:
    @pytest.mark.parametrize("split_depth,workers", [(3, 1), (6, 1), (3, 4), (6, 4)])
    def test_split_invariance(self, census16, split_depth, workers):
        other = sf.enumerate_tree(16, split_depth=split_depth, workers=workers)
        assert census16.counts_equal(other)
        assert _render_table(["genus", "count"], other.rows_by_genus(), "csv") \
            == _render_table(["genus", "count"], census16.rows_by_genus(), "csv")

    def test_split_at_full_depth(self):
        # Frontier equal to the depth bound: workers handle single leaves.
        table = sf.enumerate_tree(1, split_depth=1, workers=2)
        assert table.n_of_g == [1, 1]
        deep = sf.enumerate_tree(8, split_depth=8, workers=2)
        assert deep.counts_equal(sf.enumerate_tree(8))

    def test_rich_walk_matches_fast_walk(self):
        fast = sf.enumerate_tree(11)
        rich = sf.enumerate_tree(11, collectors={"gapsets": GapSetCollector})
        assert fast.counts_equal(rich)

    @pytest.mark.parametrize("g_max", range(15))
    def test_folded_walk_matches_unfolded_walk(self, g_max):
        # Childless children are tallied in the parent's loop only without
        # collectors.  Under a Frobenius bound a child can also be childless
        # because every effective generator it keeps lies above the bound.
        bounds = [None] + sorted({f for f in (1, 3, g_max // 2 + 1, g_max,
                                              g_max + 3, 2 * g_max + 1)
                                  if f >= 1})
        for f_max in bounds:
            fast = sf.enumerate_tree(g_max, frobenius_max=f_max)
            slow = sf.enumerate_tree(g_max, frobenius_max=f_max,
                                     collectors={"noop": NoopCollector})
            assert fast.counts_equal(slow), f_max
            assert fast.wilf_witnesses == slow.wilf_witnesses, f_max

    def test_folded_pruned_walk_in_parallel(self):
        assert sf.ns_by_frobenius(14, workers=2) == sf.ns_by_frobenius(14)
        par = sf.enumerate_tree(14, frobenius_max=14, workers=2)
        seq = sf.enumerate_tree(14, frobenius_max=14)
        assert par.counts_equal(seq)
        assert par.wilf_witnesses == seq.wilf_witnesses

    def test_parallel_rich_collectors(self):
        seq = sf.enumerate_tree(10, collectors={"gapsets": GapSetCollector})
        par = sf.enumerate_tree(10, split_depth=4, workers=3,
                                collectors={"gapsets": GapSetCollector})
        assert seq.counts_equal(par)
        assert par.extras["gapsets"].by_genus == seq.extras["gapsets"].by_genus

    def test_merge_is_commutative_monoid_on_counts(self):
        # Split at depth 2 by hand and recombine in both orders.
        from sgforge.tree import CensusTable, _root_frame, _subtree_job, _walk

        g_max = 9
        prefix = CensusTable.empty(g_max, g_max)
        frontier = _walk(_root_frame(g_max), g_max, 100, prefix,
                         frontier_depth=2)
        parts = [_subtree_job((f, g_max, 100, g_max, ())) for f in frontier]
        left = prefix
        for p in parts:
            left = left.merge(p)
        right = prefix
        for p in reversed(parts):
            right = right.merge(p)
        assert left.counts_equal(right)
        assert left.counts_equal(sf.enumerate_tree(g_max))

    def test_spine_frontier_covers_tree_and_balances(self):
        from sgforge.tree import CensusTable, _spine_frontier, _subtree_job

        g_max = 18
        lam_max = 3 * g_max + 3
        spine = CensusTable.empty(g_max, g_max)
        jobs = _spine_frontier(g_max, lam_max, spine)
        # The calling process tallies the ordinary semigroups (genus g,
        # multiplicity g + 1) and the childless off-spine children; every
        # job roots a subtree of more than one node.
        for g in range(g_max + 1):
            assert spine.n_mg(g + 1, g) == 1
        sizes = [sum(_subtree_job((f, g_max, lam_max, g_max, ())).n_of_g)
                 for f in jobs]
        total = sum(sf.enumerate_tree(g_max).n_of_g)
        assert sum(spine.n_of_g) + sum(sizes) == total
        assert max(sizes) <= total / 8
        assert min(sizes) > 1

    def test_merge_rejects_tables_of_other_runs(self):
        from sgforge.tree import CensusTable

        def table(cap, *names):
            t = CensusTable.empty(6, cap)
            t.extras = {name: NoopCollector() for name in names}
            return t

        table(6, "a").merge(table(6, "a"))
        for other in (table(5, "a"), table(6, "b"), table(6),
                      table(6, "a", "b"), CensusTable.empty(7, 6)):
            with pytest.raises(ValueError):
                table(6, "a").merge(other)
            with pytest.raises(ValueError):
                other.merge(table(6, "a"))

    def test_merged_witnesses_ignore_order(self, census16):
        from dataclasses import replace

        evens = [(1, k) for k in range(0, 30, 2)]
        odds = [(1, k) for k in range(1, 30, 2)]
        a = replace(census16, wilf_witnesses=evens)
        b = replace(census16, wilf_witnesses=odds)
        expected = [(1, k) for k in range(20)]
        assert a.merge(b).wilf_witnesses == expected
        assert b.merge(a).wilf_witnesses == expected


# -- frames and contracts ------------------------------------------------------

class TestFrames:
    def test_frame_fields_consistent(self):
        class FrameCheck:
            def __init__(self):
                self.bad = 0

            def visit(self, frame):
                sg = frame.semigroup
                ok = (
                    sg.genus == frame.genus
                    and sg.multiplicity == frame.multiplicity
                    and sg.frobenius == frame.frobenius
                    and sg.min_generators == frame.min_generators()
                    and sg.embedding_dimension == frame.embedding_dimension
                    and sg.efficacy == frame.efficacy
                    and tuple(t.value for t in frame.effective)
                    == tuple(t.value for t in sg.effective_generators()
                             if t.effective)
                )
                if not ok:
                    self.bad += 1

            def merge(self, other):
                self.bad += other.bad
                return self

        table = sf.enumerate_tree(8, collectors={"check": FrameCheck})
        assert table.extras["check"].bad == 0

    def test_root_frame_descent(self):
        seen = {}

        class RootProbe:
            def visit(self, frame):
                if frame.genus == 0:
                    seen["descent"] = frame.descent

            def merge(self, other):
                return self

        sf.enumerate_tree(2, collectors={"probe": RootProbe})
        assert seen["descent"] is None


class TestValidation:
    def test_bad_split_depth(self):
        with pytest.raises(ValueError):
            sf.enumerate_tree(5, split_depth=9)

    def test_negative_depth(self):
        with pytest.raises(ValueError):
            sf.enumerate_tree(-1)

    def test_wilf_counters_clean(self, census16):
        assert sum(census16.wilf_violations) == 0
        assert census16.wilf_witnesses == []
