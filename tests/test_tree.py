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

    def visit(self, node):
        frame = sf.TreeFrame(node)
        self.by_genus[frame.genus].add(frame.gap_tuple())

    def merge(self, other):
        for g, sets in other.by_genus.items():
            self.by_genus[g] |= sets
        return self


class NodeLog:
    # Appends every node it visits to a list, in visiting order.
    def __init__(self, nodes):
        self.visit = nodes.append


class NoopCollector:
    # Any collector makes the walk build (and visit) the childless children
    # it tallies in the parent's loop; a no-op one prices only that.
    def visit(self, node):
        pass

    def merge(self, other):
        return self


class FrameCheck:
    """Checks every frame against its semigroup; records the distinct
    masks, the visits, and (genus, has effective generators) of each
    childless node the walk built in its parent's loop."""

    def __init__(self):
        self.bad = 0
        self.masks = set()
        self.visits = 0
        self.childless = set()

    def visit(self, node):
        frame = sf.TreeFrame(node)
        self.masks.add(frame.mask)
        self.visits += 1
        if node[5] is None:
            self.childless.add((frame.genus, frame.efficacy > 0))
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
        self.masks |= other.masks
        self.visits += other.visits
        self.childless |= other.childless
        return self


def job_table(frame, g_max, lam_max, ns_cap):
    """The CensusTable that a batch of the one job root ``frame`` ships."""
    from sgforge.tree import _subtree_job

    return _subtree_job(([frame], g_max, lam_max, ns_cap, ()))[0]


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
            assert census16.n(g) == sum(census16.n_mg(m, g) for m in range(18))
            assert census16.n(g) == sum(census16.t_gh(g, h) for h in range(19))

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("g_max", [0, 1, 15, 16])
    def test_rows_match_accessors(self, g_max, workers):
        # The row tables list every nonzero cell, row-major, as the
        # accessors read it.
        table = sf.enumerate_tree(g_max, workers=workers)
        genera = range(g_max + 1)
        assert table.rows_by_multiplicity() == [
            (m, g, c) for m in range(g_max + 2) for g in genera
            if (c := table.n_mg(m, g))]
        assert table.rows_by_efficacy() == [
            (g, h, c) for g in genera for h in range(g_max + 3)
            if (c := table.t_gh(g, h))]

    def test_oracle_equivalence_small(self):
        table = sf.enumerate_tree(9, collectors={"gapsets": GapSetCollector})
        seen = table.extras["gapsets"].by_genus
        for g in range(10):
            assert seen[g] == brute_force_gapsets(g)


# -- every counter against the Kunz polytope ----------------------------------

def kunz_nodes(g_max):
    """(g, m, F, h, strong, max k_i, Wilf holds, gaps) for every semigroup
    of genus <= g_max, built from its Kunz vector without the tree.

    h counts the minimal generators above F; the descent into S is the one
    that removes F from S with F put back, classified from first principles.
    The root has no Kunz vector: g = 0, m = 1, no Frobenius number, one
    effective generator, and it counts as strongly descended.
    """
    nodes = [(0, 1, -1, 1, True, 0, True, ())]
    for g in range(1, g_max + 1):
        for m in range(2, g + 2):
            for coords in sf.kunz_vectors(m, g):
                sg = sf.semigroup_from_kunz(m, coords)
                f = sg.frobenius
                gaps = sg.gaps()
                parent = sf.from_gaps(x for x in gaps if x != f)
                nodes.append((
                    g, m, f, sum(1 for x in sg.min_generators if x > f),
                    sf.descent_strength(parent, f) is sf.Strength.STRONG,
                    max(coords), sf.check_wilf(sg).holds, gaps))
    return nodes


def kunz_census(nodes, g_max, frobenius_max=None):
    """The CensusTable of a walk to g_max (and frobenius_max), tallied from
    ``nodes`` into the flat layout the CensusTable docstring gives."""
    f_max = 3 * g_max + 3 if frobenius_max is None else frobenius_max
    table = sf.CensusTable(g_max, min(g_max, f_max))
    width, hw = g_max + 1, g_max + 3
    witnesses = []
    for g, m, f, h, strong, k_max, wilf_holds, gaps in nodes:
        if g > g_max or f > f_max:
            continue
        table.n_mg_flat[m * width + g] += 1
        table.t_gh_flat[g * hw + h] += 1
        if strong:
            table.s_gh_flat[g * hw + h] += 1
        # F < 2m (3m) exactly when every Apery element k_i m + i < 3m (4m).
        if k_max <= 2:
            table.f_lt_2m[g] += 1
        if k_max <= 3:
            table.f_lt_3m[g] += 1
        if 1 <= f <= table.frobenius_cap:
            table.ns_flat[f] += 1
        if not wilf_holds:
            table.wilf_violations[g] += 1
            witnesses.append(gaps)
    table.wilf_witnesses = sorted(witnesses)[:20]   # the 20 least gap sets
    return table


@pytest.fixture(scope="module")
def kunz_nodes14():
    return kunz_nodes(14)


class TestKunzRebuild:
    def test_full_census(self, census16):
        rebuilt = kunz_census(kunz_nodes(16), 16)
        assert rebuilt.counts_equal(census16)
        assert rebuilt.wilf_witnesses == census16.wilf_witnesses

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("f_max", [1, 3, 8, 14, 17, 29, 7, 12, 20, 40,
                                       None])
    def test_pruned_census(self, kunz_nodes14, f_max, workers):
        walked = sf.enumerate_tree(14, frobenius_max=f_max, workers=workers)
        rebuilt = kunz_census(kunz_nodes14, 14, f_max)
        assert rebuilt.counts_equal(walked)
        assert rebuilt.wilf_witnesses == walked.wilf_witnesses

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("g_max", [1, 2, 3])
    def test_shallow_census(self, kunz_nodes14, g_max, workers):
        # The root is tallied outside the walk, and at these depths the
        # ordinary child at the depth bound is folded into its parent's
        # loop like its siblings; no pool job runs.
        walked = sf.enumerate_tree(g_max, workers=workers)
        rebuilt = kunz_census(kunz_nodes14, g_max)
        assert rebuilt.counts_equal(walked)
        assert rebuilt.wilf_witnesses == walked.wilf_witnesses


class ReachCheck:
    """Records, for every off-spine node visited with a member tuple,
    whether that tuple is the members of S in (m, (m + lam_top) // 2]."""

    lam_top = None      # set on the class before each walk

    def __init__(self):
        self.checked = 0
        self.bad = []

    def visit(self, node):
        mask, g, m, f, _, members, _, _ = node
        if members is None or f < m:
            return
        top = (m + self.lam_top) // 2
        self.checked += 1
        if members != tuple(u for u in range(m + 1, top + 1)
                            if mask >> u & 1):
            self.bad.append((g, m, f))

    def merge(self, other):
        self.checked += other.checked
        self.bad += other.bad
        return self


class TestReach:
    # No edge within depth g_max removes more than
    # lam_top = min(2 g_max - 1, Frobenius bound), since a child's Frobenius
    # number is the removed generator and F <= 2g - 1.  So an off-spine
    # node's strength probes read no member above (m + lam_top) / 2, and
    # its member tuple stops there.
    @pytest.mark.parametrize("f_max", [None, 3, 7, 12, 20, 40])
    @pytest.mark.parametrize("g_max,workers", [(2, 1), (9, 1), (16, 1),
                                               (14, 2)])
    def test_members_stop_at_the_reach(self, monkeypatch, g_max, workers,
                                       f_max):
        lam_top = min(2 * g_max - 1, 3 * g_max + 3 if f_max is None else f_max)
        monkeypatch.setattr(ReachCheck, "lam_top", lam_top)
        table = sf.enumerate_tree(g_max, frobenius_max=f_max, workers=workers,
                                  collectors={"reach": ReachCheck})
        check = table.extras["reach"]
        assert check.bad == []
        # At g_max = 2 or F <= 3 every off-spine node is childless.
        assert check.checked > 0 or g_max == 2 or f_max == 3


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
        for g in range(17):
            for h in range(g + 2, 19):
                assert census16.s_gh(g, h) == 0

    @pytest.mark.parametrize("g_max", [15, 16])
    def test_r_reads_s_gh(self, g_max):
        table = sf.enumerate_tree(g_max)
        r = sf.strongly_descended_census(table).r
        # r(n) for every n with 2n + 1 <= g_max, past the two conventions.
        assert sorted(r) == list(range(-1, (g_max - 1) // 2 + 1))
        for n in range(1, (g_max - 1) // 2 + 1):
            assert r[n] == table.s_gh(2 * n + 1, n + 1)

    def test_descent_strength_examples(self):
        two_three = sf.from_generators({2, 3})
        assert sf.descent_strength(two_three, 2) is sf.Strength.STRONG
        assert sf.descent_strength(two_three, 3) is sf.Strength.STRONG

    def test_engine_tags_match_first_principles(self):
        # The walk's inline probes against the definition-level classifier.
        class TagCheck:
            def __init__(self):
                self.mismatches = []

            def visit(self, node):
                frame = sf.TreeFrame(node)
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

    def test_walk_descent_matches_first_principles(self):
        # frame.descent comes from the walk's inline probe on the edge into
        # the node; the parent is the node with its Frobenius number filled
        # back in, and descent_strength rebuilds the child from it.
        class DescentCheck:
            def __init__(self):
                self.seen = defaultdict(int)
                self.mismatches = []

            def visit(self, node):
                frame = sf.TreeFrame(node)
                if frame.genus == 0:
                    return
                parent = sf.from_gaps(frame.gap_tuple()[:-1])
                expected = sf.descent_strength(parent, frame.frobenius)
                self.seen[expected] += 1
                if frame.descent is not expected:
                    self.mismatches.append(frame.gap_tuple())

            def merge(self, other):
                for key, c in other.seen.items():
                    self.seen[key] += c
                self.mismatches.extend(other.mismatches)
                return self

        check = sf.enumerate_tree(10, collectors={"d": DescentCheck}).extras["d"]
        assert check.mismatches == []
        assert sum(check.seen.values()) == sum(FIG1[1:11])
        assert check.seen[sf.Strength.STRONG] and check.seen[sf.Strength.WEAK]

    def test_weak_descendant_bound(self):
        # N_g(S) <= C(h(S), g - g(S)) for strongly descended S, checked by
        # explicitly enumerating weak descendants with core operations.
        class StrongHarvest:
            def __init__(self):
                self.gapsets = []

            def visit(self, node):
                frame = sf.TreeFrame(node)
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


# -- the count-only walk -----------------------------------------------------

class TestCountOnly:
    # ns_by_frobenius and count --by genus, multiplicity and frobenius run
    # the count-only walk; it must count N(m, g) and ns(F) as the census
    # walk does, whatever the bound, the workers or the batches.
    @pytest.mark.parametrize("g_max", [*range(21), 24])
    def test_n_mg_matches_census_walk(self, g_max):
        from sgforge.tree import _counts

        table = sf.enumerate_tree(g_max)
        for workers in (1, 2):
            n_mg, ns = _counts(g_max, workers=workers)
            assert n_mg == table.n_mg_flat, workers
            assert ns == table.ns_flat, workers

    @pytest.mark.parametrize("f_max", range(1, 21))
    def test_ns_matches_pruned_census_walk(self, f_max):
        table = sf.enumerate_tree(f_max, frobenius_max=f_max)
        expected = {f: table.ns(f) for f in range(1, f_max + 1)}
        for workers in (1, 2):
            assert sf.ns_by_frobenius(f_max, workers=workers) == expected

    @pytest.mark.parametrize("g_max", range(15))
    def test_frobenius_bound_below_genus_bound(self, g_max):
        # Bounds that cut some edges but not all, and bounds that cut none.
        from sgforge.tree import _counts

        for f_max in sorted({1, 3, g_max // 2 + 1, g_max, g_max + 3,
                             2 * g_max + 1}):
            table = sf.enumerate_tree(g_max, frobenius_max=f_max)
            assert _counts(g_max, frobenius_max=f_max) \
                == (table.n_mg_flat, table.ns_flat), f_max

    @pytest.mark.parametrize("per_process", [1, 1000])
    def test_batch_count_changes_nothing(self, monkeypatch, per_process):
        from sgforge import tree

        runs = [(g, f_max, workers) for g, f_max in ((14, None), (18, None),
                                                     (14, 14), (12, 9))
                for workers in (1, 2)]
        default = [(tree._counts(g, workers=w, frobenius_max=f),
                    sf.ns_by_frobenius(g, workers=w)) for g, f, w in runs]
        monkeypatch.setattr(tree, "_BATCHES_PER_PROCESS", per_process)
        assert [(tree._counts(g, workers=w, frobenius_max=f),
                 sf.ns_by_frobenius(g, workers=w))
                for g, f, w in runs] == default


# -- determinism and merging -------------------------------------------------

class TestDeterminism:
    @pytest.mark.parametrize("split_depth,workers", [(3, 1), (6, 1), (3, 4), (6, 4),
                                                     (0, 2), (0, 3)])
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
        # Every walk tallies childless children in the parent's loop; a walk
        # with collectors also builds and visits them there, and must leave
        # the tallies and witnesses as a count-only walk has them.  Under a
        # Frobenius bound a child can also be childless because every
        # effective generator it keeps lies above the bound.  The fold
        # itself is pinned against the Kunz oracle by TestKunzRebuild.
        bounds = [None] + sorted({f for f in (1, 3, g_max // 2 + 1, g_max,
                                              g_max + 3, 2 * g_max + 1)
                                  if f >= 1})
        for f_max in bounds:
            fast = sf.enumerate_tree(g_max, frobenius_max=f_max)
            slow = sf.enumerate_tree(g_max, frobenius_max=f_max,
                                     collectors={"noop": NoopCollector})
            assert fast.counts_equal(slow), f_max
            assert fast.wilf_witnesses == slow.wilf_witnesses, f_max

    @pytest.mark.parametrize("g_max,workers",
                             [*((g, w) for g in range(21) for w in (1, 2)),
                              (24, 1)])
    def test_folded_walk_equals_visiting_walk(self, monkeypatch, g_max,
                                              workers):
        # A tally run without collectors tallies depth g_max below each
        # non-ordinary node at depth g_max - 2 and builds no node at
        # depth g_max - 1 there; a no-op collector makes the walk build
        # and visit every node instead.  Up to g_max = 2 no layer folds.
        # Two workers run the batches on the fake pool, in this process.
        from sgforge.tree import _COUNTERS

        if workers > 1:
            self._inline_pool(monkeypatch, 2)
        bounds = [None]
        if g_max < 24:
            bounds += sorted({1, 3, g_max // 2 + 1, g_max + 3, 2 * g_max + 1})
        for f_max in bounds:
            fast, slow = (sf.enumerate_tree(g_max, frobenius_max=f_max,
                                            workers=workers, collectors=c)
                          for c in (None, {"noop": NoopCollector}))
            for name in (*_COUNTERS, "wilf_witnesses"):
                assert getattr(fast, name) == getattr(slow, name), \
                    (f_max, name)

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
        # Split at the spine by hand and add one table per job root back,
        # as _run adds its batches' tables, in both orders.  The spine walk
        # tallies the spine nodes and the job roots in their parents'
        # loops, and each job only their descendants.
        from sgforge.tree import CensusTable, _spine

        g_max = 9

        def spine():
            table = CensusTable(g_max, g_max)
            return table, _spine(g_max, 100, table)

        left, frontier = spine()
        right, _ = spine()
        jobs = [job_table(f, g_max, 100, g_max) for f in frontier]
        for job in jobs:
            left._add(job)
        for job in reversed(jobs):
            right._add(job)
        assert left.counts_equal(right)
        assert left.wilf_witnesses == right.wilf_witnesses
        assert left.counts_equal(sf.enumerate_tree(g_max))

    def test_spine_frontier_covers_tree_and_balances(self):
        from sgforge.tree import CensusTable, _spine

        g_max = 18
        lam_max = 3 * g_max + 3
        spine = CensusTable(g_max, g_max)
        jobs = _spine(g_max, lam_max, spine)
        # The calling process tallies the ordinary semigroups (genus g,
        # multiplicity g + 1), the root among them, and every other child
        # of a spine node, job roots included; a job counts its root's
        # descendants.
        # Every job roots a subtree of more than one node.
        for g in range(g_max + 1):
            assert spine.n_mg(g + 1, g) == 1
        below = [sum(job_table(f, g_max, lam_max, g_max).n_of_g)
                 for f in jobs]
        sizes = [1 + n for n in below]
        total = sum(sf.enumerate_tree(g_max).n_of_g)
        assert sum(spine.n_of_g) + sum(below) == total
        assert max(sizes) <= total / 8
        assert min(sizes) > 1

    @pytest.mark.parametrize("g_max,f_max", [(14, None), (24, None),
                                             (14, 14), (20, 9)])
    def test_spine_frontier_ignores_collectors(self, g_max, f_max):
        # Collector walks fold childless children too, so they ship the
        # same jobs as count-only walks and tally the same spine.  The
        # spine walk visits and tallies every node it reaches, and tallies
        # each job root, which its job visits.
        from sgforge.tree import CensusTable, _spine

        lam_max = 3 * g_max + 3 if f_max is None else f_max
        plain = CensusTable(g_max, g_max)
        rich = CensusTable(g_max, g_max)
        coll = GapSetCollector()
        jobs = _spine(g_max, lam_max, plain)
        assert jobs
        assert _spine(g_max, lam_max, rich, [coll]) == jobs
        assert rich.counts_equal(plain)
        visited = sum(map(len, coll.by_genus.values()))
        assert visited + len(jobs) == sum(plain.n_of_g)

    @pytest.mark.parametrize("lam_max", ["3g+3", 9, 20])
    @pytest.mark.parametrize("g_max", [*range(15), 24])
    def test_spine_frames_from_first_principles(self, g_max, lam_max):
        # The job roots are the children of the ordinary semigroups of genus
        # g < g_max, other than the next ordinary one, that have an
        # admissible edge; built here with core, in (depth, F) order.  The
        # spine walk must yield exactly those, in that order, and each
        # removes lam in (m, 2m), so no job root is ordinary (F > m).
        from sgforge.tree import CensusTable, _spine

        lam_max = 3 * g_max + 3 if lam_max == "3g+3" else lam_max
        expected = []
        for g in range(1, g_max - 1):
            spine = sf.ordinary(g)
            for lam in spine.min_generators[1:]:
                if lam > lam_max:
                    break
                child = spine.remove_generator(lam)
                if any(t.effective and t.value <= lam_max
                       for t in child.effective_generators()):
                    expected.append((child.genus, child.multiplicity,
                                     child.frobenius, child.gaps()))
        frames = _spine(g_max, lam_max,
                        CensusTable(g_max, min(g_max, lam_max)))
        got = [(f[1], f[2], f[3], sf.TreeFrame(f).gap_tuple())
               for f in frames]
        assert got == expected
        keys = [(f[1], f[3]) for f in frames]
        assert keys == sorted(set(keys))
        assert all(f[3] > f[2] for f in frames)

    @pytest.mark.parametrize("g_max", range(25))
    def test_spine_nodes_and_tallies_from_first_principles(self, g_max):
        # _spine writes each ordinary node out and tallies it in closed
        # form.  Every ordinary node it visits must be sf.ordinary(g) bit
        # for bit, with its members up to the reach, and its table must
        # equal a tally of every node it reaches (the nodes it visits and
        # the job roots) computed from each node's semigroup.
        from sgforge.tree import CensusTable, _spine

        width = g_max + 1
        hw = g_max + 3
        for f_max in [None, *sorted({1, 3, g_max // 2 + 1, g_max + 3,
                                     2 * g_max + 1})]:
            lam_max = 3 * g_max + 3 if f_max is None else f_max
            lam_top = min(2 * g_max - 1, lam_max)
            cap = min(g_max, lam_max)
            table = CensusTable(g_max, cap)
            nodes = []
            jobs = _spine(g_max, lam_max, table, [NodeLog(nodes)])
            spine = [node for node in nodes if node[3] < node[2]]
            assert [node[1] for node in spine] == list(range(cap + 1))
            for mask, g, m, f, eff, mem, mg, _ in spine:
                sg = sf.ordinary(g)
                assert mask == sum(1 << u for u in range(3 * g_max + 4)
                                   if u in sg), (f_max, g)
                assert (m, f) == (sg.multiplicity, sg.frobenius), (f_max, g)
                assert eff == tuple(t.value for t in sg.effective_generators()
                                    if t.effective), (f_max, g)
                assert mem == tuple(u for u in range(m + 1,
                                                     (m + lam_top) // 2 + 1)
                                    if u in sg), (f_max, g)
                assert mg == sum(1 << x for x in sg.min_generators), (f_max, g)
                assert table.n_mg(g + 1, g) == 1, (f_max, g)
            expected = CensusTable(g_max, cap)
            for node in nodes + jobs:
                sg = sf.TreeFrame(node).semigroup
                g, m, f = sg.genus, sg.multiplicity, sg.frobenius
                h, e = sg.efficacy, len(sg.min_generators)
                expected.n_mg_flat[m * width + g] += 1
                expected.t_gh_flat[g * hw + h] += 1
                if g == 0 or sf.descent_strength(
                        sf.from_gaps(sg.gaps()[:-1]), f) is sf.Strength.STRONG:
                    expected.s_gh_flat[g * hw + h] += 1
                expected.f_lt_2m[g] += f < 2 * m
                expected.f_lt_3m[g] += f < 3 * m
                if 1 <= f <= cap:
                    expected.ns_flat[f] += 1
                expected.wilf_violations[g] += f + 1 > (f + 1 - g) * e
            assert table.counts_equal(expected), f_max

    @staticmethod
    def _inline_pool(monkeypatch, cpus):
        # A fake context records the pool size asked for and runs the jobs
        # in this process, so no process starts, and the process may run
        # on ``cpus`` CPUs whatever the host has (None: a platform with no
        # affinity call and no CPU count).  Returns the recorded sizes.
        import multiprocessing
        import os

        sizes = []

        class InlinePool:
            def __init__(self, processes):
                sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def imap(self, func, jobs):
                return map(func, jobs)

        class InlineContext:
            Pool = InlinePool

        monkeypatch.setattr(multiprocessing, "get_context",
                            lambda *args: InlineContext())
        if cpus is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: None)
        else:
            monkeypatch.setattr(os, "sched_getaffinity",
                                lambda pid: set(range(cpus)), raising=False)
        return sizes

    def _pool_sizes(self, monkeypatch, g_max, workers, cpus):
        sizes = self._inline_pool(monkeypatch, cpus)
        table = sf.enumerate_tree(g_max, workers=workers)
        assert table.counts_equal(sf.enumerate_tree(g_max))
        return sizes

    def test_batches_balance_a_pool_of_two(self, monkeypatch):
        # A pool of two gets 2 * _BATCHES_PER_PROCESS batches of
        # consecutive job roots, which together hold every node below the
        # spine.  The job roots' subtrees vary widely in size, and two
        # batches would leave one process 83% of the nodes at g = 18; no
        # batch may hold more than a quarter of the tree.
        from sgforge import tree

        run_batch = tree._subtree_job
        loads = []

        def recording_job(payload):
            table, colls = run_batch(payload)
            loads.append(len(payload[0]) + sum(table.n_of_g))
            return table, colls

        self._inline_pool(monkeypatch, 2)
        monkeypatch.setattr(tree, "_subtree_job", recording_job)
        g_max = 18
        total = sum(sf.enumerate_tree(g_max, workers=2).n_of_g)
        spine = tree.CensusTable(g_max, g_max)
        roots = tree._spine(g_max, 3 * g_max + 3, spine)
        assert len(loads) == 2 * tree._BATCHES_PER_PROCESS
        # The spine walk tallies the job roots, which their batches hold.
        assert sum(spine.n_of_g) - len(roots) + sum(loads) == total
        assert max(loads) <= total / 4

    @pytest.mark.parametrize("g_max,workers,processes",
                             [(3, 64, 1), (5, 64, 4), (5, 2, 2), (9, 3, 3)])
    def test_pool_never_exceeds_jobs(self, monkeypatch, g_max, workers,
                                     processes):
        # With CPUs to spare the pool starts one process per job at most;
        # a single process is this one, with no pool.
        assert self._pool_sizes(monkeypatch, g_max, workers, 64) \
            == [processes] * (processes > 1)

    @pytest.mark.parametrize("g_max,workers,cpus,processes",
                             [(9, 64, 2, 2), (9, 3, 2, 2), (9, 1000, 1, 1),
                              (9, 2, None, 1)])
    def test_pool_never_exceeds_cpus(self, monkeypatch, g_max, workers,
                                     cpus, processes):
        # Nor more processes than CPUs; an unknown CPU count means one,
        # and then the jobs run in this process with no pool.
        assert self._pool_sizes(monkeypatch, g_max, workers, cpus) \
            == [processes] * (processes > 1)

    def test_one_cpu_of_affinity_starts_no_pool(self, monkeypatch):
        # The machine has two CPUs but this process may run on one of
        # them: a pool of two would only share it.
        import os

        sizes = self._inline_pool(monkeypatch, 1)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert sf.enumerate_tree(9, workers=2).counts_equal(
            sf.enumerate_tree(9))
        assert sizes == []

    @pytest.mark.parametrize("g_max,f_max", [(14, None), (24, None),
                                             (14, 9), (16, 20)])
    def test_walk_from_a_job_root_returns_nothing(self, g_max, f_max):
        # No node below a job root is ordinary, so its walk descends
        # everywhere, as the pool's jobs do, and yields no further job.
        from sgforge.tree import CensusTable, _spine, _walk

        lam_max = 3 * g_max + 3 if f_max is None else f_max
        cap = min(g_max, lam_max)
        frames = _spine(g_max, lam_max, CensusTable(g_max, cap))
        assert frames
        for frame in frames:
            assert _walk(frame, g_max, lam_max,
                         CensusTable(g_max, cap)) == [], frame[1:4]

    @pytest.mark.parametrize("g_max,f_max", [(0, None), (2, None), (14, None),
                                             (24, None), (14, 9), (16, 20)])
    def test_walk_without_a_table_returns_the_same_jobs(self, g_max, f_max):
        # With no table the walk skips only the tally: the same job roots,
        # in the same order, and the same nodes visited on the way.
        from sgforge.tree import CensusTable, _spine

        lam_max = 3 * g_max + 3 if f_max is None else f_max
        counted, bare = [], []
        frames = _spine(g_max, lam_max,
                        CensusTable(g_max, min(g_max, lam_max)),
                        [NodeLog(counted)])
        assert _spine(g_max, lam_max, None, [NodeLog(bare)]) == frames
        assert _spine(g_max, lam_max, None) == frames
        assert bare == counted

    @pytest.mark.parametrize("g_max", [0, 1, 2])
    def test_no_pool_without_jobs(self, monkeypatch, g_max):
        # Up to genus 2 every off-spine child of the spine is childless, so
        # the spine leaves no job and no pool may start.
        import multiprocessing

        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was started with no job to run")

        monkeypatch.setattr(multiprocessing, "get_context", no_pool)
        table = sf.enumerate_tree(g_max, workers=2)
        assert table.counts_equal(sf.enumerate_tree(g_max))

    def test_merged_witnesses_ignore_order(self):
        from sgforge.tree import CensusTable

        evens = [(1, k) for k in range(0, 30, 2)]
        odds = [(1, k) for k in range(1, 30, 2)]
        expected = [(1, k) for k in range(20)]
        for mine, theirs in ((evens, odds), (odds, evens)):
            table, other = CensusTable(6, 6), CensusTable(6, 6)
            table.wilf_witnesses, other.wilf_witnesses = mine, theirs
            table._add(other)
            assert table.wilf_witnesses == expected


# -- frames and contracts ------------------------------------------------------

class TestFrames:
    def test_frame_fields_consistent(self):
        # Childless children are built and visited in the parent's loop: at
        # the depth bound, and in a pruned walk also below it, when every
        # effective generator they keep lies above the Frobenius bound.
        for g_max, f_max, workers in ((8, None, 1), (9, 12, 1),
                                      (10, None, 2), (9, 12, 2)):
            table = sf.enumerate_tree(g_max, frobenius_max=f_max,
                                      workers=workers,
                                      collectors={"check": FrameCheck})
            check = table.extras["check"]
            assert check.bad == 0
            assert check.visits == len(check.masks) == sum(table.n_of_g)
            assert (g_max, True) in check.childless
            assert any(g < g_max and has_edges
                       for g, has_edges in check.childless) \
                == (f_max is not None)

    def test_root_frame_descent(self):
        seen = {}

        class RootProbe:
            def visit(self, node):
                frame = sf.TreeFrame(node)
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

    @pytest.mark.parametrize("f_max", [-1, -3])
    def test_negative_frobenius_bound(self, f_max):
        # A negative bound once gave a table with frobenius_cap < 0.
        with pytest.raises(ValueError, match="frobenius_max"):
            sf.enumerate_tree(5, frobenius_max=f_max)
        with pytest.raises(ValueError, match="frobenius_max"):
            sf.collect(5, {}, frobenius_max=f_max)

    def test_zero_frobenius_bound_visits_the_root_alone(self):
        table = sf.enumerate_tree(5, frobenius_max=0)
        assert table.n_of_g == [1, 0, 0, 0, 0, 0]
        assert table.frobenius_cap == 0 and table.pruned

    def test_wilf_counters_clean(self, census16):
        assert sum(census16.wilf_violations) == 0
        assert census16.wilf_witnesses == []
