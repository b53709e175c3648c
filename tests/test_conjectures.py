"""Identity and conjecture sweeps at test scale (acceptance runs go deeper)."""

import random
from collections import Counter
from functools import partial

import pytest

import sgforge as sf
from sgforge.conjectures import (GAMMA, PHI, BuchweitzCollector,
                                 ConcentrationCollector, EwtMaxCollector)
from sgforge.errors import AlreadyOrdinary, IncompleteCensus
from test_tree import brute_force_gapsets


class TestWilf:
    def test_two_three_equality(self):
        res = sf.check_wilf(sf.from_generators({2, 3}))
        assert res == (True, 2, 1, 2)

    def test_three_five_equality(self):
        res = sf.check_wilf(sf.from_generators({3, 5}))
        assert res == (True, 8, 4, 2)

    def test_trivial_semigroup_vacuous(self):
        res = sf.check_wilf(sf.from_generators({1}))
        assert res.holds and res.f_plus_1 == 0

    def test_sweep(self):
        report = sf.wilf_sweep(16)
        assert report.ok
        assert report.stats["checked"] == 11770   # sum of N(g), g <= 16


class TestYeIdentity:
    def test_identity_pins_strong_counts(self, census22):
        # g = 0 forces S(1) = 1, g = 1 forces S(2) = 2.
        res = sf.ye_identity(0, census22)
        assert res.holds and res.lhs == 2
        assert census22.s(1) == 1
        res = sf.ye_identity(1, census22)
        assert res.holds and res.lhs == 4
        assert census22.s(2) == 2

    def test_sweep(self, census22):
        report = sf.ye_sweep(20, census=census22)
        assert report.ok

    def test_childless_correction_counts_one(self, census22):
        # The genus-3 level has one childless node (<3,4>), whose term must
        # contribute 1 for the identity to close.
        assert census22.t_gh(3, 0) == 1
        res = sf.ye_identity(3, census22)
        assert res.holds
        # C(3,2) from the ordinary + 1
        assert res.rhs - (census22.n(4) - census22.n(3) + census22.s(4) + 1) == 4

    def test_incomplete_census(self, census22):
        with pytest.raises(IncompleteCensus):
            sf.ye_identity(21, census22)


class TestZhaiLemma:
    def test_explicit_class(self):
        table = sf.enumerate_tree(8, frobenius_max=8,
                                  collectors={"strong": sf.conjectures.StrongClassCollector})
        classes = table.extras["strong"].classes
        # S(2, 3) is exactly {<2,5>}: genus 2, one effective generator.
        assert classes[(2, 3)] == [(2, 1)]
        res = sf.zhai_lemma_check(2, 3, classes)
        assert res.holds
        assert res.lhs == pytest.approx(PHI ** -1)
        assert res.rhs == pytest.approx(15.0)

    def test_class_sum_ignores_visit_order(self):
        # The walk's visit order is an implementation detail; the exactly
        # rounded sum gives every shuffle of a class the same bits, where a
        # left-to-right sum would not.
        table = sf.enumerate_tree(18, frobenius_max=18,
                                  collectors={"strong": sf.conjectures.StrongClassCollector})
        classes = table.extras["strong"].classes
        rng = random.Random(12)
        naive_moved = 0
        for key, pairs in classes.items():
            lhs = sf.zhai_lemma_check(*key, classes).lhs
            naive = sum(PHI ** (h - g) for g, h in pairs)
            for _ in range(3):
                shuffled = rng.sample(pairs, len(pairs))
                assert sf.zhai_lemma_check(*key, {key: shuffled}).lhs.hex() \
                    == lhs.hex()
                naive_moved += sum(PHI ** (h - g)
                                   for g, h in shuffled) != naive
        assert naive_moved

    def test_empty_class_holds(self):
        res = sf.zhai_lemma_check(5, 11, {})
        assert res.holds and res.lhs == 0.0

    def test_sweep(self):
        assert sf.zhai_sweep(14).ok

    def test_vacuous_bound_rejected(self):
        assert sf.zhai_sweep(3).stats["cells"] == 1
        with pytest.raises(ValueError):
            sf.zhai_sweep(2)


class TestOrdinarization:
    def test_examples(self):
        assert sf.ordinarize(sf.from_generators({2, 5})) == sf.ordinary(2)
        assert sf.ordinarize(sf.from_generators({2, 7})) == sf.ordinary(3)
        with pytest.raises(AlreadyOrdinary):
            sf.ordinarize(sf.ordinary(4))
        with pytest.raises(AlreadyOrdinary):
            sf.ordinarize(sf.from_generators({1}))

    def test_transform_monotone(self):
        for gens in [{3, 5}, {4, 7, 9}, {5, 6, 9}, {2, 11}]:
            s = sf.from_generators(gens)
            t = sf.ordinarize(s)
            assert t.genus == s.genus
            assert t.multiplicity > s.multiplicity

    def test_number_examples(self):
        assert sf.ordinarization_number(sf.ordinary(6)) == 0
        assert sf.ordinarization_number(sf.from_generators({2, 5})) == 1
        assert sf.ordinarization_number(sf.from_generators({2, 7})) == 1

    def test_number_matches_repeated_transform(self):
        for gens in [{3, 7}, {4, 5, 11}, {2, 13}, {5, 7, 8, 9}]:
            s = sf.from_generators(gens)
            steps = 0
            while not s.is_ordinary():
                s = sf.ordinarize(s)
                steps += 1
            assert steps == sf.ordinarization_number(sf.from_generators(gens))

    def test_census_small(self):
        counts = sf.ordinarization_census(2)
        assert counts[(2, 0)] == 1
        assert counts[(2, 1)] == 1
        assert counts[(0, 0)] == 1 and counts[(1, 0)] == 1

    def test_census_level_sums(self, census16):
        counts = sf.ordinarization_census(10)
        for g in range(11):
            assert sum(c for (gg, _r), c in counts.items() if gg == g) \
                == census16.n(g)

    def test_sweep(self):
        assert sf.ordinarization_sweep(12).ok

    def test_popcount_matches_step_simulation(self):
        table = sf.enumerate_tree(16, collectors={"log": FrameLog})
        expected = Counter()
        for g, nodes in table.extras["log"].by_genus.items():
            for frame in map(sf.TreeFrame, nodes):
                steps = _ordinarization_steps(frame.gap_tuple())
                assert sf.ordinarization_number(frame.semigroup) == steps
                expected[g, steps] += 1
        assert sum(expected.values()) == 11770   # sum of N(g), g <= 16
        assert sf.ordinarization_census(16) == dict(expected)


def _ordinarization_steps(gap_tuple):
    """Reference: apply the transform to the gap list until it is ordinary."""
    gaps = list(gap_tuple)
    g = len(gaps)
    steps = 0
    while gaps and gaps[-1] != g:
        # Multiplicity = least positive integer missing from the gap list.
        i = 0
        while i < g and gaps[i] == i + 1:
            i += 1
        gaps = gaps[:i] + [i + 1] + gaps[i:-1]
        steps += 1
    return steps


class TestBuchweitz:
    def test_ordinary_passes(self):
        for g in range(2, 12):
            s = sf.ordinary(g)
            assert sf.gap_sumset_size(s.gaps()) == 2 * g - 1
            assert sf.buchweitz_check(s)

    def test_hyperelliptic_passes(self):
        for g in range(2, 12):
            s = sf.from_generators({2, 2 * g + 1})
            assert sf.gap_sumset_size(s.gaps()) == 2 * g - 1
            assert sf.buchweitz_check(s)

    def test_sumset_against_naive_double_loop(self):
        class Probe:
            def __init__(self):
                self.bad = 0

            def visit(self, node):
                gaps = sf.TreeFrame(node).gap_tuple()
                naive = len({a + b for a in gaps for b in gaps})
                if naive != sf.gap_sumset_size(gaps):
                    self.bad += 1

            def merge(self, other):
                self.bad += other.bad
                return self

        table = sf.enumerate_tree(10, collectors={"probe": Probe})
        assert table.extras["probe"].bad == 0

    def test_genus_bound(self):
        with pytest.raises(ValueError):
            sf.buchweitz_check(sf.from_generators({2, 3}))

    def test_sweep_records_failures_without_violations(self):
        report = sf.buchweitz_sweep(12)
        assert report.ok
        assert report.stats["failures"] == {}
        assert report.stats["first_failure_genus"] is None

    def test_vacuous_bound_rejected(self):
        assert sf.buchweitz_sweep(2).stats["totals"] == {2: 2}
        with pytest.raises(ValueError):
            sf.buchweitz_sweep(1)

    def test_first_failures_appear_at_genus_16(self):
        # Recorded from the exhaustive sweep: exactly two genus-16 gap sets
        # exceed the sumset bound, the classical {1..12, 19, 21, 24, 25}
        # and its companion; both have |L+L| = 46 > 45.
        report = sf.buchweitz_sweep(16)
        assert report.ok
        assert report.stats["first_failure_genus"] == 16
        assert report.stats["failures"] == {16: 2}
        classical = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 19, 21, 24, 25]
        assert classical in report.stats["witnesses"]
        assert not sf.buchweitz_check(sf.from_gaps(classical))


class FrameLog:
    """Keeps every node tuple it visits, grouped by genus."""

    def __init__(self):
        self.by_genus = {}

    def visit(self, node):
        self.by_genus.setdefault(node[1], []).append(node)

    def merge(self, other):
        for g, nodes in other.by_genus.items():
            self.by_genus.setdefault(g, []).extend(nodes)
        return self


class TestParallelSweeps:
    def test_buchweitz_witnesses_independent_of_schedule(self):
        seq = sf.buchweitz_sweep(18)
        par = sf.buchweitz_sweep(18, workers=2)
        assert seq.stats == par.stats
        assert seq.stats["witnesses"] == sorted(seq.stats["witnesses"])

    def test_pflueger_independent_of_schedule(self):
        assert sf.pflueger_sweep(16).stats == \
            sf.pflueger_sweep(16, workers=2).stats

    def test_ewt_argmax_ignores_visit_and_merge_order(self):
        from sgforge.conjectures import EwtMaxCollector

        table = sf.enumerate_tree(10, collectors={"log": FrameLog})
        frames = [f for g in sorted(table.extras["log"].by_genus)
                  for f in table.extras["log"].by_genus[g]]

        def fed(part):
            coll = EwtMaxCollector()
            for frame in part:
                coll.visit(frame)
            return coll

        forward = fed(frames)
        assert fed(reversed(frames)).argmax == forward.argmax
        half = len(frames) // 2
        assert fed(frames[:half]).merge(fed(frames[half:])).argmax \
            == forward.argmax
        assert fed(frames[half:]).merge(fed(frames[:half])).argmax \
            == forward.argmax

    def test_mask_order_matches_gap_tuple_order(self):
        from sgforge.conjectures import _gaps_precede

        table = sf.enumerate_tree(7, collectors={"log": FrameLog})
        for nodes in table.extras["log"].by_genus.values():
            frames = [sf.TreeFrame(node) for node in nodes]
            for a in frames:
                for b in frames:
                    assert _gaps_precede(a.mask, b.mask) == \
                        (a.gap_tuple() < b.gap_tuple())


class IncrementalAudit:
    """Mixin over a stock collector that keeps ``_last[genus] = (mask,
    value)``: after each visit it compares the stored value with one
    computed from scratch, and records the nodes visited without their
    parent as the last node one level up."""

    def __init__(self):
        super().__init__()
        self.nodes = 0
        self.wrong = 0
        self.orphans = []

    def visit(self, node):
        frame = sf.TreeFrame(node)
        last = self._last.get(frame.genus - 1)
        if last is None or last[0] != frame.mask | (1 << frame.frobenius):
            self.orphans.append(frame.mask)
        super().visit(node)
        self.nodes += 1
        if self._last[frame.genus] != (frame.mask, self.scratch(frame)):
            self.wrong += 1

    def merge(self, other):
        super().merge(other)
        self.nodes += other.nodes
        self.wrong += other.wrong
        self.orphans += other.orphans
        return self


class EwtAudit(IncrementalAudit, EwtMaxCollector):
    @staticmethod
    def scratch(frame):
        return frame.semigroup.effective_weight


class SumsetAudit(IncrementalAudit, BuchweitzCollector):
    @staticmethod
    def scratch(frame):
        gaps = frame.gap_tuple()
        return sum(1 << s for s in {a + b for a in gaps for b in gaps})


class TestIncrementalCollectors:
    G_MAX = 14

    def _expected_orphans(self):
        # The root, and each job root, which starts in a fresh collector
        # whatever ``workers`` is.  Childless children are visited in their
        # parent's loop, so none of them roots a job.
        from sgforge.tree import CensusTable, _root_frame, _walk

        g = self.G_MAX
        root = _root_frame(g)
        jobs = _walk(root, g, 3 * g + 3, CensusTable.empty(g, g),
                     [EwtMaxCollector()])
        return sorted(frame[0] for frame in [root, *jobs])

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("audit", [EwtAudit, SumsetAudit],
                             ids=["ewt", "sumset"])
    def test_edge_update_equals_scratch(self, audit, workers):
        table = sf.enumerate_tree(self.G_MAX, workers=workers,
                                  collectors={"audit": audit})
        coll = table.extras["audit"]
        assert coll.nodes == sum(table.n_of_g) == 4107
        assert coll.wrong == 0
        assert sorted(coll.orphans) == self._expected_orphans()

    @pytest.mark.parametrize("audit", [EwtAudit, SumsetAudit],
                             ids=["ewt", "sumset"])
    def test_near_parent_is_not_reused(self, audit):
        # S plus a gap x other than its Frobenius number, when that is a
        # semigroup, holds every member of S but is not its parent; visited
        # just before S, it must send S to the scratch path.
        table = sf.enumerate_tree(10, collectors={"log": FrameLog})
        nodes = [n for ns in table.extras["log"].by_genus.values()
                 for n in ns]
        by_mask = {n[0]: n for n in nodes}
        coll = audit()
        children = Counter()
        for child in nodes:
            frame = sf.TreeFrame(child)
            for x in frame.gap_tuple()[:-1]:
                near = by_mask.get(frame.mask | (1 << x))
                if near is not None:
                    coll.visit(near)
                    coll.visit(child)
                    children[frame.mask] += 1
        assert children.total() > 100
        assert coll.wrong == 0
        assert not children - Counter(coll.orphans)


class TestPflueger:
    def test_bound_values(self):
        assert sf.pflueger_bound(1) == 0
        assert sf.pflueger_bound(7) == 8

    def test_genus_one(self):
        s = sf.from_generators({2, 3})
        assert s.effective_weight == 0 <= sf.pflueger_bound(1)

    def test_sweep(self):
        report = sf.pflueger_sweep(12)
        assert report.ok
        rows = dict((g, (mx, bound)) for g, mx, bound in report.stats["rows"])
        assert rows[1] == (0, 0)
        for g, (mx, bound) in rows.items():
            assert mx <= bound

    def test_vacuous_bound_rejected(self):
        assert sf.pflueger_sweep(1).stats["rows"] == [(1, 0, 0)]
        with pytest.raises(ValueError):
            sf.pflueger_sweep(0)


class TestConcentration:
    def test_genus_one_band_is_empty(self):
        stats = sf.concentration_sweep(1, 0.5)
        # <2,3> has F/m = 1/2, outside (1.5, 2.5).
        assert stats[1]["f_over_m"] == 0.0

    def test_fractions_normalized(self):
        stats = sf.concentration_sweep(9, 0.25)
        for g, row in stats.items():
            for value in row.values():
                assert 0.0 <= value <= 1.0

    def test_pruned_table(self):
        # With F <= 6 genera 7-10 hold no semigroup: they are left out, not
        # divided by. Each fraction matches a count over brute-force gap
        # sets with F <= 6 (F = -1 and m = 1 for the root).
        eps = 0.1
        table = sf.enumerate_tree(10, frobenius_max=6, collectors={
            "concentration": partial(ConcentrationCollector, eps)})
        stats = sf.concentration_stats(table)
        assert sorted(stats) == list(range(7))
        for g, row in stats.items():
            mf = [(min(set(range(1, g + 2)) - set(gaps)), gaps[-1] if gaps else -1)
                  for gaps in brute_force_gapsets(g) if not gaps or gaps[-1] <= 6]
            n = len(mf)
            assert row == {
                "f_over_m": sum((2 - eps) * m < f < (2 + eps) * m
                                for m, f in mf) / n,
                "m_over_g": sum((GAMMA - eps) * g < m < (GAMMA + eps) * g
                                for m, f in mf) / n,
                "two_g_lt_3m": sum(2 * g < 3 * m for m, f in mf) / n,
            }

    def test_parallel_matches_sequential(self):
        seq = sf.concentration_sweep(9, 0.25)
        par = sf.concentration_sweep(9, 0.25, workers=3)
        assert seq == par

    def test_eps_quarter_matches_kunz_oracle(self):
        # The three fractions at g = 14 and g = 20 equal counts over every
        # Kunz vector of the genus, with no tree walk: m runs over 2..g + 1
        # and F = max(k_i m + i) - m.  The Frobenius-window fraction should
        # also creep upward with g.
        eps = 0.25
        stats = sf.concentration_sweep(20, eps)
        for g in (14, 20):
            mf = [(m, max(k * m + i for i, k in enumerate(v, start=1)) - m)
                  for m in range(2, g + 2) for v in sf.kunz_vectors(m, g)]
            n = len(mf)
            assert n == {14: 1693, 20: 37396}[g]     # OEIS A007323
            assert stats[g] == {
                "f_over_m": sum((2 - eps) * m < f < (2 + eps) * m
                                for m, f in mf) / n,
                "m_over_g": sum((GAMMA - eps) * g < m < (GAMMA + eps) * g
                                for m, f in mf) / n,
                "two_g_lt_3m": sum(2 * g < 3 * m for m, f in mf) / n,
            }
        assert stats[14]["f_over_m"] <= stats[20]["f_over_m"]
        assert stats[14]["m_over_g"] <= stats[20]["m_over_g"]


class TestNsParity:
    def test_rows_and_monotone_columns(self):
        rows = sf.ns_parity_rows(sf.ns_by_frobenius(12))
        assert rows[0] == (1, 1, 1)
        assert rows[2] == (3, 5, 4)        # the first interleaved drop
        odd = [r[1] for r in rows]
        even = [r[2] for r in rows]
        assert odd == sorted(odd) and even == sorted(even)


class TestRatioReport:
    def test_reference_ratios(self, census16):
        report = sf.ratio_report(census16)
        rows = {g: (a, b) for g, a, b in report.stats["rows"]}
        assert rows[4][0] == pytest.approx(6 / 7)
        assert rows[2][0] == pytest.approx(1.0)
        assert rows[15][1] == pytest.approx(2857 / 1693)

    def test_assertions_hold(self, census22):
        assert sf.ratio_report(census22).ok

    def test_vacuous_bound_rejected(self):
        assert sf.ratio_report(sf.enumerate_tree(2)).stats["rows"] \
            == [(2, 1.0, 2.0)]
        with pytest.raises(ValueError):
            sf.ratio_report(sf.enumerate_tree(1))

    def test_report_json_shape(self, census16):
        data = sf.ratio_report(census16).to_json()
        assert data["ok"] is True
        assert set(data) == {"name", "params", "ok", "violations", "stats"}


class TestPrunedCensus:
    # The four checks that read a genus census handed to them.
    CHECKS = {
        "wilf": lambda census: sf.wilf_sweep(9, census=census),
        "ye": lambda census: sf.ye_sweep(7, census=census),
        "bounds": lambda census: sf.bounds_sweep(9, census=census),
        "ratio": sf.ratio_report,
    }

    @pytest.mark.parametrize("check", sorted(CHECKS))
    @pytest.mark.parametrize("f_max", [6, 12, 17])
    def test_pruned_census_rejected(self, f_max, check):
        # F <= 2g - 1 at genus g, so at g_max = 9 the bound 17 cuts no edge
        # and the table is the full census.  Bounds 6 and 12 cut edges: the
        # table misses semigroups, though at 12 its g_max and Frobenius cap
        # equal a full census's, so the checks would report false
        # violations (and ratio_report divide by zero at 6).
        run = self.CHECKS[check]
        full = sf.enumerate_tree(9)
        census = sf.enumerate_tree(9, frobenius_max=f_max)
        assert census.pruned == (f_max < 17)
        if census.pruned:
            with pytest.raises(ValueError, match="pruned"):
                run(census)
            with pytest.raises(ValueError, match="different runs"):
                full.merge(census)
        else:
            assert census.counts_equal(full)
            assert run(census).ok
            assert run(census).to_json() == run(full).to_json()


class TestOracleSweeps:
    def test_kunz_oracle(self):
        report = sf.kunz_oracle_sweep(12)
        assert report.ok

    def test_recurrence(self):
        report = sf.recurrence_sweep(14)
        assert report.ok
        assert report.stats["cells"] > 40

    def test_vacuous_bounds_rejected(self):
        with pytest.raises(ValueError):
            sf.kunz_oracle_sweep(0)
        with pytest.raises(ValueError):
            sf.recurrence_sweep(0)

    def test_bounds(self, census16):
        assert sf.bounds_sweep(16, census=census16).ok

    @pytest.mark.parametrize("g_max", [0, -1])
    def test_bounds_vacuous_bound_rejected(self, census16, g_max):
        # Its rows start at genus 1, so a smaller bound checks nothing,
        # whether or not a census is given.
        for census in (None, census16):
            with pytest.raises(ValueError, match="g_max must be >= 1"):
                sf.bounds_sweep(g_max, census=census)

    @pytest.mark.parametrize("sweep", ["zhai_sweep", "kunz_oracle_sweep",
                                       "recurrence_sweep"])
    def test_workers_leave_report_unchanged(self, sweep):
        run = getattr(sf, sweep)
        assert run(9, workers=2).to_json() == run(9).to_json()
