"""Identity and conjecture sweeps at test scale (acceptance runs go deeper)."""

import os
import random
import subprocess
import sys
from collections import Counter
from functools import partial

import pytest

import sgforge as sf
from sgforge.conjectures import (GAMMA, PHI, BuchweitzCollector,
                                 ConcentrationCollector, EwtMaxCollector,
                                 OrdinarizationCollector,
                                 StrongClassCollector)
from sgforge.errors import AlreadyOrdinary, IncompleteCensus
from test_tree import FIG1, NodeLog, brute_force_gapsets


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

    def test_deeper_census_reports_witnesses_within_bound(self):
        # A census deeper than g_max may hold witnesses above it; only
        # those of genus <= g_max are reported, and when none is left the
        # per-genus counts stand in for them.
        deep = list(range(1, 8))                   # a genus-7 gap set
        table = sf.enumerate_tree(8)
        table.wilf_violations[7] = 1
        table.wilf_witnesses = [tuple(deep)]
        report = sf.wilf_sweep(5, census=table)
        assert report.ok and report.violations == []
        table.wilf_violations[3] = 1
        table.wilf_witnesses = [(1, 2, 3), tuple(deep)]
        assert sf.wilf_sweep(5, census=table).violations \
            == [{"gaps": [1, 2, 3], "generators": [4, 5, 6, 7]}]
        table.wilf_witnesses = [tuple(deep)]
        assert sf.wilf_sweep(5, census=table).violations \
            == [{"per_genus_counts": {3: 1}}]
        assert sf.wilf_sweep(7, census=table).violations \
            == [{"gaps": deep, "generators": list(range(8, 16))}]

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

    def test_vacuous_bound_rejected(self):
        # g_max = 0 has no monotonicity cell, and its root check holds by
        # construction; g_max = 1 checks the cells of genus 0.
        assert sf.ordinarization_sweep(1).stats["levels"] == {0: 1, 1: 1}
        with pytest.raises(ValueError):
            sf.ordinarization_sweep(0)

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
        # The root, and each job root: its parent is a spine node, which no
        # batch visits, whatever ``workers`` is.  Childless children are
        # visited in their parent's loop, so none of them roots a job.
        from sgforge.tree import CensusTable, _spine

        g = self.G_MAX
        nodes = []
        jobs = _spine(g, 3 * g + 3, CensusTable(g, g),
                      [EwtMaxCollector(), NodeLog(nodes)])
        root = nodes[0]
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

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("audit", [EwtAudit, SumsetAudit],
                             ids=["ewt", "sumset"])
    def test_edge_update_equals_scratch_through_collect(self, audit,
                                                         workers):
        # The collector-only walk visits the same nodes in the same order,
        # so the same nodes start from scratch.
        coll = sf.collect(self.G_MAX, {"audit": audit},
                          workers=workers)["audit"]
        assert coll.nodes == sum(FIG1[:self.G_MAX + 1]) == 4107
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


# Every stock collector, each walk carrying all five at once.
STOCK = {"strong": StrongClassCollector,
         "ordinarization": OrdinarizationCollector,
         "buchweitz": BuchweitzCollector, "ewt": EwtMaxCollector,
         "concentration": partial(ConcentrationCollector, 0.5)}


def public_state(coll):
    return {k: v for k, v in vars(coll).items() if not k.startswith("_")}


class TestCollect:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("bound", [None, 1, 3, "2g+1"])
    def test_equals_enumerate_tree_extras(self, bound, workers):
        # collect() runs the same walk and jobs with no table, so every
        # stock collector ends in the state enumerate_tree leaves in extras,
        # and Buchweitz's own totals are the table's nonzero N(g).
        for g in range(13):
            f_max = 2 * g + 1 if bound == "2g+1" else bound
            table = sf.enumerate_tree(g, frobenius_max=f_max,
                                      workers=workers, collectors=STOCK)
            found = sf.collect(g, STOCK, frobenius_max=f_max,
                               workers=workers)
            assert list(found) == list(table.extras) == sorted(STOCK)
            for name, coll in found.items():
                assert type(coll) is type(table.extras[name])
                assert public_state(coll) \
                    == public_state(table.extras[name]), (g, f_max, name)
            assert found["buchweitz"].totals \
                == {h: n for h, n in enumerate(table.n_of_g) if n}

    def test_no_collectors(self):
        assert sf.collect(9, {}) == {}

    @pytest.mark.parametrize("g_max,workers", [(-1, 1), (5, 0)])
    def test_bad_arguments(self, g_max, workers):
        # A negative frobenius_max: TestValidation in test_tree.py.
        with pytest.raises(ValueError):
            sf.collect(g_max, STOCK, workers=workers)

    def test_sweeps_count_nothing(self, monkeypatch):
        # The four collector sweeps never build a census table.
        from sgforge import conjectures

        def no_table(*args, **kwargs):
            raise AssertionError("a collector sweep built a census table")

        monkeypatch.setattr(conjectures, "enumerate_tree", no_table)
        monkeypatch.setattr(sf.tree.CensusTable, "__init__", no_table)
        assert sf.pflueger_sweep(9, workers=2).ok
        assert sf.ordinarization_sweep(9).ok
        assert sf.buchweitz_sweep(9).stats["totals"][9] == 118
        assert sf.zhai_sweep(9).ok


class TestBatches:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("per_process", [1, 1000])
    def test_batch_count_changes_nothing(self, monkeypatch, per_process,
                                         workers):
        # One batch per process, or one job root per batch: batches are
        # contiguous and merged in order, and collectors merge as monoids,
        # so every counter, witness and collector state is the default's.
        from sgforge import tree

        for g, f_max in ((14, None), (14, 14), (12, 9)):
            default = sf.enumerate_tree(g, frobenius_max=f_max,
                                        workers=workers, collectors=STOCK)
            with monkeypatch.context() as patch:
                patch.setattr(tree, "_BATCHES_PER_PROCESS", per_process)
                table = sf.enumerate_tree(g, frobenius_max=f_max,
                                          workers=workers, collectors=STOCK)
                found = sf.collect(g, STOCK, frobenius_max=f_max,
                                   workers=workers)
            assert table.counts_equal(default)
            assert table.wilf_witnesses == default.wilf_witnesses
            for name, coll in default.extras.items():
                assert public_state(table.extras[name]) \
                    == public_state(coll), (g, f_max, name)
                assert public_state(found[name]) == public_state(coll)

    @pytest.mark.parametrize("method", ["spawn", "forkserver"])
    def test_start_method_changes_nothing(self, method):
        # Workers that re-import sgforge must rebuild the same pickled
        # batches, tables and collectors, and the count-only walk's lists; forkserver is the default start
        # method on Linux from Python 3.14.  Two CPUs are faked so that a
        # pool of two starts on any host.
        code = f"""
import multiprocessing
import os
from functools import partial
import sgforge as sf
from sgforge.conjectures import ConcentrationCollector

def state(colls):
    return {{name: vars(coll) for name, coll in colls.items()}}

if __name__ == "__main__":
    multiprocessing.set_start_method({method!r})
    os.sched_getaffinity = lambda pid: {{0, 1}}
    stock = {{"concentration": partial(ConcentrationCollector, 0.5)}}
    one, two = (sf.enumerate_tree(14, workers=w, collectors=stock)
                for w in (1, 2))
    assert two.counts_equal(one)
    assert two.wilf_witnesses == one.wilf_witnesses
    assert state(two.extras) == state(one.extras)
    assert state(sf.collect(14, stock, workers=2)) == state(one.extras)
    assert sf.ns_by_frobenius(14, workers=2) == sf.ns_by_frobenius(14)
    print(multiprocessing.get_start_method(), sum(two.n_of_g))
"""
        src = os.path.dirname(os.path.dirname(sf.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == f"{method} 4107\n"


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

    @pytest.mark.parametrize("eps", [0, -1.0, float("nan")])
    def test_nonpositive_eps_rejected(self, eps):
        # Both windows would be empty, and the fractions would read 0.0
        # as if they had been measured.
        with pytest.raises(ValueError, match="eps must be positive"):
            sf.concentration_sweep(3, eps)

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
