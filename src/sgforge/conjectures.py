"""Finite-range verification of the census identities, inequalities, and
conjectures that are checkable at desk scale.

Each sweep returns a :class:`VerificationReport`; an empty violation list
means the property held everywhere on the swept range; a bound that would
leave nothing to check, or a Frobenius-pruned census, raises ValueError.
Witnesses carry enough of the offending semigroup (its gap set) to
re-verify standalone.  :data:`SWEEPS` holds the ``sgforge verify`` names,
each with its default bound and CSV table.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import partial
from typing import Callable, NamedTuple

from .core import NumericalSemigroup, _from_gap_mask, _sumset
from .errors import AlreadyOrdinary, IncompleteCensus
from .formulas import fibonacci, global_bounds, zhao_lower_bound
from .kunz import count_by_polytope, recurrence_bijection_check
from .tree import (CensusTable, TreeFrame, _add_witness, _merge_witnesses,
                   collect, enumerate_tree)

PHI = (1 + math.sqrt(5)) / 2
GAMMA = (5 + math.sqrt(5)) / 10


class VerificationReport(NamedTuple):
    """Outcome of one named sweep over a parameter range."""

    name: str
    params: dict
    violations: list
    stats: dict

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "params": self.params,
            "ok": self.ok,
            "violations": self.violations,
            "stats": self.stats,
        }


def _census(census: CensusTable | None, g_max: int,
            workers: int = 1) -> CensusTable:
    # The given census, unless it stops short of g_max: then a new walk.
    if census is not None and census.pruned:
        raise ValueError("a Frobenius-pruned census misses semigroups")
    if census is None or census.g_max < g_max:
        census = enumerate_tree(g_max, workers=workers)
    return census


def _add_counts(mine: dict, theirs: dict) -> None:
    for key, c in theirs.items():
        mine[key] = mine.get(key, 0) + c


# ---------------------------------------------------------------------------
# Wilf's inequality

WilfCheck = namedtuple("WilfCheck", "holds f_plus_1 n e")


def check_wilf(sg: NumericalSemigroup) -> WilfCheck:
    """Evaluate F + 1 <= n * e with n = |S ∩ [0, F]| counted directly."""
    f = sg.frobenius
    if f < 0:
        return WilfCheck(True, 0, 0, sg.embedding_dimension)
    n = (sg._mask & ((1 << (f + 1)) - 1)).bit_count()
    e = sg.embedding_dimension
    return WilfCheck(f + 1 <= n * e, f + 1, n, e)


def wilf_sweep(g_max: int, *, workers: int = 1,
               census: CensusTable | None = None) -> VerificationReport:
    """Wilf's inequality over every semigroup of genus <= g_max.

    The walk checks F + 1 <= (F + 1 - g) * e inline; gap sets of any
    violators are reported as witnesses.  The root has no Frobenius number
    to check, so g_max = 0 would check nothing; the walk rejects a negative
    g_max first.
    """
    census = _census(census, g_max, workers)
    if g_max < 1:
        raise ValueError("g_max must be >= 1; smaller bounds leave no "
                         "genus to check")
    violations = [
        {"gaps": list(gaps),
         "generators": list(NumericalSemigroup(gaps).min_generators)}
        for gaps in census.wilf_witnesses if len(gaps) <= g_max
    ]
    per_genus = {g: c for g, c in enumerate(census.wilf_violations[: g_max + 1]) if c}
    if per_genus and not violations:
        violations.append({"per_genus_counts": per_genus})
    return VerificationReport(
        "wilf", {"g_max": g_max}, violations,
        {"checked": sum(census.n_of_g[: g_max + 1]),
         "rows": [(g, census.wilf_violations[g]) for g in range(g_max + 1)]},
    )


# ---------------------------------------------------------------------------
# The exact second-order census identity

YeCheck = namedtuple("YeCheck", "holds lhs rhs")


def ye_identity(g: int, census: CensusTable) -> YeCheck:
    """N(g+2) against N(g+1) - N(g) + S(g+1) + 1 + sum of (h-1)(h-2)/2.

    The correction sum runs over genus-g nodes; evaluated as a polynomial it
    contributes 1 for each childless node.  Requires the census to reach
    genus g + 2.
    """
    if g < 0:
        raise ValueError("g must be nonnegative")
    if census.g_max < g + 2:
        raise IncompleteCensus(f"need genus {g + 2}, table stops at {census.g_max}")
    # A genus-g node has at most g + 1 effective generators.
    correction = sum(census.t_gh(g, h) * ((h - 1) * (h - 2) >> 1)
                     for h in range(g + 2))
    lhs = census.n(g + 2)
    rhs = census.n(g + 1) - census.n(g) + census.s(g + 1) + 1 + correction
    return YeCheck(lhs == rhs, lhs, rhs)


def ye_sweep(g_max: int, *, census: CensusTable | None = None,
             workers: int = 1) -> VerificationReport:
    """Identity plus its corollary N(g+2) >= N(g+1) - N(g) for g <= g_max."""
    if g_max < 0:
        raise ValueError("g_max must be >= 0; smaller bounds leave no "
                         "genus to check")
    census = _census(census, g_max + 2, workers)
    violations = []
    for g in range(g_max + 1):
        res = ye_identity(g, census)
        if not res.holds:
            violations.append({"g": g, "lhs": res.lhs, "rhs": res.rhs})
        if census.n(g + 2) < census.n(g + 1) - census.n(g):
            violations.append({"g": g, "corollary": "N(g+2) >= N(g+1) - N(g)"})
    return VerificationReport("ye", {"g_max": g_max}, violations,
                              {"checked": g_max + 1})


# ---------------------------------------------------------------------------
# Strongly descended classes and the geometric-sum inequality

class StrongClassCollector:
    """Genus and efficacy of every strongly descended node, keyed by (m, F)."""

    def __init__(self):
        self.classes: dict[tuple[int, int], list[tuple[int, int]]] = {}

    def visit(self, node: tuple) -> None:
        _, g, m, f, eff, _, _, strong_in = node
        if strong_in and f >= 1:
            self.classes.setdefault((m, f), []).append((g, len(eff)))

    def merge(self, other: "StrongClassCollector") -> "StrongClassCollector":
        for key, pairs in other.classes.items():
            self.classes.setdefault(key, []).extend(pairs)
        return self


ZhaiCheck = namedtuple("ZhaiCheck", "holds lhs rhs")


def zhai_lemma_check(m: int, frob: int,
                     classes: dict[tuple[int, int], list[tuple[int, int]]]) -> ZhaiCheck:
    """Sum of phi^-(g - h) over strongly descended nodes with multiplicity m
    and Frobenius number F, against 5 (F - m + 2) (1.618 / phi)^(F - m - 1).

    The right side keeps the literal 1.618 (strictly below phi); comparison
    tolerance 1e-9.  An empty class holds trivially.
    """
    lhs = math.fsum(PHI ** (h - g) for g, h in classes.get((m, frob), ()))
    rhs = 5 * (frob - m + 2) * (1.618 / PHI) ** (frob - m - 1)
    return ZhaiCheck(lhs <= rhs + 1e-9, lhs, rhs)


def zhai_sweep(f_max: int, *, workers: int = 1) -> VerificationReport:
    """All (m, F) classes with m < F <= f_max and F not a multiple of m.

    The first class is (2, 3), so f_max < 3 would check nothing.
    """
    if f_max < 3:
        raise ValueError("f_max must be >= 3; smaller bounds leave no "
                         "(m, F) class to check")
    classes = collect(f_max, {"strong": StrongClassCollector},
                      frobenius_max=f_max, workers=workers)["strong"].classes
    violations = []
    checked = 0
    for frob in range(2, f_max + 1):
        for m in range(2, frob):
            if frob % m == 0:
                continue
            checked += 1
            res = zhai_lemma_check(m, frob, classes)
            if not res.holds:
                violations.append({"m": m, "F": frob,
                                   "lhs": res.lhs, "rhs": res.rhs})
    return VerificationReport("zhai-lemma", {"f_max": f_max}, violations,
                              {"cells": checked})


# ---------------------------------------------------------------------------
# Ordinarization

def ordinarize(sg: NumericalSemigroup) -> NumericalSemigroup:
    """Swap the multiplicity out for the Frobenius number.

    Preserves the genus and strictly increases the multiplicity; undefined
    (AlreadyOrdinary) on ordinary semigroups, where there is nothing to swap.
    """
    if sg.is_ordinary():
        raise AlreadyOrdinary(repr(sg))
    return _from_gap_mask((sg._gap_mask() ^ (1 << sg.frobenius))
                          | (1 << sg.multiplicity))


def _ordinarization(mask: int, genus: int) -> int:
    # r(S) = |S ∩ [1, g]|: a step swaps the multiplicity (<= g) for the
    # Frobenius number (> g), and only an ordinary S has no member in [1, g].
    return (mask & ((1 << (genus + 1)) - 2)).bit_count()


def ordinarization_number(sg: NumericalSemigroup) -> int:
    """Steps of the transform needed to reach the ordinary semigroup."""
    return _ordinarization(sg._mask, sg.genus)


class OrdinarizationCollector:
    """Counts of semigroups by (genus, ordinarization number)."""

    def __init__(self):
        self.counts: dict[tuple[int, int], int] = {}

    def visit(self, node: tuple) -> None:
        key = (node[1], _ordinarization(node[0], node[1]))
        self.counts[key] = self.counts.get(key, 0) + 1

    def merge(self, other: "OrdinarizationCollector") -> "OrdinarizationCollector":
        _add_counts(self.counts, other.counts)
        return self


def ordinarization_census(g_max: int, *,
                          workers: int = 1) -> dict[tuple[int, int], int]:
    """n(g, r) for every g <= g_max: semigroups of genus g needing r steps."""
    found = collect(g_max, {"ordinarization": OrdinarizationCollector},
                    workers=workers)
    return dict(found["ordinarization"].counts)


def ordinarization_sweep(g_max: int, *,
                         workers: int = 1) -> VerificationReport:
    """Level sums, the single root per level, and n(g, r) <= n(g+1, r).

    The monotonicity cells cover g < g_max, so g_max = 0 checks nothing.
    """
    counts = ordinarization_census(g_max, workers=workers)
    if g_max < 1:
        raise ValueError("g_max must be >= 1; smaller bounds leave no "
                         "cell to check")
    n_of_g = [0] * (g_max + 1)
    for (g, _r), c in counts.items():
        n_of_g[g] += c
    violations = []
    for g in range(g_max + 1):
        if counts.get((g, 0), 0) != 1:
            violations.append({"g": g, "issue": "root count != 1",
                               "count": counts.get((g, 0), 0)})
    r_max = max(r for (_g, r) in counts)
    for g in range(g_max):
        for r in range(r_max + 1):
            if counts.get((g, r), 0) > counts.get((g + 1, r), 0):
                violations.append({"g": g, "r": r,
                                   "n_g_r": counts.get((g, r), 0),
                                   "n_g1_r": counts.get((g + 1, r), 0)})
    return VerificationReport(
        "ordinarization", {"g_max": g_max}, violations,
        {"levels": {g: n_of_g[g] for g in range(g_max + 1)}, "r_max": r_max,
         "rows": [(g, r, c) for (g, r), c in sorted(counts.items())]},
    )


# ---------------------------------------------------------------------------
# Gap-sumset (Weierstrass necessary) criterion

def gap_sumset_size(gaps: tuple[int, ...]) -> int:
    """|L + L| for the gap set L, by shifted-bitmask union."""
    return _sumset(sum(1 << x for x in set(gaps))).bit_count()


def buchweitz_check(sg: NumericalSemigroup) -> bool:
    """True when |L + L| <= 3 (g - 1) for the gap set L; genus >= 2 only.

    Failing the bound certifies the semigroup cannot arise from pole orders
    at a point of a smooth curve.
    """
    g = sg.genus
    if g < 2:
        raise ValueError("criterion needs genus >= 2")
    return gap_sumset_size(sg.gaps()) <= 3 * (g - 1)


class BuchweitzCollector:
    """Per-genus failures of the 2-fold sumset bound, and per-genus totals."""

    def __init__(self):
        self.failures: dict[int, int] = {}
        self.totals: dict[int, int] = {}
        self.witnesses: list[tuple[int, ...]] = []
        self._last: dict[int, tuple[int, int]] = {}   # genus: (mask, L + L)

    def visit(self, node: tuple) -> None:
        mask, g, _, f, _, _, _, _ = node
        gap_mask = ((1 << (f + 1)) - 1) & ~mask
        last = self._last.get(g - 1)
        if last is not None and last[0] == mask | (1 << f):
            # The parent's gaps plus f: L_c + L_c = (L_p + L_p) | (L_c + f).
            sums = last[1] | (gap_mask << f)
        else:
            sums = _sumset(gap_mask)
        self._last[g] = (mask, sums)
        self.totals[g] = self.totals.get(g, 0) + 1
        if g >= 2 and sums.bit_count() > 3 * (g - 1):
            self.failures[g] = self.failures.get(g, 0) + 1
            _add_witness(self.witnesses, TreeFrame(node).gap_tuple())

    def merge(self, other: "BuchweitzCollector") -> "BuchweitzCollector":
        _add_counts(self.failures, other.failures)
        _add_counts(self.totals, other.totals)
        self.witnesses = _merge_witnesses(self.witnesses, other.witnesses)
        return self


def buchweitz_sweep(g_max: int, *,
                    workers: int = 1) -> VerificationReport:
    """Count criterion failures per genus (they are data, not violations).

    The report's violation list stays empty; failure counts and the
    lexicographically least failing gap sets appear in the stats.  The
    criterion starts at genus 2, so g_max < 2 would check nothing.
    """
    if g_max < 2:
        raise ValueError("g_max must be >= 2; the criterion needs genus >= 2")
    coll = collect(g_max, {"buchweitz": BuchweitzCollector},
                   workers=workers)["buchweitz"]
    first_failure = min(coll.failures) if coll.failures else None
    return VerificationReport(
        "buchweitz", {"g_max": g_max}, [],
        {
            "failures": {g: coll.failures[g] for g in sorted(coll.failures)},
            "totals": {g: coll.totals[g] for g in range(2, g_max + 1)},
            "first_failure_genus": first_failure,
            "witnesses": [list(w) for w in coll.witnesses[:5]],
        },
    )


# ---------------------------------------------------------------------------
# Effective-weight bound

def _gaps_precede(a: int, b: int) -> bool:
    """Whether same-genus member mask ``a`` has a lexicographically smaller
    gap tuple than ``b``: at their lowest differing bit ``a`` has the gap."""
    d = a ^ b
    return bool(b & d & -d)


class EwtMaxCollector:
    """Maximum effective weight per genus, witnessed by the least gap tuple
    among the maximisers, so the witness ignores the visiting order."""

    def __init__(self):
        self.max_by_genus: dict[int, int] = {}
        self.argmax: dict[int, tuple[int, ...]] = {}
        self.argmax_mask: dict[int, int] = {}
        self._last: dict[int, tuple[int, int]] = {}   # genus: (mask, ewt)

    def visit(self, node: tuple) -> None:
        mask, g, _, f, _, _, mg, _ = node
        last = self._last.get(g - 1)
        if last is not None and last[0] == mask | (1 << f):
            # Gap f adds the generators below it; any gained lie above f.
            ewt = last[1] + (mg & ((1 << f) - 1)).bit_count()
        else:
            ewt = TreeFrame(node).semigroup.effective_weight
        self._last[g] = (mask, ewt)
        if f < 1:
            return
        best = self.max_by_genus.get(g, -1)
        if ewt > best or (ewt == best and
                          _gaps_precede(mask, self.argmax_mask[g])):
            self.max_by_genus[g] = ewt
            self.argmax_mask[g] = mask
            self.argmax[g] = TreeFrame(node).gap_tuple()

    def merge(self, other: "EwtMaxCollector") -> "EwtMaxCollector":
        for g, v in other.max_by_genus.items():
            best = self.max_by_genus.get(g, -1)
            if v > best or (v == best and _gaps_precede(other.argmax_mask[g],
                                                        self.argmax_mask[g])):
                self.max_by_genus[g] = v
                self.argmax_mask[g] = other.argmax_mask[g]
                self.argmax[g] = other.argmax[g]
        return self


def pflueger_bound(g: int) -> int:
    return (g + 1) ** 2 // 8


def pflueger_sweep(g_max: int, *, workers: int = 1) -> VerificationReport:
    """Effective weight against floor((g+1)^2 / 8) for every genus
    1 <= g <= g_max."""
    if g_max < 1:
        raise ValueError("g_max must be >= 1; smaller bounds leave no "
                         "genus to check")
    coll = collect(g_max, {"ewt": EwtMaxCollector}, workers=workers)["ewt"]
    violations = []
    rows = []
    for g in range(1, g_max + 1):
        bound = pflueger_bound(g)
        observed = coll.max_by_genus.get(g, 0)
        rows.append((g, observed, bound))
        if observed > bound:
            gaps = coll.argmax[g]
            violations.append({"g": g, "max_ewt": observed, "bound": bound,
                               "gaps": list(gaps),
                               "generators":
                               list(NumericalSemigroup(gaps).min_generators)})
    return VerificationReport("pflueger", {"g_max": g_max}, violations,
                              {"rows": rows})


# ---------------------------------------------------------------------------
# Concentration of F/m and m/g

class ConcentrationCollector:
    """Per-genus count of (2 - eps) m < F < (2 + eps) m."""

    def __init__(self, eps: float):
        self.eps = eps
        self.a_band: dict[int, int] = {}

    def visit(self, node: tuple) -> None:
        _, g, m, f, _, _, _, _ = node
        eps = self.eps
        if (2 - eps) * m < f < (2 + eps) * m:
            self.a_band[g] = self.a_band.get(g, 0) + 1

    def merge(self, other: "ConcentrationCollector") -> "ConcentrationCollector":
        _add_counts(self.a_band, other.a_band)
        return self


def concentration_stats(table: CensusTable) -> dict[int, dict[str, float]]:
    """Per-genus fractions from a run that carried a concentration collector.

    f_over_m: (2 - eps) m < F < (2 + eps) m, from the collector; m_over_g:
    (gamma - eps) g < m < (gamma + eps) g, gamma = (5 + sqrt 5)/10; and
    two_g_lt_3m: 2g < 3m.  The last two are sums of N(m, g) cells.

    Report-only: the underlying limits are asymptotic, so nothing is
    asserted here beyond normalization.
    """
    coll = table.extras["concentration"]
    eps = coll.eps
    m_band: dict[int, int] = {}
    two_g_lt_3m: dict[int, int] = {}
    for m, g, c in table.rows_by_multiplicity():
        if (GAMMA - eps) * g < m < (GAMMA + eps) * g:
            m_band[g] = m_band.get(g, 0) + c
        if 2 * g < 3 * m:
            two_g_lt_3m[g] = two_g_lt_3m.get(g, 0) + c
    out = {}
    for g in range(table.g_max + 1):
        n = table.n(g)
        if not n:
            continue
        out[g] = {
            "f_over_m": coll.a_band.get(g, 0) / n,
            "m_over_g": m_band.get(g, 0) / n,
            "two_g_lt_3m": two_g_lt_3m.get(g, 0) / n,
        }
    return out


def concentration_sweep(g_max: int, eps: float, *,
                        workers: int = 1) -> dict[int, dict[str, float]]:
    if not eps > 0:           # NaN too: both windows would be empty
        raise ValueError("eps must be positive")
    table = enumerate_tree(
        g_max, workers=workers,
        collectors={"concentration": partial(ConcentrationCollector, eps)},
    )
    return concentration_stats(table)


# ---------------------------------------------------------------------------
# Growth ratios and monotonicity

def ratio_report(census: CensusTable) -> VerificationReport:
    """Fibonacci-style ratios of the genus census, plus monotonicity checks.

    Asserts N(g) >= N(g-1) + N(g-2) and N(g) >= N(g-1) on the covered
    range, and N(m, g) <= N(m, g+1) column by column for m <= 9.
    Emits (g, (N(g-1)+N(g-2))/N(g), N(g)/N(g-1)) rows for plotting.  The
    first checked genus is 2, so a census with g_max < 2 is rejected.
    """
    g_max = _census(census, census.g_max).g_max
    if g_max < 2:
        raise ValueError("g_max must be >= 2; smaller bounds leave no "
                         "genus to check")
    violations = []
    rows = []
    for g in range(2, g_max + 1):
        n, n1, n2 = census.n(g), census.n(g - 1), census.n(g - 2)
        rows.append((g, (n1 + n2) / n, n / n1))
        if n < n1 + n2:
            violations.append({"g": g, "issue": "N(g) < N(g-1) + N(g-2)"})
        if n < n1:
            violations.append({"g": g, "issue": "N(g) < N(g-1)"})
    for m in range(2, 10):
        for g in range(1, g_max):
            if census.n_mg(m, g) > census.n_mg(m, g + 1):
                violations.append({"m": m, "g": g,
                                   "issue": "N(m, g) > N(m, g+1)"})
    return VerificationReport(
        "bras-amoros", {"g_max": g_max, "m_max": 9}, violations,
        {"rows": rows},
    )


# ---------------------------------------------------------------------------
# Oracle agreement sweeps

def kunz_oracle_sweep(g_max: int, *, workers: int = 1) -> VerificationReport:
    """Tree counts against polytope counts for m <= 9, plus the exact m = 3
    formula for g <= 30."""
    if g_max < 1:
        raise ValueError("g_max must be >= 1; smaller bounds leave no "
                         "(m, g) cell to check")
    census = enumerate_tree(g_max, workers=workers)
    violations = []
    rows = []
    for m in range(2, 10):
        for g in range(1, g_max + 1):
            poly = count_by_polytope(m, g)
            tree_count = census.n_mg(m, g)
            rows.append((m, g, poly, tree_count, int(poly == tree_count)))
            if poly != tree_count:
                violations.append({"m": m, "g": g, "polytope": poly,
                                   "tree": tree_count})
    # The ceiling formula starts at g = 2: multiplicity 3 forces genus >= 2,
    # so N(3, 1) = 0 while the formula would give 1.
    for g in range(2, 31):
        expected = (g + 3) // 3      # ceil((g + 1) / 3)
        if count_by_polytope(3, g) != expected:
            violations.append({"m": 3, "g": g, "issue": "ceiling formula",
                               "expected": expected})
    return VerificationReport(
        "kunz-oracle", {"g_max": g_max, "m_max": 9, "formula_g_max": 30},
        violations, {"cells": len(rows), "rows": rows},
    )


def recurrence_sweep(g_max: int, *, workers: int = 1) -> VerificationReport:
    """The 2g < 3m truncation recurrence, by counts and by explicit bijection.

    Counts: N(m-1, g-1) + N(m-1, g-2) = N(m, g) for every cell with
    2g < 3m, 1 <= g <= g_max, 2 <= m <= g + 1.  Bijection: the truncation
    map itself is checked for g <= 15, where it stays cheap.
    """
    if g_max < 1:
        raise ValueError("g_max must be >= 1; smaller bounds leave no "
                         "(m, g) cell to check")
    census = enumerate_tree(g_max, workers=workers)
    violations = []
    cells = 0
    for g in range(1, g_max + 1):
        for m in range(2, g + 2):
            if 2 * g >= 3 * m:
                continue
            cells += 1
            lhs = census.n_mg(m - 1, g - 1)
            if g >= 2:
                lhs += census.n_mg(m - 1, g - 2)
            if lhs != census.n_mg(m, g):
                violations.append({"m": m, "g": g, "lhs": lhs,
                                   "rhs": census.n_mg(m, g)})
            if m >= 3 and g <= 15:
                ok, wit = recurrence_bijection_check(m, g)
                if not ok:
                    violations.extend(wit)
    return VerificationReport(
        "recurrence", {"g_max": g_max, "bijection_g_max": min(g_max, 15)},
        violations, {"cells": cells},
    )


def bounds_sweep(g_max: int, *, census: CensusTable | None = None) -> VerificationReport:
    """2 F(g) <= N(g) <= 1 + 3 * 2^(g-3) for 3 <= g <= g_max, and the
    sandwich fibonacci(g+1) = (F < 2m count) and lower bound <= t(g) <= N(g)."""
    if g_max < 1:
        raise ValueError("g_max must be >= 1; smaller bounds leave no "
                         "genus to check")
    census = _census(census, g_max)
    violations = []
    rows = []
    for g in range(1, g_max + 1):
        fib_lower = fibonacci(g + 1)
        zb = zhao_lower_bound(g)
        lower, upper = global_bounds(g) if g >= 3 else (None, "")
        rows.append((g, fib_lower, zb, census.t(g), census.n(g), upper))
        if census.f_lt_2m[g] != fib_lower:
            violations.append({"g": g, "issue": "F < 2m count != fibonacci(g+1)",
                               "count": census.f_lt_2m[g]})
        if not zb <= census.t(g) <= census.n(g):
            violations.append({"g": g, "issue": "lower bound ordering",
                               "zhao": zb, "t": census.t(g), "n": census.n(g)})
        if g >= 3 and not lower <= census.n(g) <= upper:
            violations.append({"g": g, "lower": lower,
                               "n": census.n(g), "upper": upper})
    return VerificationReport("bounds", {"g_max": g_max}, violations,
                              {"rows": rows})


# ---------------------------------------------------------------------------
# The ``sgforge verify`` names

class Sweep(NamedTuple):
    """One ``sgforge verify`` name.  ``run(bound, workers)`` returns its
    report; the bound limits the genus, or the Frobenius number for
    zhai-lemma.  ``rows`` turns the report's stats into CSV rows under
    ``headers``."""

    run: Callable[[int, int], VerificationReport]
    default_bound: int
    headers: tuple[str, ...] = ()
    rows: Callable[[dict], list] = lambda stats: stats.get("rows", [])


def _ratio_rows(stats: dict) -> list[tuple]:
    return [(g, f"{a:.6f}", f"{b:.6f}") for g, a, b in stats["rows"]]


def _buchweitz_rows(stats: dict) -> list[tuple]:
    totals, failures = stats["totals"], stats["failures"]
    return [(g, failures.get(g, 0), totals[g]) for g in sorted(totals)]


SWEEPS: dict[str, Sweep] = {
    "wilf": Sweep(lambda b, w: wilf_sweep(b, workers=w), 30,
                  ("g", "violations")),
    "ye": Sweep(lambda b, w: ye_sweep(b, workers=w), 20),
    "bras-amoros": Sweep(lambda b, w: ratio_report(enumerate_tree(b, workers=w)),
                         30, ("g", "fib_ratio", "phi_ratio"), _ratio_rows),
    "ordinarization": Sweep(lambda b, w: ordinarization_sweep(b, workers=w),
                            18, ("g", "r", "count")),
    "pflueger": Sweep(lambda b, w: pflueger_sweep(b, workers=w), 25,
                      ("g", "max_ewt", "bound")),
    "zhai-lemma": Sweep(lambda b, w: zhai_sweep(b, workers=w), 20),
    "kunz-oracle": Sweep(lambda b, w: kunz_oracle_sweep(b, workers=w), 15,
                         ("m", "g", "count_polytope", "count_tree", "match")),
    "recurrence": Sweep(lambda b, w: recurrence_sweep(b, workers=w), 18),
    "buchweitz": Sweep(lambda b, w: buchweitz_sweep(b, workers=w), 16,
                       ("g", "failures", "total"), _buchweitz_rows),
}
