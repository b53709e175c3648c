"""Exhaustive depth-first enumeration of the semigroup tree.

The tree has the trivial semigroup (every nonnegative integer) at its root;
the children of a node are obtained by removing one *effective* generator,
i.e. a minimal generator above the Frobenius number.  Nodes at depth g are
exactly the numerical semigroups of genus g, each visited once.

The walk keeps per-node state in plain tuples on an explicit stack:

    (B, g, m, F, eff, mem, e, strong_in)

where B is the membership bitmask over [0, 3*g_max + 3] (every bit above F
is set), eff is the sorted tuple of effective generators, mem the sorted
tuple of members in (m, cap] used for strength probes, e the embedding
dimension, and strong_in records whether the edge into this node removed a
strong generator.

Descending along lam updates everything incrementally: the child's minimal
generators are the parent's minus lam, plus m + lam exactly when lam is
strong (plus 2m + 1 as well in the one case lam == m, which turns an
ordinary semigroup into the next ordinary semigroup).  Strength of lam
reduces to a short membership probe: m + lam must admit no decomposition
into two nonzero members avoiding lam.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from enum import Enum
from multiprocessing import get_context
from operator import add
from typing import Callable, Mapping, Protocol

from .core import GeneratorTag, NumericalSemigroup, Strength, _bits
from .errors import IncompleteCensus, WindowOverflow

_WITNESS_CAP = 20


def _add_witness(witnesses: list, gaps: tuple[int, ...]) -> None:
    # Witness lists hold the _WITNESS_CAP lexicographically least gap
    # tuples, sorted, so they do not depend on the visiting order.
    insort(witnesses, gaps)
    del witnesses[_WITNESS_CAP:]


def _merge_witnesses(a: list, b: list) -> list:
    return sorted(a + b)[:_WITNESS_CAP]


class Descent(Enum):
    """How a node was reached from its parent."""

    STRONG = "strong"
    WEAK = "weak"
    ROOT = "root"


class TreeFrame:
    """Read-only view of one node handed to collectors.

    Collectors must not mutate frames.  The cheap fields (genus,
    multiplicity, frobenius, efficacy, ...) are plain ints and tuples;
    ``semigroup`` builds a full :class:`NumericalSemigroup` on demand.
    """

    __slots__ = (
        "mask",
        "genus",
        "multiplicity",
        "frobenius",
        "effective_values",
        "strong_flags",
        "embedding_dimension",
        "min_generator_mask",
        "parent_removed",
        "descent",
    )

    def __init__(self, mask, genus, multiplicity, frobenius, effective_values,
                 strong_flags, embedding_dimension, min_generator_mask,
                 parent_removed, descent):
        self.mask = mask
        self.genus = genus
        self.multiplicity = multiplicity
        self.frobenius = frobenius
        self.effective_values = effective_values
        self.strong_flags = strong_flags
        self.embedding_dimension = embedding_dimension
        self.min_generator_mask = min_generator_mask
        self.parent_removed = parent_removed
        self.descent = descent

    @property
    def efficacy(self) -> int:
        return len(self.effective_values)

    def gap_tuple(self) -> tuple[int, ...]:
        f = self.frobenius
        window = (1 << (f + 2)) - 1 if f >= 0 else 0
        return tuple(_bits(window & ~self.mask))

    def min_generators(self) -> tuple[int, ...]:
        return tuple(_bits(self.min_generator_mask))

    @property
    def effective(self) -> list[GeneratorTag]:
        return [
            GeneratorTag(v, True, Strength.STRONG if s else Strength.WEAK)
            for v, s in zip(self.effective_values, self.strong_flags)
        ]

    @property
    def semigroup(self) -> NumericalSemigroup:
        return NumericalSemigroup(self.gap_tuple())


class Collector(Protocol):
    """Per-node statistic that merges as a commutative monoid."""

    def visit(self, frame: TreeFrame) -> None: ...

    def merge(self, other: "Collector") -> "Collector": ...


@dataclass
class CensusTable:
    """Mergeable counters produced by one (sub)tree walk.

    ``n_of_g[g]`` is the number of visited semigroups of genus g; the other
    tables refine that count by multiplicity, efficacy, descent strength,
    Frobenius number, and the two Frobenius-versus-multiplicity windows
    F < 2m and F < 3m.  ``ye_correction[g]`` accumulates
    (h - 1)(h - 2) / 2 over the genus-g nodes, the correction term of the
    exact second-order census identity; the quadratic is evaluated as a
    polynomial, so a childless node contributes 1.

    In a genus-bounded run ``ns_of_f`` is exact for every F <= g_max, since
    a semigroup's genus never exceeds its Frobenius number.
    """

    g_max: int
    frobenius_cap: int
    n_of_g: list[int]
    n_of_mg: dict[tuple[int, int], int]
    t_of_gh: dict[tuple[int, int], int]
    strongly_descended: list[int]
    s_of_gh: dict[tuple[int, int], int]
    f_lt_2m: list[int]
    f_lt_3m: list[int]
    ye_correction: list[int]
    ns_of_f: dict[int, int]
    wilf_violations: list[int]
    wilf_witnesses: list[tuple[int, ...]]
    extras: dict = field(default_factory=dict)

    # -- accessors ---------------------------------------------------------

    def n(self, g: int) -> int:
        self._require(g)
        return self.n_of_g[g]

    def n_mg(self, m: int, g: int) -> int:
        self._require(g)
        return self.n_of_mg.get((m, g), 0)

    def t_gh(self, g: int, h: int) -> int:
        self._require(g)
        return self.t_of_gh.get((g, h), 0)

    def t(self, g: int) -> int:
        """Count of genus-g semigroups with F < 3m."""
        self._require(g)
        return self.f_lt_3m[g]

    def s(self, g: int) -> int:
        self._require(g)
        return self.strongly_descended[g]

    def s_gh(self, g: int, h: int) -> int:
        self._require(g)
        return self.s_of_gh.get((g, h), 0)

    def ns(self, f: int) -> int:
        if f < 1 or f > self.frobenius_cap:
            raise IncompleteCensus(
                f"ns({f}) not covered; this run is exact for F <= {self.frobenius_cap}"
            )
        return self.ns_of_f.get(f, 0)

    def _require(self, g: int) -> None:
        if g < 0 or g > self.g_max:
            raise IncompleteCensus(
                f"genus {g} outside enumerated range 0..{self.g_max}"
            )

    # -- merging -----------------------------------------------------------

    def merge(self, other: "CensusTable") -> "CensusTable":
        """Pointwise sum of two tables from disjoint subtrees."""
        if self.g_max != other.g_max:
            raise ValueError("cannot merge tables with different depth bounds")

        def add_dict(a, b):
            out = dict(a)
            for k, v in b.items():
                out[k] = out.get(k, 0) + v
            return out

        extras = dict(self.extras)
        for name, coll in other.extras.items():
            extras[name] = extras[name].merge(coll) if name in extras else coll
        return CensusTable(
            g_max=self.g_max,
            frobenius_cap=min(self.frobenius_cap, other.frobenius_cap),
            n_of_g=[a + b for a, b in zip(self.n_of_g, other.n_of_g)],
            n_of_mg=add_dict(self.n_of_mg, other.n_of_mg),
            t_of_gh=add_dict(self.t_of_gh, other.t_of_gh),
            strongly_descended=[a + b for a, b in zip(self.strongly_descended,
                                                      other.strongly_descended)],
            s_of_gh=add_dict(self.s_of_gh, other.s_of_gh),
            f_lt_2m=[a + b for a, b in zip(self.f_lt_2m, other.f_lt_2m)],
            f_lt_3m=[a + b for a, b in zip(self.f_lt_3m, other.f_lt_3m)],
            ye_correction=[a + b for a, b in zip(self.ye_correction,
                                                 other.ye_correction)],
            ns_of_f=add_dict(self.ns_of_f, other.ns_of_f),
            wilf_violations=[a + b for a, b in zip(self.wilf_violations,
                                                   other.wilf_violations)],
            wilf_witnesses=_merge_witnesses(self.wilf_witnesses,
                                            other.wilf_witnesses),
            extras=extras,
        )

    def counts_equal(self, other: "CensusTable") -> bool:
        return (
            self.n_of_g == other.n_of_g
            and self.n_of_mg == other.n_of_mg
            and self.t_of_gh == other.t_of_gh
            and self.strongly_descended == other.strongly_descended
            and self.s_of_gh == other.s_of_gh
            and self.f_lt_2m == other.f_lt_2m
            and self.f_lt_3m == other.f_lt_3m
            and self.ye_correction == other.ye_correction
            and self.ns_of_f == other.ns_of_f
            and self.wilf_violations == other.wilf_violations
        )

    # -- tabular views -----------------------------------------------------

    def rows_by_genus(self) -> list[tuple[int, int]]:
        return [(g, self.n_of_g[g]) for g in range(self.g_max + 1)]

    def rows_by_multiplicity(self) -> list[tuple[int, int, int]]:
        return [(m, g, c) for (m, g), c in sorted(self.n_of_mg.items())]

    def rows_by_efficacy(self) -> list[tuple[int, int, int]]:
        return [(g, h, c) for (g, h), c in sorted(self.t_of_gh.items())]

    def rows_by_frobenius(self) -> list[tuple[int, int]]:
        return [(f, self.ns_of_f.get(f, 0))
                for f in range(1, self.frobenius_cap + 1)]


class _Tallies:
    """Flat mutable counters used inside the hot loop."""

    def __init__(self, g_max: int, ns_cap: int):
        self.g_max = g_max
        self.ns_cap = ns_cap
        width = g_max + 1
        self.hw = g_max + 3          # efficacy stride (h <= g + 1)
        self.ng = [0] * width
        self.nmg = [0] * ((g_max + 2) * width)   # index m * width + g
        self.tgh = [0] * (width * self.hw)        # index g * hw + h
        self.sgh = [0] * (width * self.hw)
        self.sg = [0] * width
        self.f2m = [0] * width
        self.f3m = [0] * width
        self.yc = [0] * width
        self.nsf = [0] * (ns_cap + 1)
        self.wilf_bad = [0] * width
        self.wilf_wit = []

    def iadd(self, other: "_Tallies") -> None:
        for name in ("ng", "nmg", "tgh", "sgh", "sg", "f2m", "f3m", "yc",
                     "nsf", "wilf_bad"):
            mine = getattr(self, name)
            mine[:] = map(add, mine, getattr(other, name))
        self.wilf_wit = _merge_witnesses(self.wilf_wit, other.wilf_wit)

    def to_table(self, extras=None) -> CensusTable:
        width = self.g_max + 1
        hw = self.hw
        nmg = {}
        for idx, c in enumerate(self.nmg):
            if c:
                nmg[(idx // width, idx % width)] = c
        tgh = {}
        sgh = {}
        for idx, c in enumerate(self.tgh):
            if c:
                tgh[(idx // hw, idx % hw)] = c
        for idx, c in enumerate(self.sgh):
            if c:
                sgh[(idx // hw, idx % hw)] = c
        return CensusTable(
            g_max=self.g_max,
            frobenius_cap=self.ns_cap,
            n_of_g=list(self.ng),
            n_of_mg=nmg,
            t_of_gh=tgh,
            strongly_descended=list(self.sg),
            s_of_gh=sgh,
            f_lt_2m=list(self.f2m),
            f_lt_3m=list(self.f3m),
            ye_correction=list(self.yc),
            ns_of_f={f: c for f, c in enumerate(self.nsf) if c},
            wilf_violations=list(self.wilf_bad),
            wilf_witnesses=list(self.wilf_wit),
            extras=extras or {},
        )


def _member_cap(g_max: int) -> int:
    # Strength probes never look past (m + lam) / 2 <= (3*g_max + 2) / 2.
    return (3 * g_max) // 2 + 2


def _root_frame(g_max: int) -> tuple:
    x = 3 * g_max + 3
    full = (1 << (x + 1)) - 1
    return (full, 0, 1, -1, (1,), tuple(range(2, _member_cap(g_max) + 1)), 1, True)


def _gaps_of(mask: int, frob: int) -> tuple[int, ...]:
    window = (1 << (frob + 2)) - 1 if frob >= 0 else 0
    return tuple(_bits(window & ~mask))


def _walk_fast(root, g_max, lam_max, tallies, frontier_depth=-1):
    """Count-only walk; returns frontier frames when frontier_depth >= 0.

    Children at depth ``frontier_depth`` are collected instead of visited so
    a driver can hand their subtrees to workers; every other node reachable
    within depth g_max and edge bound lam_max is tallied exactly once.
    Child statistics at depth g_max are folded into the parent's loop so
    leaf tuples are never materialized.
    """
    ng = tallies.ng
    nmg = tallies.nmg
    tgh = tallies.tgh
    sgh = tallies.sgh
    sg = tallies.sg
    f2m = tallies.f2m
    f3m = tallies.f3m
    yc = tallies.yc
    nsf = tallies.nsf
    wilf_bad = tallies.wilf_bad
    wilf_wit = tallies.wilf_wit
    ns_cap = tallies.ns_cap
    width = g_max + 1
    hw = tallies.hw
    cap = _member_cap(g_max)
    frontier = []
    stack = [root]
    push = stack.append
    pop = stack.pop
    while stack:
        B, g, m, F, eff, mem, e, s_in = pop()
        h = len(eff)
        ng[g] += 1
        nmg[m * width + g] += 1
        tgh[g * hw + h] += 1
        if s_in:
            sg[g] += 1
            sgh[g * hw + h] += 1
        m2 = m + m
        if F < m2:
            f2m[g] += 1
            f3m[g] += 1
        elif F < m2 + m:
            f3m[g] += 1
        yc[g] += (h - 1) * (h - 2) >> 1
        if 0 <= F <= ns_cap:
            nsf[F] += 1
        if F >= 0 and F + 1 > (F + 1 - g) * e:
            wilf_bad[g] += 1
            _add_witness(wilf_wit, _gaps_of(B, F))
        g1 = g + 1
        if g1 > g_max:
            continue
        collect = g1 == frontier_depth
        leaf = g1 == g_max and not collect
        for i in range(h):
            lam = eff[i]
            if lam > lam_max:
                break
            if lam == m:
                # Ordinary node: removing the multiplicity itself yields the
                # next ordinary semigroup, adding generators 2m and 2m + 1.
                if leaf:
                    hc = h + 1
                    ng[g1] += 1
                    nmg[(m + 1) * width + g1] += 1
                    tgh[g1 * hw + hc] += 1
                    sg[g1] += 1
                    sgh[g1 * hw + hc] += 1
                    f2m[g1] += 1
                    f3m[g1] += 1
                    yc[g1] += (hc - 1) * (hc - 2) >> 1
                    if lam <= ns_cap:
                        nsf[lam] += 1
                    continue
                child = (B ^ (1 << lam), g1, m + 1, lam,
                         eff[1:] + (m2, m2 + 1), mem[1:], e + 1, True)
                if collect:
                    frontier.append(child)
                else:
                    push(child)
                continue
            x = m + lam
            strong = True
            for u in mem:
                if u + u > x:
                    break
                if (B >> (x - u)) & 1:
                    strong = False
                    break
            if leaf:
                hc = h - i - 1
                ec = e - 1
                if strong:
                    hc += 1
                    ec += 1
                ng[g1] += 1
                nmg[m * width + g1] += 1
                tgh[g1 * hw + hc] += 1
                if strong:
                    sg[g1] += 1
                    sgh[g1 * hw + hc] += 1
                if lam < m2:
                    f2m[g1] += 1
                    f3m[g1] += 1
                elif lam < m2 + m:
                    f3m[g1] += 1
                yc[g1] += (hc - 1) * (hc - 2) >> 1
                if lam <= ns_cap:
                    nsf[lam] += 1
                if lam + 1 > (lam + 1 - g1) * ec:
                    wilf_bad[g1] += 1
                    _add_witness(wilf_wit, _gaps_of(B ^ (1 << lam), lam))
                continue
            rest = eff[i + 1:]
            if strong:
                lo = 0
                hi = len(rest)
                while lo < hi:
                    mid = (lo + hi) >> 1
                    if rest[mid] < x:
                        lo = mid + 1
                    else:
                        hi = mid
                rest = rest[:lo] + (x,) + rest[lo:]
            if lam <= cap:
                j = 0
                while mem[j] != lam:
                    j += 1
                memc = mem[:j] + mem[j + 1:]
            else:
                memc = mem
            child = (B ^ (1 << lam), g1, m, lam, rest, memc,
                     e - 1 + (1 if strong else 0), strong)
            if collect:
                frontier.append(child)
            else:
                push(child)
    return frontier


def _walk_rich(root, g_max, lam_max, tallies, collectors, frontier_depth=-1):
    """Walk that builds a TreeFrame per node and feeds every collector.

    Same visitation set and tallies as :func:`_walk_fast`, with strengths
    computed for every node's effective generators (leaves included) so
    frames carry complete tags.  Stack entries extend the fast tuples with
    the minimal-generator mask and the descent kind.  Used by the
    conjecture sweeps, which run at depths where the extra cost is benign.
    """
    t = tallies
    width = g_max + 1
    hw = t.hw
    ns_cap = t.ns_cap
    cap = _member_cap(g_max)
    coll_list = list(collectors.values())
    frontier = []
    stack = [root]
    while stack:
        entry = stack.pop()
        B, g, m, F, eff, mem, e, s_in, mg_mask, descent = entry
        if g == frontier_depth:
            frontier.append(entry)
            continue
        h = len(eff)
        m2 = m + m
        flags = []
        for lam in eff:
            if lam == m:
                flags.append(True)
                continue
            x = m + lam
            strong = True
            for u in mem:
                if u + u > x:
                    break
                if (B >> (x - u)) & 1:
                    strong = False
                    break
            flags.append(strong)
        flags = tuple(flags)

        t.ng[g] += 1
        t.nmg[m * width + g] += 1
        t.tgh[g * hw + h] += 1
        if s_in:
            t.sg[g] += 1
            t.sgh[g * hw + h] += 1
        if F < m2:
            t.f2m[g] += 1
            t.f3m[g] += 1
        elif F < m2 + m:
            t.f3m[g] += 1
        t.yc[g] += (h - 1) * (h - 2) >> 1
        if 0 <= F <= ns_cap:
            t.nsf[F] += 1
        if F >= 0 and F + 1 > (F + 1 - g) * e:
            t.wilf_bad[g] += 1
            _add_witness(t.wilf_wit, _gaps_of(B, F))

        if coll_list:
            frame = TreeFrame(B, g, m, F, eff, flags, e, mg_mask,
                              None if descent is Descent.ROOT else F, descent)
            for coll in coll_list:
                coll.visit(frame)

        g1 = g + 1
        if g1 > g_max:
            continue
        for i in range(h):
            lam = eff[i]
            if lam > lam_max:
                break
            if lam == m:
                child_mg = (mg_mask ^ (1 << lam)) | (1 << m2) | (1 << (m2 + 1))
                stack.append((B ^ (1 << lam), g1, m + 1, lam,
                              eff[1:] + (m2, m2 + 1), mem[1:], e + 1, True,
                              child_mg, Descent.STRONG))
                continue
            strong = flags[i]
            x = m + lam
            rest = eff[i + 1:]
            child_mg = mg_mask ^ (1 << lam)
            if strong:
                child_mg |= 1 << x
                lo = 0
                hi = len(rest)
                while lo < hi:
                    mid = (lo + hi) >> 1
                    if rest[mid] < x:
                        lo = mid + 1
                    else:
                        hi = mid
                rest = rest[:lo] + (x,) + rest[lo:]
            if lam <= cap:
                j = 0
                while mem[j] != lam:
                    j += 1
                memc = mem[:j] + mem[j + 1:]
            else:
                memc = mem
            stack.append((B ^ (1 << lam), g1, m, lam, rest, memc,
                          e - 1 + (1 if strong else 0), strong,
                          child_mg, Descent.STRONG if strong else Descent.WEAK))
    return frontier


def _rich_root(g_max: int) -> tuple:
    root = _root_frame(g_max)
    mg_mask = 0
    for v in root[4]:
        mg_mask |= 1 << v
    return root + (mg_mask, Descent.ROOT)


def _spine_frontier(g_max, lam_max, tallies, collectors=None):
    """Tally the ordinary-semigroup spine and return its off-spine children.

    The spine is the chain of ordinary semigroups {0, m, m+1, ...}, each the
    child of the last that removes its multiplicity m.  It holds most of the
    tree's top, so the calling process walks it; every other child of a spine
    node roots one job.  Jobs run in (depth, Frobenius number) order, which
    starts the heavy shallow subtrees first.
    """
    jobs = []
    node = _root_frame(g_max) if collectors is None else _rich_root(g_max)
    while node is not None:
        depth = node[1] + 1
        if collectors is None:
            children = _walk_fast(node, g_max, lam_max, tallies, depth)
        else:
            children = _walk_rich(node, g_max, lam_max, tallies, collectors,
                                  depth)
        m = node[2]
        node = next((c for c in children if c[3] == m), None)
        jobs.extend(c for c in children if c[3] != m)
    jobs.sort(key=lambda frame: (frame[1], frame[3]))
    return jobs


def _subtree_job(payload):
    frame, g_max, lam_max, ns_cap, factories = payload
    tallies = _Tallies(g_max, ns_cap)
    if factories:
        collectors = {name: make() for name, make in factories}
        _walk_rich(frame, g_max, lam_max, tallies, collectors)
        return tallies, collectors
    _walk_fast(frame, g_max, lam_max, tallies)
    return tallies, None


def enumerate_tree(
    g_max: int,
    *,
    split_depth: int = 0,
    workers: int = 1,
    collectors: Mapping[str, Callable[[], Collector]] | None = None,
    frobenius_max: int | None = None,
    window_bits: int | None = None,
) -> CensusTable:
    """Visit every numerical semigroup of genus <= g_max exactly once.

    With ``frobenius_max`` set, edges removing a generator above that bound
    are pruned, restricting the visited set to semigroups whose Frobenius
    number stays within the bound; counts other than ``ns_of_f`` then
    describe that restricted universe.

    ``split_depth`` > 0 with ``workers`` > 1 runs in parallel; the value of
    ``split_depth`` only switches this on.  The calling process walks the
    chain of ordinary semigroups from the root, and each of their other
    children roots one job on a pool of ``workers`` processes.  Results merge
    in the fixed job order and witness lists keep the least gap tuples, so
    the table is identical to a sequential run.  ``collectors`` maps names to
    zero-argument factories producing per-worker collector instances
    (module-level classes, so they survive pickling), merged into ``extras``
    afterwards.
    """
    if g_max < 0:
        raise ValueError("g_max must be nonnegative")
    if not 0 <= split_depth <= g_max:
        raise ValueError("split_depth must lie in [0, g_max]")
    if window_bits is not None and window_bits < 3 * g_max + 4:
        raise WindowOverflow(
            f"need {3 * g_max + 4} window bits for depth {g_max}, got {window_bits}"
        )
    lam_max = frobenius_max if frobenius_max is not None else 3 * g_max + 3
    ns_cap = min(g_max, lam_max)
    factories = sorted(collectors.items()) if collectors else None
    tallies = _Tallies(g_max, ns_cap)

    if split_depth == 0 or workers <= 1 or g_max == 0:
        if factories:
            made = {name: make() for name, make in factories}
            _walk_rich(_rich_root(g_max), g_max, lam_max, tallies, made)
            return tallies.to_table(made)
        _walk_fast(_root_frame(g_max), g_max, lam_max, tallies)
        return tallies.to_table()

    seq_extras = ({name: make() for name, make in factories} if factories
                  else None)
    frontier = _spine_frontier(g_max, lam_max, tallies, seq_extras)

    jobs = [(frame, g_max, lam_max, ns_cap, factories) for frame in frontier]
    merged_extras = seq_extras
    with get_context().Pool(processes=workers) as pool:
        # imap keeps the job order, and merging overlaps the running jobs.
        for sub_tallies, sub_coll in pool.imap(_subtree_job, jobs):
            tallies.iadd(sub_tallies)
            if sub_coll is not None:
                for name, coll in sub_coll.items():
                    merged_extras[name] = merged_extras[name].merge(coll)
    return tallies.to_table(merged_extras)


def ns_by_frobenius(f_max: int, *, split_depth: int = 0,
                    workers: int = 1) -> dict[int, int]:
    """Exact count of numerical semigroups per Frobenius number F <= f_max.

    Descending only along generators <= f_max visits exactly the semigroups
    whose Frobenius number stays within the bound, so the pruned walk is
    exhaustive for every reported F (and far smaller than a full walk to
    the same depth).
    """
    if f_max < 1:
        raise ValueError("f_max must be positive")
    table = enumerate_tree(f_max, split_depth=split_depth, workers=workers,
                           frobenius_max=f_max)
    return {f: table.ns_of_f.get(f, 0) for f in range(1, f_max + 1)}


def descent_strength(parent, lam: int) -> Strength:
    """Classify the descent that removes ``lam`` from ``parent``.

    ``parent`` may be a :class:`NumericalSemigroup` or a :class:`TreeFrame`.
    Computed from first principles (build the child, test whether m + lam
    is one of its minimal generators), independently of the walk's inline
    probes.
    """
    sg = parent.semigroup if isinstance(parent, TreeFrame) else parent
    child = sg.remove_generator(lam)
    strong = (sg.multiplicity + lam) in child.min_generators
    return Strength.STRONG if strong else Strength.WEAK


@dataclass(frozen=True)
class StrongCensus:
    by_genus: tuple[int, ...]
    by_genus_efficacy: dict[tuple[int, int], int]
    r: dict[int, int]


def strongly_descended_census(table: CensusTable,
                              g_upto: int | None = None) -> StrongCensus:
    """Strong-descent counts S(g), s(g, h), and r(n) = s(2n + 1, n + 1).

    The root counts as strongly descended.  r(-1) = r(0) = 1 by convention;
    r(n) is reported for every n with 2n + 1 <= the table depth.
    """
    if g_upto is None:
        g_upto = table.g_max
    if g_upto > table.g_max:
        raise IncompleteCensus(f"table stops at genus {table.g_max}")
    by_genus = tuple(table.strongly_descended[: g_upto + 1])
    by_gh = {(g, h): c for (g, h), c in table.s_of_gh.items() if g <= g_upto}
    r = {-1: 1, 0: 1}
    n = 1
    while 2 * n + 1 <= g_upto:
        r[n] = by_gh.get((2 * n + 1, n + 1), 0)
        n += 1
    return StrongCensus(by_genus, by_gh, r)
