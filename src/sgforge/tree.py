"""Exhaustive depth-first enumeration of the semigroup tree.

The tree has the trivial semigroup (every nonnegative integer) at its root;
the children of a node are obtained by removing one *effective* generator,
i.e. a minimal generator above the Frobenius number.  Nodes at depth g are
exactly the numerical semigroups of genus g, each visited once.

One walk, :func:`_walk`, serves every caller.  It keeps per-node state in
plain tuples on an explicit stack:

    (B, g, m, F, eff, mem, mg, strong_in)

where B is the membership bitmask over [0, 3*g_max + 3] (every bit above F
is set), eff is the sorted tuple of effective generators, mem the sorted
tuple of members in (m, cap] used for strength probes, mg the bitmask of
minimal generators (its bit count is the embedding dimension), and
strong_in records whether the edge into this node removed a strong
generator.  The walk tallies each node straight into a
:class:`CensusTable` and, when collectors are given, hands them a lazy
:class:`TreeFrame` built from the tuple.  Without collectors, children
with no admissible edge (at depth g_max, or left with no effective
generator within the edge bound) are tallied in the parent's loop and
never materialized.

Descending along lam updates everything incrementally: the child's minimal
generators are the parent's minus lam, plus m + lam exactly when lam is
strong (plus 2m + 1 as well in the one case lam == m, which turns an
ordinary semigroup into the next ordinary semigroup).  Strength of lam
reduces to a short membership probe: m + lam must admit no decomposition
into two nonzero members avoiding lam.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass, field, replace
from multiprocessing import get_context
from operator import add
from types import MappingProxyType
from typing import Callable, Mapping, Protocol

from .core import GeneratorTag, NumericalSemigroup, Strength, _bits
from .errors import IncompleteCensus

_WITNESS_CAP = 20


def _add_witness(witnesses: list, gaps: tuple[int, ...]) -> None:
    # Witness lists hold the _WITNESS_CAP lexicographically least gap
    # tuples, sorted, so they do not depend on the visiting order.
    insort(witnesses, gaps)
    del witnesses[_WITNESS_CAP:]


def _merge_witnesses(a: list, b: list) -> list:
    return sorted(a + b)[:_WITNESS_CAP]


def _gaps_of(mask: int, frob: int) -> tuple[int, ...]:
    window = (1 << (frob + 2)) - 1 if frob >= 0 else 0
    return tuple(_bits(window & ~mask))


def _is_strong(mask: int, x: int, mem: tuple[int, ...]) -> bool:
    # x = m + lam is a minimal generator of the child unless it splits into
    # two members above m.  Neither part is lam: u <= x / 2 < lam, and
    # x - u = lam only for u = m, which mem leaves out.
    for u in mem:
        if u + u > x:
            break
        if (mask >> (x - u)) & 1:
            return False
    return True


class TreeFrame:
    """Read-only view of one node handed to collectors.

    Collectors must not mutate frames.  The cheap fields (genus,
    multiplicity, frobenius, effective values, minimal-generator mask) are
    plain ints and tuples read off the walk's node; strengths, the
    embedding dimension and ``semigroup`` are computed on demand.
    """

    __slots__ = (
        "mask",
        "genus",
        "multiplicity",
        "frobenius",
        "effective_values",
        "_members",
        "min_generator_mask",
        "_strong_in",
    )

    def __init__(self, node: tuple):
        (self.mask, self.genus, self.multiplicity, self.frobenius,
         self.effective_values, self._members, self.min_generator_mask,
         self._strong_in) = node

    @property
    def efficacy(self) -> int:
        return len(self.effective_values)

    @property
    def embedding_dimension(self) -> int:
        return self.min_generator_mask.bit_count()

    @property
    def descent(self) -> Strength | None:
        """Strength of the generator removed to reach this node; None at
        the root."""
        if self.genus == 0:
            return None
        return Strength.STRONG if self._strong_in else Strength.WEAK

    @property
    def strong_flags(self) -> tuple[bool, ...]:
        """Whether removing each effective generator is a strong descent."""
        m = self.multiplicity
        return tuple(lam == m or _is_strong(self.mask, m + lam, self._members)
                     for lam in self.effective_values)

    def gap_tuple(self) -> tuple[int, ...]:
        return _gaps_of(self.mask, self.frobenius)

    def min_generators(self) -> tuple[int, ...]:
        return tuple(_bits(self.min_generator_mask))

    @property
    def effective(self) -> list[GeneratorTag]:
        return [
            GeneratorTag(v, Strength.STRONG if s else Strength.WEAK)
            for v, s in zip(self.effective_values, self.strong_flags)
        ]

    @property
    def semigroup(self) -> NumericalSemigroup:
        return NumericalSemigroup(self.gap_tuple())


class Collector(Protocol):
    """Per-node statistic that merges as a commutative monoid.

    The walk is pre-order: the last node visited at depth g - 1 is the
    parent of a node at depth g, except at the root and each parallel job
    root.  Confirm it by its mask, ``frame.mask | (1 << frame.frobenius)``.
    """

    def visit(self, frame: TreeFrame) -> None: ...

    def merge(self, other: "Collector") -> "Collector": ...


def _cells(flat: list[int], width: int) -> Mapping[tuple[int, int], int]:
    # Nonzero cells of a row-major table, keyed (row, column) in sorted order.
    return MappingProxyType({divmod(i, width): c
                             for i, c in enumerate(flat) if c})


# Every counter list of a CensusTable; merging adds them pointwise.
_COUNTERS = ("n_mg_flat", "t_gh_flat", "s_gh_flat", "f_lt_2m", "f_lt_3m",
             "ns_flat", "wilf_violations")


@dataclass
class CensusTable:
    """Mergeable counters produced by one (sub)tree walk.

    ``n_of_g[g]`` is the number of visited semigroups of genus g; the other
    tables refine that count by multiplicity, efficacy, descent strength,
    Frobenius number, and the two Frobenius-versus-multiplicity windows
    F < 2m and F < 3m.

    The walk adds into flat lists: N(m, g) at ``n_mg_flat[m * (g_max + 1)
    + g]``, t(g, h) and its strongly descended part s(g, h) at
    ``t_gh_flat`` / ``s_gh_flat[g * (g_max + 3) + h]``, and ns(F) at
    ``ns_flat[F]``.  ``n_of_mg``, ``t_of_gh`` and ``s_of_gh`` are read-only
    dict views of their nonzero cells.  The per-genus lists ``n_of_g``,
    ``strongly_descended`` and ``ye_correction`` are derived from the
    (g, h) rows on each read.

    In a genus-bounded run ``ns()`` is exact for every F <= g_max, since
    a semigroup's genus never exceeds its Frobenius number.
    """

    g_max: int
    frobenius_cap: int
    f_lt_2m: list[int]
    f_lt_3m: list[int]
    wilf_violations: list[int]
    wilf_witnesses: list[tuple[int, ...]]
    n_mg_flat: list[int]
    t_gh_flat: list[int]
    s_gh_flat: list[int]
    ns_flat: list[int]
    extras: dict = field(default_factory=dict)

    @classmethod
    def empty(cls, g_max: int, frobenius_cap: int) -> "CensusTable":
        width = g_max + 1
        gh = width * (g_max + 3)              # efficacy h <= g + 1
        return cls(
            g_max=g_max, frobenius_cap=frobenius_cap,
            f_lt_2m=[0] * width, f_lt_3m=[0] * width,
            wilf_violations=[0] * width,
            wilf_witnesses=[],
            n_mg_flat=[0] * ((g_max + 2) * width),  # multiplicity <= g + 1
            t_gh_flat=[0] * gh, s_gh_flat=[0] * gh,
            ns_flat=[0] * (frobenius_cap + 1),
        )

    # -- accessors ---------------------------------------------------------

    @property
    def n_of_g(self) -> list[int]:
        return [self.n(g) for g in range(self.g_max + 1)]

    @property
    def strongly_descended(self) -> list[int]:
        return [self.s(g) for g in range(self.g_max + 1)]

    @property
    def ye_correction(self) -> list[int]:
        """Sum of (h - 1)(h - 2) / 2 over the genus-g nodes, the correction
        term of the exact second-order census identity.  The quadratic is
        evaluated as a polynomial, so a childless node contributes 1."""
        return [sum(c * ((h - 1) * (h - 2) >> 1)
                    for h, c in enumerate(self._row(self.t_gh_flat, g)))
                for g in range(self.g_max + 1)]

    @property
    def n_of_mg(self) -> Mapping[tuple[int, int], int]:
        return _cells(self.n_mg_flat, self.g_max + 1)

    @property
    def t_of_gh(self) -> Mapping[tuple[int, int], int]:
        return _cells(self.t_gh_flat, self.g_max + 3)

    @property
    def s_of_gh(self) -> Mapping[tuple[int, int], int]:
        return _cells(self.s_gh_flat, self.g_max + 3)

    def n(self, g: int) -> int:
        self._require(g)
        return sum(self._row(self.t_gh_flat, g))

    def n_mg(self, m: int, g: int) -> int:
        self._require(g)
        if not 0 <= m <= self.g_max + 1:
            return 0
        return self.n_mg_flat[m * (self.g_max + 1) + g]

    def t_gh(self, g: int, h: int) -> int:
        self._require(g)
        return self._gh(self.t_gh_flat, g, h)

    def t(self, g: int) -> int:
        """Count of genus-g semigroups with F < 3m."""
        self._require(g)
        return self.f_lt_3m[g]

    def s(self, g: int) -> int:
        self._require(g)
        return sum(self._row(self.s_gh_flat, g))

    def s_gh(self, g: int, h: int) -> int:
        self._require(g)
        return self._gh(self.s_gh_flat, g, h)

    def ns(self, f: int) -> int:
        if f < 1 or f > self.frobenius_cap:
            raise IncompleteCensus(
                f"ns({f}) not covered; this run is exact for F <= {self.frobenius_cap}"
            )
        return self.ns_flat[f]

    def _gh(self, flat: list[int], g: int, h: int) -> int:
        hw = self.g_max + 3
        return flat[g * hw + h] if 0 <= h < hw else 0

    def _row(self, flat: list[int], g: int) -> list[int]:
        hw = self.g_max + 3
        return flat[g * hw:(g + 1) * hw]

    def _require(self, g: int) -> None:
        if g < 0 or g > self.g_max:
            raise IncompleteCensus(
                f"genus {g} outside enumerated range 0..{self.g_max}"
            )

    # -- merging -----------------------------------------------------------

    def __iadd__(self, other: "CensusTable") -> "CensusTable":
        """Add the counts of a table from a disjoint subtree of the same run
        (same depth bound, Frobenius cap and collector names) in place."""
        if ((self.g_max, self.frobenius_cap, self.extras.keys())
                != (other.g_max, other.frobenius_cap, other.extras.keys())):
            raise ValueError("cannot merge tables from different runs")
        for name in _COUNTERS:
            mine = getattr(self, name)
            mine[:] = map(add, mine, getattr(other, name))
        self.wilf_witnesses = _merge_witnesses(self.wilf_witnesses,
                                               other.wilf_witnesses)
        for name, coll in other.extras.items():
            self.extras[name] = self.extras[name].merge(coll)
        return self

    def merge(self, other: "CensusTable") -> "CensusTable":
        """Pointwise sum of two tables from disjoint subtrees."""
        total = replace(self, extras=dict(self.extras),
                        **{name: list(getattr(self, name))
                           for name in _COUNTERS})
        total += other
        return total

    def counts_equal(self, other: "CensusTable") -> bool:
        return all(getattr(self, name) == getattr(other, name)
                   for name in _COUNTERS)

    # -- tabular views -----------------------------------------------------

    def rows_by_genus(self) -> list[tuple[int, int]]:
        return list(enumerate(self.n_of_g))

    def rows_by_multiplicity(self) -> list[tuple[int, int, int]]:
        return [(m, g, c) for (m, g), c in self.n_of_mg.items()]

    def rows_by_efficacy(self) -> list[tuple[int, int, int]]:
        return [(g, h, c) for (g, h), c in self.t_of_gh.items()]


def _member_cap(g_max: int) -> int:
    # Strength probes never look past (m + lam) / 2 <= (3*g_max + 2) / 2.
    return (3 * g_max) // 2 + 2


def _root_frame(g_max: int) -> tuple:
    full = (1 << (3 * g_max + 4)) - 1
    return (full, 0, 1, -1, (1,), tuple(range(2, _member_cap(g_max) + 1)),
            1 << 1, True)


def _walk(root, g_max, lam_max, table, collectors=(), frontier_depth=-1):
    """Tally the subtree under ``root`` into ``table``; return its frontier.

    Every node reachable within depth g_max and edge bound lam_max is
    tallied exactly once and handed to each collector as a
    :class:`TreeFrame`.  Children at depth ``frontier_depth`` are returned
    instead of visited so a driver can hand their subtrees to workers.
    Without collectors, children with no admissible edge (at depth g_max,
    or with no effective generator <= lam_max) are tallied in the parent's
    loop and never materialized, frontier children included; only the
    ordinary child is always built.
    """
    nmg = table.n_mg_flat
    tgh = table.t_gh_flat
    sgh = table.s_gh_flat
    f2m = table.f_lt_2m
    f3m = table.f_lt_3m
    nsf = table.ns_flat
    wilf_bad = table.wilf_violations
    wilf_wit = table.wilf_witnesses
    ns_cap = table.frobenius_cap
    width = g_max + 1
    hw = g_max + 3
    cap = _member_cap(g_max)
    fold = not collectors
    frontier = []
    stack = [root]
    push = stack.append
    pop = stack.pop
    while stack:
        node = pop()
        B, g, m, F, eff, mem, mg, s_in = node
        h = len(eff)
        e = mg.bit_count()
        nmg[m * width + g] += 1
        tgh[g * hw + h] += 1
        if s_in:
            sgh[g * hw + h] += 1
        m2 = m + m
        if F < m2:
            f2m[g] += 1
            f3m[g] += 1
        elif F < m2 + m:
            f3m[g] += 1
        if 0 <= F <= ns_cap:
            nsf[F] += 1
        if F >= 0 and F + 1 > (F + 1 - g) * e:
            wilf_bad[g] += 1
            _add_witness(wilf_wit, _gaps_of(B, F))
        if collectors:
            frame = TreeFrame(node)
            for coll in collectors:
                coll.visit(frame)
        g1 = g + 1
        if g1 > g_max:
            continue
        collect = g1 == frontier_depth
        last = g1 == g_max
        for i in range(h):
            lam = eff[i]
            if lam > lam_max:
                break
            if lam == m:
                # Ordinary node: removing the multiplicity itself yields the
                # next ordinary semigroup, adding generators 2m and 2m + 1.
                # There is one per level, so unlike the childless children
                # below it is never folded into this loop.
                child = (B ^ (1 << lam), g1, m + 1, lam,
                         eff[1:] + (m2, m2 + 1), mem[1:],
                         (mg ^ (1 << lam)) | (3 << m2), True)
            else:
                x = m + lam
                # _is_strong inlined: a call per edge costs ~6% of the walk.
                strong = True
                for u in mem:
                    if u + u > x:
                        break
                    if (B >> (x - u)) & 1:
                        strong = False
                        break
                # A child at depth g_max, or with no effective generator
                # (eff[i + 1:], plus x when strong) up to lam_max, has no
                # admissible edge: tally it here instead of pushing it.
                if fold and (last or not (strong and x <= lam_max)
                             and (i + 1 == h or eff[i + 1] > lam_max)):
                    hc = h - i - 1
                    ec = e - 1
                    if strong:
                        hc += 1
                        ec += 1
                    nmg[m * width + g1] += 1
                    tgh[g1 * hw + hc] += 1
                    if strong:
                        sgh[g1 * hw + hc] += 1
                    if lam < m2:
                        f2m[g1] += 1
                        f3m[g1] += 1
                    elif lam < m2 + m:
                        f3m[g1] += 1
                    if lam <= ns_cap:
                        nsf[lam] += 1
                    if lam + 1 > (lam + 1 - g1) * ec:
                        wilf_bad[g1] += 1
                        _add_witness(wilf_wit, _gaps_of(B ^ (1 << lam), lam))
                    continue
                rest = eff[i + 1:]
                mgc = mg ^ (1 << lam)
                if strong:
                    k = bisect_left(rest, x)
                    rest = rest[:k] + (x,) + rest[k:]
                    mgc |= 1 << x
                if lam <= cap:
                    j = mem.index(lam)
                    memc = mem[:j] + mem[j + 1:]
                else:
                    memc = mem
                child = (B ^ (1 << lam), g1, m, lam, rest, memc, mgc, strong)
            if collect:
                frontier.append(child)
            else:
                push(child)
    return frontier


def _spine_frontier(g_max, lam_max, table, collectors=()):
    """Tally the ordinary-semigroup spine and return its off-spine children.

    The spine is the chain of ordinary semigroups {0, m, m+1, ...}, each the
    child of the last that removes its multiplicity m.  It holds most of the
    tree's top, so the calling process walks it; every other child of a spine
    node roots one job, unless a walk without collectors tallies it here as
    childless.  Jobs run in (depth, Frobenius number) order, which starts
    the heavy shallow subtrees first.
    """
    jobs = []
    node = _root_frame(g_max)
    while node is not None:
        children = _walk(node, g_max, lam_max, table, collectors, node[1] + 1)
        m = node[2]
        node = next((c for c in children if c[3] == m), None)
        jobs.extend(c for c in children if c[3] != m)
    jobs.sort(key=lambda frame: (frame[1], frame[3]))
    return jobs


def _subtree_job(payload):
    frame, g_max, lam_max, ns_cap, factories = payload
    table = CensusTable.empty(g_max, ns_cap)
    table.extras = {name: make() for name, make in factories}
    _walk(frame, g_max, lam_max, table, list(table.extras.values()))
    return table


def enumerate_tree(
    g_max: int,
    *,
    split_depth: int = 0,
    workers: int = 1,
    collectors: Mapping[str, Callable[[], Collector]] | None = None,
    frobenius_max: int | None = None,
) -> CensusTable:
    """Visit every numerical semigroup of genus <= g_max exactly once.

    With ``frobenius_max`` set, edges removing a generator above that bound
    are pruned, restricting the visited set to semigroups whose Frobenius
    number stays within the bound; counts other than ``ns()`` then
    describe that restricted universe.

    ``workers`` > 1 runs in parallel: the calling process walks the chain
    of ordinary semigroups from the root, and each of their other children
    roots one job on a pool of ``workers`` processes, except the childless
    ones of a walk without collectors, which the calling process tallies.
    Results merge in the fixed job order and witness lists keep the least
    gap tuples, so the table is identical to a sequential run.
    ``split_depth`` shapes nothing: it is range-checked and otherwise
    ignored, and stays only while the benchmark and acceptance criterion 3
    still pass it.  ``collectors`` maps names to zero-argument factories
    producing per-worker collector instances (module-level classes, so they
    survive pickling), merged into ``extras`` afterwards.
    """
    if g_max < 0:
        raise ValueError("g_max must be nonnegative")
    if not 0 <= split_depth <= g_max:
        raise ValueError("split_depth must lie in [0, g_max]")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    lam_max = frobenius_max if frobenius_max is not None else 3 * g_max + 3
    table = CensusTable.empty(g_max, min(g_max, lam_max))
    factories = sorted(collectors.items()) if collectors else []
    table.extras = {name: make() for name, make in factories}
    made = list(table.extras.values())

    if workers == 1 or g_max == 0:
        _walk(_root_frame(g_max), g_max, lam_max, table, made)
        return table

    frontier = _spine_frontier(g_max, lam_max, table, made)
    jobs = [(frame, g_max, lam_max, table.frobenius_cap, factories)
            for frame in frontier]
    with get_context().Pool(processes=workers) as pool:
        # imap keeps the job order, and merging overlaps the running jobs.
        for sub in pool.imap(_subtree_job, jobs):
            table += sub
    return table


def ns_by_frobenius(f_max: int, *, workers: int = 1) -> dict[int, int]:
    """Exact count of numerical semigroups per Frobenius number F <= f_max.

    Descending only along generators <= f_max visits exactly the semigroups
    whose Frobenius number stays within the bound, so the pruned walk is
    exhaustive for every reported F (and far smaller than a full walk to
    the same depth).
    """
    if f_max < 1:
        raise ValueError("f_max must be positive")
    table = enumerate_tree(f_max, workers=workers, frobenius_max=f_max)
    return {f: table.ns(f) for f in range(1, f_max + 1)}


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
