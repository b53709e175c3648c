"""Exhaustive depth-first enumeration of the semigroup tree.

The tree has the trivial semigroup (every nonnegative integer) at its root;
the children of a node are obtained by removing one *effective* generator,
i.e. a minimal generator above the Frobenius number.  Nodes at depth g are
exactly the numerical semigroups of genus g, each visited once.

The walk :func:`_walk` serves all but count-only batches (:func:`_counts`);
it keeps per-node state in plain tuples on an explicit stack:

    (B, g, m, F, eff, mem, mg, strong_in)

where B is the membership bitmask over [0, 3*g_max + 3] (every bit above F
is set), eff is the sorted tuple of effective generators, mem the sorted
tuple of members up to the probes' reach (below), mg the bitmask of
minimal generators (its bit count is the embedding dimension), and
strong_in records whether the edge into this node removed a strong
generator.  The walk tallies every node below its root into a table
in its parent's loop (:func:`collect` skips it), and hands the tuple
itself to each collector.  Children with no admissible edge (at depth
g_max, or with no effective generator within the edge bound) are visited
there, never pushed.  A tally run without collectors builds no child at
depth g_max - 1 of a non-ordinary node either: its children are tallied
in the grandparent's loop.

Every run cuts the tree at the spine, the chain of ordinary semigroups
{0, m, m+1, ...}.  Removing m from one of them yields the next, and no
other edge changes the multiplicity.  :func:`_spine` builds and tallies
each ordinary node in closed form and walks it; that walk skips the edge
that removes m, visits the node's childless other children and returns
the rest, the job roots.  Each removes some lam in (m, 2m) from a spine
node, so its Frobenius number exceeds its multiplicity and no node of its
subtree is ordinary: a walk from a job root descends everywhere and
returns nothing.

Descending along lam updates everything incrementally and keeps m: the
child's minimal generators are the parent's minus lam, plus m + lam
exactly when lam is strong.  Strength of lam is the membership probe of
``core._is_strong``, which the walk inlines over mem: lam is strong
unless some member u in (m, (m + lam)/2] has m + lam - u in S.

The reach: a child's Frobenius number is the generator removed, and
F <= 2g - 1 for every semigroup of genus g >= 1, so no edge within depth
g_max removes more than lam_top = min(2*g_max - 1, lam_max).  No probe at
or below a node of multiplicity m thus reads a member past
(m + lam_top) // 2, and every node's mem is exactly its members in
(m, (m + lam_top) // 2]: the spine builds each ordinary node's tuple so,
and a child drops lam from mem only when lam lies inside it.
Each batch of consecutive job roots walks into one fresh table (unless the
run counts nothing) and fresh collectors, which the run adds and merges in
batch order, whatever the worker count; a pool needs two processes or more.
"""

from __future__ import annotations

import os
from bisect import bisect_right, insort
from contextlib import ExitStack
from operator import add
from typing import Callable, Mapping, NamedTuple, Protocol

from .core import (GeneratorTag, NumericalSemigroup, Strength, _bits,
                   _from_gap_mask)
from .errors import IncompleteCensus

_WITNESS_CAP = 20
_BATCHES_PER_PROCESS = 8


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


class TreeFrame:
    """Read-only view of one walk node: ``TreeFrame(node)``.

    Collectors receive the node tuple and build a frame only when they need
    a derived field.  The cheap fields are read off the tuple; strengths,
    the embedding dimension, gaps and ``semigroup`` are computed on demand.
    """

    __slots__ = (
        "mask",
        "genus",
        "multiplicity",
        "frobenius",
        "effective_values",
        "min_generator_mask",
        "_strong_in",
    )

    def __init__(self, node: tuple):
        (self.mask, self.genus, self.multiplicity, self.frobenius,
         self.effective_values, _, self.min_generator_mask,
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

    def gap_tuple(self) -> tuple[int, ...]:
        return _gaps_of(self.mask, self.frobenius)

    def min_generators(self) -> tuple[int, ...]:
        return tuple(_bits(self.min_generator_mask))

    @property
    def effective(self) -> list[GeneratorTag]:
        return [t for t in self.semigroup.effective_generators() if t.effective]

    @property
    def semigroup(self) -> NumericalSemigroup:
        f = self.frobenius
        return _from_gap_mask(((1 << (f + 1)) - 1) & ~self.mask)


class Collector(Protocol):
    """Per-node statistic that merges as a commutative monoid.

    ``visit`` receives the walk's node tuple ``(mask, genus, multiplicity,
    frobenius, effective_values, _members, min_generator_mask, strong_in)``;
    ``_members`` is private (None on most childless nodes), and
    ``TreeFrame(node)`` derives the rest.  The walk is pre-order: the last
    node visited at depth g - 1 is the parent of a node at depth g, except
    at the root and each job root; confirm it by ``mask | (1 << frobenius)``.
    Each ordinary node is visited after its parent's childless other
    children, and before its own.
    """

    def visit(self, node: tuple) -> None: ...

    def merge(self, other: "Collector") -> "Collector": ...


# Every counter list of a CensusTable; merging adds them pointwise.
_COUNTERS = ("n_mg_flat", "t_gh_flat", "s_gh_flat", "f_lt_2m", "f_lt_3m",
             "ns_flat", "wilf_violations")


class CensusTable:
    """Mergeable counters produced by one (sub)tree walk.

    ``n_of_g[g]`` is the number of visited semigroups of genus g; the other
    tables refine that count by multiplicity, efficacy, descent strength,
    Frobenius number, and the two Frobenius-versus-multiplicity windows
    F < 2m and F < 3m.

    The walk adds into flat lists: N(m, g) at ``n_mg_flat[m * (g_max + 1)
    + g]``, t(g, h) and its strongly descended part s(g, h) at
    ``t_gh_flat`` / ``s_gh_flat[g * (g_max + 3) + h]``, and ns(F) at
    ``ns_flat[F]``.  Read them through ``n``, ``n_mg``, ``t_gh``, ``s_gh``,
    ``t``, ``s`` and ``ns``, the list ``n_of_g``, or the ``rows_by_*``
    tables of nonzero cells.

    In a genus-bounded run ``ns()`` is exact for every F <= g_max, since
    a semigroup's genus never exceeds its Frobenius number.
    """

    def __init__(self, g_max: int, frobenius_cap: int):
        width = g_max + 1
        gh = width * (g_max + 3)              # efficacy h <= g + 1
        self.g_max = g_max
        self.frobenius_cap = frobenius_cap
        self.f_lt_2m = [0] * width
        self.f_lt_3m = [0] * width
        self.wilf_violations = [0] * width
        self.wilf_witnesses = []
        self.n_mg_flat = [0] * ((g_max + 2) * width)  # multiplicity <= g + 1
        self.t_gh_flat = [0] * gh
        self.s_gh_flat = [0] * gh
        self.ns_flat = [0] * (frobenius_cap + 1)
        self.extras = {}
        self.pruned = False       # a Frobenius bound cut some edge

    # -- accessors ---------------------------------------------------------

    @property
    def n_of_g(self) -> list[int]:
        return [self.n(g) for g in range(self.g_max + 1)]

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

    def _add(self, other: "CensusTable") -> None:
        """Add another table of the same shape in place."""
        for name in _COUNTERS:
            mine = getattr(self, name)
            mine[:] = map(add, mine, getattr(other, name))
        self.wilf_witnesses = _merge_witnesses(self.wilf_witnesses,
                                               other.wilf_witnesses)

    def counts_equal(self, other: "CensusTable") -> bool:
        return all(getattr(self, name) == getattr(other, name)
                   for name in _COUNTERS)

    # -- tabular views -----------------------------------------------------

    def rows_by_genus(self) -> list[tuple[int, int]]:
        return list(enumerate(self.n_of_g))

    def rows_by_multiplicity(self) -> list[tuple[int, int, int]]:
        width = self.g_max + 1
        return [(*divmod(i, width), c)
                for i, c in enumerate(self.n_mg_flat) if c]

    def rows_by_efficacy(self) -> list[tuple[int, int, int]]:
        hw = self.g_max + 3
        return [(*divmod(i, hw), c) for i, c in enumerate(self.t_gh_flat) if c]


def _lam_top(g_max: int, lam_max: int) -> int:
    # A child's Frobenius number is the generator removed, and F <= 2g - 1
    # for genus g >= 1, so no edge within depth g_max removes more.
    return min(2 * g_max - 1, lam_max)


def _walk(root, g_max, lam_max, table, collectors=()):
    """Tally the descendants of ``root`` into ``table`` and return the jobs.

    No edge here changes the multiplicity m: from an ordinary ``root``
    (F < m, a spine node) the walk skips the first edge, which removes m
    and which :func:`_spine` follows, and no other node is ordinary.
    Every node below ``root`` within depth g_max and edge bound lam_max is
    then tallied once, in its parent's loop (the caller tallies ``root``),
    unless ``table`` is None: one test per edge then skips the tally, not
    the jobs.  Children with no admissible edge (at depth g_max, or with
    no effective generator <= lam_max) are handed to each collector there
    and never pushed.  With a table and no collectors, neither is a child
    at depth g_max - 1 of a non-ordinary node: a second block there
    tallies its children.  An ordinary root returns, unvisited, each of
    its other children with an admissible edge: the job roots, in
    Frobenius number order.  Every other node pushes them, so a walk from
    a job root visits its whole subtree in pre-order and returns [].
    """
    tally = table is not None
    bare = tally and not collectors
    if tally:
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
    lam_top = _lam_top(g_max, lam_max)
    frontier = []
    stack = [root]
    push = stack.append
    pop = stack.pop
    while stack:
        node = pop()
        if collectors:
            for coll in collectors:
                coll.visit(node)
        B, g, m, F, eff, mem, mg, _ = node
        g1 = g + 1
        if g1 > g_max:
            continue
        h = len(eff)
        e = mg.bit_count()
        m2 = m + m
        last = g1 == g_max
        fold = bare and g1 + 1 == g_max and F > m
        top = (m + lam_top) >> 1       # the probes' reach at or below
        # An ordinary root skips removing m: _spine builds that child.
        for i in range(F < m, h):
            lam = eff[i]
            if lam > lam_max:
                break
            x = m + lam
            strong = True
            # core._is_strong, inlined and run over mem: a call per edge
            # costs ~6% of the walk, and testing every u in (m, x/2]
            # against B instead made enumerate_tree(24) 24-40% slower
            # (2 vCPUs, Python 3.11).
            for u in mem:
                if u + u > x:
                    break
                if (B >> (x - u)) & 1:
                    strong = False
                    break
            # A child at depth g_max, or with no effective generator
            # (eff[i + 1:], plus x when strong) up to lam_max, has no
            # admissible edge: it is visited here and never pushed.
            leaf = last or (not (strong and x <= lam_max)
                            and (i + 1 == h or eff[i + 1] > lam_max))
            if tally:
                # The tally block for the child (g1, m, hc, ec, F = lam): it
                # keeps eff[i + 1:] and mg but lam, plus x if strong.
                if strong:
                    hc = h - i
                    ec = e
                    sgh[g1 * hw + hc] += 1
                else:
                    hc = h - i - 1
                    ec = e - 1
                nmg[m * width + g1] += 1
                tgh[g1 * hw + hc] += 1
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
            if leaf and not collectors:
                continue
            rest = eff[i + 1:]
            if strong:
                # Minimal generators never exceed F + m < m + lam = x,
                # so x sorts after every effective generator.
                rest += (x,)
            if fold:
                # The child (hc, ec above) is at depth g_max - 1, keeps m and
                # has the members mem but lam: tally its children here and
                # build none.  Inlined: a helper called per child took back
                # part of the gain.  They are not ordinary, so they have
                # F > g_max >= ns_cap: no ns tally.
                Bc = B ^ (1 << lam)
                for i2, lam2 in enumerate(rest):
                    if lam2 > lam_max:
                        break
                    x2 = m + lam2
                    for u in mem:
                        if u + u > x2 or u != lam and (Bc >> (x2 - u)) & 1:
                            break
                    else:
                        u = x2
                    weak = u + u <= x2
                    h2 = hc - i2 - weak
                    if not weak:
                        sgh[g_max * hw + h2] += 1
                    nmg[m * width + g_max] += 1
                    tgh[g_max * hw + h2] += 1
                    if lam2 < m2:
                        f2m[g_max] += 1
                        f3m[g_max] += 1
                    elif lam2 < m2 + m:
                        f3m[g_max] += 1
                    if lam2 + 1 > (lam2 + 1 - g_max) * (ec - weak):
                        wilf_bad[g_max] += 1
                        _add_witness(wilf_wit,
                                     _gaps_of(Bc ^ (1 << lam2), lam2))
                continue
            mgc = mg ^ (1 << lam)
            if strong:
                mgc |= 1 << x
            if leaf:
                memc = None
            elif lam <= top:
                j = mem.index(lam)
                memc = mem[:j] + mem[j + 1:]
            else:
                memc = mem
            child = (B ^ (1 << lam), g1, m, lam, rest, memc, mgc, strong)
            if leaf:
                for coll in collectors:
                    coll.visit(child)
            elif F < m:
                # An ordinary node's children with an edge are job roots.
                # Tested per pushed child: a per-node test ran 1.6% more
                # bytecodes in enumerate_tree(24), this 0.4%.
                frontier.append(child)
            else:
                push(child)
    return frontier


def _spine(g_max, lam_max, table, collectors=()):
    """Tally and walk the spine; return the job roots in (depth, F) order.

    The ordinary semigroup {0, m, m+1, ...} of genus g <= min(g_max,
    lam_max) has m = h = e = g + 1, its minimal generators m .. 2m - 1,
    and F = g (-1 at the root) < 2m.  It is tallied here in closed form:
    strongly descended (the root by convention), never a Wilf violation,
    and with ns(F) for g >= 1.  Its node holds its members up to its own
    reach, and :func:`_walk` from it visits it, tallies and visits its
    childless other children, and returns the rest.
    """
    lam_top = _lam_top(g_max, lam_max)
    full = (1 << (3 * g_max + 4)) - 1
    width = g_max + 1
    hw = g_max + 3
    jobs = []
    for g in range(min(g_max, lam_max) + 1):
        m = g + 1
        if table is not None:
            table.n_mg_flat[m * width + g] += 1
            table.t_gh_flat[g * hw + m] += 1
            table.s_gh_flat[g * hw + m] += 1
            table.f_lt_2m[g] += 1
            table.f_lt_3m[g] += 1
            if g:
                table.ns_flat[g] += 1
        node = (full ^ ((1 << m) - 2), g, m, g or -1, tuple(range(m, m + m)),
                tuple(range(m + 1, ((m + lam_top) >> 1) + 1)),
                ((1 << m) - 1) << m, True)
        jobs += _walk(node, g_max, lam_max, table, collectors)
    return jobs


def _count_walk(payload):
    """Ship a table of N(m, g) and ns(F) alone below a batch of job roots,
    where m stays (no node is ordinary): strength is probed only where the
    child could remove m + lam, and depth g_max - 1 counts its leaves
    unbuilt.  No such leaf has F <= g_max, so ns(F) is exact up to the cap.
    As a mode of ``_walk`` it made ``enumerate_tree(24)`` 3-7% slower."""
    frames, g_max, lam_max, ns_cap, _ = payload
    width = g_max + 1
    lam_top = _lam_top(g_max, lam_max)
    table = CensusTable(g_max, ns_cap)
    nmg = table.n_mg_flat
    nsf = table.ns_flat = [0] * (lam_top + 1)      # cut to ns_cap below
    # eff keeps only the admissible edges: no other generator is removed.
    stack = [(B, g, m, eff[:bisect_right(eff, lam_max)], mem)
             for B, g, m, _, eff, mem, _, _ in frames]
    push = stack.append
    pop = stack.pop
    while stack:
        B, g, m, eff, mem = pop()
        g1 = g + 1
        nmg[m * width + g1] += len(eff)
        if g1 == g_max:
            continue
        top = (m + lam_top) >> 1
        for i, lam in enumerate(eff):
            nsf[lam] += 1
            x = m + lam
            rest = eff[i + 1:]
            if x <= lam_max:
                for u in mem:
                    if u + u > x or (B >> (x - u)) & 1:
                        break
                else:
                    u = x
                if u + u > x:                  # strong
                    rest += (x,)
            if rest:                           # the child has an edge
                memc = mem
                if lam <= top:
                    j = mem.index(lam)
                    memc = mem[:j] + mem[j + 1:]
                push((B ^ (1 << lam), g1, m, rest, memc))
    del nsf[ns_cap + 1:]
    return table, {}


def _subtree_job(payload):
    # Walks a batch of job roots into one fresh table, unless the run counts
    # nothing (ns_cap None), and one fresh set of collectors; ships both.
    frames, g_max, lam_max, ns_cap, factories = payload
    extras = {name: make() for name, make in factories}
    table = None if ns_cap is None else CensusTable(g_max, ns_cap)
    visitors = list(extras.values())
    for frame in frames:
        _walk(frame, g_max, lam_max, table, visitors)
    return table, extras


def _run(g_max, collectors, frobenius_max, workers, count, count_only=False):
    # Walk the spine, into a table when ``count``, then the job batches (by
    # _count_walk if count_only), merged in order; returns both.
    if g_max < 0:
        raise ValueError("g_max must be nonnegative")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    lam_max = 3 * g_max + 3 if frobenius_max is None else frobenius_max
    if lam_max < 0:
        raise ValueError("frobenius_max must be nonnegative")
    factories = sorted(collectors.items()) if collectors else []
    extras = {name: make() for name, make in factories}
    table = ns_cap = None
    if count:
        ns_cap = min(g_max, lam_max)
        table = CensusTable(g_max, ns_cap)
        table.pruned = lam_max < 2 * g_max - 1     # F <= 2g - 1 at genus g
        table.extras = extras
    frontier = _spine(g_max, lam_max, table, list(extras.values()))
    n = len(frontier)
    # os.cpu_count() also counts CPUs outside this process's affinity.
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    processes = min(workers, n, cpus)
    # Several batches per process let the pool balance subtrees of very
    # unequal size.
    batches = min(n, _BATCHES_PER_PROCESS * processes)
    jobs = [(frontier[i * n // batches:(i + 1) * n // batches], g_max,
             lam_max, ns_cap, factories) for i in range(batches)]
    job = _count_walk if count_only else _subtree_job
    with ExitStack() as scope:
        results = map(job, jobs)
        if processes > 1:
            from multiprocessing import get_context   # slow to import
            pool = scope.enter_context(get_context().Pool(processes=processes))
            # imap keeps the order, and merging overlaps the running batches.
            results = pool.imap(job, jobs)
        # Each batch ships its collectors and a table (None unless count).
        for theirs, colls in results:
            if count:
                table._add(theirs)
            for name, coll in colls.items():
                extras[name] = extras[name].merge(coll)
    return table, extras


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
    describe that restricted universe, and ``pruned`` marks a bound below
    2 * g_max - 1, which cuts some edge.  A negative bound is an error.

    Every run walks the spine from the root, then adds the tables of its
    job batches in job order.  ``workers`` decides only where the batches
    run: on a pool of min(workers, jobs, CPUs) processes when that is at
    least two, and otherwise in this process.  Witness lists keep the
    least gap tuples, so the table is the same whatever ``workers`` is.
    ``split_depth`` shapes nothing: it is range-checked and otherwise
    ignored, and stays while the benchmark and acceptance criterion 3 pass it.
    ``collectors`` maps names to zero-argument factories producing
    per-batch collector instances (module-level classes, so they survive
    pickling), merged into ``extras`` afterwards; :func:`collect` returns
    the same collectors faster when the counts are not needed.
    """
    if not 0 <= split_depth <= max(g_max, 0):
        raise ValueError("split_depth must lie in [0, g_max]")
    return _run(g_max, collectors, frobenius_max, workers, True)[0]


def collect(g_max: int, collectors: Mapping[str, Callable[[], Collector]], *,
            frobenius_max: int | None = None, workers: int = 1) -> dict:
    """``enumerate_tree(g_max, ...).extras`` for the same arguments, with
    no count: the same walk and jobs visit the same nodes in the same
    order, but no node is tallied and a batch ships only its collectors."""
    return _run(g_max, collectors, frobenius_max, workers, False)[1]


def _counts(g_max, *, workers=1, frobenius_max=None):
    """``enumerate_tree(...)``'s N(m, g) and ns(F) lists, by the count-only
    walk, never its table, whose other counters would hold the spine alone."""
    table = _run(g_max, None, frobenius_max, workers, True, count_only=True)[0]
    return table.n_mg_flat, table.ns_flat


def ns_by_frobenius(f_max: int, *, workers: int = 1) -> dict[int, int]:
    """Exact count of numerical semigroups per Frobenius number F <= f_max.

    Descending only along generators <= f_max visits exactly the semigroups
    whose Frobenius number stays within the bound, so the pruned walk is
    exhaustive for every reported F (and far smaller than a full walk to
    the same depth).  It runs the count-only walk.
    """
    if f_max < 1:
        raise ValueError("f_max must be positive")
    ns = _counts(f_max, workers=workers, frobenius_max=f_max)[1]
    return {f: ns[f] for f in range(1, f_max + 1)}


def descent_strength(parent: NumericalSemigroup, lam: int) -> Strength:
    """Classify the descent that removes ``lam`` from ``parent``.

    Computed from first principles (build the child, test whether m + lam
    is one of its minimal generators), independently of the walk's inline
    probes.
    """
    child = parent.remove_generator(lam)
    strong = (parent.multiplicity + lam) in child.min_generators
    return Strength.STRONG if strong else Strength.WEAK


class StrongCensus(NamedTuple):
    by_genus: tuple[int, ...]
    by_genus_efficacy: dict[tuple[int, int], int]
    r: dict[int, int]


def strongly_descended_census(table: CensusTable) -> StrongCensus:
    """Strong-descent counts S(g), s(g, h), and r(n) = s(2n + 1, n + 1).

    The root counts as strongly descended.  r(-1) = r(0) = 1 by convention;
    r(n) is reported for every n with 2n + 1 <= the table depth.
    """
    genera = range(table.g_max + 1)
    by_genus = tuple(table.s(g) for g in genera)
    # A genus-g node has at most g + 1 effective generators.
    by_gh = {(g, h): c for g in genera for h in range(g + 2)
             if (c := table.s_gh(g, h))}
    r = {-1: 1, 0: 1}
    r.update((n, table.s_gh(2 * n + 1, n + 1))
             for n in range(1, (table.g_max + 1) // 2))
    return StrongCensus(by_genus, by_gh, r)
