"""References the benchmark checks sgforge against.

Nothing here imports sgforge or reuses its algorithms: the census rows are
published OEIS values, and single semigroups are rebuilt from their Apéry
sets (least member per residue class of the multiplicity, found by a
shortest-path search over residues), not from membership bitmasks.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

# OEIS A007323: number of numerical semigroups of genus g, for g = 0..30.
# The row sums to 14,396,338, the node count of the genus-30 tree walk.
A007323 = (
    1, 1, 2, 4, 7, 12, 23, 39, 67, 118, 204, 343, 592, 1001, 1693, 2857,
    4806, 8045, 13467, 22464, 37396, 62194, 103246, 170963, 282828, 467224,
    770832, 1270267, 2091030, 3437839, 5646773,
)

# OEIS A124506: number of numerical semigroups with Frobenius number F,
# for F = 1..32.
A124506 = (
    1, 1, 2, 2, 5, 4, 11, 10, 21, 22, 51, 40, 106, 103, 200, 205, 465, 405,
    961, 900, 1828, 1913, 4096, 3578, 8273, 8175, 16132, 16267, 34903, 31822,
    70854, 68681,
)


def genus_row(g_max: int) -> list[int]:
    """N(0), ..., N(g_max) from the published row."""
    if g_max >= len(A007323):
        raise ValueError(f"the A007323 pin stops at genus {len(A007323) - 1}")
    return list(A007323[: g_max + 1])


def frobenius_row(f_max: int) -> list[int]:
    """ns(1), ..., ns(f_max) from the published row."""
    if f_max > len(A124506):
        raise ValueError(f"the A124506 pin stops at F = {len(A124506)}")
    return list(A124506[:f_max])


def walk_nodes(g_max: int) -> int:
    """Nodes a genus-bounded walk visits: every semigroup of genus <= g_max."""
    return sum(genus_row(g_max))


def pruned_nodes(f_max: int) -> int:
    """Nodes a Frobenius-pruned walk visits: the root (F = -1) plus every
    semigroup with 1 <= F <= f_max (their genus never exceeds F)."""
    return 1 + sum(frobenius_row(f_max))


def fibonacci(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def zhai_cells(f_max: int) -> int:
    """(m, F) classes with 2 <= m < F <= f_max and m not dividing F."""
    return sum(1 for f in range(2, f_max + 1) for m in range(2, f) if f % m)


@dataclass(frozen=True)
class Reference:
    """Invariants of one semigroup, derived from its Apéry set."""

    multiplicity: int
    frobenius: int
    genus: int
    gaps: tuple[int, ...]
    min_generators: tuple[int, ...]
    kunz: tuple[int, ...]
    weight: int
    ewt: int
    effective: tuple[tuple[int, bool], ...]   # (generator, strong)


def _apery(gens: tuple[int, ...]) -> list[int]:
    m = min(gens)
    dist = [None] * m
    heap = [(0, 0)]
    while heap:
        d, r = heapq.heappop(heap)
        if dist[r] is not None:
            continue
        dist[r] = d
        for n in gens:
            s = (r + n) % m
            if dist[s] is None:
                heapq.heappush(heap, (d + n, s))
    if any(d is None for d in dist):
        raise ValueError(f"generators {gens} have a common factor")
    return dist


def _is_sum(ap: list[int], r: int) -> bool:
    """Whether ap[r] is a sum of two nonzero Apéry elements."""
    m = len(ap)
    x = ap[r]
    for i in range(1, m):
        j = (r - i) % m
        if j and ap[i] + ap[j] == x:
            return True
    return False


def reference(gens: tuple[int, ...]) -> Reference:
    """Invariants of the semigroup generated by ``gens`` (multiplicity >= 2)."""
    ap = _apery(gens)
    m = len(ap)
    gaps = sorted(x for r in range(1, m) for x in range(r, ap[r], m))
    frob = max(ap) - m
    mingens = sorted([m] + [ap[r] for r in range(1, m) if not _is_sum(ap, r)])
    effective = []
    for lam in mingens:
        if lam <= frob:
            continue
        if lam == m:
            # Ordinary semigroup: the child keeps 2m as a minimal generator.
            effective.append((lam, True))
            continue
        # Removing lam moves its residue's least member up by m.
        r = lam % m
        child = list(ap)
        child[r] = lam + m
        effective.append((lam, not _is_sum(child, r)))
    return Reference(
        multiplicity=m,
        frobenius=frob,
        genus=len(gaps),
        gaps=tuple(gaps),
        min_generators=tuple(mingens),
        kunz=tuple((ap[r] - r) // m for r in range(1, m)),
        weight=sum(l - i for i, l in enumerate(gaps, start=1)),
        ewt=sum(sum(1 for n in mingens if n < l) for l in gaps),
        effective=tuple(effective),
    )
