"""Kunz coordinates: the lattice-point view of fixed-multiplicity counting.

A multiplicity-m semigroup is determined by the least member in each
nonzero residue class mod m, written k_i * m + i; the vector (k_1, ...,
k_{m-1}) of positive integers satisfies a superadditivity system, and every
integer solution of the system arises this way.  Slicing by coordinate sum
g therefore counts N(m, g) without touching the semigroup tree, giving an
oracle that is completely independent of the tree walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .core import NumericalSemigroup, _from_gap_mask, _positive_ints
from .errors import (DimensionMismatch, InvalidKunz, MultiplicityOne,
                     PreconditionViolated)


@dataclass(frozen=True)
class KunzVector:
    """Coordinates (k_1, ..., k_{m-1}) of a multiplicity-m semigroup."""

    m: int
    coords: tuple[int, ...]

    def __post_init__(self):
        if self.m < 2:
            raise MultiplicityOne("Kunz coordinates need multiplicity >= 2")
        if len(self.coords) != self.m - 1:
            raise DimensionMismatch(
                f"multiplicity {self.m} needs {self.m - 1} coordinates, "
                f"got {len(self.coords)}"
            )

    @property
    def genus(self) -> int:
        return sum(self.coords)

    def apery(self) -> list[int]:
        return [0] + [k * self.m + i for i, k in enumerate(self.coords, start=1)]


def kunz_vector(sg: NumericalSemigroup) -> KunzVector:
    """Read the coordinates off the least-member-per-residue table."""
    m = sg.multiplicity
    if m < 2:
        raise MultiplicityOne("the trivial semigroup has no Kunz vector")
    ap = sg.apery_set(m)
    return KunzVector(m, tuple((ap[i] - i) // m for i in range(1, m)))


def satisfies_kunz(m: int, coords: Sequence[int]) -> bool:
    """True iff the vector solves the multiplicity-m inequality system.

    Each k_i is an int (not a bool) and k_i >= 1, and the Apéry elements
    w_0 = 0, w_i = k_i * m + i satisfy w_i + w_j >= w_((i + j) mod m); that
    is k_i + k_j >= k_{i+j} when i + j < m and k_i + k_j + 1 >= k_{i+j-m}
    when i + j > m.  :class:`KunzVector` checks m and the length.
    """
    vec = KunzVector(m, tuple(coords))
    if not _positive_ints(list(vec.coords)):
        return False
    w = vec.apery() * 2           # w[i + j] is w_((i + j) mod m)
    for i in range(1, m):
        wi = w[i]
        for j in range(i, m):
            if wi + w[j] < w[i + j]:
                return False
    return True


def semigroup_from_kunz(m: int, coords: Sequence[int]) -> NumericalSemigroup:
    """Rebuild the semigroup whose least members per residue are k_i*m + i."""
    if not satisfies_kunz(m, coords):
        raise InvalidKunz(f"({m}, {tuple(coords)}) violates the inequality system")
    # Residue i holds the k_i gaps i, i + m, ..., i + (k_i - 1) m, and
    # sum(2**(j*m) for j < k) == (2**(k*m) - 1) // (2**m - 1).
    row = (1 << m) - 1
    return _from_gap_mask(sum(((1 << (k * m)) - 1) // row << i
                              for i, k in enumerate(coords, start=1)))


def kunz_vectors(m: int, g: int) -> Iterator[tuple[int, ...]]:
    """All Kunz vectors of multiplicity m and genus g, lexicographically.

    Backtracks over k_1, k_2, ... with the partial-sum bound and every
    inequality whose three indices are already assigned checked as early
    as possible; the full system holds for every emitted vector.
    """
    if m < 2:
        raise MultiplicityOne("multiplicity must be at least 2")
    if g < 1:
        return
    n = m - 1
    k = [0] * (n + 1)             # 1-based

    def extend(pos: int, remaining: int) -> Iterator[tuple[int, ...]]:
        if pos > n:
            if remaining == 0:
                yield tuple(k[1:])
            return
        # Each later coordinate needs at least 1.
        hi = remaining - (n - pos)
        if hi < 1:
            return
        # Superadditivity caps k_pos once both halves are known.
        for i in range(1, pos // 2 + 1):
            cap = k[i] + k[pos - i]
            if cap < hi:
                hi = cap
        lo = 1
        # Wraparound constraints with j == pos give lower bounds:
        # k_i + k_pos + 1 >= k_{i+pos-m} for i + pos > m, i < pos.
        for i in range(max(1, m - pos + 1), pos):
            need = k[i + pos - m] - k[i] - 1
            if need > lo:
                lo = need
        for v in range(lo, hi + 1):
            k[pos] = v
            # i == pos puts k_pos on both sides: 2*k_pos + 1 >= k_{2pos-m}.
            if 2 * pos > m and 2 * v + 1 < k[2 * pos - m]:
                continue
            yield from extend(pos + 1, remaining - v)
        k[pos] = 0

    yield from extend(1, g)


def count_by_polytope(m: int, g: int) -> int:
    """N(m, g) by filtered lattice-point enumeration on the genus slice."""
    return sum(1 for _ in kunz_vectors(m, g))


def recurrence_bijection_check(m: int, g: int) -> tuple[bool, list[dict]]:
    """Verify that dropping the last coordinate maps the (m, g) slice
    bijectively onto the (m-1, g-1) and (m-1, g-2) slices combined.

    Only valid when 2g < 3m; outside that range the map need not even land
    in the target set.  Returns (ok, witnesses); each witness records a
    vector whose image misbehaves, or a target vector never hit.
    """
    if m < 3:
        raise PreconditionViolated("need m >= 3 so truncation leaves a vector")
    if 2 * g >= 3 * m:
        raise PreconditionViolated(f"need 2g < 3m, got g={g}, m={m}")
    source = list(kunz_vectors(m, g))
    targets = set(kunz_vectors(m - 1, g - 1)) | set(kunz_vectors(m - 1, g - 2))
    witnesses: list[dict] = []
    seen: dict[tuple[int, ...], tuple[int, ...]] = {}
    for vec in source:
        img = vec[:-1]
        if img not in targets:
            witnesses.append({"kind": "image-outside-target", "m": m, "g": g,
                              "vector": list(vec)})
        if img in seen:
            witnesses.append({"kind": "collision", "m": m, "g": g,
                              "vector": list(vec), "other": list(seen[img])})
        seen[img] = vec
    for img in targets - set(seen):
        witnesses.append({"kind": "never-hit", "m": m, "g": g,
                          "target": list(img)})
    return not witnesses, witnesses
