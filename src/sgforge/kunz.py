"""Kunz coordinates: the lattice-point view of fixed-multiplicity counting.

A multiplicity-m semigroup is determined by the least member in each
nonzero residue class mod m, written k_i * m + i; the vector (k_1, ...,
k_{m-1}) of positive integers satisfies a superadditivity system, and every
integer solution of the system arises this way.  Slicing by coordinate sum
g counts N(m, g) without the semigroup tree: one flat backtracking loop,
:func:`kunz_vectors`, yields the slice, an oracle independent of the walk.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Sequence

from .core import NumericalSemigroup, _from_gap_mask, _positive_ints
from .errors import (DimensionMismatch, InvalidKunz, MultiplicityOne,
                     PreconditionViolated)


class KunzVector(NamedTuple("KunzVector", [("m", int),
                                             ("coords", tuple[int, ...])])):
    """Coordinates (k_1, ..., k_{m-1}) of a multiplicity-m semigroup."""

    __slots__ = ()

    def __new__(cls, m: int, coords: tuple[int, ...]):
        if m < 2:
            raise MultiplicityOne("Kunz coordinates need multiplicity >= 2")
        if len(coords) != m - 1:
            raise DimensionMismatch(
                f"multiplicity {m} needs {m - 1} coordinates, "
                f"got {len(coords)}"
            )
        return super().__new__(cls, m, coords)

    @classmethod
    def _make(cls, values):
        # _replace builds its copy here: keep it on the checked path.
        return cls(*values)

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
    return KunzVector(m, sg._kunz_coords())


def satisfies_kunz(m: int, coords: Sequence[int]) -> bool:
    """True iff the vector solves the multiplicity-m inequality system.

    Each k_i is an int (not a bool) and k_i >= 1, and the Apéry elements
    w_0 = 0, w_i = k_i * m + i satisfy w_i + w_j >= w_((i + j) mod m); that
    is k_i + k_j >= k_{i+j} when i + j < m and k_i + k_j + 1 >= k_{i+j-m}
    when i + j > m.  :class:`KunzVector` checks m and the length.
    """
    vec = KunzVector(m, tuple(coords))
    if not _positive_ints(vec.coords):
        return False
    w = vec.apery() * 2           # w[i + j] is w_((i + j) mod m)
    for i in range(1, m):
        wi = w[i]
        for j in range(i, m):
            if wi + w[j] < w[i + j]:
                return False
    return True


def semigroup_from_kunz(m: int, coords: Sequence[int]) -> NumericalSemigroup:
    """Rebuild the semigroup whose least members per residue are k_i*m + i.

    With every k_i >= 1, the gaps are closed under addition exactly when the
    Kunz system holds, so the initializer's closure check raises InvalidKunz.
    """
    coords = KunzVector(m, tuple(coords)).coords
    if _positive_ints(coords):
        # Residue i holds the gaps i, i + m, ..., w_i - m for w_i = k_i*m + i,
        # so sum(2**w_i) == (2**m - 1) * gap_mask + 2**m - 2.
        apery = 0
        for i, k in enumerate(coords, start=1):
            apery |= 1 << (k * m + i)
        try:
            return _from_gap_mask(apery // ((1 << m) - 1))
        except ValueError:
            pass
    raise InvalidKunz(f"({m}, {coords}) violates the inequality system")


def kunz_vectors(m: int, g: int) -> Iterator[tuple[int, ...]]:
    """All Kunz vectors of multiplicity m and genus g, lazily and in
    lexicographic order.

    One loop walks positions 1..n (n = m - 1), keeping per position the
    value k, its upper bound top, the remaining sum rest, and the least
    value, largest value and least k_b / b index of the prefix before it.
    k_pos is bounded above by the partial sum and the caps k_i + k_{pos-i},
    below by the wrap bounds k_{i+pos-m} - k_i - 1 and the self bound
    k_{2pos-m} // 2; the last coordinate is forced to the remaining sum.  A
    prefix whose tail cannot reach the remaining sum is dropped.
    """
    if m < 2:
        raise MultiplicityOne("multiplicity must be at least 2")
    if g < 1:
        return
    n = m - 1
    k = [0] * m                   # 1-based
    top = [0] * m
    rest = [g] * m                # rest[pos] = g - k_1 - ... - k_{pos-1}
    lows, highs, best = [g] * m, [0] * m, [1] * m
    pos = 1
    while True:
        r, low, high = rest[pos], lows[pos], highs[pos]
        hi = r - (n - pos)
        tail = n - pos + 1
        if pos > 1 and r > tail * high:
            # c steps of k_j <= k_b + k_{j-b} give k_j <= c * k_b + high.
            b = best[pos]
            q, s = divmod(tail, b)
            if r > tail * high + k[b] * (b * q * (q + 1) // 2 + s * (q + 1)):
                hi = 0
        if 2 * low < hi:              # else no cap is below hi
            for i in range(1, pos // 2 + 1):
                cap = k[i] + k[pos - i]
                if cap < hi:
                    hi = cap
        lo = k[2 * pos - m] // 2 or 1 if 2 * pos > m else 1
        if high - low - 1 > lo:       # else no wrap bound is above lo
            for i in range(m - pos + 1, pos):
                need = k[i + pos - m] - k[i] - 1
                if need > lo:
                    lo = need
        if pos < n and lo <= hi:
            top[pos], v = hi, lo
        else:
            if pos == n and lo <= r <= hi:
                k[n] = r
                yield tuple(k[1:])
            # Advance the deepest earlier position still below its top.
            pos -= 1
            while pos and k[pos] == top[pos]:
                pos -= 1
            if not pos:
                return
            v = k[pos] + 1
        k[pos] = v
        rest[pos + 1] = rest[pos] - v
        lows[pos + 1] = v if v < lows[pos] else lows[pos]
        highs[pos + 1] = v if v > highs[pos] else highs[pos]
        b = best[pos]
        best[pos + 1] = pos if v * b < k[b] * pos else b
        pos += 1


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
