"""Kunz coordinates: the lattice-point view of fixed-multiplicity counting.

A multiplicity-m semigroup is determined by the least member in each
nonzero residue class mod m, written k_i * m + i; the vector (k_1, ...,
k_{m-1}) of positive integers satisfies a superadditivity system, and every
integer solution of the system arises this way.  Slicing by coordinate sum
g counts N(m, g) without the semigroup tree, an oracle independent of the
walk: one flat backtracking loop over k_1..k_{m-2} finds the interval of
k_{m-2} left to each valid prefix, and :func:`kunz_vectors` expands them.
Once no prefix value exceeds 3 and at most one unit of slack is left, every
tail in {1, 2} is valid (the box Kaplan and Zhao count), so the loop stops
and counts those tails in closed form.
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


def _intervals(m: int,
               g: int) -> Iterator[tuple[list[int], int, int, int, int]]:
    """Yield (k, pos, lo, hi, r), hi - lo + 1 vectors, for each valid prefix
    k[1:pos] with r left to sum, in lexicographic order.  k is the loop's
    own list, so read it before resuming.  An interval record (pos = p =
    m - 2) ends in (t, r - t) for lo <= t <= hi.  A tail record (pos < p;
    m = 2 yields ((), 1, 0, 0, g)) ends in its T = m - pos coordinates:
    ones, r - T + 1, then u ones, for lo <= u <= hi.  The loop yields one
    once the slack r - T is 0 or 1 and no prefix value exceeds 3, since
    every tail in {1, 2}^T is then valid: a cap with its target in the
    tail reads k <= 2 <= k_i + k_j, a wrap bound with a tail index on its
    right is at least 3 and bounds a value at most 3, and the prefix's own
    inequalities were checked as it was built.  Per position 1..p the
    loop keeps the value k, its upper bound top, the remaining sum rest,
    and the prefix's least value, largest value and least k_b / b index.
    k_pos is bounded above by the partial sum and the caps k_i + k_{pos-i},
    below by the wrap bounds k_{i+pos-m} - k_i - 1 and the self bound
    k_{2pos-m} // 2; a prefix whose tail cannot reach the remaining sum is
    dropped.  At p every bound on k_n = r - t is linear in t.
    """
    if m < 2:
        raise MultiplicityOne("multiplicity must be at least 2")
    if g < m - 1:                 # 1..m-1 are gaps
        return
    if m == 2:
        yield (), 1, 0, 0, g
        return
    n, p = m - 1, m - 2
    k = [0] * m                   # 1-based
    top = [0] * m
    rest = [g] * m                # rest[pos] = g - k_1 - ... - k_{pos-1}
    lows, highs, best = [g] * m, [0] * m, [1] * m
    pos = 1
    while True:
        r, low, high = rest[pos], lows[pos], highs[pos]
        hi = r - (n - pos)
        if hi < 3 and high < 4 and pos < p:
            # Slack hi - 1 <= 1 and no prefix value above 3: a tail record.
            yield k, pos, 0, (hi - 1) * (n - pos), r
            lo = hi + 1               # backtrack
        else:
            tail = n - pos + 1
            if pos > 1 and r > tail * high:
                # c steps of k_j <= k_b + k_{j-b} give k_j <= c * k_b + high.
                b = best[pos]
                q, s = divmod(tail, b)
                if r > tail * high + k[b] * ((b * q + 2 * s) * (q + 1) // 2):
                    hi = 0
            if 2 * low < hi:          # else no cap is below hi
                for i in range(1, pos // 2 + 1):
                    cap = k[i] + k[pos - i]
                    if cap < hi:
                        hi = cap
            lo = k[2 * pos - m] // 2 or 1 if 2 * pos > m else 1
            if high - low - 1 > lo:   # else no wrap bound is above lo
                for i in range(m - pos + 1, pos):
                    need = k[i + pos - m] - k[i] - 1
                    if need > lo:
                        lo = need
        if pos < p and lo <= hi:
            top[pos], v = hi, lo
        else:
            if pos == p and lo <= hi and k[p - 1] <= r + 1:
                # k_n's self bound, cap k_1 + t (2t at m = 3), caps, wraps.
                cap = (2 * r + 1) // 3
                hi = cap if cap < hi else hi
                need = (r - k[1] + 1) // 2 if p > 1 else (r + 2) // 3
                lo = need if need > lo else lo
                if r - lo > 2 * low:  # else no cap moves lo
                    for i in range(2, (m + 1) // 2):
                        need = r - k[i] - k[n - i]
                        if need > lo:
                            lo = need
                if high - low - 1 > r - hi:   # else no wrap bound moves hi
                    for j in range(2, p):
                        cap = r - k[j - 1] + k[j] + 1
                        if cap < hi:
                            hi = cap
                if lo <= hi:
                    yield k, p, lo, hi, r
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


def kunz_vectors(m: int, g: int) -> Iterator[tuple[int, ...]]:
    """All Kunz vectors of multiplicity m and genus g, lazily and in
    lexicographic order: each record of :func:`_intervals` expanded."""
    for k, pos, lo, hi, r in _intervals(m, g):
        pre = tuple(k[1:pos])
        if pos == m - 2:
            for t in range(lo, hi + 1):
                yield (*pre, t, r - t)
        else:
            ones = (1,) * (m - 1 - pos)
            for u in range(lo, hi + 1):
                yield (*pre, *ones[u:], r - len(ones), *ones[:u])


def count_by_polytope(m: int, g: int) -> int:
    """N(m, g): the slice's lattice points, counted by record lengths."""
    return sum(hi - lo + 1 for _, _, lo, hi, _ in _intervals(m, g))


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
