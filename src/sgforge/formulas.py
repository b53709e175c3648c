"""Closed-form counts and bounds: Fibonacci numbers, the two-generator
formulas of Sylvester, the F < 2m census, the sum-free-window families
behind the F < 3m lower bound, and the global bounds on the genus census.

Everything here is exact integer arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

from .core import _sumset
from .errors import NegativeIndex, NotCoprime, OutOfRange


def fibonacci(n: int) -> int:
    """F(0) = 0, F(1) = 1, F(n) = F(n-1) + F(n-2)."""
    if n < 0:
        raise NegativeIndex(f"fibonacci({n})")
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def sylvester(a: int, b: int) -> tuple[int, int]:
    """Frobenius number and genus of the semigroup generated by {a, b}.

    Requires coprime 2 <= a < b.  Returns (ab - a - b, (a-1)(b-1)/2).
    """
    if not 2 <= a < b:
        raise OutOfRange("need 2 <= a < b")
    if math.gcd(a, b) != 1:
        raise NotCoprime(f"gcd({a}, {b}) = {math.gcd(a, b)}")
    return a * b - a - b, (a - 1) * (b - 1) // 2


def count_f_lt_2m(g: int) -> int:
    """Number of genus-g semigroups with Frobenius number below twice the
    multiplicity.

    Such a semigroup is 0, m, an arbitrary subset of (m, 2m), and everything
    from 2m on; summing binomials over m gives exactly fibonacci(g + 1).
    """
    if g < 1:
        raise OutOfRange("g must be positive")
    total = 0
    for m in range(1, g + 3):
        k = g - (m - 1)
        if 0 <= k <= m - 1:
            total += math.comb(m - 1, k)
    return total


@dataclass(frozen=True)
class AkMember:
    """One subset A of [0, k-1] with 0 in A and k not in A + A."""

    elements: tuple[int, ...]
    size: int
    sumset_hits: int      # |(A + A) ∩ [0, k]|


@dataclass(frozen=True)
class AkFamily:
    k: int
    members: tuple[AkMember, ...]

    def __len__(self) -> int:
        return len(self.members)


def enumerate_Ak(k: int) -> AkFamily:
    """All subsets A of [0, k-1] containing 0 whose doubling avoids k.

    The constraint "k not in A + A" forbids k/2 (when k is even) and allows
    at most one element from each pair {i, k - i}; the family is the product
    of three choices per pair.  Sizes are 3^((k-1)/2) for odd k and
    3^((k-2)/2) for even k.
    """
    if k < 1:
        raise OutOfRange("k must be positive")
    pairs = [(i, k - i) for i in range(1, (k + 1) // 2)]
    members = []
    window = (1 << (k + 1)) - 1
    for choice in product((None, 0, 1), repeat=len(pairs)):
        elems = [0]
        for (lo, hi), pick in zip(pairs, choice):
            if pick == 0:
                elems.append(lo)
            elif pick == 1:
                elems.append(hi)
        elems.sort()
        sums = _sumset(sum(1 << a for a in elems))
        members.append(AkMember(tuple(elems), len(elems),
                                (sums & window).bit_count()))
    members.sort(key=lambda mem: mem.elements)
    return AkFamily(k, tuple(members))


def zhao_lower_bound(g: int) -> int:
    """Exact lower bound for t(g), the F < 3m count at genus g.

    Evaluates fibonacci(g + 1) plus, for each window size k up to g/3 and
    each admissible subset A, a Fibonacci term indexed by
    g - |(A + A) ∩ [0, k]| + |A| - k - 1.

    The index is always positive: A + A misses k, so it meets [0, k] in at
    most k points, and A holds 0, so |A| >= 1.  The index is therefore at
    least g - 2k, and k <= g/3 makes that at least g/3 > 0.
    """
    if g < 1:
        raise OutOfRange("g must be positive")
    total = fibonacci(g + 1)
    for k in range(1, g // 3 + 1):
        for mem in enumerate_Ak(k).members:
            total += fibonacci(g - mem.sumset_hits + mem.size - k - 1)
    return total


def global_bounds(g: int) -> tuple[int, int]:
    """The classical two-sided bound 2*F(g) <= N(g) <= 1 + 3 * 2^(g-3)."""
    if g < 3:
        raise OutOfRange("bounds hold for g >= 3")
    return 2 * fibonacci(g), 1 + 3 * 2 ** (g - 3)
