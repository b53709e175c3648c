"""Numerical semigroups with cached invariants.

A numerical semigroup is a subset of the nonnegative integers containing 0,
closed under addition, whose complement (the set of *gaps*) is finite.  The
largest gap is the Frobenius number F, the number of gaps is the genus g,
the smallest nonzero member is the multiplicity m, and the unique minimal
generating set has size e (the embedding dimension).

Membership is stored as an integer bitmask over the window [0, F + 1]; every
integer above the Frobenius number is implicitly a member, so the mask plus
F determines the semigroup completely.  The initializer computes F, g, m
and the minimal generators.  The sorted gaps with the weight and effective
weight, and the Kunz coordinates at m, are computed on first use and kept.
Instances are immutable, since a cache is filled once with a value fixed by
the mask, and safe to share between threads or processes; they pickle and
copy by their gap mask, with empty caches.
"""

from __future__ import annotations

import math
from enum import Enum
from itertools import compress, count
from operator import sub
from typing import Iterable, NamedTuple, Sequence

from .errors import EmptyGenerators, GcdNotOne, NotAMember, NotEffective


class Strength(Enum):
    """Classification of a minimal generator relative to the tree descent."""

    STRONG = "strong"
    WEAK = "weak"
    NOT_EFFECTIVE = "not-effective"


class GeneratorTag(NamedTuple):
    """A minimal generator together with its descent classification.

    ``strength`` is STRONG or WEAK for an effective generator, one above the
    Frobenius number whose removal yields a child semigroup, and
    NOT_EFFECTIVE otherwise.
    """

    value: int
    strength: Strength

    @property
    def effective(self) -> bool:
        return self.strength is not Strength.NOT_EFFECTIVE


class Partition(NamedTuple("Partition", [("parts", tuple[int, ...])])):
    """Weakly decreasing positive parts read off a semigroup's lattice path."""

    __slots__ = ()

    def __new__(cls, parts: tuple[int, ...]):
        if parts and min(parts) <= 0:
            raise ValueError("partition parts must be positive")
        if list(parts) != sorted(parts, reverse=True):
            raise ValueError("partition parts must be weakly decreasing")
        return super().__new__(cls, parts)

    @classmethod
    def _make(cls, values):
        # _replace builds its copy here: keep it on the checked path.
        return cls(*values)

    @property
    def size(self) -> int:
        return sum(self.parts)


# bin() digits to bytes that are true exactly for the set bits.
_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")


def _bits(mask: int) -> list[int]:
    """Indices of the set bits of ``mask``, ascending."""
    return list(compress(count(), bin(mask)[:1:-1].encode().translate(_BIT_BYTES)))


def _sumset(mask: int) -> int:
    """The mask of A + A, where A is the set of bits of ``mask``."""
    sums = 0
    for x in _bits(mask):
        sums |= mask << x
    return sums


def _is_strong(members: int, m: int, lam: int) -> bool:
    """Whether m + lam is a minimal generator of S minus lam.

    ``members`` has bit x set for each member x of S up to m + lam.  Only
    u + (m + lam - u) with m < u <= (m + lam) / 2 can split m + lam without
    using lam (u = m pairs with lam), and no u qualifies when lam == m.
    """
    x = m + lam
    for u in range(m + 1, x // 2 + 1):
        if (members >> u) & 1 and (members >> (x - u)) & 1:
            return False
    return True


def _positive_ints(values: Sequence) -> bool:
    """True iff each value is an int >= 1 (the exact type: not a bool)."""
    return set(map(type, values)) <= {int} and min(values, default=1) >= 1


class NumericalSemigroup:
    """An immutable numerical semigroup.

    Use :func:`from_generators`, :func:`from_gaps`, or :func:`ordinary` to
    build instances.  The constructor takes the gaps, checks that each is a
    positive integer and that the other nonnegative integers are closed
    under addition, and raises ValueError otherwise.
    """

    # _weights and _coords stay unset until first use, so a build pays nothing.
    __slots__ = ("_mask", "frobenius", "multiplicity", "genus",
                 "min_generators", "_weights", "_coords")

    _mask: int
    frobenius: int
    multiplicity: int
    genus: int
    min_generators: tuple[int, ...]

    def __init__(self, gaps: Iterable[int]):
        gap_list = list(gaps)
        if not _positive_ints(gap_list):
            raise ValueError("gaps must be positive integers")
        gap_mask = 0
        for x in gap_list:
            gap_mask |= 1 << x
        self._init_from_gap_mask(gap_mask)

    def _init_from_gap_mask(self, gap_mask: int) -> None:
        # Every constructor ends here; bit x of gap_mask is set for each gap.
        frob = gap_mask.bit_length() - 1
        mask = ((1 << (frob + 2)) - 1) ^ gap_mask
        nonzero = mask & -2
        mult = (nonzero & -nonzero).bit_length() - 1 if nonzero else 1
        # On the members up to F + m, the Apéry elements are the x with
        # x - m not a member.  Every member is an Apéry element plus a
        # multiple of m, so the members are closed under addition iff adding
        # m or two Apéry elements never lands on a gap.  The minimal
        # generators are m and the Apéry elements that are no such sum.
        # Both loops peel off lowest bits: there are under m Apéry elements.
        limit = frob + mult
        ext = ((1 << (limit + 1)) - 1) ^ gap_mask
        apery = ext & ~(ext << mult) & -2
        sums = 0
        low = apery & ((1 << (limit // 2 + 1)) - 1)
        while low:
            sums |= apery << ((low & -low).bit_length() - 1)
            low &= low - 1
        if ((ext << mult) | sums) & gap_mask:
            raise ValueError("complement is not closed under addition")
        gens = [mult]
        low = apery & ~sums
        while low:
            gens.append((low & -low).bit_length() - 1)
            low &= low - 1
        object.__setattr__(self, "_mask", mask)
        object.__setattr__(self, "frobenius", frob)
        object.__setattr__(self, "genus", gap_mask.bit_count())
        object.__setattr__(self, "multiplicity", mult)
        object.__setattr__(self, "min_generators", tuple(gens))

    def __setattr__(self, name, value):
        raise AttributeError("NumericalSemigroup instances are immutable")

    # -- membership ------------------------------------------------------

    def __contains__(self, x: int) -> bool:
        if x < 0:
            return False
        if x > self.frobenius:
            return True
        return bool((self._mask >> x) & 1)

    def members(self, upto: int) -> list[int]:
        """All members in [0, upto]."""
        return [x for x in range(upto + 1) if x in self]

    def _gap_mask(self) -> int:
        return ((1 << (self.frobenius + 2)) - 1) ^ self._mask

    def gaps(self) -> tuple[int, ...]:
        return self._gap_weights()[0]

    # -- invariants ------------------------------------------------------

    @property
    def embedding_dimension(self) -> int:
        return len(self.min_generators)

    def is_ordinary(self) -> bool:
        """True for {0} followed by every integer above the genus (and for N0)."""
        return self.multiplicity > self.frobenius

    def apery_set(self, n: int | None = None) -> list[int]:
        """Least member in each residue class mod ``n`` (default multiplicity).

        Entry ``i`` is the smallest member congruent to ``i`` mod ``n``;
        entry 0 is 0.  Raises :class:`NotAMember` unless ``n`` is a positive
        member.
        """
        if n is None:
            n = self.multiplicity
        if n < 1 or n not in self:
            raise NotAMember(f"{n} is not a positive member")
        return [i + n * k for i, k in enumerate(self._kunz(n))]

    def _kunz(self, n: int) -> list[int]:
        """The k_i with k_i * n + i the least member congruent to i mod n."""
        # Character x is 1 iff x is a member; every x > F is one.
        bits = bin(self._mask)[:1:-1] + "1" * n
        return [bits[i::n].index("1") for i in range(n)]

    def _kunz_coords(self) -> tuple[int, ...]:
        """(k_1, ..., k_{m-1}) at the multiplicity m, computed on first use."""
        coords = getattr(self, "_coords", None)
        if coords is None:
            coords = tuple(self._kunz(self.multiplicity)[1:])
            object.__setattr__(self, "_coords", coords)
        return coords

    # -- tree-facing operations ------------------------------------------

    def effective_generators(self) -> list[GeneratorTag]:
        """Tag every minimal generator with its descent classification.

        A generator is effective when it exceeds the Frobenius number.  An
        effective generator lam is strong when m + lam turns up as a minimal
        generator of the child obtained by removing lam.
        """
        f = self.frobenius
        m = self.multiplicity
        members = self._mask | -(1 << (f + 1))    # every x > F is a member
        return [GeneratorTag(lam, Strength.NOT_EFFECTIVE if lam <= f
                             else Strength.STRONG if _is_strong(members, m, lam)
                             else Strength.WEAK)
                for lam in self.min_generators]

    @property
    def efficacy(self) -> int:
        """Number of effective generators, i.e. number of children."""
        f = self.frobenius
        return sum(1 for lam in self.min_generators if lam > f)

    def remove_generator(self, lam: int) -> "NumericalSemigroup":
        """Child semigroup obtained by deleting an effective generator."""
        if lam <= self.frobenius or lam not in self.min_generators:
            raise NotEffective(f"{lam} is not an effective generator")
        return _from_gap_mask(self._gap_mask() | (1 << lam))

    # -- weight data -------------------------------------------------------

    def weight_data(self) -> tuple[int, int, Partition]:
        """Return (weight, effective weight, lattice-path partition).

        weight    = sum of (l_i - i) over the sorted gaps l_1 < ... < l_g.
        ewt       = sum over gaps of the number of minimal generators below
                    that gap.
        partition = row lengths of the region cut out by the membership path
                    on [0, 2g]; its size is always weight + genus.
        """
        gaps, weight, ewt = self._gap_weights()
        parts = tuple(map(sub, reversed(gaps), range(len(gaps) - 1, -1, -1)))
        return weight, ewt, Partition(parts)

    def _gap_weights(self) -> tuple[tuple[int, ...], int, int]:
        """(sorted gaps, weight, ewt), reading the gap mask on first use."""
        weights = getattr(self, "_weights", None)
        if weights is None:
            gap_mask = self._gap_mask()
            gaps = tuple(_bits(gap_mask))
            g = len(gaps)
            # ewt the other way round: each minimal generator counts the gaps
            # above it.
            ewt = sum((gap_mask >> n).bit_count() for n in self.min_generators)
            weights = (gaps, sum(gaps) - g * (g + 1) // 2, ewt)
            object.__setattr__(self, "_weights", weights)
        return weights

    @property
    def effective_weight(self) -> int:
        return self._gap_weights()[2]

    # -- interchange -------------------------------------------------------

    def to_record(self) -> dict:
        """JSON-ready record with a fixed field order."""
        gaps, weight, ewt = self._gap_weights()
        return {
            "generators": list(self.min_generators),
            "multiplicity": self.multiplicity,
            "frobenius": self.frobenius,
            "genus": self.genus,
            "gaps": list(gaps),
            "efficacy": self.efficacy,
            "weight": weight,
            "ewt": ewt,
            "kunz": list(self._kunz_coords()),
        }

    # -- dunder ------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, NumericalSemigroup):
            return NotImplemented
        return self.frobenius == other.frobenius and self._mask == other._mask

    def __hash__(self) -> int:
        return hash((self.frobenius, self._mask))

    def __reduce__(self):
        # Rebuilt through the checked initializer, with cold caches.
        return _from_gap_mask, (self._gap_mask(),)

    def __repr__(self) -> str:
        gens = ",".join(str(n) for n in self.min_generators)
        return f"NumericalSemigroup(<{gens}>)"


def _from_gap_mask(gap_mask: int) -> NumericalSemigroup:
    """The semigroup whose gaps are the set bits of ``gap_mask``."""
    sg = object.__new__(NumericalSemigroup)
    sg._init_from_gap_mask(gap_mask)
    return sg


def from_gaps(gaps: Iterable[int]) -> NumericalSemigroup:
    """Build a semigroup from its exact gap set, validating closure."""
    return NumericalSemigroup(gaps)


def from_generators(gens: Iterable[int]) -> NumericalSemigroup:
    """The semigroup of all nonnegative combinations of ``gens``.

    Raises :class:`EmptyGenerators` on an empty set, ValueError unless every
    generator is a positive integer, and :class:`GcdNotOne` when the
    generators have a common factor (the complement would be infinite).
    """
    gen_list = list(gens)
    if not gen_list:
        raise EmptyGenerators("need at least one generator")
    if not _positive_ints(gen_list):
        raise ValueError("generators must be positive integers")
    gen_list = sorted(set(gen_list))
    if math.gcd(*gen_list) != 1:
        raise GcdNotOne(f"gcd of {gen_list} is {math.gcd(*gen_list)}")
    m = gen_list[0]
    width = 2 * gen_list[-1] + 2
    while True:
        # Members below ``width``: add each generator's multiples 0..k by
        # doubling the shift, which is exact below the window.
        window = (1 << width) - 1
        mask = 1
        for n in gen_list:
            while n < width:
                mask |= (mask << n) & window
                n <<= 1
        gap_mask = window ^ mask
        # m members in a row above the last gap end the gaps.
        if gap_mask.bit_length() + m <= width:
            return _from_gap_mask(gap_mask)
        width *= 2


def ordinary(g: int) -> NumericalSemigroup:
    """The ordinary semigroup of genus g: zero plus every integer above g."""
    if g < 0:
        raise ValueError("genus must be nonnegative")
    return _from_gap_mask((1 << (g + 1)) - 2)
