"""Numerical semigroups with cached invariants.

A numerical semigroup is a subset of the nonnegative integers containing 0,
closed under addition, whose complement (the set of *gaps*) is finite.  The
largest gap is the Frobenius number F, the number of gaps is the genus g,
the smallest nonzero member is the multiplicity m, and the unique minimal
generating set has size e (the embedding dimension).

Membership is stored as an integer bitmask over the window [0, F + 1]; every
integer above the Frobenius number is implicitly a member, so the mask plus
F determines the semigroup completely.  Instances are immutable and safe to
share between threads or processes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import compress, count
from operator import ge, sub
from typing import Iterable

from .errors import EmptyGenerators, GcdNotOne, NotAMember, NotEffective


class Strength(Enum):
    """Classification of a minimal generator relative to the tree descent."""

    STRONG = "strong"
    WEAK = "weak"
    NOT_EFFECTIVE = "not-effective"


@dataclass(frozen=True)
class GeneratorTag:
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


@dataclass(frozen=True)
class Partition:
    """Weakly decreasing positive parts read off a semigroup's lattice path."""

    parts: tuple[int, ...]

    def __post_init__(self):
        ps = self.parts
        if ps and min(ps) <= 0:
            raise ValueError("partition parts must be positive")
        if not all(map(ge, ps, ps[1:])):
            raise ValueError("partition parts must be weakly decreasing")

    @property
    def size(self) -> int:
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)


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


def _positive_ints(values: list) -> bool:
    """True iff each value is an int >= 1 (the exact type: not a bool)."""
    return set(map(type, values)) <= {int} and min(values, default=1) >= 1


class NumericalSemigroup:
    """An immutable numerical semigroup.

    Use :func:`from_generators`, :func:`from_gaps`, or :func:`ordinary` to
    build instances.  The constructor takes the gaps, checks that each is a
    positive integer and that the other nonnegative integers are closed
    under addition, and raises ValueError otherwise.
    """

    __slots__ = ("_mask", "frobenius", "multiplicity", "genus", "min_generators")

    _mask: int
    frobenius: int
    multiplicity: int
    genus: int
    min_generators: tuple[int, ...]

    def __init__(self, gaps: Iterable[int]):
        gap_list = list(gaps)
        if not _positive_ints(gap_list):
            raise ValueError("gaps must be positive integers")
        # Distinct powers of two, so the sum is their OR.
        self._init_from_gap_mask(sum(map((1).__lshift__, set(gap_list))))

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
        limit = frob + mult
        ext = ((1 << (limit + 1)) - 1) ^ gap_mask
        apery = ext & ~(ext << mult) & -2
        sums = 0
        for u in _bits(apery & ((1 << (limit // 2 + 1)) - 1)):
            sums |= apery << u
        if ((ext << mult) | sums) & gap_mask:
            raise ValueError("complement is not closed under addition")
        object.__setattr__(self, "_mask", mask)
        object.__setattr__(self, "frobenius", frob)
        object.__setattr__(self, "genus", gap_mask.bit_count())
        object.__setattr__(self, "multiplicity", mult)
        object.__setattr__(self, "min_generators",
                           tuple(_bits(apery & ~sums | (1 << mult))))

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
        return tuple(_bits(self._gap_mask()))

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
        # Character x is 1 iff x is a member; every x > F is one.
        bits = bin(self._mask)[:1:-1] + "1" * n
        return [i + n * bits[i::n].index("1") for i in range(n)]

    # -- tree-facing operations ------------------------------------------

    def effective_generators(self) -> list[GeneratorTag]:
        """Tag every minimal generator with its descent classification.

        A generator is effective when it exceeds the Frobenius number.  An
        effective generator lam is strong when m + lam turns up as a minimal
        generator of the child obtained by removing lam.
        """
        f = self.frobenius
        m = self.multiplicity
        tags = []
        for lam in self.min_generators:
            if lam <= f:
                tags.append(GeneratorTag(lam, Strength.NOT_EFFECTIVE))
                continue
            child = self.remove_generator(lam)
            strong = (m + lam) in child.min_generators
            tags.append(
                GeneratorTag(lam, Strength.STRONG if strong else Strength.WEAK)
            )
        return tags

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
        gap_mask = self._gap_mask()
        gaps = _bits(gap_mask)
        g = len(gaps)
        weight = sum(gaps) - g * (g + 1) // 2
        # Summed the other way round: each minimal generator counts the
        # gaps above it.
        ewt = sum((gap_mask >> n).bit_count() for n in self.min_generators)
        parts = tuple(map(sub, reversed(gaps), range(g - 1, -1, -1)))
        return weight, ewt, Partition(parts)

    @property
    def weight(self) -> int:
        return self.weight_data()[0]

    @property
    def effective_weight(self) -> int:
        return self.weight_data()[1]

    # -- interchange -------------------------------------------------------

    def to_record(self) -> dict:
        """JSON-ready record with a fixed field order."""
        m = self.multiplicity
        if m >= 2:
            ap = self.apery_set(m)
            kunz = [(ap[i] - i) // m for i in range(1, m)]
        else:
            kunz = []
        weight, ewt, _ = self.weight_data()
        return {
            "generators": list(self.min_generators),
            "multiplicity": m,
            "frobenius": self.frobenius,
            "genus": self.genus,
            "gaps": list(self.gaps()),
            "efficacy": self.efficacy,
            "weight": weight,
            "ewt": ewt,
            "kunz": kunz,
        }

    # -- dunder ------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, NumericalSemigroup):
            return NotImplemented
        return self.frobenius == other.frobenius and self._mask == other._mask

    def __hash__(self) -> int:
        return hash((self.frobenius, self._mask))

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
