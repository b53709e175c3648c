"""Exception types raised by the public API."""


class SemigroupError(Exception):
    """Base class for all library errors."""


class EmptyGenerators(SemigroupError):
    """A generating set must contain at least one positive integer."""


class GcdNotOne(SemigroupError):
    """Generators with gcd > 1 leave an infinite complement."""


class NotAMember(SemigroupError):
    """The requested element does not belong to the semigroup."""


class NotEffective(SemigroupError):
    """Only a minimal generator above the Frobenius number can be removed."""


class AlreadyOrdinary(SemigroupError):
    """The ordinarization transform is undefined on ordinary semigroups."""


class MultiplicityOne(SemigroupError):
    """Kunz coordinates require multiplicity at least 2."""


class DimensionMismatch(SemigroupError):
    """A Kunz vector for multiplicity m must have m - 1 coordinates."""


class InvalidKunz(SemigroupError):
    """The coordinates violate the Kunz inequality system."""


class NotCoprime(SemigroupError):
    """The two-generator formulas need coprime arguments."""


class NegativeIndex(SemigroupError):
    """Fibonacci numbers are indexed from 0."""


class OutOfRange(SemigroupError):
    """Argument outside the domain of the requested formula."""


class PreconditionViolated(SemigroupError):
    """The truncation recurrence only applies when 2g < 3m."""


class IncompleteCensus(SemigroupError):
    """The census table does not cover the requested genus level."""
