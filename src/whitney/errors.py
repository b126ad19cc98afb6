"""Exception types shared across the package."""


class WhitneyError(Exception):
    """Base class for every error raised by this package."""


class BadConstantTerm(WhitneyError):
    """A series constant term violates an operation's precondition."""


class SeriesTooShort(WhitneyError):
    """An operator series is truncated below the degree of its argument."""


class NotInvertible(WhitneyError):
    """The series or array has no inverse of the requested kind."""


class StrayMonomial(WhitneyError):
    """A grammar derivative produced a term outside the expected shape."""


class InstanceTooLarge(WhitneyError):
    """An enumeration request exceeds the configured label cap."""


class OrderExceeded(WhitneyError):
    """A coefficient or entry was requested beyond the truncation order."""


class UnknownIdentity(WhitneyError):
    """No identity check is registered under the given name."""


class BadParameter(WhitneyError, ValueError):
    """A count parameter (m, n, k, ...) is not an int of the allowed range."""


class BadGrid(BadParameter):
    """An identity grid is malformed or evaluates no points."""
