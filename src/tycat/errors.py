"""Exception types shared across the package."""


class TycatError(Exception):
    """Base class for all domain errors raised by this package."""


class InvalidArgumentError(TycatError, ValueError):
    """An argument violates a documented precondition."""


class UnsupportedError(TycatError):
    """The operation is only defined for a restricted class of inputs
    (typically groups of odd order)."""


class CapacityError(TycatError):
    """A search bound was exceeded.  The message names the bound."""


class DegeneracyError(TycatError):
    """A quadratic form or bicharacter turned out to be degenerate."""


class ModularityError(TycatError):
    """An exact identity or certificate failed (non-unitary S, non-integer
    fusion coefficient, indicator outside {-1, 0, 1}, a Smith normal form
    or cyclotomic inverse that does not verify, ...)."""
