"""Exception hierarchy shared by all csw modules."""


class CswError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(CswError):
    """Invalid parameters or configuration; detected before any computation."""


class TypeValidationError(ConfigError):
    """A type triple (m, n, r) violates the defining arithmetic.

    `violations` is a list of (k, constraint, message) tuples covering every
    broken constraint, not just the first.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        lines = "; ".join(msg for _, _, msg in self.violations)
        super().__init__(f"invalid type: {lines}")


class ArityMismatchError(TypeValidationError):
    pass


class NotInSchemeError(CswError):
    pass


class LengthMismatchError(CswError):
    pass


class NotDeltaError(CswError):
    """A family of sets is not an increasing delta-system."""

    def __init__(self, i, j, reason):
        self.pair = (i, j)
        super().__init__(f"not a delta-system (members {i}, {j}): {reason}")


class PatternOutOfRangeError(CswError):
    pass


class DimensionMismatchError(CswError):
    pass


class NotInSpanError(CswError):
    """Target vector is not a linear combination of the given functionals.

    `certificate` is a Farkas witness: a functional vanishing on every
    generator but not on the target.
    """

    def __init__(self, message, certificate=None):
        self.certificate = certificate
        super().__init__(message)


class ParameterOutOfRangeError(ConfigError):
    pass


class EmptyFamilyError(CswError):
    pass


class WrongSpaceKindError(CswError):
    pass


class CaptureUnavailableError(CswError):
    pass


class ConfigInvalidError(ConfigError):
    pass


class NotBiorthogonalError(CswError):
    def __init__(self, message, witness=None):
        self.witness = witness
        super().__init__(message)
