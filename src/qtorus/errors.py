"""Exception types shared across the package."""


class QTorusError(Exception):
    """Base class for all package-specific errors."""


class ConductorLimitExceeded(QTorusError):
    """A cyclotomic operation would need a conductor above QTORUS_MAX_CONDUCTOR."""


class NotDivisible(QTorusError):
    """Attempted to lift a cyclotomic number to a non-multiple conductor."""


class NotRootOfUnity(QTorusError):
    """Square-root branch or exponent extraction applied to a non-root."""


class SpecMismatch(QTorusError):
    """Mixed operands built over different torus specifications."""


class NotInRadical(QTorusError):
    """A lattice point required to lie in the radical of the commutation form does not."""


class NotScalar(QTorusError):
    """A weight-space matrix expected to be scalar is not."""


class NotCharacter(QTorusError):
    """Values do not define a lattice character (non-root, non-multiplicative,
    or nontrivial on the radical)."""


class BadPower(QTorusError):
    """Exterior power degree exceeds the dimension of the base module."""


class ConfigError(QTorusError):
    """Malformed instance configuration (CLI exit code 2)."""
