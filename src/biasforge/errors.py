"""Exception hierarchy shared by every module in the package."""


class BiasforgeError(Exception):
    """Base class for library-specific failures."""


class InputError(BiasforgeError):
    """Malformed user input: bad weights, node sets, parity, JSON specs."""


class NonIntegrable(BiasforgeError):
    """Quadrature failed to converge, or a tail does not decay."""


class NoSampler(BiasforgeError):
    """The distribution has no sampling route."""


class ZeroNormalizer(BiasforgeError):
    """A tilting weight has (numerically) zero expectation."""


class NegativeWeight(InputError):
    """A tilting weight dips below the negativity tolerance."""


class WeightMismatch(InputError):
    """Mixture weights have the wrong length or do not sum to one."""


class ParityMismatch(InputError):
    """Sign-change count and derivative order have different parity."""


class DegenerateAlpha(BiasforgeError):
    """The transform normalizer is numerically zero."""


class NegativeAlpha(BiasforgeError):
    """The transform normalizer came out negative: the declared sign
    pattern is violated on the support."""


class DegenerateBeta(BiasforgeError):
    """The order-m normalizer is zero where it must be positive
    (e.g. the tilted seed stage is a point mass at zero)."""


class AllBetaZero(BiasforgeError):
    """Every component weight of a mixed operator transform vanishes."""


class SignViolation(InputError):
    """Probing found a point where the declared sign-change pattern fails."""
