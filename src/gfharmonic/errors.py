"""Exception hierarchy.

``ConfigError`` subclasses are input/validation failures (bad prime, bad
modulus, bad divisor, ...) and map to exit code 2 in the CLI.  Everything
else is a runtime contract violation inside an otherwise valid setup.
"""


class GFHarmonicError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(GFHarmonicError):
    """Invalid construction parameters; CLI exit code 2."""


class NotPrime(ConfigError):
    pass


class DegreeMismatch(ConfigError):
    pass


class ReducibleModulus(ConfigError):
    pass


class NotADivisor(ConfigError):
    pass


class NotInSubfield(ConfigError):
    pass


class DivisionByZero(GFHarmonicError):
    pass


class EvenCharacteristic(GFHarmonicError):
    """Operation needs the field inverse of 2, which does not exist for p = 2."""


class DimensionMismatch(GFHarmonicError):
    pass


class BackendMismatch(GFHarmonicError):
    """A non-exact backend or payload, a non-matrix operand, or operands from
    different scalar rings."""


class NotUnitary(GFHarmonicError):
    pass


class SingularGram(GFHarmonicError):
    """The trace Gram matrix failed to invert; indicates an invalid field."""


class ZeroTrace(GFHarmonicError):
    pass


class ZeroScaling(GFHarmonicError):
    pass


class ConstraintViolated(GFHarmonicError):
    """Symplectic parameters do not satisfy r*u - s*t = 1."""


class DomainRestriction(GFHarmonicError):
    """Parameters outside the validity domain of a closed-form expression."""


class WrongFixture(GFHarmonicError):
    """A worked-example check was invoked on a field it is not pinned to."""
