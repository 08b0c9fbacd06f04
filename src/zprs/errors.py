"""Exception hierarchy shared by all modules.

Every error raised on purpose by this package derives from ``ZprsError`` so
callers (and the CLI) can distinguish precondition violations from bugs.
"""

from __future__ import annotations


class ZprsError(Exception):
    """Base class for all errors raised by this package."""


class NotPrime(ZprsError):
    """The modulus is not a prime number."""


class ModulusTooLarge(ZprsError):
    """The prime is too large for exact int64 matrix arithmetic at this length."""


class ModulusMismatch(ZprsError):
    """Operands live over different moduli or different rings."""


class DivisionByZero(ZprsError):
    """Division by the zero element of Z_p."""


class NoSquareRootOfMinusOne(ZprsError):
    """-1 is not a square mod p (p = 3 mod 4); the Gray maps are undefined."""


class NotAUnit(ZprsError):
    """A unit was required but the element is a zero divisor."""


class WrongRing(ZprsError):
    """An element of a different chain ring was supplied."""


class ProfileMismatch(ZprsError):
    """Words or codes with incompatible block profiles were combined."""


class LengthMismatch(ZprsError):
    """Vector or block length does not match the expected length."""


class NonUnitLeadingCoefficient(ZprsError):
    """Polynomial division by a divisor whose leading coefficient is not a unit."""


class GcdViolation(ZprsError):
    """gcd(p, n) != 1 where coprimality is required."""


class ZeroConstantTerm(ZprsError):
    """Reciprocal of a polynomial with zero constant term is degree-losing."""


class NotADivisor(ZprsError):
    """Exact polynomial division was requested but the remainder is nonzero."""


class DivisibilityViolation(ZprsError):
    """A generator-polynomial divisibility chain does not hold."""


class BlocksUnequal(ZprsError):
    """Per-coordinate regrouping needs equal block lengths q = r = s."""


class TooLarge(ZprsError):
    """The requested enumeration exceeds the desk-scale bound."""


class InexactDivision(ZprsError):
    """An enumerator transform did not divide exactly by the code size."""


class RowCollapseFailure(ZprsError):
    """Two symbols of equal Lee weight produced different transform rows."""


class NotDualContaining(ZprsError):
    """The CSS construction needs a dual-containing code."""


class TooManyFactors(ZprsError):
    """The factor-assignment search space is too large."""


class DistanceNotDetermined(ZprsError):
    """Minimum-distance search exhausted its cap; carries a certified lower bound."""

    def __init__(self, lower_bound: int, message: str | None = None):
        self.lower_bound = lower_bound
        super().__init__(message or f"minimum distance not determined; it is >= {lower_bound}")
