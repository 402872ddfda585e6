"""Exception hierarchy shared across the package, and the bounded form of a rational in messages."""

from __future__ import annotations

from fractions import Fraction

# Messages show a rational in full up to this many bits (numerator plus
# denominator, about 77 digits), and only its size past it: str() of an int of
# over 4,300 digits raises ValueError, and a longer message helps no reader.
_MESSAGE_MAX_BITS = 256


def shown(x: Fraction) -> str:
    """``str(x)``, or ``x``'s size in bits when it is over ``_MESSAGE_MAX_BITS``."""
    bits = x.numerator.bit_length() + x.denominator.bit_length()
    return str(x) if bits <= _MESSAGE_MAX_BITS else f"<rational of {bits} bits>"


class TorbifError(Exception):
    """Base class for all library errors."""


class InputError(TorbifError):
    """Malformed or inconsistent user input.

    Carries a short machine-readable ``code`` so the CLI can report a
    distinct error class per failure mode.
    """

    def __init__(self, message: str, code: str = "INPUT"):
        super().__init__(message)
        self.code = code


class RefusalError(TorbifError):
    """The request is well formed but cannot be answered soundly."""


class CutoffError(RefusalError):
    """Spectral data does not cover the requested parameter range."""


class ConsistencyError(TorbifError):
    """Two independent computation routes disagree; internal defect."""
