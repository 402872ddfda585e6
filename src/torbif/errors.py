"""Exception hierarchy shared across the package, and the bounded form of a number in messages."""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction

# Messages show a number in full up to this many bits (for a rational, numerator
# plus denominator, about 77 digits), and only its size past it: str() of an int
# of over 4,300 digits raises ValueError, and a longer message helps no reader.
_MESSAGE_MAX_BITS = 256


def shown(x: Fraction | int | Sequence[int]) -> str:
    """``str(x)`` for a rational, an integer or an integer vector, or only its size past ``_MESSAGE_MAX_BITS``.

    A vector is shown in full when each of its entries is.
    """
    if isinstance(x, Fraction):
        bits, what = x.numerator.bit_length() + x.denominator.bit_length(), "rational"
    elif isinstance(x, int):
        bits, what = x.bit_length(), "integer"
    else:
        bits, what = max((e.bit_length() for e in x), default=0), "integer vector with an entry"
    return str(x) if bits <= _MESSAGE_MAX_BITS else f"<{what} of {bits} bits>"


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
