"""Orthogonal torus representations as canonical weight multisets.

A representation of T^r is stored as a trivial multiplicity plus a map
from sign-canonical nonzero weights m in Z^r to multiplicities; the planar
rotation block of weight m and the one of weight -m are equivalent, so the
canonical map determines the representation up to equivalence.
"""

from __future__ import annotations

import math
from fractions import Fraction
from collections.abc import Sequence
from operator import mul, neg
from typing import NamedTuple

from .errors import InputError
from .intlat import Vector, _common_denominator


def canonical_weight(m: Sequence[int]) -> Vector:
    """Flip the sign so the first nonzero coordinate is positive."""
    m = tuple(map(int, m))
    # a weight is below the zero weight exactly when its first nonzero coordinate is negative
    return tuple(map(neg, m)) if m < (0,) * len(m) else m


class _RepValue(NamedTuple):
    ambient_rank: int
    trivial_mult: int
    weights: tuple[tuple[Vector, int], ...]


class TorusRep(_RepValue):
    """A representation of T^r, stored as the canonical map of the module docstring.

    The constructor takes weights as a mapping or as (weight, multiplicity)
    pairs in any order and sign, and merges and sorts them, so two
    representations are equal iff they are equivalent.  A representation
    is the tuple ``(ambient_rank, trivial_mult, weights)``; ``_make``, and
    so ``_replace``, copy and pickle, build it through the constructor.
    """

    __slots__ = ()

    def __new__(cls, ambient_rank: int, trivial_mult: int = 0, weights=()):
        if trivial_mult < 0:
            raise InputError("trivial multiplicity must be nonnegative")
        r = ambient_rank
        items = weights.items() if hasattr(weights, "items") else weights
        acc: dict[Vector, int] = {}
        for m, k in items:
            m = canonical_weight(m)
            if len(m) != r:
                raise InputError(f"weight of length {len(m)} in rank {r}")
            if not any(m):
                raise InputError("zero weight: use trivial_mult for trivial blocks")
            acc[m] = acc.get(m, 0) + int(k)
        for m, k in acc.items():
            if k < 0:
                raise InputError(f"negative multiplicity at weight {m}")
        return tuple.__new__(cls, (r, trivial_mult, tuple(sorted((m, k) for m, k in acc.items() if k))))

    @classmethod
    def _make(cls, iterable) -> "TorusRep":
        return cls(*iterable)

    def __add__(self, other):
        return NotImplemented  # direct_sum and tensor are the operations; no tuple concatenation or repetition

    __mul__ = __rmul__ = __add__

    @staticmethod
    def rotation(k: int, m: Sequence[int]) -> "TorusRep":
        """k copies of the planar rotation block of weight m; trivial if m = 0."""
        m = tuple(int(e) for e in m)
        if not any(m):
            return TorusRep(len(m), k)
        return TorusRep(len(m), 0, [(m, k)])

    @property
    def dim(self) -> int:
        return self.trivial_mult + 2 * sum(k for _, k in self.weights)

    def multiplicity(self, m: Sequence[int]) -> int:
        """Multiplicity of the weight; the zero weight reads trivial_mult."""
        m = canonical_weight(m)
        if len(m) != self.ambient_rank:
            raise InputError("weight length mismatch")
        if not any(m):
            return self.trivial_mult
        return next((k for w, k in self.weights if w == m), 0)

    def occurs(self, m: Sequence[int]) -> bool:
        return self.multiplicity(m) >= 1

    def __str__(self) -> str:
        parts = []
        if self.trivial_mult:
            parts.append(f"R[{self.trivial_mult},0]")
        parts.extend(f"R[{k},{m}]" for m, k in self.weights)
        return " + ".join(parts) if parts else "0"


def direct_sum(v: TorusRep, w: TorusRep) -> TorusRep:
    if v.ambient_rank != w.ambient_rank:
        raise InputError("direct sum needs equal ambient ranks")
    return TorusRep(v.ambient_rank, v.trivial_mult + w.trivial_mult, v.weights + w.weights)


def tensor(w: TorusRep, v: TorusRep) -> TorusRep:
    """External tensor of a T^r and a T^l representation over T^(r+l).

    Weight blocks combine as: trivial x trivial stays trivial; a weight on
    one side pads with zeros on the other; two nonzero weights m, n split
    into the pair (m, n) and (m, -n), each with the product multiplicity.
    """
    r, l = w.ambient_rank, v.ambient_rank
    blocks = [(m + (0,) * l, lm * v.trivial_mult) for m, lm in w.weights]
    blocks += [((0,) * r + n, w.trivial_mult * kn) for n, kn in v.weights]
    for m, lm in w.weights:
        for n, kn in v.weights:
            blocks += [(m + n, kn * lm), (m + tuple(-x for x in n), kn * lm)]
    return TorusRep(r + l, w.trivial_mult * v.trivial_mult, blocks)


def character(v: TorusRep, q: Sequence[Fraction | int]) -> float:
    """Real character at the torus element exp(2*pi*i*q).

    Floating point; intended as an oracle, all structural operations on
    representations stay exact.
    """
    if len(q) != v.ambient_rank:
        raise InputError(f"point of length {len(q)} in rank {v.ambient_rank}")
    den, nums = _common_denominator(q)
    total = float(v.trivial_mult)
    for m, k in v.weights:
        # <m, q> mod 1 as (integer mod den) / den; int true division rounds
        # correctly, as float(Fraction) does
        phase = sum(map(mul, m, nums)) % den / den
        total += 2.0 * k * math.cos(2.0 * math.pi * phase)
    return total
