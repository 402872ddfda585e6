"""The Euler ring of a torus.

Elements are finite integer combinations of generators chi(T^r/H+), one
per closed subgroup H.  The star product of two generators is the
generator of the intersection when the dimensions are transversal
(codim(H n H') = codim H + codim H') and zero otherwise, extended
bilinearly; the unit is the full-torus generator.

The dimension count settles most pairs without computing the meet.  A
meet has codimension at most r, so a pair with codim H + codim H' > r is
never transversal.  The meet of H with the full torus is H itself, whose
stored annihilator basis is already canonical, and the codimensions add,
so such a pair is always transversal.  Only the remaining pairs need a
lattice sum.

The Plücker-square image Phi maps the ring into the commutative algebra
sum_c Lambda^c(Q^r) (x) Lambda^c(Q^r), which has C(2r, r) coordinates,
without any meet: Phi(chi(H)) is w_H (x) w_H, where w_H is the wedge of
the annihilator basis rows B, with Plücker coordinates det(B[:, I]).  It
is a ring homomorphism.  The rows of a transversal pair together form a
basis of the lattice sum, so the wedge of the meet is +-w_H ^ w_H' and the
sign cancels in the square; the rows of any other pair are dependent, and
the wedge is 0.  The image of a degree has the closed form
(-1)^k0 prod_m (1 - k_m m (x) m).  Phi is not injective.  +-w_H records
only the rational span of the annihilator and its covolume, so for
instance the order-2 subgroups Z/2 x 1 and 1 x Z/2 of T^2 have the same
image.  And the squares w_H (x) w_H are linearly dependent across spans
too: with H_m the kernel of the character m, the element
chi(H_(1,1)) + chi(H_(1,-1)) - 2 chi(H_(1,0)) - 2 chi(H_(0,1)) of U(T^2)
is nonzero, and its image is 0.

Most terms of a large index are finite subgroups (codim H = r).  Their
Hermite basis B is square and upper triangular with positive pivots, so
w_H has the one coordinate det B, which is the product of the pivots, sign
included; it is read off the diagonal with no row-by-row wedge.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Mapping, Sequence
from typing import NamedTuple

from .errors import InputError
from .intlat import TorusSubgroup, extend_by_full_torus, subgroup_canonical, subgroup_intersect
from .torusrep import TorusRep


def _term_order(term: tuple[TorusSubgroup, int]) -> tuple[int, ...]:
    # (codim, basis) with the rows flattened: in one ring, equal codimensions mean
    # equal basis shapes, so the order is the same, and flat keys compare faster
    basis = term[0].basis
    return (len(basis),) + sum(basis, ())


class _EulerValue(NamedTuple):
    ambient_rank: int
    terms: tuple[tuple[TorusSubgroup, int], ...]


class EulerElement(_EulerValue):
    """Integer combination of generators chi(T^r/H+).

    The constructor takes terms as a mapping or as (subgroup, coefficient)
    pairs in any order and stores them merged by subgroup value, without
    zero coefficients, sorted by codimension and then annihilator basis, so
    equal elements have equal terms and the full-torus term, if any, comes
    first.  An element is the tuple ``(ambient_rank, terms)``; ``_make``,
    and so ``_replace``, copy and pickle, build it through the constructor.
    """

    __slots__ = ()

    def __new__(cls, ambient_rank: int, terms=()):
        r = ambient_rank
        items = terms.items() if hasattr(terms, "items") else terms
        acc: dict[TorusSubgroup, int] = {}
        for h, c in items:
            if h.ambient_rank != r:
                raise InputError("generator subgroup has wrong ambient rank")
            acc[h] = acc.get(h, 0) + int(c)
        cleaned = tuple(sorted([t for t in acc.items() if t[1]], key=_term_order))
        return tuple.__new__(cls, (r, cleaned))

    @classmethod
    def _make(cls, iterable) -> "EulerElement":
        return cls(*iterable)

    @staticmethod
    def unit(r: int) -> "EulerElement":
        return EulerElement(r, [(TorusSubgroup.full_torus(r), 1)])

    @staticmethod
    def generator(h: TorusSubgroup) -> "EulerElement":
        return EulerElement(h.ambient_rank, [(h, 1)])

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, h: TorusSubgroup) -> int:
        return next((c for g, c in self.terms if g == h), 0)

    def unit_coefficient(self) -> int:
        return self.terms[0][1] if self.terms and self.terms[0][0].is_full else 0

    def __add__(self, other: "EulerElement") -> "EulerElement":
        if self.ambient_rank != other.ambient_rank:
            raise InputError("cannot add elements of different rings")
        return EulerElement(self.ambient_rank, self.terms + other.terms)

    def __neg__(self) -> "EulerElement":
        return EulerElement(self.ambient_rank, tuple((h, -c) for h, c in self.terms))

    def __sub__(self, other: "EulerElement") -> "EulerElement":
        if self.ambient_rank != other.ambient_rank:
            raise InputError("cannot subtract elements of different rings")
        return EulerElement(self.ambient_rank, self.terms + tuple((h, -c) for h, c in other.terms))

    def __rmul__(self, scalar: int) -> "EulerElement":
        if not isinstance(scalar, int):
            return NotImplemented
        return EulerElement(self.ambient_rank, tuple((h, scalar * c) for h, c in self.terms))

    def __mul__(self, other):
        return NotImplemented  # the ring product is star; a tuple's repetition must not leak in

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for h, c in self.terms:
            gen = "I" if h.is_full else f"chi({h})"
            if c == 1:
                parts.append(gen)
            elif c == -1:
                parts.append(f"-{gen}")
            else:
                parts.append(f"{c}*{gen}")
        return " + ".join(parts).replace("+ -", "- ")


def star(a: EulerElement, b: EulerElement) -> EulerElement:
    """Ring product; bilinear extension of the generator rule.

    A pair is met only when the codimensions cannot decide it: a sum of
    codimensions above r is never transversal (a meet has codimension at
    most r), and a full-torus factor yields the other subgroup itself.
    """
    if a.ambient_rank != b.ambient_rank:
        raise InputError("cannot multiply elements of different rings")
    r = a.ambient_rank
    b_terms = [(hb, hb.codim, cb) for hb, cb in b.terms]
    acc: dict[TorusSubgroup, int] = {}
    for ha, ca in a.terms:
        ka = ha.codim
        for hb, kb, cb in b_terms:
            if ka + kb > r:
                continue
            if ka == 0 or kb == 0:
                hi = hb if ka == 0 else ha
            else:
                hi = subgroup_intersect(ha, hb)
                if hi.codim != ka + kb:
                    continue
            acc[hi] = acc.get(hi, 0) + ca * cb
    return EulerElement(r, acc)


def deg_minus_id(
    v: TorusRep, product: Callable[[EulerElement, EulerElement], EulerElement] | None = None
) -> EulerElement:
    """Gradient degree of -Id on the unit ball of the representation.

    Computed as the ring product over the irreducible summands:
    (-1)^k0 times the product of (I - chi(T^r/H_m+))^k over the nonzero
    canonical weights m of v with multiplicity k, where H_m is the kernel
    of the character m.  H_m has codimension 1, so chi(H_m) * chi(H_m) = 0
    (the pair is not transversal) and each power is the single factor
    I - k chi(H_m).  ``product`` is the ring multiplication, ``star``
    unless a caller substitutes another rule; the default is looked up at
    call time, so a rebound ``star`` is the one used.
    """
    product = product or star
    r = v.ambient_rank
    full = TorusSubgroup.full_torus(r)
    out = EulerElement(r, [(full, -1 if v.trivial_mult % 2 else 1)])
    for m, k in v.weights:
        out = product(out, EulerElement(r, [(full, 1), (subgroup_canonical(r, [m]), -k)]))
    return out


def codim_part(x: EulerElement, c: int) -> EulerElement:
    """Keep exactly the terms whose subgroup has codimension ``c``."""
    return EulerElement(x.ambient_rank, tuple((h, k) for h, k in x.terms if h.codim == c))


def lift(x: EulerElement, l: int) -> EulerElement:
    """Image in U(T^(r+l)) under the extra torus acting trivially."""
    return EulerElement(x.ambient_rank + l, [(extend_by_full_torus(h, l), c) for h, c in x.terms])


# Largest ambient rank n (r + l of a problem) at which the level sweep checks
# an index by its Plücker-square image, which has C(2n, n) coordinates (3432
# at n = 7).  Timed against the from-scratch degree of -Id on random problems
# with n = 3 ... 8: up to 7 the image check cost at most 5 ms more on light
# problems and a third to a half as much on every problem where either check
# took over 0.1 s; at 8 it cost more on three problems of four (up to 13
# times as much).
PLUCKER_MAX_RANK = 7

# (I, J) as column bitmasks -> coefficient of e_I (x) e_J; zeros are dropped
PluckerImage = Mapping[tuple[int, int], int]


def _wedge_sign(i: int, k: int) -> int:
    """Sign of e_I ^ e_K against e_(I u K), for disjoint column sets."""
    swaps = 0
    while k:
        low = k & -k
        swaps += (i & -(low << 1)).bit_count()  # columns of I above this one of K
        k ^= low
    return -1 if swaps % 2 else 1


def plucker_sub(a: PluckerImage, b: PluckerImage) -> PluckerImage:
    """a - b."""
    acc = dict(a)
    for key, y in b.items():
        acc[key] = acc.get(key, 0) - y
    return {key: c for key, c in acc.items() if c}


def _wedge(w: dict[int, int], m: Sequence[int]) -> dict[int, int]:
    """w ^ m for w in Lambda^c(Q^r) (column bitmask -> coordinate) and m in Q^r."""
    acc: dict[int, int] = {}
    for i, p in w.items():
        for c, x in enumerate(m):
            bit = 1 << c
            if x and not i & bit:
                acc[i | bit] = acc.get(i | bit, 0) + _wedge_sign(i, bit) * p * x
    return {i: p for i, p in acc.items() if p}


def _annihilator_wedge(h: TorusSubgroup) -> dict[int, int]:
    """w_H = b_1 ^ ... ^ b_c over the annihilator basis rows: the minors det(B[:, I]).

    A finite subgroup's basis is square and upper triangular with positive
    pivots, so its one coordinate, det B, is the product of the pivots.
    """
    basis = h.basis
    r = h.ambient_rank
    if len(basis) == r:
        return {(1 << r) - 1: math.prod(row[i] for i, row in enumerate(basis))}
    w = {0: 1}
    for row in basis:
        w = _wedge(w, row)
    return w


def plucker_image(x: EulerElement) -> PluckerImage:
    """Phi(x) = sum of c * w_H (x) w_H over the terms c chi(H) of x."""
    acc: dict[tuple[int, int], int] = {}
    for h, c in x.terms:
        w = _annihilator_wedge(h)
        for i, p in w.items():
            for j, q in w.items():
                acc[i, j] = acc.get((i, j), 0) + c * p * q
    return {key: y for key, y in acc.items() if y}


def plucker_degree(v: TorusRep, start: PluckerImage) -> PluckerImage:
    """``start`` times Phi(deg(-Id)(v)) = (-1)^k0 prod_m (1 - k_m m (x) m), from the weights alone.

    (1 - k m (x) m) = (1 - m (x) m)^k since (m (x) m)^2 = 0, and
    (e_I (x) e_J)(m (x) m) = (e_I ^ m) (x) (e_J ^ m), so each factor wedges
    every distinct column set with m once.
    """
    sign = -1 if v.trivial_mult % 2 else 1
    out = {key: sign * y for key, y in start.items()}
    for m, k in v.weights:
        wedged: dict[int, dict[int, int]] = {}
        acc = dict(out)
        for (i, j), y in out.items():
            if i not in wedged:
                wedged[i] = _wedge({i: 1}, m)
            if j not in wedged:
                wedged[j] = _wedge({j: 1}, m)
            wj = wedged[j]
            for a, p in wedged[i].items():
                for b, q in wj.items():
                    acc[a, b] = acc.get((a, b), 0) - k * y * p * q
        out = {key: y for key, y in acc.items() if y}
    return out
