"""Exact integer linear algebra over arbitrary-precision integers.

Hermite and Smith normal forms of integer matrices, each given as a tuple of
row tuples, and closed subgroups of a torus encoded by their annihilator
character lattice, stored by its row-style Hermite basis.

A subgroup is the plain value ``(ambient_rank, basis)``, with ``basis`` the
canonical Hermite basis of its annihilator: it compares and hashes as that
tuple, so two subgroups are equal iff they are the same subgroup.  That
holds only for canonical bases, so subgroups have no public constructor:
``subgroup_canonical``, ``subgroup_intersect``, ``extend_by_full_torus`` and
``TorusSubgroup.full_torus`` each hand the one private builder a basis that
is already in Hermite form (from ``hermite_basis``; for a meet, from the
elimination core run on the two stored canonical bases together, with no
input checks; the zero-padded extension and the full torus as they are),
and copying or unpickling a subgroup goes through ``subgroup_canonical``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from collections.abc import Iterable, Sequence
from operator import mul, neg
from typing import NamedTuple

from .errors import InputError

Vector = tuple[int, ...]


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return ``(g, x, y)`` with ``g = gcd(a, b) >= 0`` and ``x*a + y*b = g``."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


def det(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant of the square matrix with these rows, by fraction-free Bareiss elimination."""
    n = len(rows)
    a = [list(row) for row in rows]
    if any(len(row) != n for row in a):
        raise InputError("determinant of a non-square matrix")
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


class SmithDecomposition(NamedTuple):
    """``P R Q = diag(invariant_factors)``, zero-padded to the shape of R.

    P and Q are unimodular, and like R they are tuples of row tuples.
    """

    P: tuple[Vector, ...]
    Q: tuple[Vector, ...]
    invariant_factors: tuple[int, ...]


def snf(cols: int, rows: Iterable[Sequence[int]]) -> SmithDecomposition:
    """Smith normal form, with unimodular transforms, of the matrix R with these rows of ``cols`` ints.

    The invariant factors are positive and form a divisibility chain
    d_1 | d_2 | ... ; the zero matrix is allowed.  A row whose length is not
    ``cols`` raises ``InputError``.
    """
    d = _int_rows(cols, rows)
    p, r = len(d), cols
    pm = [[int(i == j) for j in range(p)] for i in range(p)]
    qm = [[int(i == j) for j in range(r)] for i in range(r)]

    def row_axpy(dst: int, src: int, q: int) -> None:
        d[dst] = [a - q * b for a, b in zip(d[dst], d[src])]
        pm[dst] = [a - q * b for a, b in zip(pm[dst], pm[src])]

    def col_axpy(dst: int, src: int, q: int) -> None:
        for i in range(p):
            d[i][dst] -= q * d[i][src]
        for i in range(r):
            qm[i][dst] -= q * qm[i][src]

    def row_swap(i1: int, i2: int) -> None:
        d[i1], d[i2] = d[i2], d[i1]
        pm[i1], pm[i2] = pm[i2], pm[i1]

    def col_swap(j1: int, j2: int) -> None:
        for i in range(p):
            d[i][j1], d[i][j2] = d[i][j2], d[i][j1]
        for i in range(r):
            qm[i][j1], qm[i][j2] = qm[i][j2], qm[i][j1]

    def row_negate(i: int) -> None:
        d[i] = [-e for e in d[i]]
        pm[i] = [-e for e in pm[i]]

    t = 0
    while t < min(p, r):
        # move an entry of smallest nonzero magnitude into the pivot slot
        best = None
        pos = None
        for i in range(t, p):
            for j in range(t, r):
                v = abs(d[i][j])
                if v and (best is None or v < best):
                    best, pos = v, (i, j)
        if pos is None:
            break
        if pos[0] != t:
            row_swap(t, pos[0])
        if pos[1] != t:
            col_swap(t, pos[1])
        while True:
            if d[t][t] < 0:
                row_negate(t)
            # clear column t; a nonzero remainder becomes the smaller pivot
            restart = False
            for i in range(t + 1, p):
                if d[i][t]:
                    q = d[i][t] // d[t][t]
                    if q:
                        row_axpy(i, t, q)
                    if d[i][t]:
                        row_swap(t, i)
                        restart = True
                        break
            if restart:
                continue
            # clear row t the same way
            for j in range(t + 1, r):
                if d[t][j]:
                    q = d[t][j] // d[t][t]
                    if q:
                        col_axpy(j, t, q)
                    if d[t][j]:
                        col_swap(t, j)
                        restart = True
                        break
            if restart:
                continue
            # force divisibility of the remaining block by the pivot
            offender = None
            for i in range(t + 1, p):
                if any(d[i][j] % d[t][t] for j in range(t + 1, r)):
                    offender = i
                    break
            if offender is None:
                break
            row_axpy(t, offender, -1)
        t += 1

    factors = tuple(d[i][i] for i in range(min(p, r)) if d[i][i] != 0)
    return SmithDecomposition(P=tuple(map(tuple, pm)), Q=tuple(map(tuple, qm)), invariant_factors=factors)


def _int_rows(cols: int, rows: Iterable[Sequence[int]]) -> list[list[int]]:
    """``rows`` as lists of ints; a row whose length is not ``cols`` raises ``InputError``."""
    out = []
    for row in rows:
        row = [int(e) for e in row]
        if len(row) != cols:
            raise InputError(f"vector of length {len(row)} in ambient rank {cols}")
        out.append(row)
    return out


def hermite_basis(ambient: int, rows: Iterable[Sequence[int]]) -> tuple[Vector, ...]:
    """Row-style Hermite normal form of the lattice spanned by ``rows``.

    Pivots are positive, entries above a pivot are reduced into
    ``[0, pivot)``, pivot columns strictly increase, and zero rows are
    dropped, so two iterables span the same lattice iff the results are
    identical.
    """
    return _hermite(ambient, [row for row in _int_rows(ambient, rows) if any(row)])


def _hermite(ambient: int, mat: list[Sequence[int]]) -> tuple[Vector, ...]:
    """The elimination behind :func:`hermite_basis`, on rows of ``ambient`` ints.

    ``mat`` is the caller's list and is consumed.  Its rows are never changed
    in place, only replaced in ``mat``, so they may be the tuples of other
    canonical bases; zero rows are allowed.
    """
    m = len(mat)
    if m == 1:
        # a single row is canonical once its first nonzero entry is positive;
        # it sorts below the zero row exactly when that entry is negative
        row, zero = tuple(mat[0]), (0,) * ambient
        if row == zero:
            return ()
        return (tuple(map(neg, row)) if row < zero else row,)
    nr = 0
    for c in range(ambient):
        if nr == m:
            break
        for piv in range(nr, m):
            if mat[piv][c]:
                break
        else:
            continue
        top = mat[piv]
        mat[piv] = mat[nr]
        a = top[c]  # the pivot, top[c], as rows below are folded into top
        for i in range(nr + 1, m):
            row = mat[i]
            b = row[c]
            if not b:
                continue
            q, rem = divmod(b, a)
            if not rem:
                # here xgcd(a, b) = (|a|, +-1, 0): the pivot row stays, up to sign
                mat[i] = [t - q * s for s, t in zip(top, row)]
                continue
            a, x, y = xgcd(a, b)
            u, v = top[c] // a, b // a
            top, mat[i] = (
                [x * s + y * t for s, t in zip(top, row)],
                [u * t - v * s for s, t in zip(top, row)],
            )
        if a < 0:
            top = [-e for e in top]
            a = -a
        mat[nr] = top
        for i in range(nr):
            q = mat[i][c] // a
            if q:
                mat[i] = [e - q * s for e, s in zip(mat[i], top)]
        nr += 1
    return tuple(map(tuple, mat[:nr]))


class _SubgroupValue(NamedTuple):
    ambient_rank: int
    basis: tuple[Vector, ...]


class TorusSubgroup(_SubgroupValue):
    """Closed subgroup of T^r, identified by the Hermite basis of its annihilator.

    The annihilator holds all characters k with <k, phi> in 2*pi*Z on the
    subgroup; it determines the subgroup uniquely, and the full torus has
    the empty basis.  A subgroup is the tuple ``(ambient_rank, basis)`` and
    compares and hashes as that tuple (see the module docstring); it is
    built only by ``subgroup_canonical``, ``subgroup_intersect``,
    ``extend_by_full_torus`` and ``TorusSubgroup.full_torus``.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        raise TypeError(
            "TorusSubgroup is built by subgroup_canonical, subgroup_intersect, "
            "extend_by_full_torus or TorusSubgroup.full_torus"
        )

    @classmethod
    def _make(cls, iterable):
        return cls()  # raises, as direct construction does; _replace goes through here

    def __reduce__(self):
        return subgroup_canonical, (self.ambient_rank, self.basis)

    @staticmethod
    def full_torus(r: int) -> "TorusSubgroup":
        return _subgroup(r, ())

    @property
    def annihilator(self) -> "TorusSubgroup":
        """The subgroup itself, so ``h.annihilator.basis`` is ``h.basis``.

        Only the benchmark tracer (``perfbench/tracer.py``) still reads it;
        ROADMAP item 5 deletes it.
        """
        return self

    @property
    def codim(self) -> int:
        return len(self.basis)

    @property
    def dim(self) -> int:
        return self.ambient_rank - self.codim

    @property
    def is_full(self) -> bool:
        return self.codim == 0

    def __str__(self) -> str:
        if self.is_full:
            return f"T^{self.ambient_rank}"
        rows = ",".join(str(tuple(r)) for r in self.basis)
        return f"H[{rows}]"


def _subgroup(r: int, basis: tuple[Vector, ...]) -> TorusSubgroup:
    """The subgroup of T^r whose annihilator has the Hermite basis ``basis``.

    Callers pass a basis that is canonical already (the invariant
    ``hermite_basis(r, basis) == basis``), so equal subgroups are equal
    tuples, with no second elimination.  The tuple is made the way a
    NamedTuple's own ``__new__`` makes it, without its Python frame.
    """
    return tuple.__new__(TorusSubgroup, (r, basis))


def subgroup_canonical(r: int, characters: Iterable[Sequence[int]]) -> TorusSubgroup:
    """Subgroup cut out by the given characters, canonically encoded."""
    return _subgroup(r, hermite_basis(r, characters))


def subgroup_intersect(h: TorusSubgroup, h2: TorusSubgroup) -> TorusSubgroup:
    """Intersection; the annihilator of the result is the lattice sum.

    Both stored bases are canonical rows of ints, so they go to the
    elimination as they are, without the input checks of ``hermite_basis``.
    """
    if h.ambient_rank != h2.ambient_rank:
        raise InputError("cannot intersect subgroups of different tori")
    r = h.ambient_rank
    return _subgroup(r, _hermite(r, [*h.basis, *h2.basis]))


def contains(h: TorusSubgroup, q: Sequence[Fraction | int]) -> bool:
    """Membership of the torus element exp(2*pi*i*q) in ``h``, exactly."""
    if len(q) != h.ambient_rank:
        raise InputError(f"point of length {len(q)} in ambient rank {h.ambient_rank}")
    den, nums = _common_denominator(q)
    return all(sum(map(mul, k, nums)) % den == 0 for k in h.basis)


def _common_denominator(q: Sequence[Fraction | int]) -> tuple[int, list[int]]:
    """``(d, [d * x for x in q])`` with d the least common denominator of the coordinates."""
    qv = [Fraction(e) for e in q]
    den = math.lcm(*(x.denominator for x in qv))
    return den, [x.numerator * (den // x.denominator) for x in qv]


def extend_by_full_torus(h: TorusSubgroup, l: int) -> TorusSubgroup:
    """``h x T^l`` inside ``T^(r+l)``; annihilator characters zero-padded."""
    if l < 0:
        raise InputError("extension rank must be nonnegative")
    # zero columns after the last keep a Hermite basis canonical
    pad = (0,) * l
    padded = tuple([row + pad for row in h.basis])
    return _subgroup(h.ambient_rank + l, padded)
