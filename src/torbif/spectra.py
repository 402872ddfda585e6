"""Problem specifications and built-in spectral providers.

A problem couples the eigendata of the symmetric coefficient matrix (over
the system torus T^r) with Laplace-Beltrami eigendata of the domain (over
the domain torus T^l), a completeness cutoff for the stored spectrum, and
the equivariant degrees of the right-hand side at the origin for each sign
of the parameter.  Everything spectral is an exact rational.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import product
from math import isqrt
from typing import NamedTuple

from .errors import InputError, RefusalError, shown
from .eulerring import EulerElement
from .intlat import Vector
from .torusrep import TorusRep, canonical_weight

N2_IRREDUCIBLE = "irreducible-flags"
N2_FIXED_FREE = "no-torus-fixed-vectors"
N2_VACUOUS = "vacuous"

# Largest lattice cube flat_torus_spectrum walks before it refuses; the
# shipped and benchmarked problems walk at most 25 points.
FLAT_TORUS_MAX_POINTS = 10**6
# Largest bound on coordinate updates, n l (cutoff_k+1)^2 (2 cutoff_k+1)^l with
# l = n//2, that sphere_spectrum takes on before it refuses.  The slowest input
# it admits with n <= 129 (the parser's rank limit) is n = 3 at cutoff_k = 117,
# 0.3-0.7 s on a 2-core machine; the shipped, tested and benchmarked problems
# need at most 82,810 (n = 5, cutoff_k = 6).
SPHERE_MAX_WORK = 10**7
# Most structural errors validate's message lists; it counts the rest.
LISTED_ERRORS = 10


class MatrixEigenData(NamedTuple):
    """One eigenvalue of the coefficient matrix with its eigenspace; checked by the ``ProblemSpec`` holding it."""

    alpha: Fraction
    eigenspace: TorusRep
    marker_weight: Vector | None = None


class LaplaceEigenData(NamedTuple):
    """One Laplace-Beltrami eigenvalue with its eigenspace data; checked by the ``ProblemSpec`` holding it.

    ``irreducible_nontrivial`` is the user's certification that the full
    symmetry group acts irreducibly and nontrivially on the eigenspace;
    the library stores only the torus restriction and cannot check it.
    """

    beta: Fraction
    eigenspace: TorusRep
    irreducible_nontrivial: bool = False
    highest_weight: Vector | None = None


class _ProblemValue(NamedTuple):
    r: int
    l: int
    p: int
    matrix_spectrum: tuple[MatrixEigenData, ...]
    laplace_spectrum: tuple[LaplaceEigenData, ...]
    beta_cutoff: Fraction
    origin_degree_pos: EulerElement
    origin_degree_neg: EulerElement
    validation: ValidationReport


class ProblemSpec(_ProblemValue):
    """A problem, valid by construction: it carries its own ``validation``.

    The constructor only normalises: each alpha, beta and the cutoff
    becomes a ``Fraction`` (``beta / alpha`` of two ints would be a float),
    each marker and highest weight an int tuple, and both spectra are
    sorted.  Then :func:`validate` checks every content rule and raises
    the errors, and its hypothesis flags are stored once as the last field,
    ``validation``.  That field is never taken from the caller: ``_make``,
    and so ``_replace``, copy and pickle, drop it and build the spec
    through the constructor again.
    """

    __slots__ = ()

    def __new__(
        cls,
        r: int,
        l: int,
        p: int,
        matrix_spectrum: tuple[MatrixEigenData, ...],
        laplace_spectrum: tuple[LaplaceEigenData, ...],
        beta_cutoff: Fraction,
        origin_degree_pos: EulerElement,
        origin_degree_neg: EulerElement,
    ):
        matrix = [MatrixEigenData(Fraction(a), rep, _int_tuple(m)) for a, rep, m in matrix_spectrum]
        laplace = [LaplaceEigenData(Fraction(b), rep, irr, _int_tuple(hw)) for b, rep, irr, hw in laplace_spectrum]
        matrix.sort(key=lambda e: e.alpha)
        laplace.sort(key=lambda e: e.beta)
        fields = (r, l, p, tuple(matrix), tuple(laplace), Fraction(beta_cutoff), origin_degree_pos, origin_degree_neg)
        # validate reads every field but its own result
        return tuple.__new__(cls, (*fields, validate(tuple.__new__(cls, (*fields, None)))))

    @classmethod
    def _make(cls, iterable) -> "ProblemSpec":
        *fields, _validation = iterable
        return cls(*fields)

    def __getnewargs__(self) -> tuple:
        return self[:-1]

    def max_abs_alpha(self) -> Fraction:
        # the matrix spectrum is sorted by alpha and never empty, so |alpha| peaks at one of its ends
        return max(abs(self.matrix_spectrum[0].alpha), abs(self.matrix_spectrum[-1].alpha))


def _int_tuple(weight) -> Vector | None:
    return None if weight is None else tuple(int(e) for e in weight)


class ValidationReport(NamedTuple):
    n1: bool
    n2: bool
    n2_method: str | None
    e_holds: bool
    e_witnesses: tuple[tuple[Fraction, Vector], ...] | None
    certificate_obstacle: str | None


def flat_torus_spectrum(d: int, cutoff: int) -> tuple[LaplaceEigenData, ...]:
    """Laplace spectrum of the flat torus T^d up to ``cutoff``.

    Eigenvalues are the squared lattice norms |m|^2 <= cutoff; the
    eigenspace of a positive eigenvalue is one rotation block per
    sign-canonical lattice point on the sphere of that radius.  Refuses
    when the cube it walks has more than ``FLAT_TORUS_MAX_POINTS`` points.
    """
    if d < 1:
        raise InputError("dimension must be at least 1")
    if cutoff < 0:
        raise InputError("cutoff must be nonnegative")
    s = isqrt(cutoff)
    # (2s+1)^d with the exponent capped at the limit's bit length: exact for
    # 2s+1 >= 2, since 2**bit_length exceeds the limit, and never a huge power
    if (2 * s + 1) ** min(d, FLAT_TORUS_MAX_POINTS.bit_length()) > FLAT_TORUS_MAX_POINTS:
        raise RefusalError(
            f"flat torus T^{shown(d)} up to cutoff {shown(cutoff)} walks {shown(2 * s + 1)}^{shown(d)} lattice points, "
            f"more than {FLAT_TORUS_MAX_POINTS}; lower the cutoff or d"
        )
    by_beta: dict[int, dict[Vector, int]] = {}
    for m in product(range(-s, s + 1), repeat=d):
        q = sum(x * x for x in m)
        if q > cutoff:
            continue
        if not any(m):
            by_beta.setdefault(0, {})
            continue
        if canonical_weight(m) != m:
            continue  # count each +-pair once
        by_beta.setdefault(q, {})[m] = 1
    entries = []
    for beta in sorted(by_beta):
        weights = by_beta[beta]
        if beta == 0:
            entries.append(
                LaplaceEigenData(
                    beta=Fraction(0),
                    eigenspace=TorusRep(d, 1),
                    irreducible_nontrivial=False,
                    highest_weight=(0,) * d,
                )
            )
        else:
            single = len(weights) == 1
            entries.append(
                LaplaceEigenData(
                    beta=Fraction(beta),
                    eigenspace=TorusRep(d, 0, weights),
                    irreducible_nontrivial=single,
                    highest_weight=next(iter(weights)) if single else None,
                )
            )
    return tuple(entries)


def _sym_power_weights(base: list[Vector], k: int) -> list[dict[Vector, int]]:
    """Weight multisets of the symmetric powers 0..k of a sum of lines."""
    zero = (0,) * len(base[0])
    state: list[dict[Vector, int]] = [{} for _ in range(k + 1)]
    state[0][zero] = 1
    for w in base:
        nxt: list[dict[Vector, int]] = [{} for _ in range(k + 1)]
        for used in range(k + 1):
            for vec, mult in state[used].items():
                extra = 0
                cur = vec
                while used + extra <= k:
                    nxt[used + extra][cur] = nxt[used + extra].get(cur, 0) + mult
                    extra += 1
                    cur = tuple(a + b for a, b in zip(cur, w))
        state = nxt
    return state


def sphere_spectrum(n: int, cutoff_k: int) -> tuple[LaplaceEigenData, ...]:
    """Laplace spectrum of the round sphere S^(n-1), levels k = 0..cutoff_k.

    The level-k eigenvalue is k(k+n-2).  Torus weights (rank floor(n/2))
    are obtained from the weight multisets of the symmetric powers of the
    standard n-dimensional representation: level k carries Sym^k minus
    Sym^(k-2).  The highest weight is k times the first basis character.
    Refuses when the predicted work is more than ``SPHERE_MAX_WORK``.
    """
    if n < 2:
        raise InputError("ambient dimension must be at least 2")
    if cutoff_k < 0:
        raise InputError("cutoff level must be nonnegative")
    l = n // 2
    # n base lines of length l, at most (cutoff_k+1)^2 updates of at most
    # (2 cutoff_k+1)^l weights each; the exponent is capped as in
    # flat_torus_spectrum, exact unless the bound is already over the limit
    work = n * l * (cutoff_k + 1) ** 2 * (2 * cutoff_k + 1) ** min(l, SPHERE_MAX_WORK.bit_length())
    if work > SPHERE_MAX_WORK:
        raise RefusalError(
            f"sphere S^{shown(n - 1)} up to cutoff_k = {shown(cutoff_k)} bounds its work by {shown(work)} coordinate "
            f"updates, more than {SPHERE_MAX_WORK}; lower cutoff_k or n"
        )
    base: list[Vector] = []
    for i in range(l):
        e = [0] * l
        e[i] = 1
        base.append(tuple(e))
        base.append(tuple(-x for x in e))
    if n % 2:
        base.append((0,) * l)
    zero = (0,) * l
    powers = _sym_power_weights(base, cutoff_k)
    entries = []
    for k in range(cutoff_k + 1):
        cw = dict(powers[k])
        if k >= 2:
            for w, mult in powers[k - 2].items():
                cw[w] = cw.get(w, 0) - mult
        trivial = cw.pop(zero, 0)
        folded: dict[Vector, int] = {}
        for w, mult in cw.items():
            if mult == 0:
                continue
            cwc = canonical_weight(w)
            if cwc == w:
                neg = tuple(-x for x in w)
                if cw.get(neg, 0) != mult:
                    raise InputError("asymmetric complex weight multiset")
                folded[w] = mult
        highest = tuple(k if i == 0 else 0 for i in range(l))
        entries.append(
            LaplaceEigenData(
                beta=Fraction(k * (k + n - 2)),
                eigenspace=TorusRep(l, trivial, folded),
                irreducible_nontrivial=k >= 1,
                highest_weight=highest,
            )
        )
    return tuple(entries)


def validate(spec: ProblemSpec) -> ValidationReport:
    """Check the structural and hypothesis-level properties of a spec.

    The ``ProblemSpec`` constructor runs it once and stores the result as
    ``spec.validation``, so every spec carries its validation.  It owns
    every content rule of a problem.  Structural problems raise one
    InputError that lists the first ``LISTED_ERRORS`` of them and counts
    the rest, with the code of the first:
    SCHEMA for a malformed spec (a torus rank, an eigenspace of the wrong
    rank or of dimension 0, a marker or highest weight of the wrong length,
    a negative beta, a degree in the wrong ring), each entry named by its
    eigenvalue, then DIM_MISMATCH, SCHEMA, CUTOFF_INSUFFICIENT or
    B6_TRIVIAL.  The hypothesis flags are: N1 (origin nondegenerate, no
    zero matrix eigenvalue), N2 (no fixed vectors in positive Laplace
    eigenspaces, certified either by irreducibility flags or the stronger
    torus-fixed-point-free criterion), and (E) (each matrix eigenvalue owns
    a marker weight occurring in its eigenspace and in no other).  The last
    field, ``certificate_obstacle``, says why no level can carry a
    highest-weight certificate ((E) fails, or see :func:`_uniqueness_scan`),
    or is None.  Each check indexes its spectrum's weights once: linear work.
    """
    errors = [("SCHEMA", message) for message in _schema_errors(spec)]
    total = sum(e.eigenspace.dim for e in spec.matrix_spectrum)
    if total != spec.p:
        errors.append(("DIM_MISMATCH", f"matrix eigenspace dimensions sum to {shown(total)}, expected p={shown(spec.p)}"))
    if not spec.matrix_spectrum:
        errors.append(("SCHEMA", "empty matrix spectrum"))
    if not spec.laplace_spectrum:
        errors.append(("SCHEMA", "empty Laplace spectrum"))
    alphas = [e.alpha for e in spec.matrix_spectrum]
    errors += [("SCHEMA", f"repeated matrix eigenvalue {shown(a)}") for a, n in Counter(alphas).items() if n > 1]
    betas = [e.beta for e in spec.laplace_spectrum]
    errors += [("SCHEMA", f"repeated Laplace eigenvalue {shown(b)}") for b, n in Counter(betas).items() if n > 1]
    for b in betas:
        if b > spec.beta_cutoff:
            errors.append(
                ("CUTOFF_INSUFFICIENT", f"eigenvalue {shown(b)} exceeds declared cutoff {shown(spec.beta_cutoff)}")
            )
    if spec.origin_degree_pos.is_zero:
        errors.append(("B6_TRIVIAL", "origin degree for positive levels is zero"))
    if spec.origin_degree_neg.is_zero:
        errors.append(("B6_TRIVIAL", "origin degree for negative levels is zero"))
    if errors:
        listed = [f"{code}: {message}" for code, message in errors[:LISTED_ERRORS]]
        if len(errors) > LISTED_ERRORS:
            listed.append(f"…and {len(errors) - LISTED_ERRORS} more")
        raise InputError("; ".join(listed), code=errors[0][0])

    n1 = all(a != 0 for a in alphas)

    positive = [e for e in spec.laplace_spectrum if e.beta > 0]
    if not positive:
        n2, n2_method = True, N2_VACUOUS
    elif all(e.irreducible_nontrivial for e in positive):
        n2, n2_method = True, N2_IRREDUCIBLE
    elif all(e.eigenspace.trivial_mult == 0 for e in positive):
        n2, n2_method = True, N2_FIXED_FREE
    else:
        n2, n2_method = False, None

    # (E): a marker's weight is held by its own eigenspace and by no other
    holders = _holders(e.eigenspace for e in spec.matrix_spectrum)
    e_holds = all(
        e.marker_weight is not None and holders.get(canonical_weight(e.marker_weight)) == [i]
        for i, e in enumerate(spec.matrix_spectrum)
    )

    return ValidationReport(
        n1=n1,
        n2=n2,
        n2_method=n2_method,
        e_holds=e_holds,
        e_witnesses=tuple((e.alpha, e.marker_weight) for e in spec.matrix_spectrum) if e_holds else None,
        certificate_obstacle=_uniqueness_scan(spec) if e_holds else "(E) fails: markers missing or not unique",
    )


def _schema_errors(spec: ProblemSpec) -> list[str]:
    """What makes ``spec`` malformed; a spectrum entry is named by its eigenvalue, and only when it is at fault."""
    messages = []
    if spec.l < 1:
        messages.append("domain torus rank must be at least 1")
    if spec.r < 0:
        messages.append("system torus rank must be nonnegative")
    for e in spec.matrix_spectrum:
        problems = _entry_problems(e.eigenspace, "r", spec.r, "marker", e.marker_weight)
        messages += [f"matrix eigenvalue {shown(e.alpha)}: {problem}" for problem in problems]
    for e in spec.laplace_spectrum:
        problems = _entry_problems(e.eigenspace, "l", spec.l, "highest weight", e.highest_weight)
        if e.beta < 0:
            problems.insert(0, "must be nonnegative")
        messages += [f"Laplace eigenvalue {shown(e.beta)}: {problem}" for problem in problems]
    for sign, degree in (("positive", spec.origin_degree_pos), ("negative", spec.origin_degree_neg)):
        if degree.ambient_rank != spec.r:
            messages.append(
                f"origin degree for {sign} levels lives in the ring of T^{shown(degree.ambient_rank)}, "
                f"not of T^r with r={shown(spec.r)}"
            )
    return messages


def _entry_problems(rep: TorusRep, rank_name: str, rank: int, weight_name: str, weight: Vector | None) -> list[str]:
    """An eigenspace of the wrong rank or of dimension 0, and a marker or highest weight of the wrong length."""
    problems = []
    if rep.ambient_rank != rank:
        problems.append(f"eigenspace of rank {shown(rep.ambient_rank)}, not {rank_name}={shown(rank)}")
    if rep.dim < 1:
        problems.append("eigenspace of dimension 0")
    if weight is not None and len(weight) != rank:
        problems.append(f"{weight_name} of length {len(weight)}, not {rank_name}={shown(rank)}")
    return problems


def _holders(reps) -> dict[Vector, list[int]]:
    """Each canonical weight mapped to the positions of the representations holding it; a trivial block holds 0."""
    index: dict[Vector, list[int]] = {}
    for i, rep in enumerate(reps):
        if rep.trivial_mult:
            index.setdefault((0,) * rep.ambient_rank, []).append(i)
        for w, _ in rep.weights:
            index.setdefault(w, []).append(i)
    return index


def _uniqueness_scan(spec: ProblemSpec) -> str | None:
    """Check each declared highest weight is a weight of its own eigenvalue beta, new there."""
    laplace = spec.laplace_spectrum
    # sorted by distinct betas, so a weight's first holder is the least beta holding it
    holders = _holders(le.eigenspace for le in laplace)
    for i, le in enumerate(laplace):
        if le.beta <= 0:
            continue
        if not le.irreducible_nontrivial:
            return f"eigenspace at {shown(le.beta)} not certified irreducible"
        if le.highest_weight is None:
            return f"no highest weight declared at {shown(le.beta)}"
        if not any(le.highest_weight):
            return f"zero highest weight at {shown(le.beta)}"
        if not le.eigenspace.occurs(le.highest_weight):
            return f"highest weight {shown(le.highest_weight)} at beta {shown(le.beta)} is not a weight of its eigenspace"
        first = holders[canonical_weight(le.highest_weight)][0]
        if first < i:
            return (
                f"highest weight {shown(le.highest_weight)} at beta {shown(le.beta)} "
                f"already occurs at beta {shown(laplace[first].beta)}"
            )
    return None
