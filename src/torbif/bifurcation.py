"""Bifurcation analysis over the product torus T^(r+l).

Candidate parameter levels are the exact quotients beta/alpha of Laplace
and matrix eigenvalues.  At each level the kernel and negative-space
representations of the Hessian on the trivial branch are assembled from
tensor blocks, the bifurcation index is computed in the Euler ring, and a
verdict records global bifurcation, symmetry breaking, the local-or-global
alternative, and an unboundedness certificate when the highest-weight
hypotheses can be machine-checked.

The crossing widths never appear numerically: the index is computed from
the exact eigenvalue decompositions on both sides of a level, which is all
the defining difference of degrees depends on.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, NamedTuple

from .errors import ConsistencyError, CutoffError, InputError, shown
from .eulerring import (
    PLUCKER_MAX_RANK,
    EulerElement,
    deg_minus_id,
    lift,
    plucker_degree,
    plucker_image,
    plucker_sub,
    star,
)
from .intlat import TorusSubgroup, Vector, subgroup_canonical
from .spectra import LaplaceEigenData, MatrixEigenData, ProblemSpec
from .torusrep import TorusRep, canonical_weight, direct_sum, tensor

REASON_INDEX = "index-nonzero"
REASON_DOMAIN = "nontrivial-domain-weight"
REASON_ODD = "odd-kernel-dimension"
ALTERNATIVE_LOCAL_OR_GLOBAL = "local-or-global"
ALTERNATIVE_INCONCLUSIVE = "inconclusive"


class CandidateLevel(NamedTuple):
    lambda0: Fraction
    witnesses: tuple[tuple[Fraction, Fraction], ...]


class UnboundednessCertificate(NamedTuple):
    """Machine-checked evidence that the continuum at a level is unbounded.

    For nonzero levels this pins the subgroup cut out by the combined
    marker/highest-weight character, the (verified) coefficient it carries
    in the bifurcation index, and the scan showing the weight is absent
    from every kernel strictly between 0 and the level.  At level 0 the
    certificate records the odd-dimension route.
    """

    kind: str  # "highest-weight" | "zero-level"
    subgroup: TorusSubgroup | None = None
    coefficient: int | None = None
    multiplicity: int | None = None
    witness: tuple[Fraction, Fraction, Vector, Vector] | None = None
    excluded_levels: tuple[Fraction, ...] = ()


class Verdict(NamedTuple):
    """Outcome record for one level.

    ``global_bifurcation`` is exactly nonvanishing of the index; the reason
    tags additionally record which sufficient hypotheses hold (a kernel
    weight with nonzero domain part, or odd kernel dimension, each on top of
    N1 or N2).  Symmetry breaking is N2 at a nonzero level.  When neither N1
    nor N2 is certified the verdict degrades to the local-or-global alternative.
    """

    global_bifurcation: bool
    reasons: tuple[str, ...]
    symmetry_breaking: bool
    alternative: str | None
    unbounded: UnboundednessCertificate | None
    unbounded_reason: str | None
    zero_level_parity: str | None


class LevelAnalysis(NamedTuple):
    """One level's kernel, index and verdict, and the negative spaces just below and above it.

    For a positive level these accumulate the kernels at candidates in
    (0, lambda0), including lambda0 itself on the upper side; mirrored for
    negative levels; both are zero at level 0 (crossing widths are symbolic,
    so no other candidate ever sits inside the gap).
    """

    lambda0: Fraction
    kernel: TorusRep
    negative_below: TorusRep
    negative_above: TorusRep
    index: EulerElement
    verdict: Verdict


class LevelSweep(NamedTuple):
    """Outcome of :func:`analyze_levels`, with one record per requested level.

    A record is the level's analysis, or the message of its cutoff refusal.
    """

    candidates: tuple[CandidateLevel, ...]
    records: tuple[tuple[Fraction, LevelAnalysis | str], ...]

    def analyses(self) -> list[LevelAnalysis]:
        """The analyses in request order; raises ``CutoffError`` for the first refused level instead."""
        for _, outcome in self.records:
            if isinstance(outcome, str):
                raise CutoffError(outcome)
        return [outcome for _, outcome in self.records]


class HessianEigenvalue(NamedTuple):
    value: Fraction
    multiplicity: int
    rep: TorusRep


def _check_cutoff(spec: ProblemSpec, lam: Fraction) -> None:
    needed = abs(lam) * spec.max_abs_alpha()
    if needed > spec.beta_cutoff:
        raise CutoffError(
            f"analysis at level {shown(lam)} needs Laplace data up to {shown(needed)}, "
            f"declared cutoff is {shown(spec.beta_cutoff)}"
        )


_Witnesses = list[tuple[MatrixEigenData, LaplaceEigenData]]


def _pairs(spec: ProblemSpec) -> dict[Fraction, _Witnesses]:
    """Matrix and Laplace eigendata grouped by their quotient beta/alpha."""
    acc: dict[Fraction, _Witnesses] = {}
    for me in spec.matrix_spectrum:
        if me.alpha != 0:
            for le in spec.laplace_spectrum:
                acc.setdefault(le.beta / me.alpha, []).append((me, le))
    return acc


def candidate_levels(spec: ProblemSpec) -> tuple[CandidateLevel, ...]:
    """All exact quotients beta/alpha, deduplicated with witness sets."""
    return analyze_levels(spec, []).candidates


def kernel_rep(spec: ProblemSpec, lambda0: Fraction | int | str) -> TorusRep:
    """Kernel of the Hessian at the level, orthogonal to constants.

    Direct sum of the tensor blocks (matrix eigenspace) x (Laplace
    eigenspace) over the witness pairs with positive Laplace eigenvalue;
    the zero representation when the level is not a candidate.
    """
    lam0 = Fraction(lambda0)
    _check_cutoff(spec, lam0)
    return _kernel(spec.r + spec.l, _pairs(spec).get(lam0, []))


def _kernel(n: int, witnesses: _Witnesses) -> TorusRep:
    """Direct sum of the tensor blocks of a level's witness pairs with positive beta."""
    out = TorusRep(n)
    for me, le in witnesses:
        if le.beta != 0:
            out = direct_sum(out, tensor(me.eigenspace, le.eigenspace))
    return out


def hessian_spectrum(
    spec: ProblemSpec, lam: Fraction | int | str
) -> tuple[HessianEigenvalue, ...]:
    """Exact eigenvalues (beta - lambda*alpha)/(1 + beta) with tensor blocks."""
    lam = Fraction(lam)
    _check_cutoff(spec, lam)
    acc: dict[Fraction, TorusRep] = {}
    for me in spec.matrix_spectrum:
        for le in spec.laplace_spectrum:
            value = (le.beta - lam * me.alpha) / (1 + le.beta)
            block = tensor(me.eigenspace, le.eigenspace)
            acc[value] = direct_sum(acc.get(value, TorusRep(spec.r + spec.l)), block)
    return tuple(
        HessianEigenvalue(v, rep.dim, rep) for v, rep in sorted(acc.items())
    )


def analyze_levels(
    spec: ProblemSpec, levels: Iterable[Fraction | int | str] | None = None
) -> LevelSweep:
    """Analyse the given levels (every candidate by default) in one sorted sweep.

    The spec carries its validation, certificate obstacle included, and its
    eigendata are grouped by level once.  Walking outward from 0 on each
    side, each kernel is built once and added to the negative space toward
    0 (near), giving the one away from it (far).  The gradient
    degree D = lift(F) * deg(-Id) on the negative space is carried as a
    running product from D = lift(F) at the zero space: at every walked
    level D(far) = D(near) * deg(-Id)(kernel).  At a requested level, with
    the near and far sides named below and above, the index is
    D(above) - D(below).  It is checked without the star product: its
    Plücker-square image (see :mod:`~torbif.eulerring`) must equal
    P(above) - P(below), where P, the image of D, is carried alongside from
    Phi(lift(F)) by the closed form from each kernel's weights.  Phi is
    not injective, so an error whose image is 0 passes this check: a swap of
    subgroups of equal rational span and covolume, or a combination whose
    squared wedges cancel across spans (:mod:`~torbif.eulerring` gives one).
    Above ``PLUCKER_MAX_RANK`` the running degree is instead compared with
    lift(F) * deg(-Id)(far) computed from scratch.  Every ring product is
    ``star`` looked up in this module at call time, so a rebound ``star``
    sees each one.

    Each requested level gets a record: its analysis, or the message of its
    cutoff refusal.  A level past the cutoff is refused before it is checked
    for being a candidate; a nonzero level that is not a candidate raises
    ``InputError`` before any walk, and a failed index or certificate check
    raises ``ConsistencyError`` where it is found.
    """
    pairs = _pairs(spec)
    cands = tuple(
        CandidateLevel(lam, tuple(sorted((me.alpha, le.beta) for me, le in witnesses)))
        for lam, witnesses in sorted(pairs.items())
    )
    wanted = sorted(pairs) if levels is None else [Fraction(x) for x in levels]
    out: dict[Fraction, LevelAnalysis | str] = {}
    for lam in wanted:
        try:
            _check_cutoff(spec, lam)
        except CutoffError as exc:
            out[lam] = str(exc)
            continue
        if lam != 0 and lam not in pairs:
            raise InputError(f"{shown(lam)} is not a candidate level")
    todo = set(wanted) - set(out)
    n = spec.r + spec.l
    zero = TorusRep(n)
    # the gradient degree where the negative space is zero: the lifted origin degree
    start = {1: lift(spec.origin_degree_pos, spec.l), -1: lift(spec.origin_degree_neg, spec.l)}
    if 0 in todo:
        out[Fraction(0)] = _record(spec, pairs, Fraction(0), zero, zero, zero, start[1] - start[-1])
    # positive side first: a fixed order, so the level a defect names does not depend on set order
    for stop in sorted({max(todo | {0}), min(todo | {0})} - {0}, reverse=True):
        side = 1 if stop > 0 else -1
        near, d_far = zero, start[side]
        p_far = plucker_image(d_far) if n <= PLUCKER_MAX_RANK else None
        for t in sorted((t for t in pairs if _between_zero_and(t, stop)), key=abs) + [stop]:
            kernel = _kernel(n, pairs[t])  # |t| <= |stop|, which passed the cutoff check
            far = direct_sum(near, kernel)
            d_near, p_near = d_far, p_far
            d_far = star(d_near, deg_minus_id(kernel, star))
            if p_near is not None:
                p_far = plucker_degree(kernel, p_near)
            if t in todo:
                jump = d_far - d_near
                if p_far is None:
                    agree = d_far == star(start[side], deg_minus_id(far, star))
                else:
                    agree = plucker_image(jump) == plucker_sub(p_far, p_near)
                if not agree:
                    raise ConsistencyError(f"index routes disagree at level {t}")
                below, above = (near, far) if side > 0 else (far, near)
                out[t] = _record(spec, pairs, t, kernel, below, above, jump if side > 0 else -jump)
            near = far
    return LevelSweep(cands, tuple((lam, out[lam]) for lam in wanted))


def _between_zero_and(t: Fraction, level: Fraction) -> bool:
    """Whether t lies strictly between 0 and the nonzero level (0 < t / level < 1), by comparisons only."""
    return 0 < t < level or level < t < 0


def _unboundedness(
    spec: ProblemSpec,
    pairs: dict[Fraction, _Witnesses],
    lam0: Fraction,
    kernel: TorusRep,
    below: TorusRep,
    above: TorusRep,
    index: EulerElement,
) -> tuple[UnboundednessCertificate | None, str | None]:
    """Certificate that the continuum at the level is unbounded, or a reason.

    Hypotheses checked: (E) with markers, irreducibility flags and fresh
    highest weights for every positive Laplace eigenvalue, and a nonzero
    unit coefficient in the origin degree on the relevant side.  The
    certified coefficient at the combined-character subgroup is verified
    against the expected closed form, and the weight is scanned out of
    every kernel strictly between 0 and the level: their direct sum is the
    negative space on the side of the level toward 0.
    """
    obstacle = spec.validation.certificate_obstacle
    if obstacle is not None:
        return None, obstacle

    if lam0 == 0:
        if not spec.validation.n1:
            return None, "origin degenerate (N1 fails)"
        if spec.p % 2 == 0:
            return None, "p is even"
        if index.is_zero:
            return None, "index at level 0 vanishes despite odd p"
        return UnboundednessCertificate(kind="zero-level"), None

    side = spec.origin_degree_pos if lam0 > 0 else spec.origin_degree_neg
    n0 = side.unit_coefficient()
    if n0 == 0:
        return None, "unit coefficient of the origin degree vanishes"

    me, le = min(pairs[lam0], key=lambda p: p[1].beta)
    mu = me.marker_weight
    nu = le.highest_weight
    assert mu is not None and nu is not None
    combined = canonical_weight(mu + nu)
    mirrored = canonical_weight(mu + tuple(-x for x in nu))
    h_star = subgroup_canonical(spec.r + spec.l, [combined])

    mult = kernel.multiplicity(combined)
    coeff = index.coefficient(h_star)

    def degree_coefficient(v: TorusRep) -> int:  # of chi(h_star) in deg(-Id)(v)
        return -((-1) ** v.dim) * v.multiplicity(combined)

    expected = n0 * (degree_coefficient(above) - degree_coefficient(below))
    if mult < 1 or coeff != expected or coeff == 0:
        raise ConsistencyError(
            f"certificate coefficient at {h_star} is {coeff}, expected {expected}"
        )

    near = below if lam0 > 0 else above
    if near.occurs(combined) or near.occurs(mirrored):
        raise ConsistencyError(f"weight {combined} leaks into a kernel strictly between 0 and level {lam0}")
    return (
        UnboundednessCertificate(
            kind="highest-weight",
            subgroup=h_star,
            coefficient=coeff,
            multiplicity=mult,
            witness=(me.alpha, le.beta, mu, nu),
            excluded_levels=tuple(sorted(t for t in pairs if _between_zero_and(t, lam0))),
        ),
        None,
    )


def _record(
    spec: ProblemSpec,
    pairs: dict[Fraction, _Witnesses],
    lam0: Fraction,
    kernel: TorusRep,
    below: TorusRep,
    above: TorusRep,
    index: EulerElement,
) -> LevelAnalysis:
    """The level's analysis from the sweep's kernel, negative spaces and index."""
    cert, reason = _unboundedness(spec, pairs, lam0, kernel, below, above, index)
    report = spec.validation
    certified = report.n1 or report.n2
    domain_action = any(any(w[spec.r :]) for w, _ in kernel.weights)
    odd = kernel.dim % 2 == 1

    glob = not index.is_zero
    reasons: list[str] = []
    if glob:
        reasons.append(REASON_INDEX)
    if certified and domain_action:
        reasons.append(REASON_DOMAIN)
    if certified and odd:
        reasons.append(REASON_ODD)

    alternative = None
    if not certified and (domain_action or odd):
        alternative = ALTERNATIVE_LOCAL_OR_GLOBAL
    elif certified and lam0 != 0 and not glob and not domain_action and not odd:
        # trivial domain action with even kernel dimension: undecided here
        alternative = ALTERNATIVE_INCONCLUSIVE

    zero_parity = None
    if lam0 == 0 and report.n1:
        zero_parity = "p-odd" if spec.p % 2 else "p-even"

    v = Verdict(
        global_bifurcation=glob,
        reasons=tuple(reasons),
        symmetry_breaking=report.n2 and lam0 != 0,
        alternative=alternative,
        unbounded=cert,
        unbounded_reason=reason,
        zero_level_parity=zero_parity,
    )
    return LevelAnalysis(lam0, kernel, below, above, index, v)
