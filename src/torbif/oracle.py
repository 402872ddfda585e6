"""Independent brute-force verifiers for the exact algebra pipeline.

Every invariant of the lattice, ring, representation, and bifurcation
layers is registered here as a named suite driven by a seeded generator,
so the whole stack can be revalidated deterministically from the command
line.  Suites that exercise the ring product or the tensor rule accept
the implementation as a parameter; passing a deliberately broken rule
must make at least one suite fail, which guards the suites themselves
against vacuity.
"""

from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

from . import bifurcation as bif
from .errors import InputError, RefusalError, shown
from .eulerring import EulerElement, deg_minus_id, lift, star
from .intlat import (
    TorusSubgroup,
    Vector,
    contains,
    det,
    extend_by_full_torus,
    snf,
    subgroup_canonical,
    subgroup_intersect,
)
from .problemfile import parse_problem
from .spectra import (
    MatrixEigenData,
    ProblemSpec,
    flat_torus_spectrum,
    sphere_spectrum,
)
from .torusrep import TorusRep, canonical_weight, character, direct_sum, tensor

StarImpl = Callable[[EulerElement, EulerElement], EulerElement]
TensorImpl = Callable[[TorusRep, TorusRep], TorusRep]
# One randomized trial: a description of its case, made only if it fails, and whether it passed.
Trial = tuple[Callable[[], str], bool]

# Most trials run_selftest takes on; all suites at this count take about 25 s
# on a 2-core host (2-3 s at 1,000 trials).
SELFTEST_MAX_TRIALS = 10_000


class SuiteResult(NamedTuple):
    trials: int
    failures: int
    first_counterexample: str | None

    @property
    def ok(self) -> bool:
        return self.failures == 0


class SelfTestReport(NamedTuple):
    seed: int
    suites: tuple[tuple[str, SuiteResult], ...]

    @property
    def ok(self) -> bool:
        return all(res.ok for _, res in self.suites)

    def suite(self, name: str) -> SuiteResult:
        for n, res in self.suites:
            if n == name:
                return res
        raise InputError(f"no such suite: {name}")


# ---------------------------------------------------------------------------
# deliberately broken rules for the mutation gate


def star_dimension_flipped(a: EulerElement, b: EulerElement) -> EulerElement:
    """Star product with the transversality branch inverted."""
    r = a.ambient_rank
    acc: dict[TorusSubgroup, int] = {}
    for ha, ca in a.terms:
        for hb, cb in b.terms:
            hi = subgroup_intersect(ha, hb)
            if ha.dim + hb.dim != r + hi.dim:
                acc[hi] = acc.get(hi, 0) + ca * cb
    return EulerElement(r, acc)


def tensor_sign_flipped(w: TorusRep, v: TorusRep) -> TorusRep:
    """Tensor rule without the mirrored twin: (m, n) counted twice."""
    r, l = w.ambient_rank, v.ambient_rank
    blocks = [(m + (0,) * l, lm * v.trivial_mult) for m, lm in w.weights]
    blocks += [((0,) * r + n, w.trivial_mult * kn) for n, kn in v.weights]
    for m, lm in w.weights:
        for n, kn in v.weights:
            blocks.append((m + n, 2 * kn * lm))
    return TorusRep(r + l, w.trivial_mult * v.trivial_mult, blocks)


# ---------------------------------------------------------------------------
# random generators (r + l <= 4, small weights and coefficients)


def _rand_matrix(rng: random.Random, max_dim: int = 6, bound: int = 20) -> tuple[Vector, ...]:
    p = rng.randint(1, max_dim)
    r = rng.randint(1, max_dim)
    return tuple(tuple(rng.randint(-bound, bound) for _ in range(r)) for _ in range(p))

def _rand_weight(rng: random.Random, r: int, bound: int = 5) -> Vector:
    while True:
        m = tuple(rng.randint(-bound, bound) for _ in range(r))
        if any(m):
            return m


def _rand_characters(rng: random.Random, r: int, count: int) -> list[Vector]:
    return [_rand_weight(rng, r) for _ in range(count)]


def _rand_subgroup(rng: random.Random, r: int, proper: bool = False) -> TorusSubgroup:
    low = 1 if proper else 0
    return subgroup_canonical(r, _rand_characters(rng, r, rng.randint(low, r)))


def _rand_rep(rng: random.Random, r: int, max_weights: int = 3) -> TorusRep:
    weights: dict[Vector, int] = {}
    for _ in range(rng.randint(0, max_weights)):
        weights[_rand_weight(rng, r)] = rng.randint(1, 2)
    return TorusRep(r, rng.randint(0, 2), weights)


def _rand_element(rng: random.Random, r: int, max_terms: int = 6) -> EulerElement:
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        coeff = rng.choice([-5, -4, -3, -2, -1, 1, 2, 3, 4, 5])
        terms.append((_rand_subgroup(rng, r), coeff))
    return EulerElement(r, terms)


def _rand_point(rng: random.Random, r: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(rng.randint(-12, 12), rng.randint(1, 12)) for _ in range(r))


def _tensor_by_complexification(w: TorusRep, v: TorusRep) -> TorusRep:
    """Independent tensor decomposition through complex weight multisets."""

    def complex_weights(rep: TorusRep) -> dict[Vector, int]:
        out: dict[Vector, int] = {}
        zero = (0,) * rep.ambient_rank
        if rep.trivial_mult:
            out[zero] = rep.trivial_mult
        for m, k in rep.weights:
            out[m] = out.get(m, 0) + k
            neg = tuple(-x for x in m)
            out[neg] = out.get(neg, 0) + k
        return out

    comb: dict[Vector, int] = {}
    for a, ka in complex_weights(w).items():
        for b, kb in complex_weights(v).items():
            comb[a + b] = comb.get(a + b, 0) + ka * kb
    rank = w.ambient_rank + v.ambient_rank
    trivial = comb.pop((0,) * rank, 0)
    folded: dict[Vector, int] = {}
    for m, k in comb.items():
        if canonical_weight(m) == m:
            if comb.get(tuple(-x for x in m), 0) != k:
                raise InputError("complex multiset is not symmetric")
            folded[m] = k
    return TorusRep(rank, trivial, folded)


# ---------------------------------------------------------------------------
# fixture problem builders (shared with the test suite)


def circle_quartic_spec(cutoff: int = 25) -> ProblemSpec:
    """Planar field on the circle with cubic saturation; A = Id."""
    point = subgroup_canonical(1, [[1]])
    return ProblemSpec(
        r=1,
        l=1,
        p=2,
        matrix_spectrum=(MatrixEigenData(Fraction(1), TorusRep.rotation(1, [1]), (1,)),),
        laplace_spectrum=flat_torus_spectrum(1, cutoff),
        beta_cutoff=Fraction(cutoff),
        origin_degree_pos=EulerElement.unit(1),
        origin_degree_neg=EulerElement.unit(1) - EulerElement.generator(point),
    )


def circle_inverted_spec(cutoff: int = 9) -> ProblemSpec:
    """Same model with A = -Id; all candidate levels are negative."""
    point = subgroup_canonical(1, [[1]])
    return ProblemSpec(
        r=1,
        l=1,
        p=2,
        matrix_spectrum=(MatrixEigenData(Fraction(-1), TorusRep.rotation(1, [1]), (1,)),),
        laplace_spectrum=flat_torus_spectrum(1, cutoff),
        beta_cutoff=Fraction(cutoff),
        origin_degree_pos=EulerElement.unit(1) - EulerElement.generator(point),
        origin_degree_neg=EulerElement.unit(1),
    )


def degenerate_origin_spec(odd_kernel: bool) -> ProblemSpec:
    """Origin degree without a unit part (zero unit coefficient).

    With ``odd_kernel`` the kernels have odd dimension (sphere data and a
    one-dimensional trivial system block); otherwise even-dimensional
    kernels carrying nonzero domain weights (circle data).
    """
    doubled = EulerElement.generator(subgroup_canonical(1, [[2]]))
    if odd_kernel:
        return ProblemSpec(
            r=1,
            l=1,
            p=1,
            matrix_spectrum=(MatrixEigenData(Fraction(1), TorusRep(1, 1), (0,)),),
            laplace_spectrum=sphere_spectrum(3, 2),
            beta_cutoff=Fraction(6),
            origin_degree_pos=doubled,
            origin_degree_neg=doubled,
        )
    return ProblemSpec(
        r=1,
        l=1,
        p=2,
        matrix_spectrum=(MatrixEigenData(Fraction(1), TorusRep.rotation(1, [1]), (1,)),),
        laplace_spectrum=flat_torus_spectrum(1, 4),
        beta_cutoff=Fraction(4),
        origin_degree_pos=doubled,
        origin_degree_neg=doubled,
    )


_FIXTURES = Path(__file__).parent / "fixtures"


FixtureRecord = tuple[str, ProblemSpec, bif.LevelAnalysis]


def _fixture_levels() -> list[FixtureRecord]:
    """(fixture, spec, analysis) at every candidate level, one sweep per fixture."""
    records = []
    for name, spec in (
        ("circle", circle_quartic_spec(25)),
        ("circle-inverted", circle_inverted_spec(9)),
        ("sphere", parse_problem(_FIXTURES / "sphere_p1.json")),
    ):
        records.extend((name, spec, a) for a in bif.analyze_levels(spec).analyses())
    return records


# ---------------------------------------------------------------------------
# suites


def _times(a: Sequence[Vector], b: Sequence[Vector]) -> tuple[Vector, ...]:
    """The product of two nonempty matrices given by their rows."""
    columns = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in columns) for row in a)


def _suite_snf(rng: random.Random) -> Trial:
    m = _rand_matrix(rng)
    p, r = len(m), len(m[0])
    dec = snf(r, m)
    factors = dec.invariant_factors
    diagonal = tuple(tuple(factors[i] if i == j and i < len(factors) else 0 for j in range(r)) for i in range(p))
    ok = _times(_times(dec.P, m), dec.Q) == diagonal
    ok = ok and abs(det(dec.P)) == 1 and abs(det(dec.Q)) == 1
    ok = ok and all(f > 0 for f in factors)
    ok = ok and all(factors[i + 1] % factors[i] == 0 for i in range(len(factors) - 1))
    return (lambda: f"snf of {m}"), ok


def _suite_hnf(rng: random.Random) -> Trial:
    r = rng.randint(1, 4)
    chars = _rand_characters(rng, r, rng.randint(0, 3))
    h = subgroup_canonical(r, chars)
    shuffled = chars[:]
    rng.shuffle(shuffled)
    ok = subgroup_canonical(r, shuffled) == h
    ok = ok and subgroup_canonical(r, h.basis) == h
    if chars:
        coeffs = [rng.randint(-2, 2) for _ in chars]
        combo = tuple(sum(co * c[i] for co, c in zip(coeffs, chars)) for i in range(r))
        ok = ok and subgroup_canonical(r, chars + [combo]) == h
    return (lambda: f"characters {chars} in rank {r}"), ok


def _suite_intersection(rng: random.Random) -> Trial:
    r = rng.randint(1, 4)
    h1 = _rand_subgroup(rng, r)
    h2 = _rand_subgroup(rng, r)
    h3 = _rand_subgroup(rng, r)
    meet = subgroup_intersect(h1, h2)
    ok = meet.dim <= min(h1.dim, h2.dim)
    ok = ok and meet == subgroup_intersect(h2, h1)
    ok = ok and subgroup_intersect(meet, h3) == subgroup_intersect(h1, subgroup_intersect(h2, h3))
    ok = ok and subgroup_intersect(h1, TorusSubgroup.full_torus(r)) == h1
    return (lambda: f"{h1} ^ {h2} ^ {h3}"), ok


def _suite_dimension_lemma(rng: random.Random) -> Trial:
    r = rng.randint(1, 3)
    l = rng.randint(1, 2)
    h = _rand_subgroup(rng, r)
    m = tuple(rng.randint(-5, 5) for _ in range(r))
    n = _rand_weight(rng, l)
    lifted = extend_by_full_torus(h, l)
    wall = subgroup_canonical(r + l, [m + n])
    meet = subgroup_intersect(lifted, wall)
    ok = meet.dim == l + h.dim - 1
    return (lambda: f"H={h}, (m,n)={(m, n)}, l={l}"), ok


def _suite_membership(rng: random.Random) -> Trial:
    r = rng.randint(1, 4)
    h = _rand_subgroup(rng, r)
    # sample members via the Smith coordinates of the annihilator
    if h.is_full:
        pts = [_rand_point(rng, r) for _ in range(2)]
    else:
        dec = snf(r, h.basis)
        s = len(dec.invariant_factors)
        pts = []
        for _ in range(2):
            theta = [
                Fraction(rng.randint(-6, 6), dec.invariant_factors[j]) if j < s else Fraction(rng.randint(-6, 6), rng.randint(1, 6))
                for j in range(r)
            ]
            pts.append(
                tuple(
                    sum(Fraction(dec.Q[i][j]) * theta[j] for j in range(r))
                    for i in range(r)
                )
            )
    q1, q2 = pts
    ok = contains(h, q1) and contains(h, q2)
    ok = ok and contains(h, tuple(a + b for a, b in zip(q1, q2)))
    ok = ok and contains(h, tuple(-a for a in q1))
    ok = ok and contains(h, (Fraction(0),) * r)
    return (lambda: f"members of {h}"), ok


def _suite_ring_axioms(star_impl: StarImpl):
    def run(rng: random.Random) -> Trial:
        r = rng.randint(1, 3)
        x = _rand_element(rng, r)
        y = _rand_element(rng, r)
        z = _rand_element(rng, r)
        xy = star_impl(x, y)
        ok = xy == star_impl(y, x)
        ok = ok and star_impl(xy, z) == star_impl(x, star_impl(y, z))
        ok = ok and star_impl(x, y + z) == xy + star_impl(x, z)
        ok = ok and star_impl(EulerElement.unit(r), x) == x
        # fixed transversal triple in T^2
        a = EulerElement.generator(subgroup_canonical(2, [[1, 0]]))
        b = EulerElement.generator(subgroup_canonical(2, [[0, 1]]))
        c = EulerElement.generator(subgroup_canonical(2, [[1, 1]]))
        ok = ok and star_impl(star_impl(a, b), c) == star_impl(a, star_impl(b, c))
        ok = ok and star_impl(EulerElement.unit(2), a) == a
        return (lambda: f"x={x}; y={y}; z={z}"), ok

    return run


def _suite_codim_ideal(star_impl: StarImpl):
    def run(rng: random.Random) -> Trial:
        r = rng.randint(2, 3)
        x = _rand_element(rng, r)
        terms = []
        for _ in range(rng.randint(1, 3)):
            while True:
                h = _rand_subgroup(rng, r, proper=True)
                if h.codim >= 2:
                    break
                h = subgroup_intersect(h, _rand_subgroup(rng, r, proper=True))
                if h.codim >= 2:
                    break
            terms.append((h, rng.randint(-3, 3) or 1))
        y = EulerElement(r, terms)
        prod = star_impl(x, y)
        ok = all(h.codim >= 2 for h, _ in prod.terms)
        return (lambda: f"x={x}; y={y}"), ok

    return run


def _suite_truncation(star_impl: StarImpl):
    def run(rng: random.Random) -> Trial:
        r = rng.randint(1, 3)
        v = _rand_rep(rng, r)
        deg = deg_minus_id(v, star_impl)
        low = EulerElement(r, [(h, c) for h, c in deg.terms if h.codim <= 1])
        sign = -1 if v.dim % 2 else 1
        expected = EulerElement.unit(r)
        for m, k in v.weights:
            expected = expected - k * EulerElement.generator(subgroup_canonical(r, [m]))
        ok = low == sign * expected
        return (lambda: f"V={v}"), ok

    return run


def _suite_multiplicative(star_impl: StarImpl):
    def run(rng: random.Random) -> Trial:
        r = rng.randint(1, 3)
        v = _rand_rep(rng, r)
        w = _rand_rep(rng, r)
        ok = deg_minus_id(direct_sum(v, w), star_impl) == star_impl(
            deg_minus_id(v, star_impl), deg_minus_id(w, star_impl)
        )
        return (lambda: f"V={v}; W={w}"), ok

    return run


def _suite_lift(rng: random.Random) -> Trial:
    r = rng.randint(1, 2)
    l = rng.randint(1, 2)
    x = _rand_element(rng, r)
    y = _rand_element(rng, r)
    x_up, y_up = lift(x, l), lift(y, l)
    ok = lift(star(x, y), l) == star(x_up, y_up)
    ok = ok and lift(x + y, l) == x_up + y_up
    ok = ok and lift(EulerElement.unit(r), l) == EulerElement.unit(r + l)
    ok = ok and lift(EulerElement(r), l) == EulerElement(r + l)
    return (lambda: f"x={x}; y={y}; l={l}"), ok


def _suite_tensor_dim(tensor_impl: TensorImpl):
    def run(rng: random.Random) -> Trial:
        r = rng.randint(1, 2)
        l = rng.randint(1, 2)
        w = _rand_rep(rng, r)
        v = _rand_rep(rng, l)
        ok = tensor_impl(w, v).dim == w.dim * v.dim
        return (lambda: f"W={w}; V={v}"), ok

    return run


def _suite_tensor_character(tensor_impl: TensorImpl):
    def run(rng: random.Random) -> Trial:
        r = rng.randint(1, 2)
        l = rng.randint(1, 2)
        w = _rand_rep(rng, r)
        v = _rand_rep(rng, l)
        q1 = _rand_point(rng, r)
        q2 = _rand_point(rng, l)
        lhs = character(tensor_impl(w, v), q1 + q2)
        rhs = character(w, q1) * character(v, q2)
        ok = abs(lhs - rhs) < 1e-9
        return (lambda: f"W={w}; V={v}; q={(q1, q2)}"), ok

    return run


def _suite_tensor_weights(tensor_impl: TensorImpl):
    def run(rng: random.Random) -> Trial:
        r = rng.randint(1, 2)
        l = rng.randint(1, 2)
        w = _rand_rep(rng, r)
        v = _rand_rep(rng, l)
        ok = tensor_impl(w, v) == _tensor_by_complexification(w, v)
        return (lambda: f"W={w}; V={v}"), ok

    return run


def _suite_rep_algebra(tensor_impl: TensorImpl):
    def run(rng: random.Random) -> Trial:
        r = rng.randint(1, 2)
        l = rng.randint(1, 2)
        a = _rand_rep(rng, r)
        b = _rand_rep(rng, r)
        c = _rand_rep(rng, r)
        w = _rand_rep(rng, l)
        ok = direct_sum(a, b) == direct_sum(b, a)
        ok = ok and direct_sum(direct_sum(a, b), c) == direct_sum(a, direct_sum(b, c))
        ok = ok and tensor_impl(direct_sum(a, b), w) == direct_sum(
            tensor_impl(a, w), tensor_impl(b, w)
        )
        return (lambda: f"a={a}; b={b}; c={c}; w={w}"), ok

    return run


def _suite_separation(rng: random.Random) -> Trial:
    r = rng.randint(1, 2)
    l = rng.randint(1, 2)
    h1 = _rand_subgroup(rng, r)
    h2 = _rand_subgroup(rng, r)
    m1 = tuple(rng.randint(-4, 4) for _ in range(r))
    m2 = tuple(rng.randint(-4, 4) for _ in range(r))
    n1 = _rand_weight(rng, l)
    zero = (0,) * l

    def cut(h: TorusSubgroup, mn: Vector) -> TorusSubgroup:
        lifted = extend_by_full_torus(h, l)
        if not any(mn):
            return lifted
        return subgroup_intersect(lifted, subgroup_canonical(r + l, [mn]))

    # part 1: exactly one trailing part zero separates the intersections
    ok = cut(h1, m1 + n1) != cut(h2, m2 + zero)
    # part 2: equal intersections with nonzero trailing parts force equal H
    if rng.random() < 0.5:
        h2b, m2b, n2b = h1, m1, n1
    else:
        h2b, m2b, n2b = h2, m2, _rand_weight(rng, l)
    if cut(h1, m1 + n1) == cut(h2b, m2b + n2b):
        ok = ok and h1 == h2b
    return (lambda: f"H={h1}, H'={h2}, m={m1}, m'={m2}, n={n1}"), ok


def _suite_nontrivial_product(rng: random.Random) -> Trial:
    r = rng.randint(1, 2)
    l = rng.randint(1, 2)
    a_terms = []
    for _ in range(rng.randint(1, 3)):
        h = _rand_subgroup(rng, r, proper=True)
        a_terms.append((extend_by_full_torus(h, l), rng.choice([-3, -2, -1, 1, 2, 3])))
    a = EulerElement(r + l, a_terms)
    sign = rng.choice([1, -1])
    b_terms = [(subgroup_canonical(r + l, [_rand_weight(rng, r + l)]), sign * rng.randint(1, 3)) for _ in range(rng.randint(0, 2))]
    m = tuple(rng.randint(-4, 4) for _ in range(r))
    n = _rand_weight(rng, l)
    b_terms.append((subgroup_canonical(r + l, [m + n]), sign * rng.randint(1, 3)))
    b = EulerElement(r + l, b_terms)
    if a.is_zero:
        return (lambda: "degenerate A"), True
    ok = not star(a, b).is_zero
    return (lambda: f"A={a}; B={b}"), ok


def _fixture_checks_kernel(records: Sequence[FixtureRecord]) -> list[tuple[str, bool]]:
    checks = []
    for name, spec, a in records:
        expected = 0
        base = 0  # zero eigenvalues contributed by beta = 0 blocks
        for me in spec.matrix_spectrum:
            for le in spec.laplace_spectrum:
                if le.beta == a.lambda0 * me.alpha:
                    if le.beta != 0 and me.alpha != 0:
                        expected += me.eigenspace.dim * le.eigenspace.dim
                    elif le.beta == 0:
                        base += me.eigenspace.dim * le.eigenspace.dim
        zero_part = sum(
            h.multiplicity for h in bif.hessian_spectrum(spec, a.lambda0) if h.value == 0
        )
        ok = a.kernel.dim == expected and zero_part - base == expected
        checks.append((f"{name}@{a.lambda0}", ok))
    return checks


def _fixture_checks_two_routes(records: Sequence[FixtureRecord]) -> list[tuple[str, bool]]:
    """Index against the product through the kernel degree at every nonzero level.

    Above 0: lift(F_pos) * deg(below) * (deg(kernel) - I); below 0 the
    mirror image -lift(F_neg) * deg(above) * (deg(kernel) - I).
    """
    checks = []
    for name, spec, a in records:
        lam = a.lambda0
        if lam == 0:
            continue
        positive = lam > 0
        explicit = star(
            star(
                lift(spec.origin_degree_pos if positive else spec.origin_degree_neg, spec.l),
                deg_minus_id(a.negative_below if positive else a.negative_above),
            ),
            deg_minus_id(a.kernel) - EulerElement.unit(spec.r + spec.l),
        )
        checks.append((f"{name}@{lam}", a.index == (explicit if positive else -explicit)))
    return checks


def _fixture_checks_accumulation(records: Sequence[FixtureRecord]) -> list[tuple[str, bool]]:
    checks = []
    for name, _, a in records:
        if a.lambda0 > 0:
            ok = a.negative_above == direct_sum(a.negative_below, a.kernel)
        elif a.lambda0 < 0:
            ok = a.negative_below == direct_sum(a.negative_above, a.kernel)
        else:
            ok = a.negative_below.dim == 0 and a.negative_above.dim == 0
        checks.append((f"{name}@{a.lambda0}", ok))
    return checks


def _fixture_checks_verdict(records: Sequence[FixtureRecord]) -> list[tuple[str, bool]]:
    checks = []
    for name, spec, a in records:
        if a.lambda0 == 0:
            continue
        domain = any(any(w[spec.r :]) for w, _ in a.kernel.weights)
        odd = a.kernel.dim % 2 == 1
        if (spec.validation.n1 or spec.validation.n2) and (domain or odd):
            checks.append((f"{name}@{a.lambda0}", not a.index.is_zero))
    # constructed degenerate-origin cases: unit coefficient zero
    odd_case = degenerate_origin_spec(odd_kernel=True)
    checks.append(("degenerate-odd@2", not bif.analyze_levels(odd_case, [2]).analyses()[0].index.is_zero))
    even_case = degenerate_origin_spec(odd_kernel=False)
    checks.append(("degenerate-even@1", not bif.analyze_levels(even_case, [1]).analyses()[0].index.is_zero))
    # unit-coefficient route on the standard fixture
    base = parse_problem(_FIXTURES / "circle_quartic.json")
    checks.append(("unit-route@1", not bif.analyze_levels(base, [1]).analyses()[0].index.is_zero))
    return checks


def _fixture_checks_exclusion(records: Sequence[FixtureRecord]) -> list[tuple[str, bool]]:
    checks = []
    for name, spec, a in records:
        if a.lambda0 == 0:
            continue
        cert = a.verdict.unbounded
        ok = cert is not None and a.verdict.unbounded_reason is None
        if ok:
            me_alpha, le_beta, mu, nu = cert.witness
            combined = mu + nu
            ok = a.kernel.occurs(combined)
            for lam in cert.excluded_levels:
                ok = ok and not bif.kernel_rep(spec, lam).occurs(combined)
        checks.append((f"{name}@{a.lambda0}", ok))
    return checks


def _fixture_checks_symmetry(records: Sequence[FixtureRecord]) -> list[tuple[str, bool]]:
    return [
        (f"{name}@{a.lambda0}", a.verdict.symmetry_breaking == (spec.validation.n2 and a.lambda0 != 0))
        for name, spec, a in records
    ]


# ---------------------------------------------------------------------------
# driver


def _randomized_suites(
    star_impl: StarImpl, tensor_impl: TensorImpl
) -> dict[str, Callable[[random.Random], Trial]]:
    """The seeded suites in run order, closed over the ring and tensor rules under test."""
    return {
        "snf-decomposition": _suite_snf,
        "hnf-canonical": _suite_hnf,
        "subgroup-intersection": _suite_intersection,
        "dimension-lemma": _suite_dimension_lemma,
        "membership-closure": _suite_membership,
        "ring-axioms": _suite_ring_axioms(star_impl),
        "codim-ideal": _suite_codim_ideal(star_impl),
        "degree-truncation": _suite_truncation(star_impl),
        "degree-multiplicative": _suite_multiplicative(star_impl),
        "lift-homomorphism": _suite_lift,
        "tensor-dimension": _suite_tensor_dim(tensor_impl),
        "tensor-character": _suite_tensor_character(tensor_impl),
        "tensor-weights": _suite_tensor_weights(tensor_impl),
        "rep-algebra": _suite_rep_algebra(tensor_impl),
        "intersection-separation": _suite_separation,
        "product-nontrivial": _suite_nontrivial_product,
    }


_FIXTURE_SUITES: dict[str, Callable[[Sequence[FixtureRecord]], list[tuple[str, bool]]]] = {
    "kernel-consistency": _fixture_checks_kernel,
    "index-two-routes": _fixture_checks_two_routes,
    "negative-accumulation": _fixture_checks_accumulation,
    "verdict-soundness": _fixture_checks_verdict,
    "highest-weight-exclusion": _fixture_checks_exclusion,
    "symmetry-breaking-flag": _fixture_checks_symmetry,
}

SUITE_NAMES = (*_randomized_suites(star, tensor), *_FIXTURE_SUITES)


def run_selftest(
    seed: int,
    trials: int,
    *,
    suites: Sequence[str] | None = None,
    star_impl: StarImpl | None = None,
    tensor_impl: TensorImpl | None = None,
) -> SelfTestReport:
    """Run the named suites (all by default) with a deterministic seed.

    ``trials`` applies to each randomized suite; fixture-driven suites run
    their full deterministic check list once and report its length.  The
    fixture sweeps are made once, when the first selected fixture suite
    runs, and shared by the fixture suites of this call.  Failures are
    data, not exceptions.  More than ``SELFTEST_MAX_TRIALS`` trials are
    refused before any suite runs.
    """
    if trials < 1:
        raise InputError("trials must be at least 1")
    if trials > SELFTEST_MAX_TRIALS:
        raise RefusalError(f"{shown(trials)} trials are over the limit {SELFTEST_MAX_TRIALS}; lower the trial count")
    randomized = _randomized_suites(star_impl or star, tensor_impl or tensor)

    selected = tuple(suites) if suites is not None else SUITE_NAMES
    records: list[FixtureRecord] | None = None
    results: list[tuple[str, SuiteResult]] = []
    for name in selected:
        if name in randomized:
            rng = random.Random(f"{seed}:{name}")
            gen = randomized[name]
            failures = 0
            first = None
            for _ in range(trials):
                try:
                    describe, ok = gen(rng)
                    case = None if ok else describe()
                except Exception as exc:  # a crash is a failure with evidence
                    case, ok = f"exception: {exc!r}", False
                if not ok:
                    failures += 1
                    if first is None:
                        first = case
            results.append((name, SuiteResult(trials, failures, first)))
        elif name in _FIXTURE_SUITES:
            try:
                if records is None:
                    records = _fixture_levels()
                checks = _FIXTURE_SUITES[name](records)
            except Exception as exc:
                checks = [(f"exception: {exc!r}", False)]
            bad = [case for case, ok in checks if not ok]
            results.append(
                (name, SuiteResult(len(checks), len(bad), bad[0] if bad else None))
            )
        else:
            raise InputError(f"unknown suite: {name}")
    return SelfTestReport(seed=seed, suites=tuple(results))
