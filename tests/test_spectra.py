import copy
import pickle
from fractions import Fraction
from itertools import product
from math import comb, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torbif.errors import InputError, RefusalError, shown
from torbif.eulerring import EulerElement
from torbif.intlat import subgroup_canonical
from torbif.oracle import circle_quartic_spec
from torbif.spectra import (
    LaplaceEigenData,
    MatrixEigenData,
    ProblemSpec,
    flat_torus_spectrum,
    sphere_spectrum,
    validate,
)
from torbif.torusrep import TorusRep, direct_sum


def harmonic_dim_by_sym_difference(n: int, k: int) -> int:
    """Independent count: monomials of degree k minus degree k-2."""
    total = comb(n + k - 1, k)
    return total - (comb(n + k - 3, k - 2) if k >= 2 else 0)


def sphere_harmonic_dim(n: int, k: int) -> int:
    """Closed-form dimension of the level-k eigenspace on S^(n-1), n >= 3."""
    if k == 0:
        return 1
    return comb(n - 2 + k, k) * (n - 2 + 2 * k) // (n - 2 + k)


# --- flat torus provider -----------------------------------------------------


def test_flat_torus_circle():
    entries = flat_torus_spectrum(1, 4)
    assert [e.beta for e in entries] == [0, 1, 4]
    assert entries[0].eigenspace == TorusRep(1, 1)
    for e in entries[1:]:
        k = isqrt(int(e.beta))
        assert e.eigenspace == TorusRep.rotation(1, [k])
        assert e.eigenspace.dim == 2
        assert e.irreducible_nontrivial
        assert e.highest_weight == (k,)


def test_flat_torus_plane():
    entries = flat_torus_spectrum(2, 2)
    by_beta = {int(e.beta): e for e in entries}
    assert set(by_beta) == {0, 1, 2}
    assert by_beta[1].eigenspace == TorusRep(2, 0, {(1, 0): 1, (0, 1): 1})
    assert by_beta[1].eigenspace.dim == 4
    assert by_beta[2].eigenspace == TorusRep(2, 0, {(1, 1): 1, (1, -1): 1})
    assert not by_beta[1].irreducible_nontrivial


def test_flat_torus_cutoff_zero():
    entries = flat_torus_spectrum(1, 0)
    assert len(entries) == 1 and entries[0].beta == 0 and entries[0].eigenspace.dim == 1


@pytest.mark.parametrize("d,cutoff", [(1, 9), (2, 5), (3, 4)])
def test_flat_torus_dimension_count(d, cutoff):
    entries = flat_torus_spectrum(d, cutoff)
    total = sum(e.eigenspace.dim for e in entries)
    s = isqrt(cutoff)
    points = sum(
        1
        for m in product(range(-s, s + 1), repeat=d)
        if sum(x * x for x in m) <= cutoff
    )
    assert total == points


# --- sphere provider ----------------------------------------------------------


def test_sphere_two_sphere_levels():
    entries = sphere_spectrum(3, 2)
    assert [e.beta for e in entries] == [0, 2, 6]
    assert entries[1].eigenspace == TorusRep(1, 1, {(1,): 1})
    assert entries[1].eigenspace.dim == 3
    assert entries[1].highest_weight == (1,)
    assert entries[2].eigenspace == TorusRep(1, 1, {(1,): 1, (2,): 1})
    assert entries[2].eigenspace.dim == 5


def test_sphere_three_sphere_first_level():
    entries = sphere_spectrum(4, 1)
    assert entries[1].beta == 3
    assert entries[1].eigenspace == TorusRep(2, 0, {(1, 0): 1, (0, 1): 1})
    assert entries[1].eigenspace.dim == 4


@pytest.mark.parametrize("n", [3, 4, 5])
def test_sphere_dimensions_match_closed_form(n):
    entries = sphere_spectrum(n, 6)
    for k, e in enumerate(entries):
        assert e.beta == k * (k + n - 2)
        assert e.eigenspace.dim == harmonic_dim_by_sym_difference(n, k)
        assert e.eigenspace.dim == sphere_harmonic_dim(n, k)


def test_sphere_flags_and_weights():
    entries = sphere_spectrum(5, 3)
    assert not entries[0].irreducible_nontrivial
    for k, e in enumerate(entries):
        if k:
            assert e.irreducible_nontrivial
            assert e.highest_weight == (k, 0)


def test_sphere_work_bound():
    assert len(sphere_spectrum(4, 22)) == 23  # S^3 up to the largest cutoff_k admitted
    with pytest.raises(RefusalError, match="lower cutoff_k"):
        sphere_spectrum(4, 23)
    with pytest.raises(RefusalError):  # refused before the base of n lines is built
        sphere_spectrum(10**9, 0)


@pytest.mark.parametrize(
    ("provide", "args"),
    [(flat_torus_spectrum, (10**5000, 4)), (flat_torus_spectrum, (1, 10**10000)), (sphere_spectrum, (3, 10**5000))],
    ids=["flat-d", "flat-cutoff", "sphere-cutoff_k"],
)
def test_provider_refusal_shows_huge_numbers_by_size(provide, args):
    # str() of an int past 4,300 digits raises ValueError
    with pytest.raises(RefusalError, match="bits>") as info:
        provide(*args)
    assert len(str(info.value)) < 300


# --- validation -----------------------------------------------------------------


def make_spec(**overrides):
    base = dict(
        r=1,
        l=1,
        p=2,
        matrix_spectrum=(MatrixEigenData(Fraction(1), TorusRep.rotation(1, [1]), (1,)),),
        laplace_spectrum=flat_torus_spectrum(1, 9),
        beta_cutoff=Fraction(9),
        origin_degree_pos=EulerElement.unit(1),
        origin_degree_neg=EulerElement.unit(1)
        - EulerElement.generator(subgroup_canonical(1, [[1]])),
    )
    base.update(overrides)
    return ProblemSpec(**base)


def test_validate_circle_fixture(circle_spec):
    report = circle_spec.validation
    assert validate(circle_spec) == report
    assert report.n1 and report.n2 and report.e_holds
    assert report.e_witnesses == ((Fraction(1), (1,)),)


def test_validate_zero_eigenvalue_fails_n1():
    spec = make_spec(
        matrix_spectrum=(MatrixEigenData(Fraction(0), TorusRep.rotation(1, [1]), (1,)),)
    )
    assert not spec.validation.n1


def test_validate_duplicate_marker_fails_e():
    spec = make_spec(
        p=4,
        matrix_spectrum=(
            MatrixEigenData(Fraction(1), TorusRep.rotation(1, [1]), (1,)),
            MatrixEigenData(Fraction(2), TorusRep.rotation(1, [1]), (1,)),
        ),
    )
    report = spec.validation
    assert not report.e_holds and report.e_witnesses is None


def test_validate_dim_mismatch_reported():
    with pytest.raises(InputError) as info:
        make_spec(p=3)
    assert info.value.code == "DIM_MISMATCH"


def test_validate_trivial_degree_reported():
    with pytest.raises(InputError) as info:
        make_spec(origin_degree_pos=EulerElement(1))
    assert info.value.code == "B6_TRIVIAL"


def test_validate_beta_above_cutoff_reported():
    with pytest.raises(InputError) as info:
        make_spec(beta_cutoff=Fraction(5))
    assert info.value.code == "CUTOFF_INSUFFICIENT"


def test_beta_past_the_cutoff_gives_a_bounded_message():
    base = circle_quartic_spec(9)
    huge_entry = LaplaceEigenData(10**5000, TorusRep(1, 1))
    with pytest.raises(InputError) as info:
        base._replace(laplace_spectrum=base.laplace_spectrum + (huge_entry,))
    assert info.value.code == "CUTOFF_INSUFFICIENT"
    assert str(info.value) == "CUTOFF_INSUFFICIENT: eigenvalue <rational of 16611 bits> exceeds declared cutoff 9"


def test_huge_p_gives_a_bounded_message():
    with pytest.raises(InputError) as info:
        circle_quartic_spec(9)._replace(p=10**5000)
    assert info.value.code == "DIM_MISMATCH"
    assert str(info.value) == (
        "DIM_MISMATCH: matrix eigenspace dimensions sum to 2, expected p=<integer of 16610 bits>"
    )
    assert len(str(info.value)) < 300


def test_rank_errors_are_schema_errors():
    for overrides in ({"l": 0}, {"r": -1}, {"r": 2}, {"origin_degree_pos": EulerElement.unit(2)}):
        with pytest.raises(InputError) as info:
            make_spec(**overrides)
        assert info.value.code == "SCHEMA"


def test_validate_n2_methods(sphere_spec):
    # the sphere eigenspaces contain torus-fixed vectors, so only the
    # irreducibility certification route applies
    report = sphere_spec.validation
    assert report.n2 and report.n2_method == "irreducible-flags"
    stripped = ProblemSpec(
        r=sphere_spec.r,
        l=sphere_spec.l,
        p=sphere_spec.p,
        matrix_spectrum=sphere_spec.matrix_spectrum,
        laplace_spectrum=tuple(
            LaplaceEigenData(e.beta, e.eigenspace, False, e.highest_weight)
            for e in sphere_spec.laplace_spectrum
        ),
        beta_cutoff=sphere_spec.beta_cutoff,
        origin_degree_pos=sphere_spec.origin_degree_pos,
        origin_degree_neg=sphere_spec.origin_degree_neg,
    )
    report2 = stripped.validation
    assert not report2.n2 and report2.n2_method is None


ROT1 = TorusRep.rotation(1, [1])


@pytest.mark.parametrize(
    ("overrides", "message"),
    [
        ({"l": 0}, "domain torus rank must be at least 1"),
        ({"r": -1}, "system torus rank must be nonnegative"),
        (
            {"matrix_spectrum": (MatrixEigenData(1, TorusRep.rotation(1, [1, 1])),)},
            "matrix eigenvalue 1: eigenspace of rank 2, not r=1",
        ),
        (
            {"laplace_spectrum": (LaplaceEigenData(0, TorusRep(2, 1)),)},
            "Laplace eigenvalue 0: eigenspace of rank 2, not l=1",
        ),
        ({"matrix_spectrum": (MatrixEigenData(1, TorusRep(1)),)}, "matrix eigenvalue 1: eigenspace of dimension 0"),
        ({"laplace_spectrum": (LaplaceEigenData(0, TorusRep(1)),)}, "Laplace eigenvalue 0: eigenspace of dimension 0"),
        ({"matrix_spectrum": (MatrixEigenData(1, ROT1, (1, 0)),)}, "matrix eigenvalue 1: marker of length 2, not r=1"),
        (
            {"laplace_spectrum": (LaplaceEigenData(1, ROT1, True, (1, 0)),)},
            "Laplace eigenvalue 1: highest weight of length 2, not l=1",
        ),
        (
            {"laplace_spectrum": (LaplaceEigenData(Fraction(-1, 2), TorusRep(1, 1)),)},
            "Laplace eigenvalue -1/2: must be nonnegative",
        ),
        (
            {"origin_degree_neg": EulerElement.unit(2)},
            "origin degree for negative levels lives in the ring of T^2, not of T^r with r=1",
        ),
        # each repeated eigenvalue is named once
        (
            {"p": 10, "matrix_spectrum": [MatrixEigenData(alpha, ROT1, (1,)) for alpha in ("1/2",) * 3 + ("2",) * 2]},
            "repeated matrix eigenvalue 1/2; SCHEMA: repeated matrix eigenvalue 2",
        ),
        (
            {"laplace_spectrum": [LaplaceEigenData(beta, TorusRep(1, 1)) for beta in (0, 1, 1, 1, 4, 4)]},
            "repeated Laplace eigenvalue 1; SCHEMA: repeated Laplace eigenvalue 4",
        ),
    ],
    ids=[
        "l", "r", "matrix-rank", "laplace-rank", "matrix-dimension", "laplace-dimension", "marker-length",
        "highest-weight-length", "negative-beta", "degree-ring", "repeated-alpha", "repeated-beta",
    ],
)
def test_spec_checks_every_content_rule(overrides, message):
    # the rules of a well-formed spec come first in validate's one message, so each reports SCHEMA
    with pytest.raises(InputError) as info:
        make_spec(**overrides)
    assert info.value.code == "SCHEMA"
    assert str(info.value).startswith(f"SCHEMA: {message}")


def test_validate_lists_the_first_errors_and_counts_the_rest():
    # 100,000 explicit Laplace entries past the cutoff make 100,000 structural errors
    past = [LaplaceEigenData(10 + k, ROT1) for k in range(100_000)]
    with pytest.raises(InputError) as info:
        make_spec(laplace_spectrum=flat_torus_spectrum(1, 9) + tuple(past))
    message = str(info.value)
    assert info.value.code == "CUTOFF_INSUFFICIENT"
    assert len(message) < 2000
    assert message.startswith("CUTOFF_INSUFFICIENT: eigenvalue 10 exceeds declared cutoff 9; ")
    assert message.endswith("CUTOFF_INSUFFICIENT: eigenvalue 19 exceeds declared cutoff 9; …and 99990 more")


def test_spec_normalises_its_entries():
    spec = make_spec(
        matrix_spectrum=[MatrixEigenData(2, ROT1, [1])],
        laplace_spectrum=[LaplaceEigenData(1, ROT1, True, [-1]), LaplaceEigenData(0, TorusRep(1, 1), False, [0])],
        beta_cutoff=1,
    )
    [matrix] = spec.matrix_spectrum
    assert type(matrix.alpha) is Fraction and type(spec.beta_cutoff) is Fraction
    assert type(matrix.marker_weight) is tuple and matrix.marker_weight == (1,)
    assert [e.beta for e in spec.laplace_spectrum] == [0, 1]  # sorted
    for e in spec.laplace_spectrum:
        assert type(e.beta) is Fraction and type(e.highest_weight) is tuple
    # so a level beta / alpha of two int inputs stays exact
    assert spec.laplace_spectrum[1].beta / matrix.alpha == Fraction(1, 2)


def test_make_and_replace_rerun_the_checks(circle_spec):
    with pytest.raises(InputError) as info:
        circle_spec._replace(p=3)
    assert info.value.code == "DIM_MISMATCH"
    # an entry is a plain record; the spec that holds it checks it again
    matrix, laplace = circle_spec.matrix_spectrum[0], circle_spec.laplace_spectrum[1]
    for bad in (
        {"laplace_spectrum": (laplace._replace(beta=-1),)},
        {"laplace_spectrum": (LaplaceEigenData._make((laplace.beta, laplace.eigenspace, True, (1, 0))),)},
        {"matrix_spectrum": (matrix._replace(marker_weight=(1, 0)),)},
        {"matrix_spectrum": (MatrixEigenData._make((matrix.alpha, TorusRep(1), None)),)},
    ):
        with pytest.raises(InputError) as info:
            circle_spec._replace(**bad)
        assert info.value.code == "SCHEMA"


def test_replace_validates_afresh(circle_spec):
    assert circle_spec.validation.n1
    spec = circle_spec._replace(matrix_spectrum=tuple(e._replace(alpha=0) for e in circle_spec.matrix_spectrum))
    assert not spec.validation.n1 and spec.validation == validate(spec)
    # the validation is the last field, and never taken from the caller
    assert ProblemSpec._make((*spec[:-1], circle_spec.validation)).validation == spec.validation
    with pytest.raises(TypeError):
        ProblemSpec(*circle_spec[:-1], validation=circle_spec.validation)


def test_copies_are_equal_with_equal_hashes(circle_spec, sphere_spec):
    values = [circle_spec, sphere_spec, *sphere_spec.matrix_spectrum, *sphere_spec.laplace_spectrum]
    for value in values:
        for c in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert type(c) is type(value) and c == value and hash(c) == hash(value)


# --- hypothesis checks against pairwise references ---------------------------

E_FAILS = "(E) fails: markers missing or not unique"


def pairwise_e(spec):
    """(E) as every marker tested against every other matrix eigenspace."""
    e_holds = True
    witnesses = []
    for e in spec.matrix_spectrum:
        if e.marker_weight is None or not e.eigenspace.occurs(e.marker_weight):
            e_holds = False
            break
        for other in spec.matrix_spectrum:
            if other is not e and other.eigenspace.occurs(e.marker_weight):
                e_holds = False
                break
        if not e_holds:
            break
        witnesses.append((e.alpha, e.marker_weight))
    return e_holds, tuple(witnesses) if e_holds else None


def pairwise_scan(spec):
    """The highest-weight scan as every highest weight tested against every lower Laplace eigenspace."""
    for le in spec.laplace_spectrum:
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
        for lower in spec.laplace_spectrum:
            if lower.beta < le.beta and lower.eigenspace.occurs(le.highest_weight):
                return (
                    f"highest weight {shown(le.highest_weight)} at beta {shown(le.beta)} "
                    f"already occurs at beta {shown(lower.beta)}"
                )
    return None


def assert_matches_pairwise(spec):
    e_holds, witnesses = pairwise_e(spec)
    report = spec.validation
    assert (report.e_holds, report.e_witnesses) == (e_holds, witnesses)
    assert report.certificate_obstacle == (pairwise_scan(spec) if e_holds else E_FAILS)
    return report


def explicit_spec(r, l, matrix, laplace):
    return ProblemSpec(
        r=r,
        l=l,
        p=sum(e.eigenspace.dim for e in matrix),
        matrix_spectrum=matrix,
        laplace_spectrum=laplace,
        beta_cutoff=max(le.beta for le in laplace),
        origin_degree_pos=EulerElement.unit(r),
        origin_degree_neg=EulerElement.unit(r),
    )


def small_weight(rank, zero=False):
    """Entries in -3..3, so weights collide often, also up to sign."""
    weight = st.tuples(*[st.integers(-3, 3)] * rank)
    return weight if zero else weight.filter(any)


def small_rep(rank):
    return st.builds(
        lambda trivial, weights: TorusRep(rank, trivial, weights),
        st.integers(0, 1),
        st.lists(st.tuples(small_weight(rank), st.integers(1, 2)), max_size=2),
    ).filter(lambda v: v.dim > 0)


def chosen_weight(draw, v):
    """Mostly a weight of v, up to sign, or zero when v has none; else none or any small weight."""
    own = [w for w, _ in v.weights] or [(0,) * v.ambient_rank]
    kind = draw(st.sampled_from(["own", "own", "own", "mirrored", "any", "none"]))
    if kind == "none":
        return None
    if kind == "any":
        return draw(small_weight(v.ambient_rank, zero=True))
    w = draw(st.sampled_from(own))
    return tuple(-x for x in w) if kind == "mirrored" else w


@st.composite
def explicit_spectra(draw):
    r, l = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    reps = draw(st.lists(small_rep(r), min_size=1, max_size=3))
    matrix = tuple(MatrixEigenData(Fraction(i + 1), v, chosen_weight(draw, v)) for i, v in enumerate(reps))
    laplace = []
    for beta in draw(st.lists(st.integers(0, 12), min_size=1, max_size=5, unique=True)):
        v = draw(small_rep(l))
        irreducible = draw(st.sampled_from([True, True, True, False]))
        laplace.append(LaplaceEigenData(Fraction(beta), v, irreducible, chosen_weight(draw, v)))
    return explicit_spec(r, l, matrix, tuple(laplace))


@settings(max_examples=300, deadline=None)
@given(explicit_spectra())
def test_validate_matches_the_pairwise_checks(spec):
    assert_matches_pairwise(spec)


def rot(k, *m):
    return TorusRep.rotation(k, m)


def marked(alpha, rep, marker):
    return MatrixEigenData(Fraction(alpha), rep, marker)


def circle_laplace(*entries):
    """Rank-1 Laplace entries (beta, weights, irreducible, highest weight); beta 0 is one trivial block."""
    zero = LaplaceEigenData(Fraction(0), TorusRep(1, 1), False, (0,))
    return (
        zero,
        *(LaplaceEigenData(Fraction(b), TorusRep(1, 0, [((w,), 1) for w in ws]), irr, hw) for b, ws, irr, hw in entries),
    )


FRESH = circle_laplace((1, [1], True, (1,)), (4, [2], True, (2,)))


@pytest.mark.parametrize(
    "matrix, e_holds",
    [
        # a zero-weight marker is held by every trivial block
        ((marked(1, TorusRep(1, 1), (0,)), marked(2, rot(1, 1), (1,))), True),
        ((marked(1, TorusRep(1, 1), (0,)), marked(2, direct_sum(TorusRep(1, 1), rot(1, 1)), (1,))), False),
        ((marked(1, rot(1, 1), (0,)),), False),
        # a weight shared by two eigenspaces is nobody's marker
        ((marked(1, direct_sum(rot(1, 1), rot(1, 2)), (2,)), marked(2, rot(1, 1), (1,))), False),
        ((marked(1, direct_sum(rot(1, 1), rot(1, 2)), (2,)), marked(2, rot(1, 3), (3,))), True),
        # a weight and its mirror are one rotation block
        ((marked(1, rot(1, 1), (-1,)), marked(2, rot(1, 2), (2,))), True),
        ((marked(1, rot(1, 1), (-1,)), marked(2, rot(1, -1), (-1,))), False),
        ((marked(1, rot(1, 1), None),), False),
    ],
)
def test_e_on_zero_shared_and_mirrored_markers(matrix, e_holds):
    report = assert_matches_pairwise(explicit_spec(1, 1, matrix, FRESH))
    assert report.e_holds is e_holds


@pytest.mark.parametrize(
    "laplace, obstacle",
    [
        (FRESH, None),
        (circle_laplace((1, [1], False, (1,))), "eigenspace at 1 not certified irreducible"),
        (circle_laplace((1, [1], True, None)), "no highest weight declared at 1"),
        (circle_laplace((1, [1], True, (0,))), "zero highest weight at 1"),
        (circle_laplace((1, [1], True, (2,))), "highest weight (2,) at beta 1 is not a weight of its eigenspace"),
        # the least lower beta is named, and a mirrored highest weight is the same block
        (
            circle_laplace((1, [3], True, (3,)), (4, [3], True, (3,)), (9, [3], True, (-3,))),
            "highest weight (3,) at beta 4 already occurs at beta 1",
        ),
        (
            circle_laplace((1, [1], True, (1,)), (4, [2, 3], True, (2,)), (9, [3], True, (-3,))),
            "highest weight (-3,) at beta 9 already occurs at beta 4",
        ),
        # only the first failing beta is reported
        (circle_laplace((1, [1], True, None), (4, [2], False, (2,))), "no highest weight declared at 1"),
    ],
)
def test_every_scan_message(laplace, obstacle):
    spec = explicit_spec(1, 1, (marked(1, rot(1, 1), (1,)),), laplace)
    assert assert_matches_pairwise(spec).certificate_obstacle == obstacle
    failing_e = spec._replace(matrix_spectrum=(marked(1, rot(1, 1), None),))
    assert assert_matches_pairwise(failing_e).certificate_obstacle == E_FAILS


def test_max_abs_alpha_reads_either_end():
    for alphas, expected in (((-5, 1, 3), 5), ((-1, 2, 4), 4), ((-3, -2), 3), ((2,), 2)):
        matrix = tuple(marked(a, rot(1, i + 1), (i + 1,)) for i, a in enumerate(alphas))
        assert explicit_spec(1, 1, matrix, FRESH).max_abs_alpha() == expected


# --- work bounds, counted --------------------------------------------------


def count_multiplicity_calls(monkeypatch, build):
    calls = [0]
    honest = TorusRep.multiplicity

    def counted(self, m):
        calls[0] += 1
        return honest(self, m)

    monkeypatch.setattr(TorusRep, "multiplicity", counted)
    spec = build()
    monkeypatch.undo()
    return spec, calls[0]


def test_e_check_is_linear_in_the_matrix_spectrum(monkeypatch):
    m = 2000
    matrix = tuple(marked(i, rot(1, i), (i,)) for i in range(1, m + 1))
    laplace = flat_torus_spectrum(1, 9)
    spec, calls = count_multiplicity_calls(monkeypatch, lambda: make_spec(p=2 * m, matrix_spectrum=matrix))
    assert calls <= 2 * (m + len(laplace))
    assert spec.validation.e_holds and spec.validation.certificate_obstacle is None


def test_highest_weight_scan_is_linear_in_the_laplace_spectrum(monkeypatch):
    laplace = flat_torus_spectrum(1, 10**6)
    spec, calls = count_multiplicity_calls(
        monkeypatch, lambda: make_spec(laplace_spectrum=laplace, beta_cutoff=Fraction(10**6))
    )
    assert len(laplace) == 1001 and spec.validation.certificate_obstacle is None
    assert calls <= 2 * (1 + len(laplace))
