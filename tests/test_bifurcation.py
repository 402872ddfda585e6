import gc
import hashlib
from fractions import Fraction

import pytest

import torbif.bifurcation as bifurcation
import torbif.spectra as spectra
from torbif.bifurcation import (
    REASON_DOMAIN,
    REASON_INDEX,
    REASON_ODD,
    LevelAnalysis,
    analyze_levels,
    candidate_levels,
    hessian_spectrum,
    kernel_rep,
)
from torbif.errors import ConsistencyError, CutoffError, InputError
from torbif.eulerring import PLUCKER_MAX_RANK, EulerElement, deg_minus_id, lift, plucker_image, star
from torbif.intlat import subgroup_canonical
from torbif.oracle import _check_two_routes, circle_inverted_spec, circle_quartic_spec, degenerate_origin_spec
from torbif.problemfile import build_report, parse_problem, parse_problem_dict, render_text, report_to_json
from torbif.spectra import LaplaceEigenData, MatrixEigenData, ProblemSpec, flat_torus_spectrum
from torbif.torusrep import TorusRep, direct_sum


def gen(r, *chars):
    return EulerElement.generator(subgroup_canonical(r, chars))


# --- candidate levels ---------------------------------------------------------


def test_candidates_circle(circle_spec):
    cands = candidate_levels(circle_spec)
    assert [c.lambda0 for c in cands] == [0, 1, 4, 9]
    assert cands[1].witnesses == ((Fraction(1), Fraction(1)),)


def test_candidates_two_eigenvalues():
    spec = ProblemSpec(
        r=1,
        l=1,
        p=4,
        matrix_spectrum=(
            MatrixEigenData(Fraction(1), TorusRep.rotation(1, [1]), (1,)),
            MatrixEigenData(Fraction(2), TorusRep.rotation(1, [2]), (2,)),
        ),
        laplace_spectrum=(
            LaplaceEigenData(Fraction(0), TorusRep(1, 1)),
            LaplaceEigenData(Fraction(2), TorusRep.rotation(1, [1]), True, (1,)),
        ),
        beta_cutoff=Fraction(2),
        origin_degree_pos=EulerElement.unit(1),
        origin_degree_neg=EulerElement.unit(1),
    )
    cands = candidate_levels(spec)
    assert [c.lambda0 for c in cands] == [0, 1, 2]
    by_level = {c.lambda0: c.witnesses for c in cands}
    assert by_level[1] == ((Fraction(2), Fraction(2)),)
    assert by_level[2] == ((Fraction(1), Fraction(2)),)


def test_candidates_negative_eigenvalue():
    spec = circle_inverted_spec(1)
    assert [c.lambda0 for c in candidate_levels(spec)] == [-1, 0]


# --- kernel and negative spaces ---------------------------------------------------


def test_kernel_first_level(circle_spec):
    v = kernel_rep(circle_spec, 1)
    assert v == TorusRep(2, 0, {(1, 1): 1, (1, -1): 1})
    assert v.dim == 4


def test_kernel_off_candidate_is_zero(circle_spec):
    assert kernel_rep(circle_spec, Fraction(1, 2)).dim == 0


def test_kernel_sphere_odd(sphere_spec):
    for k in (1, 2, 3, 4):
        v = kernel_rep(sphere_spec, k * (k + 1))
        assert v.dim == 2 * k + 1


def test_negative_spaces(circle_spec):
    first, second = analyze_levels(circle_spec, [1, 4]).analyses()
    assert first.negative_below.dim == 0
    w = second.negative_below
    assert w == kernel_rep(circle_spec, 1) and w.dim == 4
    wa = second.negative_above
    assert wa == direct_sum(w, kernel_rep(circle_spec, 4)) and wa.dim == 8


def test_negative_space_mirrored_for_negative_levels():
    spec = circle_inverted_spec(4)
    [a] = analyze_levels(spec, [-4]).analyses()
    assert a.negative_below == direct_sum(a.negative_above, kernel_rep(spec, -4))
    assert a.negative_above == kernel_rep(spec, -1)


def test_negative_space_zero_level(circle_spec):
    [a] = analyze_levels(circle_spec, [0]).analyses()
    assert a.negative_below.dim == 0
    assert a.negative_above.dim == 0


def test_cutoff_refusal(circle_spec):
    with pytest.raises(CutoffError):
        kernel_rep(circle_spec, 16)
    with pytest.raises(CutoffError):
        analyze_levels(circle_spec, [16]).analyses()


def test_huge_levels_give_bounded_messages():
    # str() of a 5,001-digit integer raises ValueError; the messages give the size instead
    spec = circle_quartic_spec(9)
    sweep = analyze_levels(spec, [10**5000])
    [(_, message)] = sweep.records
    assert message == (
        "analysis at level <rational of 16611 bits> needs Laplace data up to "
        "<rational of 16611 bits>, declared cutoff is 9"
    )
    with pytest.raises(CutoffError, match="16611 bits"):
        sweep.analyses()
    with pytest.raises(InputError, match=r"^<rational of 16611 bits> is not a candidate level$"):
        analyze_levels(spec, [Fraction(1, 10**5000)])
    assert analyze_levels(spec, [16]).records[0][1] == (
        "analysis at level 16 needs Laplace data up to 16, declared cutoff is 9"
    )


def test_huge_beta_gives_a_bounded_certificate_reason():
    base = circle_quartic_spec(9)
    huge = 10**5000
    spec = base._replace(
        laplace_spectrum=base.laplace_spectrum + (LaplaceEigenData(huge, TorusRep(1, 1)),),
        beta_cutoff=huge,
    )
    [analysis] = analyze_levels(spec, [1]).analyses()
    assert analysis.verdict.unbounded is None
    assert analysis.verdict.unbounded_reason == "eigenspace at <rational of 16611 bits> not certified irreducible"



def test_huge_highest_weight_gives_a_bounded_certificate_reason():
    base = circle_quartic_spec(9)
    entries = tuple(
        le._replace(highest_weight=(10**5000,)) if le.beta == 1 else le for le in base.laplace_spectrum
    )
    [analysis] = analyze_levels(base._replace(laplace_spectrum=entries), [1]).analyses()
    [honest] = analyze_levels(base, [1]).analyses()
    assert analysis.index == honest.index and analysis.verdict.global_bifurcation
    assert analysis.verdict.unbounded is None
    reason = analysis.verdict.unbounded_reason
    assert reason == (
        "highest weight <integer vector with an entry of 16610 bits> at beta 1 is not a weight of its eigenspace"
    )
    assert len(reason) < 300

# --- Hessian spectrum ----------------------------------------------------------------


def test_hessian_spectrum_values(circle_spec):
    entries = hessian_spectrum(circle_spec, Fraction(1, 2))
    by_value = {e.value: e.multiplicity for e in entries}
    assert by_value[Fraction(-1, 2)] == 2
    assert by_value[Fraction(1, 4)] == 4


def test_hessian_zero_block_at_zero_level(circle_spec):
    entries = hessian_spectrum(circle_spec, 0)
    zero = [e for e in entries if e.value == 0]
    assert zero and zero[0].multiplicity == 2  # the beta = 0 block


def test_hessian_kernel_consistency(circle_spec):
    entries = hessian_spectrum(circle_spec, 1)
    zero = [e for e in entries if e.value == 0]
    assert zero[0].multiplicity == kernel_rep(circle_spec, 1).dim == 4


# --- bifurcation index -----------------------------------------------------------------


def test_index_first_level_exact_terms(circle_spec):
    [a] = analyze_levels(circle_spec, [1]).analyses()
    expected = -gen(2, (1, 1)) - gen(2, (1, -1)) + gen(2, (1, 1), (1, -1))
    assert a.index == expected


def test_index_second_level_coefficient(circle_spec):
    [a] = analyze_levels(circle_spec, [4]).analyses()
    assert a.index.coefficient(subgroup_canonical(2, [(1, 2)])) == -1


def test_index_zero_level_difference_of_lifts(circle_spec):
    # degrees I and I - chi(point) on the two sides of zero
    [a] = analyze_levels(circle_spec, [0]).analyses()
    assert a.index == gen(2, (1, 0))


def test_index_requires_candidate(circle_spec):
    with pytest.raises(InputError):
        analyze_levels(circle_spec, [Fraction(1, 2)]).analyses()


def test_index_two_routes_agree(circle_spec, sphere_spec, circle_deep_spec):
    for spec in (circle_spec, sphere_spec, circle_deep_spec):
        total = spec.r + spec.l
        positives = [c.lambda0 for c in candidate_levels(spec) if c.lambda0 > 0]
        for a in analyze_levels(spec, positives).analyses():
            explicit = star(
                star(
                    lift(spec.origin_degree_pos, spec.l),
                    deg_minus_id(a.negative_below),
                ),
                deg_minus_id(kernel_rep(spec, a.lambda0)) - EulerElement.unit(total),
            )
            assert a.index == explicit


def test_index_negative_levels():
    spec = circle_inverted_spec(9)
    [a] = analyze_levels(spec, [-1]).analyses()
    assert not a.index.is_zero
    assert a.index.coefficient(subgroup_canonical(2, [(1, 1)])) == 1


def test_single_scalar_equation_indices_by_hand():
    # r = 0: one equation with no system symmetry, on the flat T^1, where Fourier
    # mode k is the rotation of weight k and brings the factor I - chi(H_k) of
    # deg(-Id) into the negative space past level k^2
    spec = parse_problem_dict({
        "r": 0, "l": 1, "p": 1,
        "matrix_spectrum": [{"alpha": "1", "trivial_mult": 1}],
        "laplace": {"provider": "flat_torus", "params": {"d": 1, "cutoff": 4}},
        "beta_cutoff": "4",
        "degF_pos": [{"characters": [], "coeff": 1}],
        "degF_neg": [{"characters": [], "coeff": -1}],
    })
    unit, h1, h2 = EulerElement.unit(1), gen(1, (1,)), gen(1, (2,))
    # two codimension-1 subgroups of T^1 are never transversal
    assert star(h1, h2).is_zero and star(unit - h1, unit - h2) == unit - h1 - h2
    analyses = analyze_levels(spec).analyses()
    assert [a.lambda0 for a in analyses] == [0, 1, 4]
    # the index is D(above) - D(below), with D = degF deg(-Id)(negative space)
    # and degF = degF_neg only below 0
    assert [a.index for a in analyses] == [unit - (-unit), (unit - h1) - unit, (unit - h1 - h2) - (unit - h1)]
    assert [a.index for a in analyses] == [2 * unit, -h1, -h2]
    assert all(a.verdict.global_bifurcation for a in analyses)
    assert [a.verdict.symmetry_breaking for a in analyses] == [False, True, True]


def test_sum_indices(circle_spec):
    zero = EulerElement(2)
    analyses = analyze_levels(circle_spec, [1, 4]).analyses()
    assert sum((a.index for a in analyze_levels(circle_spec, [1]).analyses()), zero) == analyses[0].index
    total = sum((a.index for a in analyses), zero)
    assert total.coefficient(subgroup_canonical(2, [(1, 1)])) == -1
    assert total.coefficient(subgroup_canonical(2, [(1, 2)])) == -1


def test_degenerate_origin_indices():
    # zero unit coefficient in the origin degree; odd and even kernels
    assert not analyze_levels(degenerate_origin_spec(odd_kernel=True), [2]).analyses()[0].index.is_zero
    assert not analyze_levels(degenerate_origin_spec(odd_kernel=False), [1]).analyses()[0].index.is_zero


# --- verdicts ------------------------------------------------------------------------


def test_verdict_circle_level_one(circle_spec):
    v = analyze_levels(circle_spec, [1]).analyses()[0].verdict
    assert v.global_bifurcation
    assert REASON_INDEX in v.reasons and REASON_DOMAIN in v.reasons
    assert v.symmetry_breaking
    assert v.alternative is None


def test_verdict_sphere_odd_route(sphere_spec):
    v = analyze_levels(sphere_spec, [2]).analyses()[0].verdict
    assert v.global_bifurcation and REASON_ODD in v.reasons
    assert v.symmetry_breaking


def test_verdict_alternative_when_uncertified():
    spec = ProblemSpec(
        r=1,
        l=1,
        p=3,
        matrix_spectrum=(
            MatrixEigenData(Fraction(0), TorusRep(1, 1), (0,)),
            MatrixEigenData(Fraction(1), TorusRep.rotation(1, [1]), (1,)),
        ),
        laplace_spectrum=flat_torus_spectrum(1, 4),
        beta_cutoff=Fraction(4),
        origin_degree_pos=EulerElement.unit(1),
        origin_degree_neg=EulerElement.unit(1),
    )
    # N1 fails (zero eigenvalue); laplace entries are irreducible though,
    # so strip the flags to break N2 as well
    stripped = ProblemSpec(
        r=1,
        l=1,
        p=3,
        matrix_spectrum=spec.matrix_spectrum,
        laplace_spectrum=tuple(
            LaplaceEigenData(e.beta, direct_sum(e.eigenspace, TorusRep(1, 1)) if e.beta > 0 else e.eigenspace, False, None)
            for e in spec.laplace_spectrum
        ),
        beta_cutoff=Fraction(4),
        origin_degree_pos=EulerElement.unit(1),
        origin_degree_neg=EulerElement.unit(1),
    )
    assert not stripped.validation.n1 and not stripped.validation.n2
    v = analyze_levels(stripped, [1]).analyses()[0].verdict
    assert v.alternative == "local-or-global"
    assert not v.symmetry_breaking
    assert "alternative: local-or-global" in render_text(build_report(stripped, [1]))


def test_verdict_zero_level(circle_spec):
    v = analyze_levels(circle_spec, [0]).analyses()[0].verdict
    assert v.global_bifurcation  # the lifted degrees differ
    assert not v.symmetry_breaking
    assert v.zero_level_parity == "p-even"


# --- unboundedness certificates ----------------------------------------------------------


def test_certificate_circle_level_four(circle_spec):
    v = analyze_levels(circle_spec, [4]).analyses()[0].verdict
    cert, reason = v.unbounded, v.unbounded_reason
    assert reason is None and cert is not None
    assert cert.subgroup == subgroup_canonical(2, [(1, 2)])
    assert cert.coefficient == -1 and cert.multiplicity == 1
    assert cert.excluded_levels == (Fraction(1),)


def test_certificate_negative_level():
    spec = circle_inverted_spec(9)
    v = analyze_levels(spec, [-4]).analyses()[0].verdict
    cert, reason = v.unbounded, v.unbounded_reason
    assert reason is None and cert is not None
    assert cert.subgroup == subgroup_canonical(2, [(1, 2)])
    assert cert.coefficient == 1


@pytest.mark.parametrize(
    "spec, level, excluded",
    [
        (circle_quartic_spec(9), 9, (1, 4)),
        (circle_inverted_spec(9), -9, (-4, -1)),
        (circle_inverted_spec(9), -4, (-1,)),
    ],
)
def test_certificate_excludes_every_candidate_between_zero_and_the_level(spec, level, excluded):
    cert = analyze_levels(spec, [level]).analyses()[0].verdict.unbounded
    assert cert is not None and cert.excluded_levels == excluded


def test_certificate_weight_leaking_into_an_intermediate_kernel_is_a_defect(monkeypatch):
    # with the uniqueness scan switched off, the beta = 4 highest weight [2] also
    # sits at beta = 1, so the combined weight (1, 2) is in the level-1 kernel
    spec = circle_quartic_spec(9)
    laplace = tuple(
        le._replace(eigenspace=direct_sum(le.eigenspace, TorusRep.rotation(1, [2]))) if le.beta == 1 else le
        for le in spec.laplace_spectrum
    )
    monkeypatch.setattr(spectra, "_uniqueness_scan", lambda spec: None)
    leaky = spec._replace(laplace_spectrum=laplace)
    with pytest.raises(ConsistencyError, match=r"weight \(1, 2\) leaks"):
        analyze_levels(leaky, [4])


def test_certificate_denied_without_markers(circle_spec):
    stripped = ProblemSpec(
        r=1,
        l=1,
        p=2,
        matrix_spectrum=(
            MatrixEigenData(Fraction(1), TorusRep.rotation(1, [1]), None),
        ),
        laplace_spectrum=circle_spec.laplace_spectrum,
        beta_cutoff=circle_spec.beta_cutoff,
        origin_degree_pos=circle_spec.origin_degree_pos,
        origin_degree_neg=circle_spec.origin_degree_neg,
    )
    v = analyze_levels(stripped, [4]).analyses()[0].verdict
    cert, reason = v.unbounded, v.unbounded_reason
    assert cert is None and "(E)" in reason


def test_certificate_denied_zero_unit_coefficient():
    spec = degenerate_origin_spec(odd_kernel=False)
    v = analyze_levels(spec, [1]).analyses()[0].verdict
    cert, reason = v.unbounded, v.unbounded_reason
    assert cert is None and "unit coefficient" in reason


def test_certificate_denied_for_a_highest_weight_outside_its_eigenspace(circle_spec):
    # [3] is not a weight of the circle's beta = 1 eigenspace, so no coefficient can match
    laplace = tuple(
        le._replace(highest_weight=(3,)) if le.beta == 1 else le for le in circle_spec.laplace_spectrum
    )
    spec = circle_spec._replace(laplace_spectrum=laplace)
    for a in analyze_levels(spec, [1, 4, 9]).analyses():
        cert, reason = a.verdict.unbounded, a.verdict.unbounded_reason
        assert cert is None and reason == "highest weight (3,) at beta 1 is not a weight of its eigenspace"


def test_certificate_denied_for_a_highest_weight_that_is_not_new(circle_spec):
    # declare the beta = 4 highest weight as [1], a weight of the beta = 1 eigenspace too
    low = next(le for le in circle_spec.laplace_spectrum if le.beta == 1)
    laplace = tuple(
        le._replace(eigenspace=direct_sum(le.eigenspace, low.eigenspace), highest_weight=(1,))
        if le.beta == 4 else le
        for le in circle_spec.laplace_spectrum
    )
    v = analyze_levels(circle_spec._replace(laplace_spectrum=laplace), [4]).analyses()[0].verdict
    cert, reason = v.unbounded, v.unbounded_reason
    assert cert is None and reason == "highest weight (1,) at beta 4 already occurs at beta 1"


def test_certificate_zero_level(sphere_spec):
    v = analyze_levels(sphere_spec, [0]).analyses()[0].verdict
    cert, reason = v.unbounded, v.unbounded_reason
    assert reason is None and cert is not None and cert.kind == "zero-level"


def test_certificate_zero_level_denied_for_even_p(circle_spec):
    v = analyze_levels(circle_spec, [0]).analyses()[0].verdict
    cert, reason = v.unbounded, v.unbounded_reason
    assert cert is None and reason == "p is even"


# --- level analysis record -----------------------------------------------------------------


def test_analyze_level_consistency(circle_spec):
    [a] = analyze_levels(circle_spec, [4]).analyses()
    assert a.negative_above == direct_sum(a.negative_below, a.kernel)
    assert a.verdict.global_bifurcation


# --- the level sweep -------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["circle_spec", "sphere_spec", "inverted"])
def test_sweep_records_match_single_levels(name, request):
    # the full sweep reuses each near-side degree; a single level computes it afresh
    spec = circle_inverted_spec(9) if name == "inverted" else request.getfixturevalue(name)
    records = analyze_levels(spec).records
    assert [lam for lam, _ in records] == [c.lambda0 for c in candidate_levels(spec)]
    for lam, outcome in records:
        assert outcome == analyze_levels(spec, [lam]).records[0][1]


def test_sweep_keeps_request_order_duplicates_and_errors(circle_spec):
    records = analyze_levels(circle_spec, [4, 1, 4, 16]).records
    assert [lam for lam, _ in records] == [4, 1, 4, 16]
    kinds = [type(outcome) for _, outcome in records]
    assert kinds == [LevelAnalysis, LevelAnalysis, LevelAnalysis, str]
    assert records[0][1] == records[2][1]
    assert records[3][1] == "analysis at level 16 needs Laplace data up to 16, declared cutoff is 9"
    # the cutoff is checked first, so a refused non-candidate is a refusal, an admitted one an error
    assert analyze_levels(circle_spec, [Fraction(33, 2)]).records[0][1].startswith("analysis at level 33/2")
    with pytest.raises(InputError, match="1/2 is not a candidate level"):
        analyze_levels(circle_spec, [4, Fraction(1, 2), 16])


def test_sweep_errors_leave_no_reference_cycles(circle_spec, monkeypatch):
    # a raised error whose traceback holds a frame that holds the sweep would
    # keep it alive until gc runs
    corrupt_kernel_degree(monkeypatch, circle_spec, 9)
    raising = [
        (CutoffError, lambda: analyze_levels(circle_spec, [16]).analyses()),
        (InputError, lambda: analyze_levels(circle_spec, [1, Fraction(1, 2)])),
        (InputError, lambda: build_report(circle_spec, [Fraction(1, 2)])),
        (ConsistencyError, lambda: analyze_levels(circle_spec, [1, 9])),
    ]
    gc.collect()
    gc.disable()
    try:
        records = analyze_levels(circle_spec, [1, 16]).records
        assert [type(outcome) for _, outcome in records] == [LevelAnalysis, str]
        del records
        assert gc.collect() == 0
        for expected, call in raising:
            # not pytest.raises: its ExceptionInfo makes a cycle through this frame
            try:
                call()
            except expected:
                pass
            else:
                pytest.fail("no error raised")
            assert gc.collect() == 0
    finally:
        gc.enable()


def test_sweep_groups_eigendata_and_scans_highest_weights_once(monkeypatch, sphere_fixture_path):
    calls = {"_pairs": 0, "_uniqueness_scan": 0}
    for module, name in ((bifurcation, "_pairs"), (spectra, "_uniqueness_scan")):
        def counted(spec, name=name, fn=getattr(module, name)):
            calls[name] += 1
            return fn(spec)

        monkeypatch.setattr(module, name, counted)
    spec = parse_problem(sphere_fixture_path)
    assert calls == {"_pairs": 0, "_uniqueness_scan": 1}  # one scan per parsed spec
    report = build_report(spec)
    assert len(report["levels"]) == 5 and calls == {"_pairs": 1, "_uniqueness_scan": 1}


def test_negative_level_route_mismatch_is_a_defect(monkeypatch):
    spec = circle_inverted_spec(9)
    kernel = kernel_rep(spec, -4)
    honest = bifurcation.deg_minus_id

    def corrupted(v, product=None):
        deg = honest(v, product)
        return deg + EulerElement.unit(v.ambient_rank) if v == kernel else deg

    monkeypatch.setattr(bifurcation, "deg_minus_id", corrupted)
    with pytest.raises(ConsistencyError, match="level -4"):
        analyze_levels(spec, [-4]).analyses()


def corrupt_kernel_degree(monkeypatch, spec, level, error=None):
    """Add ``error`` (by default the unit) to the sweep's deg(-Id) of the level's kernel."""
    kernel = kernel_rep(spec, level)
    honest = bifurcation.deg_minus_id

    def corrupted(v, product=None):
        deg = honest(v, product)
        if v != kernel:
            return deg
        return deg + (EulerElement.unit(v.ambient_rank) if error is None else error)

    monkeypatch.setattr(bifurcation, "deg_minus_id", corrupted)


def test_first_level_kernel_corruption_is_a_defect(monkeypatch, circle_spec):
    # at the first level deg(far) is deg(kernel): only the image check sees it
    corrupt_kernel_degree(monkeypatch, circle_spec, 1)
    with pytest.raises(ConsistencyError, match="level 1"):
        analyze_levels(circle_spec, [1]).analyses()


def test_torsion_only_kernel_corruption_passes_the_image_check(monkeypatch, circle_spec):
    # Phi sees an annihilator only through its rational span and covolume:
    # the order-2 subgroups Z/2 x 1 and 1 x Z/2 of T^2 have the same image,
    # so a kernel degree off by their difference is not caught
    h1, h2 = subgroup_canonical(2, [(2, 0), (0, 1)]), subgroup_canonical(2, [(1, 0), (0, 2)])
    assert plucker_image(EulerElement.generator(h1)) == plucker_image(EulerElement.generator(h2)) == {(3, 3): 4}
    assert circle_spec.r + circle_spec.l == 2
    [honest] = analyze_levels(circle_spec, [1]).analyses()
    corrupt_kernel_degree(monkeypatch, circle_spec, 1, EulerElement(2, [(h1, 1), (h2, -1)]))
    [corrupted] = analyze_levels(circle_spec, [1]).analyses()
    assert corrupted.index != honest.index
    # the from-scratch route of the selftest rejects it
    assert _check_two_routes(circle_spec, corrupted) is False
    assert _check_two_routes(circle_spec, honest) is True


def high_rank_doc(l):
    """A problem with r = 3 and a few weights on T^l, l >= 4: levels -2, -1, -1/2 and 1/3 ... 4."""
    def m(*head):
        return [*head, *[0] * (l - len(head))]

    return {
        "r": 3, "l": l, "p": 6,
        "matrix_spectrum": [
            {"alpha": "1", "trivial_mult": 0, "weights": [{"m": [1, 0, 0], "mult": 1}], "marker": [1, 0, 0]},
            {"alpha": "-2", "trivial_mult": 1, "weights": [{"m": [0, 1, 1], "mult": 1}]},
            {"alpha": "3", "trivial_mult": 1, "weights": []},
        ],
        "laplace": [
            {"beta": 0, "trivial_mult": 1, "weights": []},
            {"beta": 1, "trivial_mult": 0, "weights": [{"m": m(1), "mult": 1}],
             "irreducible": True, "highest_weight": m(1)},
            {"beta": 2, "trivial_mult": 0, "weights": [{"m": m(0, 1, 0, 1), "mult": 1}],
             "irreducible": True, "highest_weight": m(0, 1, 0, 1)},
            {"beta": 4, "trivial_mult": 0,
             "weights": [{"m": m(1, 1), "mult": 1}, {"m": m(0, 0, 1, 2), "mult": 1}]},
        ],
        "beta_cutoff": "12",
        "degF_pos": [{"characters": [], "coeff": 1}],
        "degF_neg": [{"characters": [], "coeff": 1}, {"characters": [[1, 0, 0]], "coeff": -1}],
    }


# report sha256 measured before the running degree and the image check; the
# first rank is the last checked by the Plücker image, the second is past it
HIGH_RANK_DIGESTS = {
    7: "6f8dbe5f81fbcdf86bcd9bf47e66ddac0a0eb8adbd21e8cf3a3433b85119f440",
    8: "5bc5464de01c05d631bf658f90f7e2333d672e63239ca78c5782e32b1222b62e",
}


def high_rank_spec(monkeypatch, rank):
    spec = parse_problem_dict(high_rank_doc(rank - 3))
    if rank > PLUCKER_MAX_RANK:
        def refuse(*args):
            raise AssertionError("Plücker image taken above the rank bound")

        monkeypatch.setattr(bifurcation, "plucker_image", refuse)
    return spec


@pytest.mark.parametrize("rank", sorted(HIGH_RANK_DIGESTS))
def test_high_rank_report_is_pinned(monkeypatch, rank):
    assert sorted(HIGH_RANK_DIGESTS) == [PLUCKER_MAX_RANK, PLUCKER_MAX_RANK + 1]
    text = report_to_json(build_report(high_rank_spec(monkeypatch, rank)))
    assert hashlib.sha256(text.encode()).hexdigest() == HIGH_RANK_DIGESTS[rank]


@pytest.mark.parametrize("rank", sorted(HIGH_RANK_DIGESTS))
@pytest.mark.parametrize("level", [-1, 2])
def test_high_rank_kernel_corruption_is_a_defect(monkeypatch, rank, level):
    spec = high_rank_spec(monkeypatch, rank)
    corrupt_kernel_degree(monkeypatch, spec, level)
    with pytest.raises(ConsistencyError, match=f"level {level}"):
        analyze_levels(spec, [level]).analyses()
