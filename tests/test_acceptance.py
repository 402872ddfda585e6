"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here.
"""

import math
import time
from math import comb

import numpy as np

from torbif.bifurcation import REASON_ODD, analyze_levels, candidate_levels, kernel_rep
from torbif.corroborate import newton_branch, residual, stability_scan
from torbif.eulerring import EulerElement, deg_minus_id, lift, star
from torbif.intlat import subgroup_canonical
from torbif.oracle import run_selftest, star_dimension_flipped, tensor_sign_flipped
from torbif.spectra import sphere_spectrum

from circle_reference import exact_branch_state


def _announce(number: int, label: str) -> None:
    print(f"[acceptance] criterion {number} ({label}): PASS")


def test_criterion_1_exact_algebra_suite():
    start = time.perf_counter()
    snf_report = run_selftest(seed=1, trials=500, suites=["snf-decomposition"])
    ring_report = run_selftest(seed=1, trials=200, suites=["ring-axioms"])
    elapsed = time.perf_counter() - start
    assert snf_report.suite("snf-decomposition").failures == 0
    assert ring_report.suite("ring-axioms").failures == 0
    assert elapsed < 10.0, f"exact algebra suite took {elapsed:.2f}s"
    _announce(1, "500 SNF verifications + 200 ring axiom trials, zero failures")


def test_criterion_2_truncation_conformance():
    report = run_selftest(seed=1, trials=100, suites=["degree-truncation"])
    assert report.suite("degree-truncation").failures == 0
    _announce(2, "codim <= 1 part of the -Id degree matches the closed form, 100 reps")


def test_criterion_3_dimension_lemma():
    report = run_selftest(seed=1, trials=200, suites=["dimension-lemma"])
    assert report.suite("dimension-lemma").failures == 0
    _announce(3, "extension-by-torus intersection dimension, 200 instances")


def test_criterion_4_circle_quartic_end_to_end(circle_spec, circle_deep_spec):
    # candidate levels of the shipped fixture
    assert [c.lambda0 for c in candidate_levels(circle_spec)] == [0, 1, 4, 9]

    # index at the first level, term for term
    analyses = analyze_levels(circle_spec, [1, 4]).analyses()
    pair = subgroup_canonical(2, [(1, 1), (1, -1)])
    expected = (
        EulerElement.generator(pair)
        - EulerElement.generator(subgroup_canonical(2, [(1, 1)]))
        - EulerElement.generator(subgroup_canonical(2, [(1, -1)]))
    )
    assert analyses[0].index == expected

    # coefficient -1 at the combined character for k = 1..5 (deep spectrum)
    deep = analyze_levels(circle_deep_spec, [1, 4, 9, 16, 25]).analyses()
    for k, a in enumerate(deep, start=1):
        assert a.index.coefficient(subgroup_canonical(2, [(1, k)])) == -1

    # verdicts and certificates at every squared level
    for k, a in enumerate(deep, start=1):
        v = a.verdict
        assert v.global_bifurcation and v.symmetry_breaking
        cert, reason = v.unbounded, v.unbounded_reason
        assert reason is None and cert is not None
        assert cert.subgroup == subgroup_canonical(2, [(1, k)])

    # the summed indices over {1, 4} keep the level-one coefficient
    total = sum((a.index for a in analyses), EulerElement(2))
    assert total.coefficient(subgroup_canonical(2, [(1, 1)])) == -1
    _announce(4, "circle model end to end: levels, index terms, verdicts, certificates")


def test_criterion_5_two_route_index_equality(circle_spec, sphere_spec):
    for spec in (circle_spec, sphere_spec):
        total_rank = spec.r + spec.l
        positives = [c.lambda0 for c in candidate_levels(spec) if c.lambda0 > 0]
        assert positives
        for a in analyze_levels(spec, positives).analyses():
            product_form = star(
                star(
                    lift(spec.origin_degree_pos, spec.l),
                    deg_minus_id(a.negative_below),
                ),
                deg_minus_id(kernel_rep(spec, a.lambda0)) - EulerElement.unit(total_rank),
            )
            assert a.index == product_form
    _announce(5, "difference and product index routes agree at all positive levels")


def test_criterion_6_sphere_fixture(sphere_spec):
    levels = [k * (k + 1) for k in range(1, 5)]
    for k, a in enumerate(analyze_levels(sphere_spec, levels).analyses(), start=1):
        v_dim = kernel_rep(sphere_spec, a.lambda0).dim
        assert v_dim == 2 * k + 1 and v_dim % 2 == 1
        v = a.verdict
        assert v.global_bifurcation and REASON_ODD in v.reasons
    for n in (3, 4, 5):
        for k, entry in enumerate(sphere_spectrum(n, 6)):
            closed = comb(n + k - 1, k) - (comb(n + k - 3, k - 2) if k >= 2 else 0)
            assert entry.eigenspace.dim == closed
    _announce(6, "sphere levels are odd-dimensional with the odd-dimension verdict")


def test_criterion_7_corroboration():
    start = time.perf_counter()
    crossings = stability_scan(8, 0.5, 5.0)
    assert len(crossings) == 2
    assert abs(crossings[0] - 1.0) < 1e-6 and abs(crossings[1] - 4.0) < 1e-6

    result = newton_branch(1, 1.5)
    assert result.converged and result.iterations <= 10
    assert abs(result.amplitude - math.sqrt(0.5)) < 1e-8

    state = exact_branch_state(1, 1.5, 8)
    assert float(np.abs(residual(state)).max()) < 1e-12

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"corroboration took {elapsed:.2f}s"
    _announce(7, "scan crossings at 1 and 4, Newton amplitude sqrt(0.5), exact residual")


def test_criterion_8_mutation_gate():
    star_report = run_selftest(seed=1, trials=30, star_impl=star_dimension_flipped)
    assert any(not res.ok for _, res in star_report.suites)
    tensor_report = run_selftest(seed=1, trials=30, tensor_impl=tensor_sign_flipped)
    assert any(not res.ok for _, res in tensor_report.suites)
    _announce(8, "flipped star and tensor rules are caught by named suites")
