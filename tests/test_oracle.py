from fractions import Fraction

import pytest

import torbif.bifurcation as bif
from torbif.errors import InputError
from torbif.oracle import (
    _FIXTURE_SUITES,
    SUITE_NAMES,
    run_selftest,
    star_dimension_flipped,
    tensor_sign_flipped,
)
from torbif.problemfile import parse_problem_dict

from problems import p3_problem


def test_all_suites_pass():
    report = run_selftest(seed=1, trials=100)
    failing = [name for name, res in report.suites if not res.ok]
    assert failing == [], [
        (name, report.suite(name).first_counterexample) for name in failing
    ]


def test_every_registered_suite_runs():
    report = run_selftest(seed=1, trials=5)
    assert tuple(name for name, _ in report.suites) == SUITE_NAMES


def test_deterministic_per_seed():
    assert run_selftest(seed=1, trials=40) == run_selftest(seed=1, trials=40)


def test_other_seed_still_passes():
    assert run_selftest(seed=2, trials=40).ok


def test_suite_filter():
    report = run_selftest(seed=1, trials=10, suites=["snf-decomposition"])
    assert len(report.suites) == 1 and report.ok


def test_unknown_suite_rejected():
    with pytest.raises(InputError):
        run_selftest(seed=1, trials=1, suites=["no-such-suite"])


def test_star_mutation_fails_named_suites():
    report = run_selftest(seed=1, trials=30, star_impl=star_dimension_flipped)
    failing = [name for name, res in report.suites if not res.ok]
    assert failing
    assert any(res.first_counterexample for _, res in report.suites if not res.ok)


def test_tensor_mutation_fails_named_suites():
    report = run_selftest(seed=1, trials=30, tensor_impl=tensor_sign_flipped)
    failing = [name for name, res in report.suites if not res.ok]
    assert failing
    # the dimension suite alone cannot see this mutant; the oracles must
    assert set(failing) & {"tensor-character", "tensor-weights"}


FIXTURE_SUITES = SUITE_NAMES[-6:]


def test_fixture_suite_check_counts():
    report = run_selftest(seed=1, trials=1, suites=FIXTURE_SUITES)
    assert [(name, res.trials) for name, res in report.suites] == list(
        zip(FIXTURE_SUITES, (15, 12, 15, 15, 12, 15))
    )


def test_fixture_suites_sweep_each_fixture_once(monkeypatch):
    calls = []
    sweep = bif.analyze_levels

    def counted(spec, levels=None):
        calls.append(levels)
        return sweep(spec, levels)

    monkeypatch.setattr(bif, "analyze_levels", counted)
    assert run_selftest(seed=1, trials=1, suites=FIXTURE_SUITES).ok
    # one sweep per fixture shared by the six suites, plus the three single-level verdict cases
    assert len(calls) == 3 + 3


def test_failing_sweep_fails_each_fixture_suite(monkeypatch):
    def broken(spec, levels=None):
        raise RuntimeError("sweep failed")

    monkeypatch.setattr(bif, "analyze_levels", broken)
    report = run_selftest(seed=1, trials=2)
    assert [name for name, res in report.suites if not res.ok] == list(FIXTURE_SUITES)
    for name in FIXTURE_SUITES:
        res = report.suite(name)
        assert (res.trials, res.failures) == (1, 1)
        assert res.first_counterexample == "exception: RuntimeError('sweep failed')"


def test_randomized_suites_make_no_sweeps(monkeypatch):
    calls = []
    monkeypatch.setattr(bif, "analyze_levels", lambda spec, levels=None: calls.append(spec))
    assert run_selftest(seed=1, trials=2, suites=SUITE_NAMES[:-6]).ok
    assert calls == []


def test_mutation_gate_fails_exactly_the_named_suites():
    star_report = run_selftest(seed=1, trials=30, star_impl=star_dimension_flipped)
    assert [name for name, res in star_report.suites if not res.ok] == [
        "ring-axioms",
        "degree-truncation",
        "degree-multiplicative",
    ]
    tensor_report = run_selftest(seed=1, trials=30, tensor_impl=tensor_sign_flipped)
    assert [name for name, res in tensor_report.suites if not res.ok] == [
        "tensor-character",
        "tensor-weights",
    ]


def test_fixture_checks_judge_any_spec_and_level():
    # P3(9), flat T^2, beyond the three fixtures; the cutoff refuses its levels past 3
    spec = parse_problem_dict(p3_problem(9))
    analyses = [outcome for _, outcome in bif.analyze_levels(spec).records if not isinstance(outcome, str)]
    assert [a.lambda0 for a in analyses] == [Fraction(k, 3) for k in (0, 1, 2, 3, 4, 5, 6, 8, 9)]
    verdicts = {name: [check(spec, a) for a in analyses] for name, (check, _) in _FIXTURE_SUITES.items()}
    assert verdicts == {
        "kernel-consistency": [True] * 9,
        "index-two-routes": [None] + [True] * 8,
        "negative-accumulation": [True] * 9,
        "verdict-soundness": [None] + [True] * 8,
        # flat T^2 eigenspaces are not certified irreducible, so no level gets a certificate:
        # the check fails there rather than abstaining
        "highest-weight-exclusion": [None] + [False] * 8,
        "symmetry-breaking-flag": [True] * 9,
    }
    assert spec.validation.certificate_obstacle == "eigenspace at 1 not certified irreducible"
