import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from click.testing import CliRunner

from torbif import cli
from torbif.errors import ConsistencyError, CutoffError, InputError
from torbif.oracle import SELFTEST_MAX_TRIALS


@pytest.fixture()
def runner():
    return CliRunner()


def test_candidates_command(runner, circle_fixture_path):
    result = runner.invoke(cli.main, ["candidates", str(circle_fixture_path)])
    assert result.exit_code == 0
    levels = [line.split(":")[0] for line in result.output.strip().splitlines()]
    assert levels == ["0", "1", "4", "9"]


def test_analyze_command(runner, circle_fixture_path):
    result = runner.invoke(cli.main, ["analyze", str(circle_fixture_path), "--level", "1"])
    assert result.exit_code == 0
    assert "global bifurcation" in result.output
    assert "symmetry breaking" in result.output


def test_analyze_rejects_non_candidate(runner, circle_fixture_path):
    result = runner.invoke(cli.main, ["analyze", str(circle_fixture_path), "--level", "1/2"])
    assert result.exit_code == 2


def test_analyze_refuses_beyond_cutoff(runner, circle_fixture_path):
    # 16 may be a candidate beyond the stored spectrum: refusal, not input error
    result = runner.invoke(cli.main, ["analyze", str(circle_fixture_path), "--level", "16"])
    assert result.exit_code == 3


def test_analyze_all_ordering(runner, sphere_fixture_path):
    result = runner.invoke(cli.main, ["analyze-all", str(sphere_fixture_path)])
    assert result.exit_code == 0
    levels = [line.split()[1].rstrip(":") for line in result.output.splitlines() if line.startswith("level ")]
    assert levels == ["0", "2", "6", "12", "20"]


def test_report_json_bit_stable(runner, circle_fixture_path):
    first = runner.invoke(cli.main, ["report", str(circle_fixture_path), "--format", "json"])
    second = runner.invoke(cli.main, ["report", str(circle_fixture_path), "--format", "json"])
    assert first.exit_code == 0
    assert first.output == second.output
    doc = json.loads(first.output)
    assert [rec["lambda0"] for rec in doc["levels"]] == ["0", "1", "4", "9"]


def test_malformed_file_exit_code(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    result = runner.invoke(cli.main, ["candidates", str(bad)])
    assert result.exit_code == 2
    assert "MALFORMED_JSON" in result.output or "MALFORMED_JSON" in (result.stderr or "")


def test_oversized_flat_torus_is_refused(runner, tmp_path):
    # (2*8+1)^6 = 24,137,569 lattice points: refused before any is walked
    problem = tmp_path / "flat_t6.json"
    problem.write_text(
        '{"r": 1, "l": 6, "p": 2,\n'
        ' "matrix_spectrum": [{"alpha": "1", "weights": [{"m": [1]}], "marker": [1]}],\n'
        ' "laplace": {"provider": "flat_torus", "params": {"d": 6, "cutoff": 64}},\n'
        ' "beta_cutoff": "64",\n'
        ' "degF_pos": [{"characters": [], "coeff": 1}],\n'
        ' "degF_neg": [{"characters": [], "coeff": 1}]}\n'
    )
    t0 = time.perf_counter()
    result = runner.invoke(cli.main, ["candidates", str(problem)])
    assert time.perf_counter() - t0 < 1.0
    assert result.exit_code == 3
    assert "laplace.params" in result.output and "17^6" in result.output


def _write_problem(tmp_path, **changes):
    doc = {
        "r": 1, "l": 1, "p": 2,
        "matrix_spectrum": [{"alpha": "1", "weights": [{"m": [1]}], "marker": [1]}],
        "laplace": {"provider": "flat_torus", "params": {"d": 1, "cutoff": 4}},
        "beta_cutoff": "4",
        "degF_pos": [{"characters": [], "coeff": 1}],
        "degF_neg": [{"characters": [], "coeff": 1}],
    }
    doc.update(changes)
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps(doc))
    return problem


def _timed_report(runner, problem):
    t0 = time.perf_counter()
    result = runner.invoke(cli.main, ["report", str(problem)])
    return result, time.perf_counter() - t0


def test_oversized_torus_rank_is_refused(runner, tmp_path):
    for r, shown in [(10**7, "r=10000000"), (10**3999, "r=<integer of 13285 bits>")]:
        result, seconds = _timed_report(runner, _write_problem(tmp_path, r=r))
        assert seconds < 1.0
        assert result.exit_code == 3
        assert shown in result.output and "lower r or l" in result.output
        assert len(result.output) < 300


@pytest.mark.parametrize("cutoff_k", [10**6, 10**1499], ids=["7-digit", "1500-digit"])
def test_oversized_sphere_is_refused(runner, tmp_path, cutoff_k):
    # the bound on the work of a 1,500-digit cutoff_k has over 4,300 digits, past str()'s limit
    problem = _write_problem(
        tmp_path,
        p=1,
        matrix_spectrum=[{"alpha": "1", "trivial_mult": 1, "marker": [0]}],
        laplace={"provider": "sphere", "params": {"n": 3, "cutoff_k": cutoff_k}},
        beta_cutoff="20",
    )
    result, seconds = _timed_report(runner, problem)
    assert seconds < 1.0
    assert result.exit_code == 3
    assert "laplace.params" in result.output and "cutoff_k" in result.output
    assert len(result.output) < 300


@pytest.mark.parametrize(
    "args",
    [["report", "--format", "json"], ["report"], ["analyze", "--level", "1"]],
    ids=["report-json", "report-text", "analyze"],
)
def test_report_with_integers_past_the_digit_limit_is_refused(runner, tmp_path, args):
    # 4,300-digit weights, the most json reads; the Hermite entries of their meets reach about 8,600
    big = 10**4299
    weights = [[big + 7, 3 * big + 11], [7 * big + 1, 10**4298 + 3]]
    problem = _write_problem(
        tmp_path,
        r=2,
        p=4,
        matrix_spectrum=[
            {"alpha": str(alpha), "weights": [{"m": m}], "marker": m} for alpha, m in zip((1, 2), weights)
        ],
        laplace={"provider": "flat_torus", "params": {"d": 1, "cutoff": 9}},
        beta_cutoff="9",
    )
    result = runner.invoke(cli.main, [args[0], str(problem), *args[1:]])
    assert result.exit_code == 3
    assert result.output.startswith("refused: the report holds an <integer of ")
    assert result.output.endswith(" bits>, too long to print\n")
    assert result.output.count("\n") == 1


_HUGE = 10**3999  # 4,000 digits: json reads it, and str() of it still works


@pytest.mark.parametrize(
    ("changes", "code"),
    [
        ({"laplace": {"provider": "flat_torus", "params": {"d": _HUGE, "cutoff": 4}}}, "SCHEMA"),
        (
            {
                "laplace": {"provider": "flat_torus", "params": {"d": 1, "cutoff": _HUGE}},
                "beta_cutoff": str(10 * _HUGE),
            },
            "CUTOFF_INSUFFICIENT",
        ),
        ({"laplace": {"provider": "sphere", "params": {"n": _HUGE, "cutoff_k": 1}}}, "SCHEMA"),
        (
            {"laplace": {"provider": "sphere", "params": {"n": 3, "cutoff_k": 1}}, "beta_cutoff": str(_HUGE)},
            "CUTOFF_INSUFFICIENT",
        ),
        ({"laplace": [{"beta": str(_HUGE), "weights": [{"m": [1]}]}]}, "CUTOFF_INSUFFICIENT"),
    ],
    ids=["flat-d", "flat-cutoff", "sphere-n", "sphere-beta-cutoff", "entry-beta"],
)
def test_parser_messages_bound_huge_laplace_values(runner, tmp_path, changes, code):
    result, seconds = _timed_report(runner, _write_problem(tmp_path, **changes))
    assert seconds < 1.0
    assert result.exit_code == 2
    assert result.output.startswith(f"error[{code}]: ")
    assert "bits>" in result.output and len(result.output) < 300


@pytest.mark.parametrize(
    ("provider", "shown"),
    [("x" * 100_000, "'" + "x" * 40 + "'"), (_HUGE, "of type int"), ([["flat_torus"]] * 50_000, "of type list")],
    ids=["long-string", "huge-int", "long-list"],
)
def test_unknown_provider_is_echoed_briefly(runner, tmp_path, provider, shown):
    result, seconds = _timed_report(runner, _write_problem(tmp_path, laplace={"provider": provider, "params": {}}))
    assert seconds < 1.0
    assert result.exit_code == 2
    assert result.output == f"error[SCHEMA]: laplace.provider: unknown provider {shown}\n"


def test_huge_multiplicity_is_reported(runner, tmp_path):
    problem = _write_problem(
        tmp_path,
        p=2 * 10**9,
        matrix_spectrum=[
            {"alpha": "1", "weights": [{"m": [1], "mult": 10**9}], "marker": [1]}
        ],
    )
    result, seconds = _timed_report(runner, problem)
    assert seconds < 1.0
    assert result.exit_code == 0
    assert "coefficient -1000000000" in result.output


def test_exponent_rational_is_refused_without_expanding(runner, tmp_path):
    problem = tmp_path / "exponent.json"
    problem.write_text('{"r":1,"l":1,"p":2,"beta_cutoff":"1e30000000"}')
    result, seconds = _timed_report(runner, problem)
    assert seconds < 1.0
    assert result.exit_code == 2
    assert "error[SCHEMA]: beta_cutoff: bad rational" in result.output


def test_exponent_level_is_refused_without_expanding(runner, circle_fixture_path):
    t0 = time.perf_counter()
    result = runner.invoke(cli.main, ["analyze", str(circle_fixture_path), "--level", "1e30000000"])
    assert time.perf_counter() - t0 < 1.0
    assert result.exit_code == 2
    assert "error[SCHEMA]: --level: bad rational" in result.output


@pytest.mark.parametrize("level", ["1" * 5001, "1" * 4000 + "/0"], ids=["digit-limit", "zero-denominator"])
def test_overlong_level_is_refused_with_a_short_message(runner, circle_fixture_path, level):
    # Fraction() fails past int()'s 4,300-digit limit, or on a zero denominator, with a
    # text that can repeat the input; the message echoes only its first 40 characters
    result = runner.invoke(cli.main, ["analyze", str(circle_fixture_path), "--level", level])
    assert result.exit_code == 2
    assert result.output.startswith("error[SCHEMA]: --level: bad rational '" + "1" * 40 + "'")
    assert len(result.output) < 200


@pytest.mark.parametrize(
    "data",
    [b'{"r": ' + b"1" * 5000 + b"}", b"[" * 200_000, b"\xff\xfe{"],
    ids=["integer-past-the-digit-limit", "deep-nesting", "not-utf-8"],
)
def test_unparsable_json_is_malformed(runner, tmp_path, data):
    problem = tmp_path / "bad.json"
    problem.write_bytes(data)
    result, seconds = _timed_report(runner, problem)
    assert seconds < 1.0
    assert result.exit_code == 2
    assert "error[MALFORMED_JSON]" in result.output


def test_highest_weight_outside_its_eigenspace_declines_the_certificate(runner, tmp_path):
    laplace = [
        {"beta": "0", "trivial_mult": 1},
        {"beta": "1", "weights": [{"m": [1]}], "irreducible": True, "highest_weight": [3]},
        {"beta": "4", "weights": [{"m": [2]}], "irreducible": True, "highest_weight": [2]},
    ]
    result, seconds = _timed_report(runner, _write_problem(tmp_path, laplace=laplace))
    assert seconds < 1.0
    assert result.exit_code == 0
    assert "no certificate (highest weight (3,) at beta 1 is not a weight of its eigenspace)" in result.output


STARTUP_CHILD = """\
import json, sys
from importlib import resources
import torbif.cli
for name in ("circle_quartic.json", "sphere_p1.json"):
    path = str(resources.files("torbif") / "fixtures" / name)
    try:
        torbif.cli.main(["report", path, "--format", "json"])
    except SystemExit as exc:
        assert exc.code == 0, exc.code
print(json.dumps(sorted(m for m in sys.modules if m == "numpy" or m.startswith("torbif."))))
"""


def test_reports_run_without_loading_numpy():
    # a fresh interpreter: the exact-algebra commands must not pay for numpy, while
    # every layer module stays importable by name (the benchmark tracer looks them up)
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", STARTUP_CHILD],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120, check=True,
    )
    loaded = set(json.loads(proc.stdout.splitlines()[-1]))
    assert "numpy" not in loaded
    layers = ("intlat", "torusrep", "eulerring", "spectra", "bifurcation", "problemfile", "corroborate", "oracle", "cli")
    assert {f"torbif.{layer}" for layer in layers} <= loaded


def test_scan_command(runner):
    result = runner.invoke(cli.main, ["scan", "--lo", "0.5", "--hi", "5"])
    assert result.exit_code == 0
    values = [float(x) for x in result.output.split()]
    assert len(values) == 2
    assert abs(values[0] - 1.0) < 1e-6 and abs(values[1] - 4.0) < 1e-6


def test_scan_refusal_exit_code(runner):
    result = runner.invoke(cli.main, ["scan", "--lo", "0.5", "--hi", "5", "--modes", "3"])
    assert result.exit_code == 3


@pytest.mark.parametrize(
    "args",
    [
        ["scan", "--lo", "0.5", "--hi", "inf"],
        ["scan", "--lo", "-inf", "--hi", "5"],
        ["scan", "--lo", "nan", "--hi", "5"],
        ["corroborate-circle", "--k", "1", "--lambda", "inf"],
        ["corroborate-circle", "--k", "1", "--lambda", "nan"],
    ],
)
def test_non_finite_galerkin_input_is_an_input_error(runner, args):
    result = runner.invoke(cli.main, args)
    assert result.exit_code == 2
    assert "must be finite" in result.output


@pytest.fixture()
def no_galerkin_arrays(monkeypatch):
    # a refusal must come before numpy is loaded: importing it now fails
    monkeypatch.setitem(sys.modules, "numpy", None)


@pytest.mark.parametrize(
    "args, limit",
    [
        (["scan", "--lo", "0.5", "--hi", "5", "--steps", "1000000000"], "limit 20000"),
        (["scan", "--lo", "0.5", "--hi", "5", "--modes", "100000000"], "limit 128"),
        (["corroborate-circle", "--k", "100000000", "--lambda", "1e17"], "limit 128"),
        (["corroborate-circle", "--k", "1", "--lambda", "1.5", "--modes", "129"], "limit 128"),
    ],
)
def test_oversized_galerkin_work_is_refused(runner, no_galerkin_arrays, args, limit):
    t0 = time.perf_counter()
    result = runner.invoke(cli.main, args)
    assert time.perf_counter() - t0 < 1.0
    assert result.exit_code == 3
    assert limit in result.output


@pytest.mark.parametrize(
    "args",
    [
        ["corroborate-circle", "--k", str(_HUGE), "--lambda", "5"],
        ["corroborate-circle", "--k", "1", "--lambda", "1.5", "--modes", str(_HUGE)],
        ["scan", "--lo", "0.5", "--hi", "5", "--steps", str(_HUGE)],
        ["scan", "--lo", "0.5", "--hi", "5", "--modes", str(_HUGE)],
        ["selftest", "--trials", str(_HUGE)],
    ],
    ids=["circle-k", "circle-modes", "scan-steps", "scan-modes", "selftest-trials"],
)
def test_huge_command_numbers_are_refused_by_size(runner, no_galerkin_arrays, args):
    # k^2, the cutoff, the step count and the trial count print by their size past 256 bits
    t0 = time.perf_counter()
    result = runner.invoke(cli.main, args)
    assert time.perf_counter() - t0 < 1.0
    assert result.exit_code == 3
    assert "bits>" in result.output and len(result.output) < 300


def test_wide_scan_interval_is_bisected_without_recursion(runner):
    # the crossing at 0 lies about 1,000 halvings below a 1e300-wide step
    result = runner.invoke(cli.main, ["scan", "--lo", "-1e300", "--hi", "5"])
    assert result.exit_code == 0
    assert [abs(float(x)) for x in result.output.split()] == pytest.approx([0.0, 1.0, 4.0], abs=1e-6)


def test_corroborate_circle_command(runner):
    result = runner.invoke(
        cli.main, ["corroborate-circle", "--k", "1", "--lambda", "1.5"]
    )
    assert result.exit_code == 0
    assert "converged=True" in result.output
    assert "0.707106781187" in result.output


def test_selftest_command(runner):
    result = runner.invoke(cli.main, ["selftest", "--seed", "1", "--trials", "5"])
    assert result.exit_code == 0
    assert "snf-decomposition: PASS" in result.output
    assert "FAIL" not in result.output


def test_selftest_output_is_pinned(runner):
    result = runner.invoke(cli.main, ["selftest", "--seed", "1", "--trials", "100"])
    assert result.exit_code == 0
    assert (
        hashlib.sha256(result.output.encode()).hexdigest()
        == "bda029f2bba218dab873aeb8136608169f6996a20f479c83cbef22f7a7ebb844"
    )


@pytest.mark.parametrize("trials", [SELFTEST_MAX_TRIALS + 1, 1_000_000_000])
def test_oversized_selftest_is_refused(runner, trials):
    t0 = time.perf_counter()
    result = runner.invoke(cli.main, ["selftest", "--trials", str(trials)])
    assert time.perf_counter() - t0 < 1.0
    assert result.exit_code == 3
    assert result.output == f"refused: {trials} trials are over the limit {SELFTEST_MAX_TRIALS}; lower the trial count\n"


def test_dispatch_exit_codes():
    for exc, code in (
        (InputError("x"), 2),
        (CutoffError("x"), 3),
        (ConsistencyError("x"), 4),
    ):

        def boom(exc=exc):
            raise exc

        with pytest.raises(SystemExit) as err:
            cli._dispatch(boom)
        assert err.value.code == code
