import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from torbif import cli
from torbif.errors import ConsistencyError, CutoffError, InputError
from torbif.oracle import SELFTEST_MAX_TRIALS

from clirun import run_cli


def test_candidates_command(circle_fixture_path):
    result = run_cli(["candidates", str(circle_fixture_path)])
    assert result.exit_code == 0
    levels = [line.split(":")[0] for line in result.output.strip().splitlines()]
    assert levels == ["0", "1", "4", "9"]


def test_analyze_command(circle_fixture_path):
    result = run_cli(["analyze", str(circle_fixture_path), "--level", "1"])
    assert result.exit_code == 0
    assert "global bifurcation" in result.output
    assert "symmetry breaking" in result.output


def test_analyze_rejects_non_candidate(circle_fixture_path):
    result = run_cli(["analyze", str(circle_fixture_path), "--level", "1/2"])
    assert result.exit_code == 2


COMMANDS = ("candidates", "analyze", "report", "corroborate-circle", "scan", "selftest")


def test_help_lists_every_command():
    result = run_cli(["--help"])
    assert result.exit_code == 0
    # one command per line at this indent; a wrapped help text goes on deeper
    listed = [line.split()[0] for line in result.output.splitlines() if line.startswith("    ") and line[4] != " "]
    assert tuple(listed) == COMMANDS


@pytest.mark.parametrize(
    ("args", "code", "shown"),
    [
        (["analyze", "CIRCLE", "--level", "-1/2"], 2, "error[INPUT]: -1/2 is not a candidate level\n"),
        (["scan", "--lo", "-1e-3", "--hi", "5"], 0, "0.000000\n1.000000\n4.000000\n"),
        (["scan", "--lo", "-2", "--hi", "-0.5"], 0, ""),
        (["corroborate-circle", "--k", "1", "--lambda", "-1"], 3, "refused: need lambda > k^2 = 1, got -1.0\n"),
    ],
    ids=["level", "lo", "hi", "lambda"],
)
def test_option_values_may_start_with_a_minus(circle_fixture_path, args, code, shown):
    result = run_cli([str(circle_fixture_path) if a == "CIRCLE" else a for a in args])
    assert result == (code, shown)


@pytest.mark.parametrize(
    ("args", "message"),
    [
        ([], "the following arguments are required: COMMAND"),
        (["bogus"], "invalid choice: 'bogus'"),
        (["report", "CIRCLE", "--bogus", "1"], "unrecognized arguments: --bogus 1"),
        (["analyze", "CIRCLE"], "the following arguments are required: --level"),
        (["report", "CIRCLE", "--format", "xml"], "argument --format: invalid choice: 'xml'"),
        (["selftest", "--trials", "1.5"], "argument --trials: invalid int value: '1.5'"),
        # the text report is `report`, whose default format is text
        (["analyze-all", "CIRCLE"], "invalid choice: 'analyze-all'"),
    ],
    ids=[
        "no-command", "unknown-command", "unknown-option", "missing-level", "bad-format", "float-trials",
        "analyze-all",
    ],
)
def test_usage_errors_exit_2(circle_fixture_path, args, message):
    result = run_cli([str(circle_fixture_path) if a == "CIRCLE" else a for a in args])
    assert result.exit_code == 2
    assert result.output.startswith("usage: torbif")
    assert message in result.output


@pytest.mark.parametrize("name", ["no-such-file.json", ""], ids=["missing-file", "directory"])
def test_unreadable_problem_file_exits_2(tmp_path, name):
    # the parser's one rule for a file it cannot open, not a usage error
    path = tmp_path / name
    result = run_cli(["report", str(path)])
    assert result.exit_code == 2
    assert result.output.startswith(f"error[INPUT]: cannot read {path}: ")
    assert result.output.count("\n") == 1


def test_analyze_refuses_beyond_cutoff(circle_fixture_path):
    # 16 may be a candidate beyond the stored spectrum: refusal, not input error
    result = run_cli(["analyze", str(circle_fixture_path), "--level", "16"])
    assert result.exit_code == 3


def test_analyze_all_ordering(sphere_fixture_path):
    # the text report analyzes all levels, ordered by level
    result = run_cli(["report", str(sphere_fixture_path)])
    assert result.exit_code == 0
    levels = [line.split()[1].rstrip(":") for line in result.output.splitlines() if line.startswith("level ")]
    assert levels == ["0", "2", "6", "12", "20"]


def test_report_json_bit_stable(circle_fixture_path):
    first = run_cli(["report", str(circle_fixture_path), "--format", "json"])
    second = run_cli(["report", str(circle_fixture_path), "--format", "json"])
    assert first.exit_code == 0
    assert first.output == second.output
    doc = json.loads(first.output)
    assert [rec["lambda0"] for rec in doc["levels"]] == ["0", "1", "4", "9"]


@pytest.mark.parametrize(
    "path, digest",
    [
        ("circle_fixture_path", "21a477dbc13b6487b7610a3a7fda217cffa705e68a31fe22104999b5910ad70e"),
        ("sphere_fixture_path", "b56ed844369f28a236a7af31c91507bed56ae5ce0848bfe36919e8b7e7736f3c"),
    ],
)
@pytest.mark.parametrize("args", [["report", "--format", "text"], ["report"]], ids=["report-text", "report-default"])
def test_text_report_bytes_pinned(path, digest, args, request):
    # the text report writes every subgroup by str(); text is the default format
    result = run_cli([args[0], str(request.getfixturevalue(path)), *args[1:]])
    assert result.exit_code == 0
    assert hashlib.sha256(result.output.encode()).hexdigest() == digest


def test_malformed_file_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    result = run_cli(["candidates", str(bad)])
    assert result.exit_code == 2
    assert "MALFORMED_JSON" in result.output


def test_string_irreducible_flag_exits_2(tmp_path, circle_fixture_path):
    doc = json.loads(circle_fixture_path.read_text())
    doc["laplace"] = [
        {"beta": "0", "trivial_mult": 1},
        {"beta": "1", "weights": [{"m": [1]}], "irreducible": "false", "highest_weight": [1]},
    ]
    doc["beta_cutoff"] = "1"
    problem = tmp_path / "string_flag.json"
    problem.write_text(json.dumps(doc))
    result = run_cli(["report", str(problem)])
    assert result == (2, "error[SCHEMA]: laplace[1].irreducible: expected a boolean\n")


def test_oversized_flat_torus_is_refused(tmp_path):
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
    result = run_cli(["candidates", str(problem)])
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


def _timed_report(problem):
    t0 = time.perf_counter()
    result = run_cli(["report", str(problem)])
    return result, time.perf_counter() - t0


def test_oversized_torus_rank_is_refused(tmp_path):
    for r, shown in [(10**7, "r=10000000"), (10**3999, "r=<integer of 13285 bits>")]:
        result, seconds = _timed_report(_write_problem(tmp_path, r=r))
        assert seconds < 1.0
        assert result.exit_code == 3
        assert shown in result.output and "lower r or l" in result.output
        assert len(result.output) < 300


@pytest.mark.parametrize("cutoff_k", [10**6, 10**1499], ids=["7-digit", "1500-digit"])
def test_oversized_sphere_is_refused(tmp_path, cutoff_k):
    # the bound on the work of a 1,500-digit cutoff_k has over 4,300 digits, past str()'s limit
    problem = _write_problem(
        tmp_path,
        p=1,
        matrix_spectrum=[{"alpha": "1", "trivial_mult": 1, "marker": [0]}],
        laplace={"provider": "sphere", "params": {"n": 3, "cutoff_k": cutoff_k}},
        beta_cutoff="20",
    )
    result, seconds = _timed_report(problem)
    assert seconds < 1.0
    assert result.exit_code == 3
    assert "laplace.params" in result.output and "cutoff_k" in result.output
    assert len(result.output) < 300


@pytest.mark.parametrize(
    "args",
    [["report", "--format", "json"], ["report"], ["analyze", "--level", "1"]],
    ids=["report-json", "report-text", "analyze"],
)
def test_report_with_integers_past_the_digit_limit_is_refused(tmp_path, args):
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
    result = run_cli([args[0], str(problem), *args[1:]])
    assert result.exit_code == 3
    assert result.output.startswith("refused: the report holds an <integer of ")
    assert result.output.endswith(" bits>, too long to print\n")
    assert result.output.count("\n") == 1


@pytest.mark.parametrize(
    "args", [["report"], ["report", "--format", "json"], ["candidates"]],
    ids=["report-text", "report-json", "candidates"],
)
def test_level_past_the_digit_limit_is_refused(circle_fixture_path, tmp_path, args):
    # alpha = 1/(10^4300 - 1) puts the levels at beta * (10^4300 - 1): 4 * that has 4,301 digits
    doc = json.loads(circle_fixture_path.read_text())
    doc["matrix_spectrum"][0]["alpha"] = "1/" + "9" * 4300
    problem = tmp_path / "huge_level.json"
    problem.write_text(json.dumps(doc))
    result = run_cli([args[0], str(problem), *args[1:]])
    assert result == (3, "refused: level <rational of 14288 bits> is too long to print\n")


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
def test_parser_messages_bound_huge_laplace_values(tmp_path, changes, code):
    result, seconds = _timed_report(_write_problem(tmp_path, **changes))
    assert seconds < 1.0
    assert result.exit_code == 2
    assert result.output.startswith(f"error[{code}]: ")
    assert "bits>" in result.output and len(result.output) < 300


@pytest.mark.parametrize(
    ("provider", "shown"),
    [("x" * 100_000, "'" + "x" * 40 + "'"), (_HUGE, "of type int"), ([["flat_torus"]] * 50_000, "of type list")],
    ids=["long-string", "huge-int", "long-list"],
)
def test_unknown_provider_is_echoed_briefly(tmp_path, provider, shown):
    result, seconds = _timed_report(_write_problem(tmp_path, laplace={"provider": provider, "params": {}}))
    assert seconds < 1.0
    assert result.exit_code == 2
    assert result.output == f"error[SCHEMA]: laplace.provider: unknown provider {shown}\n"


def test_huge_multiplicity_is_reported(tmp_path):
    problem = _write_problem(
        tmp_path,
        p=2 * 10**9,
        matrix_spectrum=[
            {"alpha": "1", "weights": [{"m": [1], "mult": 10**9}], "marker": [1]}
        ],
    )
    result, seconds = _timed_report(problem)
    assert seconds < 1.0
    assert result.exit_code == 0
    assert "coefficient -1000000000" in result.output


def test_exponent_rational_is_refused_without_expanding(tmp_path):
    problem = tmp_path / "exponent.json"
    problem.write_text('{"r":1,"l":1,"p":2,"beta_cutoff":"1e30000000"}')
    result, seconds = _timed_report(problem)
    assert seconds < 1.0
    assert result.exit_code == 2
    assert "error[SCHEMA]: beta_cutoff: bad rational" in result.output


def test_exponent_level_is_refused_without_expanding(circle_fixture_path):
    t0 = time.perf_counter()
    result = run_cli(["analyze", str(circle_fixture_path), "--level", "1e30000000"])
    assert time.perf_counter() - t0 < 1.0
    assert result.exit_code == 2
    assert "error[SCHEMA]: --level: bad rational" in result.output


@pytest.mark.parametrize("level", ["1" * 5001, "1" * 4000 + "/0"], ids=["digit-limit", "zero-denominator"])
def test_overlong_level_is_refused_with_a_short_message(circle_fixture_path, level):
    # Fraction() fails past int()'s 4,300-digit limit, or on a zero denominator, with a
    # text that can repeat the input; the message echoes only its first 40 characters
    result = run_cli(["analyze", str(circle_fixture_path), "--level", level])
    assert result.exit_code == 2
    assert result.output.startswith("error[SCHEMA]: --level: bad rational '" + "1" * 40 + "'")
    assert len(result.output) < 200


@pytest.mark.parametrize(
    "data",
    [b'{"r": ' + b"1" * 5000 + b"}", b"[" * 200_000, b"\xff\xfe{"],
    ids=["integer-past-the-digit-limit", "deep-nesting", "not-utf-8"],
)
def test_unparsable_json_is_malformed(tmp_path, data):
    problem = tmp_path / "bad.json"
    problem.write_bytes(data)
    result, seconds = _timed_report(problem)
    assert seconds < 1.0
    assert result.exit_code == 2
    assert "error[MALFORMED_JSON]" in result.output


def test_highest_weight_outside_its_eigenspace_declines_the_certificate(tmp_path):
    laplace = [
        {"beta": "0", "trivial_mult": 1},
        {"beta": "1", "weights": [{"m": [1]}], "irreducible": True, "highest_weight": [3]},
        {"beta": "4", "weights": [{"m": [2]}], "irreducible": True, "highest_weight": [2]},
    ]
    result, seconds = _timed_report(_write_problem(tmp_path, laplace=laplace))
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
print(json.dumps(sorted(m for m in sys.modules if m in ("numpy", "click") or m.startswith("torbif."))))
"""


def test_reports_run_without_loading_numpy():
    # a fresh interpreter: the exact-algebra commands must not pay for numpy or click, while
    # every layer module stays importable by name (the benchmark tracer looks them up)
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", STARTUP_CHILD],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120, check=True,
    )
    loaded = set(json.loads(proc.stdout.splitlines()[-1]))
    assert "numpy" not in loaded and "click" not in loaded
    layers = ("intlat", "torusrep", "eulerring", "spectra", "bifurcation", "problemfile", "corroborate", "oracle", "cli")
    assert {f"torbif.{layer}" for layer in layers} <= loaded


def test_closed_output_pipe_exits_1_quietly(circle_fixture_path):
    # `torbif candidates ... | head -0`: the reader is gone before the first write
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "torbif.cli", "candidates", str(circle_fixture_path)],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])},
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, "")


def test_scan_command():
    result = run_cli(["scan", "--lo", "0.5", "--hi", "5"])
    assert result.exit_code == 0
    values = [float(x) for x in result.output.split()]
    assert len(values) == 2
    assert abs(values[0] - 1.0) < 1e-6 and abs(values[1] - 4.0) < 1e-6


def test_scan_refusal_exit_code():
    result = run_cli(["scan", "--lo", "0.5", "--hi", "5", "--modes", "3"])
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
def test_non_finite_galerkin_input_is_an_input_error(args):
    result = run_cli(args)
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
def test_oversized_galerkin_work_is_refused(no_galerkin_arrays, args, limit):
    t0 = time.perf_counter()
    result = run_cli(args)
    assert time.perf_counter() - t0 < 1.0
    assert result.exit_code == 3
    assert limit in result.output


@pytest.mark.parametrize(
    "args",
    [
        ["scan", "--lo", "0.5", "--hi", "5", "--modes", "-5"],
        ["corroborate-circle", "--k", "1", "--lambda", "2", "--modes", "-3"],
    ],
    ids=["scan", "corroborate-circle"],
)
def test_negative_mode_cutoff_is_an_input_error(no_galerkin_arrays, args):
    # a cutoff of 0 is refused as too small; a negative one is no cutoff at all
    result = run_cli(args)
    assert result == (2, f"error[INPUT]: mode cutoff must be nonnegative, got {args[-1]}\n")


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
def test_huge_command_numbers_are_refused_by_size(no_galerkin_arrays, args):
    # k^2, the cutoff, the step count and the trial count print by their size past 256 bits
    t0 = time.perf_counter()
    result = run_cli(args)
    assert time.perf_counter() - t0 < 1.0
    assert result.exit_code == 3
    assert "bits>" in result.output and len(result.output) < 300


def test_wide_scan_interval_is_bisected_without_recursion():
    # the crossing at 0 lies about 1,000 halvings below a 1e300-wide step
    result = run_cli(["scan", "--lo", "-1e300", "--hi", "5"])
    assert result.exit_code == 0
    assert [abs(float(x)) for x in result.output.split()] == pytest.approx([0.0, 1.0, 4.0], abs=1e-6)


def test_corroborate_circle_command():
    result = run_cli(["corroborate-circle", "--k", "1", "--lambda", "1.5"])
    assert result.exit_code == 0
    assert "converged=True" in result.output
    assert "0.707106781187" in result.output


def test_corroborate_circle_exits_1_when_newton_does_not_converge():
    result = run_cli(["corroborate-circle", "--k", "1", "--lambda", "1e300"])
    assert result.exit_code == 1
    assert result.output.startswith("converged=False iterations=50 ")


def test_selftest_command():
    result = run_cli(["selftest", "--seed", "1", "--trials", "5"])
    assert result.exit_code == 0
    assert "snf-decomposition: PASS" in result.output
    assert "FAIL" not in result.output


def test_selftest_output_is_pinned():
    result = run_cli(["selftest", "--seed", "1", "--trials", "100"])
    assert result.exit_code == 0
    assert (
        hashlib.sha256(result.output.encode()).hexdigest()
        == "bda029f2bba218dab873aeb8136608169f6996a20f479c83cbef22f7a7ebb844"
    )


@pytest.mark.parametrize("trials", [SELFTEST_MAX_TRIALS + 1, 1_000_000_000])
def test_oversized_selftest_is_refused(trials):
    t0 = time.perf_counter()
    result = run_cli(["selftest", "--trials", str(trials)])
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
