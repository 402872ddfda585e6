"""Seeded inputs, operations and output checks for the benchmark workloads.

Each workload repeats a *cycle*: a fixed list of strata, one operation per
stratum.  ``report`` runs the report pipeline on a flat-T^2 part and an S^3
part; ``verify`` runs the numerical circle part and the selftest part.  A stratum fixes everything that decides how much work an operation
does (the shape of the spectrum, the eigenvalue ratio, the weight, the Newton
iteration plateau).  The seed draws only values that leave that work
unchanged: a common rational scale of the matrix eigenvalues (levels scale,
the level structure does not), a parameter inside a plateau of equal Newton
iteration count, and the selftest seed.  Every seed therefore does the same
algebra on different numbers, so runs with different seeds are comparable
and a run that completes more cycles does not change its mix of work.

torbif receives only the generated problem; the expectations the checks use
are derived here, independently of torbif.
"""

from __future__ import annotations

import hashlib
import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction

# (flat-torus cutoff = beta_cutoff, alpha2/alpha1, weight of alpha2); P3(c) is
# r=1, l=2, p=4 with alpha1 weight [1], so the last stratum is P3(5) itself.
FLAT_STRATA = ((3, Fraction(5, 2), 2), (4, Fraction(5, 2), 3), (5, Fraction(3), 2))

# Sphere S^3 (n=4, l=2) with levels k <= 3 enumerated; (beta_cutoff, alpha2/alpha1).
SPHERE_N = 4
SPHERE_CUTOFF_K = 3
SPHERE_STRATA = ((9, Fraction(3)), (11, Fraction(5, 2)), (12, Fraction(7, 2)), (13, Fraction(3)))

# lambda - k^2 ranges on which newton_branch takes a constant number of
# iterations (6, 7, ..., 11) for k <= 3; boundaries lie near 0.22, 0.58,
# 1.4, 2.62, 3.98 and 5.18, and d = 1.5 is avoided (k = 1 stalls there).
NEWTON_PLATEAUS = ((0.25, 0.50), (0.70, 1.30), (1.60, 2.50), (2.80, 3.80), (4.20, 5.00), (5.40, 5.95))
# (k, Fourier cutoff N, plateau index)
CIRCLE_STRATA = (
    (1, 16, 0), (1, 24, 2), (1, 32, 4),
    (2, 16, 1), (2, 24, 3), (2, 32, 5),
    (3, 16, 5), (3, 24, 1), (3, 32, 3),
)
SCAN = {"modes": 40, "lo": 0.5, "hi": 1000.0, "steps": 2000}

SELFTEST_TRIALS = 100

AMPLITUDE_TOL = 1e-8
RESIDUAL_TOL = 1e-12
CROSSING_TOL = 1e-6


@dataclass
class OpResult:
    """One checked operation: seconds spent inside torbif, work units done."""

    seconds: float
    work: int
    ok: bool
    detail: str = ""


def _p3_problem(scale: Fraction, ratio: Fraction, weight: int, laplace: dict, cutoff: int) -> dict:
    return {
        "r": 1,
        "l": 2,
        "p": 4,
        "matrix_spectrum": [
            {"alpha": str(scale), "trivial_mult": 0,
             "weights": [{"m": [1], "mult": 1}], "marker": [1]},
            {"alpha": str(scale * ratio), "trivial_mult": 0,
             "weights": [{"m": [weight], "mult": 1}], "marker": [weight]},
        ],
        "laplace": laplace,
        "beta_cutoff": str(cutoff),
        "degF_pos": [{"characters": [], "coeff": 1}],
        "degF_neg": [{"characters": [], "coeff": 1}],
    }


def _scale(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 12), rng.randint(1, 12))


def _flat_betas(cutoff: int) -> set[int]:
    root = math.isqrt(cutoff)
    return {a * a + b * b for a in range(root + 1) for b in range(root + 1) if a * a + b * b <= cutoff}


def _sphere_betas(n: int, cutoff_k: int, cutoff: int) -> set[int]:
    return {k * (k + n - 2) for k in range(cutoff_k + 1) if k * (k + n - 2) <= cutoff}


def _expected_levels(alphas: list[Fraction], betas: set[int], cutoff: int) -> dict:
    """Every candidate level beta/alpha, and which of them must be refused."""
    levels = sorted({Fraction(b) / a for a in alphas for b in betas})
    top = max(abs(a) for a in alphas)
    return {
        "levels": [str(x) for x in levels],
        "refused": [str(x) for x in levels if abs(x) * top > cutoff],
    }


def _report_op(name: str, problem: dict, alphas: list[Fraction], betas: set[int], cutoff: int) -> dict:
    return {"kind": "report", "key": name, "problem": problem,
            "expect": _expected_levels(alphas, betas, cutoff)}


def _flat_t2(seed: int, index: int) -> list[dict]:
    rng = random.Random(f"flat_t2:{seed}:{index}")
    ops = []
    for i, (cutoff, ratio, weight) in enumerate(FLAT_STRATA):
        s = _scale(rng)
        laplace = {"provider": "flat_torus", "params": {"d": 2, "cutoff": cutoff}}
        problem = _p3_problem(s, ratio, weight, laplace, cutoff)
        ops.append(_report_op(f"flat_t2:{seed}:{index}:{i}", problem,
                              [s, s * ratio], _flat_betas(cutoff), cutoff))
    return ops


def _sphere_s3(seed: int, index: int) -> list[dict]:
    rng = random.Random(f"sphere_s3:{seed}:{index}")
    ops = []
    for i, (cutoff, ratio) in enumerate(SPHERE_STRATA):
        s = _scale(rng)
        laplace = {"provider": "sphere", "params": {"n": SPHERE_N, "cutoff_k": SPHERE_CUTOFF_K}}
        problem = _p3_problem(s, ratio, 2, laplace, cutoff)
        ops.append(_report_op(f"sphere_s3:{seed}:{index}:{i}", problem, [s, s * ratio],
                              _sphere_betas(SPHERE_N, SPHERE_CUTOFF_K, cutoff), cutoff))
    return ops


def _circle(seed: int, index: int) -> list[dict]:
    rng = random.Random(f"circle:{seed}:{index}")
    ops = []
    for k, modes, plateau in CIRCLE_STRATA:
        lo, hi = NEWTON_PLATEAUS[plateau]
        ops.append({"kind": "newton", "k": k, "lam": k * k + rng.uniform(lo, hi), "modes": modes})
    ops.append({"kind": "scan", **SCAN})
    return ops


def _selftest(seed: int, index: int) -> list[dict]:
    from torbif.oracle import SUITE_NAMES

    suite_seed = random.Random(f"selftest:{seed}:{index}").randrange(2**31)
    return [{"kind": "suite", "seed": suite_seed, "trials": SELFTEST_TRIALS, "suite": name}
            for name in SUITE_NAMES]


# Each workload's cycle is its parts' operations in this order.
PARTS = {"report": (_flat_t2, _sphere_s3), "verify": (_circle, _selftest)}
WORKLOADS = tuple(PARTS)


def cycle(workload: str, seed: int, index: int) -> list[dict]:
    """The operations of cycle ``index`` of a workload; a pure function of its arguments."""
    if workload not in PARTS:
        raise ValueError(f"unknown workload {workload!r}")
    return [op for part in PARTS[workload] for op in part(seed, index)]


def operations(ops: list[dict]) -> int:
    """User-facing operations in a cycle: a full selftest suite set counts as one."""
    suites = sum(op["kind"] == "suite" for op in ops)
    return len(ops) - suites + (1 if suites else 0)


def first_problem(workload: str, seed: int) -> dict | None:
    """The first problem file a workload parses, or None if it parses none."""
    op = cycle(workload, seed, 0)[0]
    return op.get("problem")


def report_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def render_report(problem: dict) -> tuple[dict, str]:
    """What ``torbif report --format json`` does with a problem file."""
    from torbif.problemfile import build_report, parse_problem_dict, report_to_json

    report = build_report(parse_problem_dict(problem))
    return report, report_to_json(report)


def _run_report(op: dict, golden: dict[str, str]) -> OpResult:
    t0 = time.perf_counter()
    report, text = render_report(op["problem"])
    seconds = time.perf_counter() - t0

    records = report["levels"]
    levels = [rec["lambda0"] for rec in records]
    refused = [rec["lambda0"] for rec in records if "refused" in rec]
    analysed = len(records) - len(refused)
    expect = op["expect"]
    if levels != expect["levels"]:
        return OpResult(seconds, analysed, False, f"levels {levels} != {expect['levels']}")
    if refused != expect["refused"]:
        return OpResult(seconds, analysed, False, f"refused {refused} != {expect['refused']}")
    want = golden.get(op["key"])
    if want is not None and report_digest(text) != want:
        return OpResult(seconds, analysed, False, f"report digest differs from golden for {op['key']}")
    return OpResult(seconds, analysed, True)


def _run_newton(op: dict) -> OpResult:
    from torbif.corroborate import newton_branch

    t0 = time.perf_counter()
    result = newton_branch(op["k"], op["lam"], op["modes"])
    seconds = time.perf_counter() - t0
    expected = math.sqrt(op["lam"] - op["k"] ** 2)
    ok = (result.converged and abs(result.amplitude - expected) <= AMPLITUDE_TOL
          and result.residual_sup < RESIDUAL_TOL)
    detail = "" if ok else (f"k={op['k']} lam={op['lam']}: converged={result.converged} "
                            f"amplitude={result.amplitude} expected={expected} residual={result.residual_sup}")
    return OpResult(seconds, result.iterations, ok, detail)


def _run_scan(op: dict) -> OpResult:
    from torbif.corroborate import stability_scan

    t0 = time.perf_counter()
    crossings = stability_scan(op["modes"], op["lo"], op["hi"], op["steps"])
    seconds = time.perf_counter() - t0
    squares = [k * k for k in range(1, math.isqrt(int(op["hi"])) + 1) if op["lo"] < k * k <= op["hi"]]
    ok = len(crossings) == len(squares) and all(
        abs(c - q) <= CROSSING_TOL for c, q in zip(crossings, squares))
    return OpResult(seconds, 0, ok, "" if ok else f"crossings {crossings} != {squares}")


def _run_suite(op: dict) -> OpResult:
    from torbif.oracle import run_selftest

    t0 = time.perf_counter()
    report = run_selftest(op["seed"], op["trials"], suites=[op["suite"]])
    seconds = time.perf_counter() - t0
    (name, res), = report.suites
    ok = report.ok and name == op["suite"]
    return OpResult(seconds, res.trials, ok, "" if ok else f"suite {name}: {res.first_counterexample}")


def run_op(op: dict, golden: dict[str, str]) -> OpResult:
    """Run one operation through torbif's public API and check its output."""
    kind = op["kind"]
    if kind == "report":
        return _run_report(op, golden)
    if kind == "newton":
        return _run_newton(op)
    if kind == "scan":
        return _run_scan(op)
    if kind == "suite":
        return _run_suite(op)
    raise ValueError(f"unknown operation kind {kind!r}")
