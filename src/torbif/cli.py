"""Command-line front end.

Exit codes: 0 success, 2 input error, 3 refusal (insufficient spectral
coverage or an out-of-range numerical request), 4 internal consistency
defect (two computation routes disagree).
"""

from __future__ import annotations

import sys
from typing import Callable

import click

from .bifurcation import candidate_levels
from .corroborate import newton_branch, stability_scan
from .errors import ConsistencyError, CutoffError, InputError, RefusalError
from .oracle import run_selftest
from .problemfile import (
    build_report,
    parse_problem,
    parse_rational,
    render_text,
    report_to_json,
)

EXIT_INPUT = 2
EXIT_REFUSAL = 3
EXIT_DEFECT = 4


def _dispatch(fn: Callable[[], int | None]) -> None:
    try:
        code = fn()
    except InputError as exc:
        click.echo(f"error[{exc.code}]: {exc}", err=True)
        sys.exit(EXIT_INPUT)
    except RefusalError as exc:
        click.echo(f"refused: {exc}", err=True)
        sys.exit(EXIT_REFUSAL)
    except ConsistencyError as exc:
        click.echo(f"internal defect: {exc}", err=True)
        sys.exit(EXIT_DEFECT)
    sys.exit(code or 0)


@click.group()
def main() -> None:
    """Equivariant bifurcation indices from exact spectral data."""


@main.command()
@click.argument("problem", type=click.Path(exists=True, dir_okay=False))
def candidates(problem: str) -> None:
    """List candidate parameter levels with their witnesses."""

    def run() -> None:
        spec = parse_problem(problem)
        for cand in candidate_levels(spec):
            witnesses = ", ".join(
                f"(alpha={a!s}, beta={b!s})"
                for a, b in cand.witnesses
            )
            click.echo(f"{cand.lambda0!s}: {witnesses}")

    _dispatch(run)


@main.command()
@click.argument("problem", type=click.Path(exists=True, dir_okay=False))
@click.option("--level", required=True, help="exact rational level, e.g. 4 or 1/2")
def analyze(problem: str, level: str) -> None:
    """Analyze a single candidate level."""

    def run() -> None:
        spec = parse_problem(problem)
        lam = parse_rational(level, "--level")
        report = build_report(spec, levels=[lam])
        refused = report["levels"][0].get("refused")
        if refused is not None:
            raise CutoffError(refused)
        click.echo(render_text(report))

    _dispatch(run)


@main.command("analyze-all")
@click.argument("problem", type=click.Path(exists=True, dir_okay=False))
def analyze_all(problem: str) -> None:
    """Analyze every candidate level in one sorted sweep, ordered by level."""

    def run() -> None:
        spec = parse_problem(problem)
        click.echo(render_text(build_report(spec)))

    _dispatch(run)


@main.command()
@click.argument("problem", type=click.Path(exists=True, dir_okay=False))
@click.option("--format", "fmt", type=click.Choice(["json", "text"]), default="text")
def report(problem: str, fmt: str) -> None:
    """Emit the full analysis report."""

    def run() -> None:
        spec = parse_problem(problem)
        doc = build_report(spec)
        click.echo(report_to_json(doc) if fmt == "json" else render_text(doc))

    _dispatch(run)


@main.command("corroborate-circle")
@click.option("--k", type=int, required=True, help="branch mode index")
@click.option("--lambda", "lam", type=float, required=True, help="parameter level")
@click.option("--modes", type=int, default=None, help="Fourier cutoff (default max(k+2, 8))")
def corroborate_circle(k: int, lam: float, modes: int | None) -> None:
    """Newton-converge onto the mode-k branch of the circle model."""

    def run() -> int:
        result = newton_branch(k, lam, n_modes=modes)
        expected = (lam - k * k) ** 0.5
        click.echo(
            "converged=%s iterations=%d amplitude=%.12f expected=%.12f residual=%.3e"
            % (result.converged, result.iterations, result.amplitude, expected, result.residual_sup)
        )
        return 0 if result.converged else 1

    _dispatch(run)


@main.command()
@click.option("--lo", type=float, required=True)
@click.option("--hi", type=float, required=True)
@click.option("--steps", type=int, default=60)
@click.option("--modes", type=int, default=8)
def scan(lo: float, hi: float, steps: int, modes: int) -> None:
    """Locate trivial-branch eigenvalue crossings in [lo, hi]."""

    def run() -> None:
        for crossing in stability_scan(modes, lo, hi, steps):
            click.echo(f"{crossing:.6f}")

    _dispatch(run)


@main.command()
@click.option("--seed", type=int, default=1)
@click.option("--trials", type=int, default=100)
def selftest(seed: int, trials: int) -> None:
    """Run every verification suite with a deterministic seed."""

    def run() -> int:
        report = run_selftest(seed, trials)
        for name, res in report.suites:
            line = f"{name}: {'PASS' if res.ok else 'FAIL'} ({res.trials} trials)"
            if not res.ok:
                line += f" first counterexample: {res.first_counterexample}"
            click.echo(line)
        return 0 if report.ok else EXIT_DEFECT

    _dispatch(run)


if __name__ == "__main__":
    main()
