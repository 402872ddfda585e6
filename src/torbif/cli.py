"""Command-line front end.

Exit codes: 0 success, 1 when ``corroborate-circle``'s Newton iteration
does not converge or when standard output is closed before all is
written, 2 input error (a usage error too), 3 refusal (insufficient
spectral coverage or an out-of-range numerical request), 4 internal
consistency defect (two computation routes disagree).

``oracle`` (the selftest suites) and ``corroborate`` (the Galerkin model)
serve only ``selftest``, ``scan`` and ``corroborate-circle``, yet compiling
and running their bodies took about a quarter of a cold start.  So this
module registers both in ``sys.modules`` without running them, and their
bodies run on the first attribute access, when one of those commands calls
into them.  They are registered rather than left to a function-level
import so that every layer module is in ``sys.modules`` after ``import
torbif.cli``; a layer imported already is reused.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import sys
from types import ModuleType
from typing import Callable

from .bifurcation import candidate_levels
from .errors import ConsistencyError, CutoffError, InputError, RefusalError
from .problemfile import (
    build_report,
    level_text,
    parse_problem,
    parse_rational,
    render_text,
    report_to_json,
)


def _lazy_layer(name: str) -> ModuleType:
    """``torbif.<name>`` in ``sys.modules`` and on the package; its body runs on first attribute access."""
    qualified = f"{__package__}.{name}"
    module = sys.modules.get(qualified)
    if module is None:
        spec = importlib.util.find_spec(qualified)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[qualified] = module
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return module


corroborate = _lazy_layer("corroborate")
oracle = _lazy_layer("oracle")

EXIT_INPUT = 2
EXIT_REFUSAL = 3
EXIT_DEFECT = 4


def _dispatch(fn: Callable[[], int | None]) -> None:
    try:
        code = fn()
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
    except InputError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        sys.exit(EXIT_INPUT)
    except RefusalError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        sys.exit(EXIT_REFUSAL)
    except ConsistencyError as exc:
        print(f"internal defect: {exc}", file=sys.stderr)
        sys.exit(EXIT_DEFECT)
    sys.exit(code or 0)


def candidates(args: argparse.Namespace) -> None:
    """List candidate parameter levels with their witnesses."""
    lines = [
        f"{level_text(cand.lambda0)}: " + ", ".join(f"(alpha={a!s}, beta={b!s})" for a, b in cand.witnesses)
        for cand in candidate_levels(parse_problem(args.problem))
    ]
    for line in lines:  # all built first: a refused level leaves no partial listing
        print(line)


def analyze(args: argparse.Namespace) -> None:
    """Analyze a single candidate level."""
    spec = parse_problem(args.problem)
    lam = parse_rational(args.level, "--level")
    doc = build_report(spec, levels=[lam])
    refused = doc["levels"][0].get("refused")
    if refused is not None:
        raise CutoffError(refused)
    print(render_text(doc))


def report(args: argparse.Namespace) -> None:
    """Emit the full analysis report."""
    doc = build_report(parse_problem(args.problem))
    print(report_to_json(doc) if args.fmt == "json" else render_text(doc))


def corroborate_circle(args: argparse.Namespace) -> int:
    """Newton-converge onto the mode-k branch of the circle model."""
    result = corroborate.newton_branch(args.k, args.lam, n_modes=args.modes)
    expected = (args.lam - args.k * args.k) ** 0.5
    print(
        "converged=%s iterations=%d amplitude=%.12f expected=%.12f residual=%.3e"
        % (result.converged, result.iterations, result.amplitude, expected, result.residual_sup)
    )
    return 0 if result.converged else 1


def scan(args: argparse.Namespace) -> None:
    """Locate trivial-branch eigenvalue crossings in [lo, hi]."""
    for crossing in corroborate.stability_scan(args.modes, args.lo, args.hi, args.steps):
        print(f"{crossing:.6f}")


def selftest(args: argparse.Namespace) -> int:
    """Run every verification suite with a deterministic seed."""
    outcome = oracle.run_selftest(args.seed, args.trials)
    for name, res in outcome.suites:
        line = f"{name}: {'PASS' if res.ok else 'FAIL'} ({res.trials} trials)"
        if not res.ok:
            line += f" first counterexample: {res.first_counterexample}"
        print(line)
    return 0 if outcome.ok else EXIT_DEFECT


def _parser() -> tuple[argparse.ArgumentParser, set[str]]:
    """The parser, and the options that take a value."""
    parser = argparse.ArgumentParser(
        prog="torbif", description="Equivariant bifurcation indices from exact spectral data.", allow_abbrev=False
    )
    commands = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    valued: set[str] = set()

    def command(run: Callable[[argparse.Namespace], int | None], problem: bool = False) -> Callable[..., None]:
        """Add the command ``run`` runs, named after it; returns the function that adds its options."""
        summary = run.__doc__.splitlines()[0]
        sub = commands.add_parser(
            run.__name__.replace("_", "-"), help=summary, description=summary, allow_abbrev=False
        )
        sub.set_defaults(run=run)
        if problem:
            sub.add_argument("problem", metavar="PROBLEM")

        def option(flag: str, **kwargs) -> None:
            valued.add(flag)
            sub.add_argument(flag, **kwargs)

        return option

    command(candidates, problem=True)
    command(analyze, problem=True)("--level", required=True, help="exact rational level, e.g. 4 or 1/2")
    command(report, problem=True)("--format", dest="fmt", choices=["json", "text"], default="text")
    option = command(corroborate_circle)
    option("--k", type=int, required=True, help="branch mode index")
    option("--lambda", dest="lam", type=float, required=True, help="parameter level")
    option("--modes", type=int, default=None, help="Fourier cutoff (default max(k+2, 8))")
    option = command(scan)
    option("--lo", type=float, required=True)
    option("--hi", type=float, required=True)
    option("--steps", type=int, default=60)
    option("--modes", type=int, default=8)
    option = command(selftest)
    option("--seed", type=int, default=1)
    option("--trials", type=int, default=100)
    return parser, valued


def _attach_values(argv: list[str], valued: set[str]) -> list[str]:
    """``argv`` with each value written ``--option=value``.

    argparse reads a separate value that starts with ``-``, such as
    ``--level -1/2``, as an option; attached, it stays a value.
    """
    out: list[str] = []
    i = 0
    while i < len(argv):
        token = argv[i]
        if token == "--":
            return out + argv[i:]
        if token in valued and i + 1 < len(argv):
            out.append(f"{token}={argv[i + 1]}")
            i += 2
        else:
            out.append(token)
            i += 1
    return out


def main(argv: list[str] | None = None) -> None:
    """Run one command; always ends in ``SystemExit`` with the command's exit code."""
    parser, valued = _parser()
    args = parser.parse_args(_attach_values(sys.argv[1:] if argv is None else list(argv), valued))
    try:
        _dispatch(lambda: args.run(args))
    except BrokenPipeError:
        # the reader closed standard output; send what is still buffered nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)


if __name__ == "__main__":
    main()
