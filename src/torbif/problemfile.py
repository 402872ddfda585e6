"""JSON problem files and analysis reports.

Parsing is total: every violation maps to an InputError with a located
message and a distinct code (MALFORMED_JSON, SCHEMA, DIM_MISMATCH,
B6_TRIVIAL, CUTOFF_INSUFFICIENT); a problem too large to analyse in
bounded time is refused with a RefusalError before the work starts.  The
parser checks the document; the ``ProblemSpec`` it ends by building
raises the structural errors itself and carries its validation.
Exact rationals travel as strings "num/den" or integers; floating point
is rejected in the symbolic pipeline.  Reports serialize losslessly and
deterministically.
"""

from __future__ import annotations

import json
import os
import re
from collections.abc import Iterator
from fractions import Fraction
from typing import Any, Iterable

from .bifurcation import LevelAnalysis, Verdict, analyze_levels
from .errors import InputError, RefusalError, shown
from .eulerring import EulerElement
from .intlat import TorusSubgroup, subgroup_canonical
from .spectra import (
    LaplaceEigenData,
    MatrixEigenData,
    ProblemSpec,
    ValidationReport,
    flat_torus_spectrum,
    sphere_spectrum,
)
from .torusrep import TorusRep

# the only string form of a rational: "num" or "num/den" in decimal digits, so
# no exponent ("1e30000000") can make the parser build a huge integer
_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def parse_rational(value: Any, where: str) -> Fraction:
    if isinstance(value, bool):
        raise InputError(f"{where}: expected a rational, got a boolean", code="SCHEMA")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise InputError(
            f"{where}: floating point is not allowed in the symbolic pipeline", code="SCHEMA"
        )
    if isinstance(value, str):
        if not _RATIONAL.fullmatch(value):
            raise InputError(f"{where}: bad rational {value[:40]!r} (expected num or num/den)", code="SCHEMA")
        try:
            return Fraction(value)
        # fixed reasons: both exceptions' own texts can repeat the input in full
        except ZeroDivisionError:
            raise InputError(f"{where}: bad rational {value[:40]!r} (zero denominator)", code="SCHEMA")
        except ValueError:  # the pattern matched, so only int()'s digit limit is left
            raise InputError(f"{where}: bad rational {value[:40]!r} (too many digits)", code="SCHEMA")
    raise InputError(f"{where}: expected a rational, got {type(value).__name__}", code="SCHEMA")


def _expect_int(value: Any, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{where}: expected an integer", code="SCHEMA")
    return value


def _expect_bool(value: Any, where: str) -> bool:
    if not isinstance(value, bool):
        raise InputError(f"{where}: expected a boolean", code="SCHEMA")
    return value


def _expect_list(value: Any, where: str) -> list:
    if not isinstance(value, list):
        raise InputError(f"{where}: expected a list", code="SCHEMA")
    return value


def _int_vector(value: Any, where: str) -> tuple[int, ...]:
    return tuple(_expect_int(e, f"{where}[{i}]") for i, e in enumerate(_expect_list(value, where)))


def _parse_rep(doc: dict, rank: int, where: str) -> TorusRep:
    weights: list[tuple[tuple[int, ...], int]] = []
    for i, item in enumerate(_expect_list(doc.get("weights", []), f"{where}.weights")):
        if not isinstance(item, dict):
            raise InputError(f"{where}.weights[{i}]: expected an object", code="SCHEMA")
        m = _int_vector(item.get("m"), f"{where}.weights[{i}].m")
        mult = _expect_int(item.get("mult", 1), f"{where}.weights[{i}].mult")
        weights.append((m, mult))
    trivial = _expect_int(doc.get("trivial_mult", 0), f"{where}.trivial_mult")
    try:
        return TorusRep(rank, trivial, weights)
    except InputError as exc:
        raise InputError(f"{where}: {exc}", code="SCHEMA")


def _parse_degree(value: Any, r: int, where: str) -> EulerElement:
    terms = []
    for i, item in enumerate(_expect_list(value, where)):
        if not isinstance(item, dict):
            raise InputError(f"{where}[{i}]: expected an object", code="SCHEMA")
        rows = [
            _int_vector(row, f"{where}[{i}].characters[{j}]")
            for j, row in enumerate(_expect_list(item.get("characters", []), f"{where}[{i}].characters"))
        ]
        coeff = _expect_int(item.get("coeff"), f"{where}[{i}].coeff")
        try:
            terms.append((subgroup_canonical(r, rows), coeff))
        except InputError as exc:
            raise InputError(f"{where}[{i}]: {exc}", code="SCHEMA")
    element = EulerElement(r, terms)
    if element.is_zero:
        raise InputError(f"{where}: degree is the zero element", code="B6_TRIVIAL")
    return element


def _parse_laplace(doc: Any, l: int, cutoff: Fraction) -> tuple[LaplaceEigenData, ...]:
    if isinstance(doc, dict):
        provider = doc.get("provider")
        params = doc.get("params", {})
        if not isinstance(params, dict):
            raise InputError("laplace.params: expected an object", code="SCHEMA")
        if provider == "flat_torus":
            d = _expect_int(params.get("d"), "laplace.params.d")
            pcut = _expect_int(params.get("cutoff"), "laplace.params.cutoff")
            if d != l:
                raise InputError(
                    f"laplace.params.d={shown(d)} does not match l={shown(l)}", code="SCHEMA"
                )
            if Fraction(pcut) < cutoff:
                raise InputError(
                    f"flat torus provider enumerates up to {shown(pcut)}, below beta_cutoff {shown(cutoff)}",
                    code="CUTOFF_INSUFFICIENT",
                )
            provide, args = flat_torus_spectrum, (d, pcut)
        elif provider == "sphere":
            n = _expect_int(params.get("n"), "laplace.params.n")
            kmax = _expect_int(params.get("cutoff_k"), "laplace.params.cutoff_k")
            if n // 2 != l:
                raise InputError(
                    f"sphere provider has torus rank {shown(n // 2)}, spec says l={shown(l)}", code="SCHEMA"
                )
            top = (kmax + 1) * (kmax + n - 1)
            if Fraction(top) <= cutoff:
                raise InputError(
                    f"sphere provider stops below beta_cutoff {shown(cutoff)}; raise cutoff_k",
                    code="CUTOFF_INSUFFICIENT",
                )
            provide, args = sphere_spectrum, (n, kmax)
        else:
            # at most 40 characters of a string, as parse_rational echoes, and only the type of anything else
            what = repr(provider[:40]) if isinstance(provider, str) else f"of type {type(provider).__name__}"
            raise InputError(f"laplace.provider: unknown provider {what}", code="SCHEMA")
        try:
            entries = provide(*args)
        except InputError as exc:
            raise InputError(f"laplace.params: {exc}", code="SCHEMA")
        except RefusalError as exc:
            raise RefusalError(f"laplace.params: {exc}")
        return tuple(e for e in entries if e.beta <= cutoff)
    out = []
    for i, item in enumerate(_expect_list(doc, "laplace")):
        where = f"laplace[{i}]"
        if not isinstance(item, dict):
            raise InputError(f"{where}: expected an object", code="SCHEMA")
        beta = parse_rational(item.get("beta"), f"{where}.beta")
        rep = _parse_rep(item, l, where)
        irreducible = _expect_bool(item.get("irreducible", False), f"{where}.irreducible")
        hw = item.get("highest_weight")
        if hw is not None:
            hw = _int_vector(hw, f"{where}.highest_weight")
        try:
            out.append(
                LaplaceEigenData(beta=beta, eigenspace=rep, irreducible_nontrivial=irreducible, highest_weight=hw)
            )
        except InputError as exc:
            raise InputError(f"{where}: {exc}", code="SCHEMA")
        if beta > cutoff:
            raise InputError(
                f"{where}: eigenvalue {shown(beta)} exceeds beta_cutoff {shown(cutoff)}",
                code="CUTOFF_INSUFFICIENT",
            )
    return tuple(out)


# Largest r + l the parser accepts: lattice, weight and point lengths are r, l
# or r + l, and the shipped and benchmarked problems have r + l <= 3.
MAX_TORUS_RANK = 64


def parse_problem_dict(doc: Any) -> ProblemSpec:
    if not isinstance(doc, dict):
        raise InputError("top level: expected an object", code="SCHEMA")
    r = _expect_int(doc.get("r"), "r")
    l = _expect_int(doc.get("l"), "l")
    if abs(r) + abs(l) > MAX_TORUS_RANK:
        raise RefusalError(
            f"torus rank r + l with r={shown(r)}, l={shown(l)} is over the limit {MAX_TORUS_RANK}; lower r or l"
        )
    p = _expect_int(doc.get("p"), "p")
    cutoff = parse_rational(doc.get("beta_cutoff"), "beta_cutoff")

    matrix = []
    for i, item in enumerate(_expect_list(doc.get("matrix_spectrum"), "matrix_spectrum")):
        where = f"matrix_spectrum[{i}]"
        if not isinstance(item, dict):
            raise InputError(f"{where}: expected an object", code="SCHEMA")
        alpha = parse_rational(item.get("alpha"), f"{where}.alpha")
        rep = _parse_rep(item, r, where)
        marker = item.get("marker")
        try:
            matrix.append(
                MatrixEigenData(
                    alpha=alpha,
                    eigenspace=rep,
                    marker_weight=_int_vector(marker, f"{where}.marker") if marker is not None else None,
                )
            )
        except InputError as exc:
            raise InputError(f"{where}: {exc}", code="SCHEMA")

    laplace = _parse_laplace(doc.get("laplace"), l, cutoff)
    deg_pos = _parse_degree(doc.get("degF_pos"), r, "degF_pos")
    deg_neg = _parse_degree(doc.get("degF_neg"), r, "degF_neg")

    return ProblemSpec(
        r=r,
        l=l,
        p=p,
        matrix_spectrum=tuple(matrix),
        laplace_spectrum=laplace,
        beta_cutoff=cutoff,
        origin_degree_pos=deg_pos,
        origin_degree_neg=deg_neg,
    )


def parse_problem(path: str | os.PathLike) -> ProblemSpec:
    """Load a problem file into a spec, which carries its validation; raises InputError with a code."""
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}", code="INPUT")
    try:
        doc = json.loads(data)
    except (ValueError, RecursionError) as exc:  # also bad UTF-8, integers past the digit limit, deep nesting
        raise InputError(f"{path}: {exc}", code="MALFORMED_JSON")
    return parse_problem_dict(doc)


# ---------------------------------------------------------------------------
# serialization


def _rep_doc(rep: TorusRep) -> dict:
    return {
        "trivial_mult": rep.trivial_mult,
        "weights": [{"m": list(m), "mult": k} for m, k in rep.weights],
    }


def _subgroup_doc(h: TorusSubgroup) -> list[list[int]]:
    return [list(row) for row in h.basis]


def _element_doc(x: EulerElement) -> list[dict]:
    return [{"characters": _subgroup_doc(h), "coeff": c} for h, c in x.terms]


def level_text(lam: Fraction) -> str:
    """``str(lam)``; a level past the digit limit of ``str`` is refused, shown by its size."""
    try:
        return str(lam)
    except ValueError:
        raise RefusalError(f"level {shown(lam)} is too long to print") from None


def _verdict_doc(v: Verdict) -> dict:
    cert = None
    if v.unbounded is not None:
        c = v.unbounded
        cert = {
            "kind": c.kind,
            "subgroup": _subgroup_doc(c.subgroup) if c.subgroup is not None else None,
            "coefficient": c.coefficient,
            "multiplicity": c.multiplicity,
            "witness": None
            if c.witness is None
            else {
                "alpha": str(c.witness[0]),
                "beta": str(c.witness[1]),
                "marker": list(c.witness[2]),
                "highest_weight": list(c.witness[3]),
            },
            "excluded_levels": [level_text(x) for x in c.excluded_levels],
        }
    return {
        "global_bifurcation": v.global_bifurcation,
        "reasons": list(v.reasons),
        "symmetry_breaking": v.symmetry_breaking,
        "alternative": v.alternative,
        "unbounded": cert,
        "unbounded_reason": v.unbounded_reason,
        "zero_level_parity": v.zero_level_parity,
    }


def _analysis_doc(a: LevelAnalysis, witnesses) -> dict:
    return {
        "lambda0": level_text(a.lambda0),
        "witnesses": [[str(al), str(be)] for al, be in witnesses],
        "kernel": {**_rep_doc(a.kernel), "dim": a.kernel.dim},
        "negative_below": {**_rep_doc(a.negative_below), "dim": a.negative_below.dim},
        "negative_above": {**_rep_doc(a.negative_above), "dim": a.negative_above.dim},
        "index": _element_doc(a.index),
        "verdict": _verdict_doc(a.verdict),
    }


def _validation_doc(rep: ValidationReport) -> dict:
    return {
        "N1": rep.n1,
        "N2": rep.n2,
        "N2_method": rep.n2_method,
        "E": rep.e_holds,
        "E_witnesses": None
        if rep.e_witnesses is None
        else [
            {"alpha": str(a), "marker": list(m)} for a, m in rep.e_witnesses
        ],
        # a report exists only for a spec without structural errors; the key is part of the pinned bytes
        "structural_errors": [],
    }


def build_report(
    spec: ProblemSpec,
    levels: Iterable[Fraction | int | str] | None = None,
) -> dict:
    """Full machine-readable report: validation block plus level records.

    All levels are analysed in one sorted sweep and recorded in level
    order.  A level whose cutoff guard refuses is recorded in place as
    ``{"lambda0", "refused"}`` with the refusal message; a level that is not
    a candidate raises ``InputError``, and a failed index or certificate
    check raises ``ConsistencyError``.
    """
    wanted = None if levels is None else sorted(Fraction(x) for x in levels)
    sweep = analyze_levels(spec, wanted)
    witness_map = {c.lambda0: c.witnesses for c in sweep.candidates}
    records = []
    for lam, outcome in sweep.records:
        if isinstance(outcome, str):
            records.append({"lambda0": level_text(lam), "refused": outcome})
        else:
            records.append(_analysis_doc(outcome, witness_map.get(lam, ())))
    return {"validation": _validation_doc(spec.validation), "levels": records}


def report_to_json(report: dict) -> str:
    """``json.dumps(report, indent=2, sort_keys=True)``, byte for byte.

    Written directly, since ``indent`` sends ``json.dumps`` to its
    pure-Python encoder.  Only the vocabulary of a report is accepted:
    dicts with ``str`` keys, lists, ``str``, ``int``, ``bool`` and ``None``;
    anything else raises ``TypeError``.  A report that holds an integer
    too long to print is refused.
    """
    out: list[str] = []
    try:
        _write_json(report, "\n", out)
    except ValueError:  # only int.__repr__ raises it, past the digit limit
        raise _unprintable(report) from None
    return "".join(out)


def _unprintable(report: dict) -> RefusalError:
    """The refusal of a report that holds an integer past the digit limit of ``str``."""
    widest = max(_ints(report), key=int.bit_length)
    return RefusalError(f"the report holds an {shown(widest)}, too long to print")


def _ints(x: Any) -> Iterator[int]:
    """The integers of a report, depth first."""
    if type(x) is int:
        yield x
    elif type(x) is dict:
        yield from _ints(list(x.values()))
    elif type(x) is list:
        for e in x:
            yield from _ints(e)


_json_str = json.encoder.encode_basestring_ascii


def _write_json(x: Any, newline: str, out: list[str]) -> None:
    """Append the indent-2 JSON of ``x`` to ``out``; ``newline`` is its own indent."""
    kind = type(x)
    if kind is str:
        out.append(_json_str(x))
    elif kind is int:
        out.append(int.__repr__(x))
    elif x is None:
        out.append("null")
    elif x is True:
        out.append("true")
    elif x is False:
        out.append("false")
    elif kind is dict:
        if not x:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(x):
            if type(key) is not str:
                raise TypeError(f"report key {key!r} is not a str")
            out.append(sep)
            out.append(_json_str(key))
            out.append(": ")
            _write_json(x[key], inner, out)
            sep = "," + inner
        out.append(newline + "}")
    elif kind is list:
        if not x:
            out.append("[]")
            return
        inner = newline + "  "
        if all(type(e) is int for e in x):
            out.append("[" + inner + ("," + inner).join(map(int.__repr__, x)) + newline + "]")
            return
        sep = "[" + inner
        for e in x:
            out.append(sep)
            _write_json(e, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    else:
        raise TypeError(f"{kind.__name__} is not part of a report")


def _format_element_terms(terms: list[dict]) -> str:
    if not terms:
        return "0"
    parts = []
    for t in terms:
        gen = "I" if not t["characters"] else "chi(H" + str(t["characters"]) + ")"
        parts.append(f"{t['coeff']:+d}*{gen}")
    return " ".join(parts)


def render_text(report: dict) -> str:
    """Human-readable summary of a report dict, refused like ``report_to_json``."""
    try:
        return "\n".join(_text_lines(report))
    except ValueError:  # only str() or %d of an integer past the digit limit raises it
        raise _unprintable(report) from None


def _text_lines(report: dict) -> list[str]:
    lines = []
    val = report["validation"]
    lines.append(
        "validation: N1=%s N2=%s(%s) E=%s"
        % (val["N1"], val["N2"], val["N2_method"], val["E"])
    )
    for rec in report["levels"]:
        if "refused" in rec:
            lines.append(f"level {rec['lambda0']}: refused ({rec['refused']})")
            continue
        v = rec["verdict"]
        lines.append(f"level {rec['lambda0']}:")
        lines.append(
            "  kernel dim %d, negative dim %d -> %d across the level"
            % (rec["kernel"]["dim"], rec["negative_below"]["dim"], rec["negative_above"]["dim"])
        )
        lines.append("  index: " + _format_element_terms(rec["index"]))
        flags = []
        flags.append("global bifurcation" if v["global_bifurcation"] else "no index jump")
        if v["symmetry_breaking"]:
            flags.append("symmetry breaking")
        if v["alternative"]:
            flags.append(f"alternative: {v['alternative']}")
        if v["zero_level_parity"]:
            flags.append(v["zero_level_parity"])
        lines.append("  verdict: " + "; ".join(flags) + f" (reasons: {', '.join(v['reasons']) or '-'})")
        if v["unbounded"] is not None:
            c = v["unbounded"]
            if c["kind"] == "highest-weight":
                lines.append(
                    "  unbounded: certified at H%s with coefficient %d (excluded levels: %s)"
                    % (c["subgroup"], c["coefficient"], ", ".join(c["excluded_levels"]) or "-")
                )
            else:
                lines.append("  unbounded: certified through the zero-level parity route")
        elif v["unbounded_reason"]:
            lines.append(f"  unbounded: no certificate ({v['unbounded_reason']})")
    return lines
