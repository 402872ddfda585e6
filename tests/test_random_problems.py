"""Differential tests of the level sweep on small random problems (r + l <= 3).

The sweep builds its negative spaces by walking the candidate levels and
adding kernels; ``hessian_spectrum`` builds the eigenvalue blocks at one
parameter value directly.  The sweep carries the degrees of -Id as running
products; the index must equal the one built from degrees computed from
scratch.  The report must not depend on the order in which a problem file
lists its spectra, weights or degree terms.
"""

from __future__ import annotations

import copy
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from torbif.bifurcation import LevelAnalysis, analyze_levels, hessian_spectrum
from torbif.errors import TorbifError
from torbif.eulerring import deg_minus_id, lift, star
from torbif.problemfile import build_report, parse_problem_dict, report_to_json
from torbif.torusrep import TorusRep, direct_sum, tensor

ALPHAS = [Fraction(a) for a in ("-2", "-1", "0", "1/2", "1", "3/2", "2", "3")]


def _weights(draw, rank: int) -> list[dict]:
    if rank == 0:
        return []
    m = st.lists(st.integers(-2, 2), min_size=rank, max_size=rank).filter(any)
    return draw(st.lists(st.fixed_dictionaries({"m": m, "mult": st.integers(1, 2)}), max_size=2))


def _block(draw, rank: int) -> dict:
    weights = _weights(draw, rank)
    trivial = draw(st.integers(0 if weights else 1, 2))
    return {"trivial_mult": trivial, "weights": weights}


@st.composite
def problem_docs(draw) -> dict:
    """A problem file with r + l <= 3, explicit Laplace data and every sign of alpha."""
    r = draw(st.integers(0, 2))
    l = draw(st.integers(1, 3 - r))
    matrix = []
    for alpha in draw(st.lists(st.sampled_from(ALPHAS), min_size=1, max_size=3, unique=True)):
        entry = {"alpha": str(alpha), **_block(draw, r)}
        if entry["weights"] and draw(st.booleans()):
            entry["marker"] = entry["weights"][0]["m"]
        matrix.append(entry)
    laplace = []
    for beta in draw(st.lists(st.integers(0, 6), min_size=1, max_size=3, unique=True)):
        entry = {"beta": beta, **_block(draw, l), "irreducible": draw(st.booleans())}
        if entry["weights"] and draw(st.booleans()):
            entry["highest_weight"] = entry["weights"][0]["m"]
        laplace.append(entry)
    p = sum(e["trivial_mult"] + 2 * sum(w["mult"] for w in e["weights"]) for e in matrix)

    def degree() -> list[dict]:
        terms = [{"characters": [], "coeff": draw(st.sampled_from([-1, 1]))}]
        if r:
            chars = st.lists(st.lists(st.integers(-2, 2), min_size=r, max_size=r).filter(any),
                             min_size=1, max_size=r)
            terms += draw(st.lists(st.fixed_dictionaries(
                {"characters": chars, "coeff": st.integers(-2, 2).filter(bool)}), max_size=2))
        return terms

    return {
        "r": r, "l": l, "p": p,
        "matrix_spectrum": matrix,
        "laplace": laplace,
        "beta_cutoff": str(max(e["beta"] for e in laplace)),
        "degF_pos": degree(),
        "degF_neg": degree(),
    }


def _outcome(doc: dict) -> str:
    """The report bytes, or the error a report build ends in."""
    try:
        return report_to_json(build_report(parse_problem_dict(doc)))
    except TorbifError as exc:
        return f"{type(exc).__name__}: {exc}"


def _negative_blocks(spec, lam: Fraction) -> TorusRep:
    """Sum of the Hessian blocks with a negative eigenvalue at ``lam``."""
    # a probe just past the outermost level may pass the declared cutoff; the
    # stored spectrum is all either side knows, so lift the guard for it
    wide = spec._replace(beta_cutoff=spec.beta_cutoff + (abs(lam) + 1) * spec.max_abs_alpha())
    out = TorusRep(spec.r + spec.l)
    for h in hessian_spectrum(wide, lam):
        if h.value < 0:
            out = direct_sum(out, h.rep)
    return out


def _constant_modes(spec, lam: Fraction) -> TorusRep:
    """The negative blocks on the constant functions (beta = 0), which the sweep leaves out."""
    out = TorusRep(spec.r + spec.l)
    for me in spec.matrix_spectrum:
        for le in spec.laplace_spectrum:
            if le.beta == 0 and lam * me.alpha > 0:
                out = direct_sum(out, tensor(me.eigenspace, le.eigenspace))
    return out


@settings(max_examples=80, deadline=None)
@given(problem_docs())
def test_sweep_negative_spaces_match_hessian_blocks(doc):
    spec = parse_problem_dict(doc)
    sweep = analyze_levels(spec)
    points = sorted({c.lambda0 for c in sweep.candidates} | {Fraction(0)})
    for lam, outcome in sweep.records:
        if isinstance(outcome, str):  # refused: past the cutoff
            continue
        assert isinstance(outcome, LevelAnalysis), outcome
        i = points.index(lam)
        below = (points[i - 1] + lam) / 2 if i else lam - 1
        above = (points[i + 1] + lam) / 2 if i + 1 < len(points) else lam + 1
        for side, probe in ((outcome.negative_below, below), (outcome.negative_above, above)):
            assert direct_sum(side, _constant_modes(spec, probe)) == _negative_blocks(spec, probe), (lam, probe)


@settings(max_examples=80, deadline=None)
@given(problem_docs())
def test_index_equals_the_from_scratch_route(doc):
    spec = parse_problem_dict(doc)
    for lam, outcome in analyze_levels(spec).records:
        if isinstance(outcome, str):  # refused: past the cutoff
            continue
        assert isinstance(outcome, LevelAnalysis), outcome
        if lam == 0:
            expected = lift(spec.origin_degree_pos, spec.l) - lift(spec.origin_degree_neg, spec.l)
        else:
            lifted = lift(spec.origin_degree_pos if lam > 0 else spec.origin_degree_neg, spec.l)
            above, below = (deg_minus_id(v, star) for v in (outcome.negative_above, outcome.negative_below))
            expected = star(lifted, above - below)
        assert outcome.index == expected, lam


def _shuffled(doc: dict, rnd) -> dict:
    out = copy.deepcopy(doc)
    for key in ("matrix_spectrum", "laplace", "degF_pos", "degF_neg"):
        rnd.shuffle(out[key])
        for entry in out[key]:
            rnd.shuffle(entry.get("weights", []))
            rnd.shuffle(entry.get("characters", []))
    return out


@settings(max_examples=60, deadline=None)
@given(problem_docs(), st.randoms(use_true_random=False))
def test_report_bytes_do_not_depend_on_listing_order(doc, rnd):
    assert _outcome(_shuffled(doc, rnd)) == _outcome(doc)
