import copy
import hashlib
import itertools
import json
import math
import pickle
import random
from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import torbif.bifurcation as bifurcation
from torbif.errors import ConsistencyError, InputError
from torbif.eulerring import (
    EulerElement,
    _annihilator_wedge,
    _wedge,
    _wedge_sign,
    codim_part,
    deg_minus_id,
    lift,
    plucker_degree,
    plucker_image,
    star,
)
from torbif.intlat import TorusSubgroup, det, subgroup_canonical, subgroup_intersect
from torbif.oracle import star_dimension_flipped
from torbif.problemfile import build_report, parse_problem, parse_problem_dict, report_to_json
from torbif.torusrep import TorusRep, direct_sum

from clirun import run_cli


def plucker_star(a, b):
    """Product of the image algebra: (e_I (x) e_J)(e_K (x) e_L) = +-e_(I u K) (x) e_(J u L)."""
    acc = {}
    for (i, j), x in a.items():
        for (k, l), y in b.items():
            if i & k or j & l:
                continue
            key = (i | k, j | l)
            acc[key] = acc.get(key, 0) + _wedge_sign(i, k) * _wedge_sign(j, l) * x * y
    return {key: c for key, c in acc.items() if c}


def gen(r, *chars):
    return EulerElement.generator(subgroup_canonical(r, chars))


def element_strategy(rank: int, max_terms: int = 4):
    weight = st.lists(st.integers(-4, 4), min_size=rank, max_size=rank).filter(any)
    subgroup = st.lists(weight.map(tuple), min_size=0, max_size=2).map(
        lambda chars: subgroup_canonical(rank, chars)
    )
    coeff = st.integers(-5, 5).filter(bool)
    return st.lists(st.tuples(subgroup, coeff), min_size=0, max_size=max_terms).map(
        lambda terms: EulerElement(rank, terms)
    )


def rep_strategy(rank: int):
    weight = st.lists(st.integers(-4, 4), min_size=rank, max_size=rank).filter(any)
    pairs = st.lists(st.tuples(weight.map(tuple), st.integers(1, 2)), max_size=3)
    return st.builds(lambda t, ws: TorusRep(rank, t, ws), st.integers(0, 2), pairs)


# --- construction ------------------------------------------------------------------


def test_element_takes_any_mapping_or_pairs():
    a, b = subgroup_canonical(2, [[1, 0]]), subgroup_canonical(2, [[1, 1], [0, 2]])
    pairs = [(b, 2), (a, -1), (TorusSubgroup.full_torus(2), 0)]
    as_dict = dict(pairs)
    built = [EulerElement(2, as_dict), EulerElement(2, MappingProxyType(as_dict)), EulerElement(2, pairs)]
    assert built[0] == built[1] == built[2]
    assert built[0].terms == ((a, -1), (b, 2))


def test_constructor_canonicalises_terms():
    unit, h1 = TorusSubgroup.full_torus(2), subgroup_canonical(2, [(1, 0)])
    h2 = subgroup_canonical(2, [(1, 1), (0, 2)])
    x = EulerElement(2, [(h2, 1), (h1, 2), (unit, 0), (h2, -1), (h1, 1), (unit, 4)])
    assert x.terms == ((unit, 4), (h1, 3))
    assert x == EulerElement(2, {h1: 3, unit: 4}) == EulerElement(2, list(reversed(x.terms)))
    with pytest.raises(InputError):
        EulerElement(3, [(h1, 1)])


@settings(max_examples=100, deadline=None)
@given(element_strategy(3, max_terms=8))
def test_terms_sort_by_codim_then_basis(x):
    # the constructor sorts on flattened bases; the order is that of the nested ones
    assert list(x.terms) == sorted(x.terms, key=lambda t: (t[0].codim, t[0].basis))


def test_degree_str_is_pinned():
    # terms in ring order, each subgroup written by its Hermite basis rows
    x = deg_minus_id(TorusRep(2, 1, [((1, 1), 1), ((1, -1), 2)]))
    assert str(x) == "-I + 2*chi(H[(1, -1)]) + chi(H[(1, 1)]) - 2*chi(H[(1, 1),(0, 2)])"


def test_element_survives_a_pickle_round_trip():
    x = gen(3, (1, 2, 0)) - 2 * gen(3, (0, 1, 1), (2, 0, 0)) + EulerElement.unit(3)
    for y in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
        assert type(y) is EulerElement and y == x and hash(y) == hash(x)


def test_make_and_replace_go_through_the_constructor():
    unit, h = TorusSubgroup.full_torus(2), subgroup_canonical(2, [(1, 0)])
    x = EulerElement._make((2, [(h, 1), (unit, 2), (h, 3)]))
    assert x.terms == ((unit, 2), (h, 4))
    assert x._replace(terms=[(h, 1), (h, -1)]).is_zero
    with pytest.raises(InputError):
        x._replace(ambient_rank=3)


def test_tuple_operators_do_not_leak_in():
    # an element is a tuple, but * is only the scalar multiple from the left; star is the product
    x, y = gen(2, (1, 0)), EulerElement.unit(2)
    for op in (lambda: x * 3, lambda: x * y):
        with pytest.raises(TypeError):
            op()
    h = subgroup_canonical(2, [(1, 0)])
    assert 3 * x == x + x + x == EulerElement(2, [(h, 3)])
    assert x - y == EulerElement(2, [(h, 1), (TorusSubgroup.full_torus(2), -1)])
    assert -x == EulerElement(2, [(h, -1)])


def test_equal_subgroup_objects_make_one_term():
    # {phi_1 = 0} in T^2 as two distinct objects, from two constructors
    h = subgroup_canonical(2, [(2, 0), (3, 0)])
    k = subgroup_intersect(TorusSubgroup.full_torus(2), subgroup_canonical(2, [(1, 0)]))
    assert h == k and h is not k
    x = EulerElement(2, [(h, 2), (k, 3)])
    assert x.terms == ((h, 5),)
    assert x.coefficient(k) == 5 and x.unit_coefficient() == 0
    # I * chi(k) and chi(h) * I land on one term of the product
    unit = TorusSubgroup.full_torus(2)
    product = star(EulerElement(2, [(unit, 1), (h, 1)]), EulerElement(2, [(unit, 1), (k, 1)]))
    assert product.terms == ((unit, 1), (h, 2))
    assert product.unit_coefficient() == 1 and product.coefficient(subgroup_canonical(2, [(0, 1)])) == 0


# --- linear combinations -------------------------------------------------------


def test_linear_combine_cancellation():
    unit = EulerElement.unit(2)
    assert unit + -1 * unit == EulerElement(2)
    assert EulerElement(2, [*unit.terms, *(-1 * unit).terms]) == EulerElement(2)


def test_linear_combine_merges():
    x = gen(2, (1, 0))
    assert 2 * x + 3 * x == 5 * x
    assert EulerElement(2, [*(2 * x).terms, *(3 * x).terms]) == 5 * x


def test_zero_coefficients_dropped():
    combined = 1 * EulerElement.unit(2) + 0 * gen(2, (1, 1))
    assert combined == EulerElement.unit(2)
    assert len(combined.terms) == 1
    assert EulerElement(2, [*EulerElement.unit(2).terms, (subgroup_canonical(2, [(1, 1)]), 0)]).terms == combined.terms


def test_rank_mismatch_raises():
    with pytest.raises(InputError):
        EulerElement.unit(1) + EulerElement.unit(2)
    with pytest.raises(InputError):
        EulerElement(2, EulerElement.unit(1).terms)
    with pytest.raises(InputError):
        star(EulerElement.unit(1), EulerElement.unit(2))


# --- star product ---------------------------------------------------------------


def test_star_transversal_generators():
    # kernels of (1,0) and (0,1) meet in the trivial subgroup, dims 1+1 = 2+0
    prod = star(gen(2, (1, 0)), gen(2, (0, 1)))
    assert prod == gen(2, (1, 0), (0, 1))


def test_star_self_product_vanishes():
    for r in (1, 2, 3):
        h = gen(r, tuple([1] + [0] * (r - 1)))
        assert star(h, h) == EulerElement(r)


@settings(max_examples=80, deadline=None)
@given(element_strategy(2))
def test_star_unit_law(x):
    assert star(EulerElement.unit(2), x) == x


def literal_star(a, b):
    """The generator rule as stated: meet every pair, keep the transversal ones."""
    r = a.ambient_rank
    acc = {}
    for ha, ca in a.terms:
        for hb, cb in b.terms:
            hi = subgroup_intersect(ha, hb)
            if ha.dim + hb.dim == r + hi.dim:
                acc[hi] = acc.get(hi, 0) + ca * cb
    return EulerElement(r, acc)


def random_element(rng, r):
    # zero to r characters per term: full-torus terms and codimensions up to r
    terms = []
    for _ in range(rng.randint(0, 4)):
        chars = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(rng.randint(0, r))]
        terms.append((subgroup_canonical(r, chars), rng.choice([-3, -2, -1, 1, 2, 3])))
    return EulerElement(r, terms)


def test_star_matches_literal_rule_on_random_pairs():
    rng = random.Random(20250517)
    unit_pairs = deep_pairs = 0
    for trial in range(400):
        r = 1 + trial % 4
        a, b = random_element(rng, r), random_element(rng, r)
        codims = [(ha.codim, hb.codim) for ha, _ in a.terms for hb, _ in b.terms]
        unit_pairs += sum(1 for ka, kb in codims if ka == 0 or kb == 0)
        deep_pairs += sum(1 for ka, kb in codims if ka + kb > r)
        assert star(a, b) == literal_star(a, b), (a, b)
    assert unit_pairs >= 100 and deep_pairs >= 100


@pytest.fixture()
def meets(monkeypatch):
    import torbif.eulerring as eulerring

    pairs = []  # each meet as its unordered pair
    meet = eulerring.subgroup_intersect
    monkeypatch.setattr(eulerring, "subgroup_intersect", lambda h, h2: pairs.append(frozenset((h, h2))) or meet(h, h2))
    return pairs


def test_star_with_unit_makes_no_meets(meets):
    x = gen(3, (1, 0, 0)) - 2 * gen(3, (1, 1, 0), (0, 1, 2)) + 3 * EulerElement.unit(3)
    assert star(EulerElement.unit(3), x) == x
    assert star(x, EulerElement.unit(3)) == x
    assert meets == []


def test_star_of_deep_terms_makes_no_meets(meets):
    x = gen(3, (1, 0, 0), (0, 1, 0)) + 2 * gen(3, (1, 1, 1), (0, 2, 1))
    y = gen(3, (0, 0, 1), (1, -1, 0))
    assert star(x, y) == EulerElement(3)  # codimensions 2 + 2 > 3
    assert meets == []


def test_sphere_report_meet_count(meets, sphere_fixture_path):
    # 94 term pairs reach star and the dimension count settles all but 30;
    # this rank-2 sweep meets 9 distinct pairs, 8 of them more than once
    build_report(parse_problem(sphere_fixture_path))
    assert len(meets) == 30


def p3_problem(cutoff):
    """r=1, l=2, p=4 on flat T^2 with alpha 1 (weight [1]) and 3 (weight [2])."""
    return {
        "r": 1,
        "l": 2,
        "p": 4,
        "matrix_spectrum": [
            {"alpha": "1", "trivial_mult": 0, "weights": [{"m": [1], "mult": 1}], "marker": [1]},
            {"alpha": "3", "trivial_mult": 0, "weights": [{"m": [2], "mult": 1}], "marker": [2]},
        ],
        "laplace": {"provider": "flat_torus", "params": {"d": 2, "cutoff": cutoff}},
        "beta_cutoff": str(cutoff),
        "degF_pos": [{"characters": [], "coeff": 1}],
        "degF_neg": [{"characters": [], "coeff": 1}],
    }


@pytest.mark.parametrize(
    ("cutoff", "digest"),
    [
        (5, "7ee47975f5b8538b0c28b6f4b9d1ce7ec7ba38f74ae4048d22fa209def9decb6"),
        (9, "509eacd5b9f6b1bc2cda48ae7d01e92707961601d95440feee4b073770bce51f"),
        # its largest running degree has 7,065 terms: most of a report's meets
        (15, "1a8035e9a7986e539b0f3ee8e74edafbd8cf678c9f3f262da52b36c1b13d70fd"),
    ],
)
def test_p3_report_bytes_pinned(cutoff, digest):
    text = report_to_json(build_report(parse_problem_dict(p3_problem(cutoff))))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_analyze_all_prints_a_refused_level(tmp_path):
    problem = tmp_path / "p3.json"
    problem.write_text(json.dumps(p3_problem(5)))
    result = run_cli(["analyze-all", str(problem)])
    assert result.exit_code == 0
    assert "level 5: refused (analysis at level 5 needs Laplace data up to 15, declared cutoff is 5)" in (
        result.output.splitlines()
    )


@pytest.mark.parametrize(("cutoff", "count"), [(5, 2036), (9, 6426)])
def test_p3_report_meets_each_pair_once(cutoff, count, meets):
    # the running degrees never meet a pair twice, so a meet memo would save nothing here
    build_report(parse_problem_dict(p3_problem(cutoff)))
    assert len(meets) == len(set(meets)) == count


@pytest.mark.parametrize(("name", "count"), [("p3", 29), ("sphere_spec", 14), ("circle_spec", 9)])
def test_report_star_calls_pinned(name, count, request, monkeypatch):
    # each side's running degree starts at the lifted origin degree, so a level's
    # index is a difference of degrees and takes no product of its own
    spec = parse_problem_dict(p3_problem(5)) if name == "p3" else request.getfixturevalue(name)
    calls = []
    honest = bifurcation.star
    monkeypatch.setattr(bifurcation, "star", lambda a, b: calls.append(1) or honest(a, b))
    build_report(spec)
    assert len(calls) == count


def test_meet_table_lives_for_one_sweep(meets, sphere_fixture_path):
    # a meet memo that outlived one report would spare the second its meets
    spec = parse_problem(sphere_fixture_path)
    build_report(spec)
    first = len(meets)
    build_report(spec)
    assert first > 0 and len(meets) == 2 * first


# --- degree of -Id -----------------------------------------------------------------


def test_deg_trivial_line():
    assert deg_minus_id(TorusRep(1, 1)) == -EulerElement.unit(1)


def test_deg_single_rotation():
    expected = EulerElement.unit(1) - gen(1, (1,))
    assert deg_minus_id(TorusRep.rotation(1, [1])) == expected


def test_deg_doubled_rotation():
    # (I - chi)^2 = I - 2 chi since chi * chi = 0
    expected = EulerElement.unit(1) - 2 * gen(1, (1,))
    assert deg_minus_id(TorusRep.rotation(2, [1])) == expected


def test_deg_mirror_pair_in_rank_two():
    v = TorusRep(2, 0, {(1, 1): 1, (1, -1): 1})
    order_two = gen(2, (1, 1), (1, -1))
    expected = EulerElement.unit(2) - gen(2, (1, 1)) - gen(2, (1, -1)) + order_two
    assert deg_minus_id(v) == expected


def test_deg_zero_rep_is_unit():
    assert deg_minus_id(TorusRep(2)) == EulerElement.unit(2)


def test_deg_huge_multiplicity_is_one_factor():
    # one factor I - k chi per weight, so the work does not grow with k
    v = TorusRep.rotation(10**9, [1, 2])
    assert deg_minus_id(v) == EulerElement.unit(2) - 10**9 * gen(2, (1, 2))


def test_deg_takes_the_product_rule():
    calls = []

    def counted(a, b):
        calls.append((a, b))
        return star(a, b)

    v = TorusRep(2, 1, {(1, 0): 2, (0, 1): 1})
    assert deg_minus_id(v, counted) == deg_minus_id(v)
    assert len(calls) == 2  # one product per distinct weight


def test_deg_default_product_is_looked_up_per_call(monkeypatch):
    # wrappers that rebind eulerring.star (as profilers do) must see every product
    import torbif.eulerring as eulerring

    calls = []
    monkeypatch.setattr(eulerring, "star", lambda a, b: calls.append(1) or star(a, b))
    deg_minus_id(TorusRep.rotation(1, [1, 1]))
    assert calls == [1]


# --- codimension projection ----------------------------------------------------------


def test_codim_part():
    x = EulerElement.unit(1) - 2 * gen(1, (1,))
    assert codim_part(x, 0) == EulerElement.unit(1)
    assert codim_part(x, 1) == -2 * gen(1, (1,))
    v = TorusRep(2, 0, {(1, 1): 1, (1, -1): 1})
    assert codim_part(deg_minus_id(v), 2) == gen(2, (1, 1), (1, -1))


# --- lifting -----------------------------------------------------------------------


def test_lift_examples():
    assert lift(EulerElement.unit(1), 2) == EulerElement.unit(3)
    assert lift(EulerElement(1), 2) == EulerElement(3)
    # the point subgroup of T^1 lifts to the kernel of (1, 0) in T^2
    assert lift(gen(1, (1,)), 1) == gen(2, (1, 0))


@settings(max_examples=60, deadline=None)
@given(element_strategy(2), element_strategy(2), st.integers(1, 2))
def test_lift_is_ring_homomorphism(x, y, l):
    assert lift(star(x, y), l) == star(lift(x, l), lift(y, l))
    assert lift(x + y, l) == lift(x, l) + lift(y, l)


# --- ring axioms ----------------------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(element_strategy(2), element_strategy(2), element_strategy(2))
def test_ring_axioms(x, y, z):
    assert star(x, y) == star(y, x)
    assert star(star(x, y), z) == star(x, star(y, z))
    assert star(x, y + z) == star(x, y) + star(x, z)


@settings(max_examples=60, deadline=None)
@given(element_strategy(3), element_strategy(3))
def test_high_codimension_ideal(x, y):
    deep = EulerElement(
        y.ambient_rank, tuple((h, c) for h, c in y.terms if h.codim >= 2)
    )
    prod = star(x, deep)
    assert all(h.codim >= 2 for h, _ in prod.terms)


# --- truncation and multiplicativity ----------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(rep_strategy(2))
def test_truncation_conformance(v):
    deg = deg_minus_id(v)
    low = codim_part(deg, 0) + codim_part(deg, 1)
    expected = EulerElement.unit(2)
    for m, k in v.weights:
        expected = expected - k * EulerElement.generator(subgroup_canonical(2, [m]))
    sign = -1 if v.dim % 2 else 1
    assert low == sign * expected


@settings(max_examples=60, deadline=None)
@given(rep_strategy(2), rep_strategy(2))
def test_deg_multiplicative(v, w):
    assert deg_minus_id(direct_sum(v, w)) == star(deg_minus_id(v), deg_minus_id(w))


# --- Plücker-square image -------------------------------------------------------


def test_plucker_generator_examples():
    assert plucker_image(EulerElement.generator(subgroup_canonical(3, []))) == {(0, 0): 1}
    # disconnected: the kernel of (2, 0) has annihilator 2Z x 0, so w = 2 e_0
    assert plucker_image(EulerElement.generator(subgroup_canonical(2, [(2, 0)]))) == {(1, 1): 4}
    # (1, 1) and (1, -1) span an index-2 lattice: w = 2 e_01 up to sign
    assert plucker_image(EulerElement.generator(subgroup_canonical(2, [(1, 1), (1, -1)]))) == {(3, 3): 4}


def test_plucker_image_misses_a_combination_across_spans():
    # not only swaps of equal span and covolume: four kernels of characters with four spans
    def kernel_of(m):
        return EulerElement.generator(subgroup_canonical(2, [m]))

    x = kernel_of((1, 1)) + kernel_of((1, -1)) - 2 * kernel_of((1, 0)) - 2 * kernel_of((0, 1))
    assert len(x.terms) == 4
    assert plucker_image(x) == {}


def test_plucker_image_misses_a_combination_of_finite_subgroups():
    # T^2[2], its three subgroups of order 2 and the trivial subgroup; the marks
    # of the Burnside ring are dependent here: the Klein group is the union of the three
    def finite(*basis):
        return EulerElement.generator(subgroup_canonical(2, basis))

    y = (finite((2, 0), (0, 2))
         - 4 * (finite((2, 0), (0, 1)) + finite((1, 0), (0, 2)) + finite((1, 1), (0, 2)))
         + 32 * finite((1, 0), (0, 1)))
    assert len(y.terms) == 5 and not y.is_zero
    assert plucker_image(y) == {}


def test_plucker_coordinates_are_the_minors():
    rng = random.Random(3)
    for trial in range(200):
        r = 1 + trial % 4
        h = subgroup_canonical(r, [[rng.randint(-3, 3) for _ in range(r)] for _ in range(rng.randint(0, r))])
        basis = h.basis
        minors = {}
        for cols in itertools.combinations(range(r), len(basis)):
            p = det([[row[c] for c in cols] for row in basis])
            if p:
                minors[sum(1 << c for c in cols)] = p
        assert plucker_image(EulerElement.generator(h)) == {(i, j): p * q for i, p in minors.items() for j, q in minors.items()}


def test_plucker_rank_three_algebra_has_twenty_coordinates():
    rng = random.Random(7)
    keys = set()
    for _ in range(60):
        keys |= plucker_image(random_element(rng, 3)).keys()
    assert all(bin(i).count("1") == bin(j).count("1") for i, j in keys)
    assert len(keys) == 20


def test_plucker_image_is_multiplicative():
    rng = random.Random(20261018)
    disconnected = 0
    for trial in range(300):
        r = 1 + trial % 4
        a, b = random_element(rng, r), random_element(rng, r)
        if trial % 3 == 0:  # doubled characters: non-primitive annihilators
            a = EulerElement(r, [(subgroup_canonical(r, [[2 * x for x in row] for row in h.basis]), c)
                                      for h, c in a.terms])
        for h, _ in a.terms + b.terms:
            coords = {abs(p) for (i, j), p in plucker_image(EulerElement.generator(h)).items() if i == j}
            disconnected += math.gcd(*coords) > 1  # p_I^2 on the diagonal
        assert plucker_image(star(a, b)) == plucker_star(plucker_image(a), plucker_image(b)), (a, b)
    assert disconnected >= 100


def test_finite_subgroup_wedge_is_the_pivot_product():
    rng = random.Random(20261019)
    finite = set()
    for trial in range(300):
        r = 1 + trial % 7
        h = subgroup_canonical(r, [[rng.randint(-5, 5) for _ in range(r)] for _ in range(r + rng.randint(0, 1))])
        if h.codim != r:
            continue
        finite.add(r)
        basis = h.basis
        by_rows = {0: 1}
        for row in basis:
            by_rows = _wedge(by_rows, row)
        assert _annihilator_wedge(h) == by_rows == {(1 << r) - 1: det(basis)}, h
    assert finite == set(range(1, 8))


def test_corrupted_finite_term_of_an_index_is_a_defect(monkeypatch):
    spec = parse_problem_dict(p3_problem(5))
    n = spec.r + spec.l
    level, index = next((lam, a.index) for lam, a in bifurcation.analyze_levels(spec).records
                        if lam and any(h.codim == n for h, _ in a.index.terms))
    finite = next(h for h, _ in index.terms if h.codim == n)
    honest = bifurcation.star

    def corrupted(a, b):
        out = honest(a, b)
        # the running step across the level: a positive level's index is deg(above) - deg(below)
        return out + EulerElement.generator(finite) if out - a == index else out

    monkeypatch.setattr(bifurcation, "star", corrupted)
    with pytest.raises(ConsistencyError, match=f"index routes disagree at level {level}"):
        bifurcation.analyze_levels(spec, [level]).analyses()


def random_rep(rng, r):
    weights = []
    for _ in range(rng.randint(0, 4)):
        m = [rng.randint(-3, 3) for _ in range(r)]
        if any(m):
            weights.append((m, rng.randint(1, 3)))
    return TorusRep(r, rng.randint(0, 3), weights)


def test_plucker_degree_closed_form():
    rng = random.Random(11)
    one = {(0, 0): 1}
    for trial in range(200):
        v = random_rep(rng, 1 + trial % 4)
        assert plucker_degree(v, one) == plucker_image(deg_minus_id(v)), v
        start = plucker_image(random_element(rng, v.ambient_rank))
        assert plucker_degree(v, start) == plucker_star(start, plucker_degree(v, one))


@pytest.mark.parametrize("name", ["circle_fixture_path", "sphere_fixture_path"])
def test_flipped_star_fails_the_route_check_at_every_nonzero_level(name, request, monkeypatch):
    spec = parse_problem(request.getfixturevalue(name))
    nonzero = [c.lambda0 for c in bifurcation.candidate_levels(spec) if c.lambda0 != 0]
    assert len(nonzero) >= 3
    monkeypatch.setattr(bifurcation, "star", star_dimension_flipped)
    for lam in nonzero:
        with pytest.raises(ConsistencyError) as info:
            bifurcation.analyze_levels(spec, [lam])
        assert str(info.value) == f"index routes disagree at level {lam}"
