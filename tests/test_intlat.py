import ast
import copy
import itertools
import math
import pickle
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import torbif.intlat as intlat
from torbif.errors import InputError
from torbif.intlat import (
    TorusSubgroup,
    contains,
    det,
    extend_by_full_torus,
    hermite_basis,
    snf,
    subgroup_canonical,
    subgroup_intersect,
    xgcd,
)

# --- independent oracles -----------------------------------------------------


def laplace_det(rows):
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j, v in enumerate(rows[0]):
        if v:
            minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
            total += (-1) ** j * v * laplace_det(minor)
    return total


def factors_by_minor_gcds(rows) -> tuple[int, ...]:
    """Invariant factors as successive quotients of k-minor gcds."""
    out = []
    prev = 1
    for k in range(1, min(len(rows), len(rows[0])) + 1):
        g = 0
        for rsel in itertools.combinations(range(len(rows)), k):
            for csel in itertools.combinations(range(len(rows[0])), k):
                sub = [[rows[i][j] for j in csel] for i in rsel]
                g = math.gcd(g, laplace_det(sub))
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return tuple(out)


def times(a, b):
    """Product of two matrices given by their rows, the second with at least one row."""
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a)


def padded_diagonal(p: int, r: int, factors) -> tuple[tuple[int, ...], ...]:
    """The p x r matrix with ``factors`` down its diagonal and zeros elsewhere."""
    return tuple(tuple(factors[i] if i == j and i < len(factors) else 0 for j in range(r)) for i in range(p))


def assert_smith(rows, dec):
    """``dec`` is a Smith decomposition of ``rows``: P R Q is the padded diagonal, P and Q unimodular."""
    assert times(times(dec.P, rows), dec.Q) == padded_diagonal(len(rows), len(rows[0]), dec.invariant_factors)
    assert abs(laplace_det(list(map(list, dec.P)))) == 1
    assert abs(laplace_det(list(map(list, dec.Q)))) == 1


def rank_by_gauss(rows) -> int:
    mat = [[Fraction(e) for e in row] for row in rows]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for c in range(cols):
        piv = next((i for i in range(rank, len(mat)) if mat[i][c]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        for i in range(len(mat)):
            if i != rank and mat[i][c]:
                f = mat[i][c] / mat[rank][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


small_matrices = st.integers(1, 4).flatmap(
    lambda r: st.integers(1, 4).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-10, 10), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
)


# --- xgcd / matrices ----------------------------------------------------------


@given(st.integers(-200, 200), st.integers(-200, 200))
def test_xgcd(a, b):
    g, x, y = xgcd(a, b)
    assert g == math.gcd(a, b)
    assert x * a + y * b == g


def test_det_matches_laplace_expansion():
    rng = random.Random(5)
    for n in range(6):
        for _ in range(40):
            rows = [[rng.randint(-4, 4) if rng.random() < 0.7 else 0 for _ in range(n)] for _ in range(n)]
            assert det(rows) == laplace_det(rows), rows
    with pytest.raises(InputError):
        det([(1, 2)])


# --- Smith normal form --------------------------------------------------------


def test_snf_input_errors():
    with pytest.raises(InputError, match="length 1 in ambient rank 2"):
        snf(2, [(1, 2), (3,)])  # ragged
    with pytest.raises(InputError, match="length 2 in ambient rank 3"):
        snf(3, [(1, 2), (3, 4)])  # rows of equal length, but not cols


def test_snf_identity():
    dec = snf(2, [(1, 0), (0, 1)])
    assert dec.invariant_factors == (1, 1)
    assert_smith(((1, 0), (0, 1)), dec)


def test_snf_diagonal_2_3():
    # gcd-of-minors oracle: d1 = gcd(2, 3) = 1, d1*d2 = |det| = 6
    m = ((2, 0), (0, 3))
    assert factors_by_minor_gcds(m) == (1, 6)
    assert snf(2, m).invariant_factors == (1, 6)
    assert_smith(m, snf(2, m))


def test_snf_full_2x2():
    m = ((2, 4), (6, 8))
    assert factors_by_minor_gcds(m) == (2, 4)
    assert snf(2, m).invariant_factors == (2, 4)
    assert_smith(m, snf(2, m))


def test_snf_zero_matrix():
    m = ((0, 0), (0, 0))
    dec = snf(2, m)
    assert dec.invariant_factors == ()
    assert_smith(m, dec)


def test_snf_of_no_rows():
    dec = snf(3, [])
    assert dec == intlat.SmithDecomposition(P=(), Q=((1, 0, 0), (0, 1, 0), (0, 0, 1)), invariant_factors=())


@pytest.mark.parametrize(
    "rows, factors",
    [
        # the first round ends on the diagonal (2, 1, 2), where 2 does not divide 1
        (((8, 10, -10, 18), (0, 11, -10, -19), (0, -14, 18, 0)), (1, 2, 2)),
        (((4, -6, 10, 0),), (2,)),  # a single row
        (((6,), (-4,), (0,), (10,)), (2,)),  # a single column
        (((), ()), ()),  # rows with no columns
        (((0, 0, 0, 0), (0, 6, 0, 4), (0, 0, 0, 0), (0, 0, 0, 10)), (2, 30)),  # zero rows and columns between
        (((0, 2, 0), (0, 0, 0), (3, 0, 0)), (1, 6)),
        (((3 * 2**65, 5 * 2**65), (7 * 2**65, 11 * 2**65)), (2**65, 2**66)),  # entries above 2**64
        (((2**70 + 1, 3 * 2**65), (2**66, 2**64 - 1), (5, 7)), (1, 1)),
    ],
)
def test_snf_edge_cases(rows, factors):
    dec = snf(len(rows[0]), rows)
    assert_smith(rows, dec)
    assert dec.invariant_factors == factors_by_minor_gcds(rows) == factors


@settings(max_examples=150, deadline=None)
@given(small_matrices)
def test_snf_decomposition_properties(rows):
    dec = snf(len(rows[0]), rows)
    assert_smith(rows, dec)
    fs = dec.invariant_factors
    assert all(f > 0 for f in fs)
    assert all(fs[i + 1] % fs[i] == 0 for i in range(len(fs) - 1))
    assert fs == factors_by_minor_gcds(rows)


def test_snf_matches_sympy_invariant_factors():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors

    rng = random.Random(7)
    for _ in range(300):
        # the shapes and entries the selftest draws; half the entries zero in
        # half the matrices, so rank-deficient ones come up often
        p, r = rng.randint(1, 6), rng.randint(1, 6)
        density = rng.choice((0.5, 1.0))
        rows = [[rng.randint(-20, 20) if rng.random() < density else 0 for _ in range(r)] for _ in range(p)]
        theirs = invariant_factors(sympy.Matrix(rows), domain=sympy.ZZ)
        expected = tuple(abs(int(f)) for f in theirs if f != 0)
        assert snf(r, rows).invariant_factors == expected, rows


# --- Hermite form and lattices --------------------------------------------------


def test_hermite_reduces_above_pivots():
    basis = hermite_basis(2, [(1, 1), (1, -1)])
    assert basis == ((1, 1), (0, 2))


def random_stack(rng: random.Random) -> tuple[int, list[tuple[int, ...]]]:
    """Up to 6 rows in ambient rank 1-5 spanning a lattice of rank 1-5.

    Rows are integer combinations of ``rank`` random generators, so the
    stack is often dependent; a fifth of the stacks carry entries above 2**64,
    and in some the first row starts with a unit.
    """
    ambient = rng.randint(1, 5)
    rank = rng.randint(1, ambient)
    big = rng.random() < 0.2
    gens = []
    for _ in range(rank):
        g = [rng.randint(-9, 9) for _ in range(ambient)]
        if big:
            g[rng.randrange(ambient)] += rng.choice((-1, 1)) * rng.randint(2**64, 2**70)
        gens.append(g)
    rows = [tuple(sum(rng.randint(-2, 2) * g[j] for g in gens) for j in range(ambient))
            for _ in range(rng.randint(1, 6))]
    if rng.random() < 0.3:  # a unit pivot, which divides every entry below it
        rows[0] = (rng.choice((-1, 1)),) + rows[0][1:]
    return ambient, rows


def in_span(basis, v) -> bool:
    """Membership in the span of an echelon basis, by solving from the first pivot."""
    v = list(v)
    for b in basis:
        c = next(j for j, e in enumerate(b) if e)
        q, rem = divmod(v[c], b[c])
        if rem:
            return False
        v = [x - q * y for x, y in zip(v, b)]
    return not any(v)


def minor_gcd(rows, k: int) -> int:
    """gcd of the k x k minors, the k-th determinantal divisor."""
    g = 0
    cols = len(rows[0])
    for rsel in itertools.combinations(range(len(rows)), k):
        for csel in itertools.combinations(range(cols), k):
            g = math.gcd(g, det([[rows[i][j] for j in csel] for i in rsel]))
    return g


def test_hermite_basis_on_random_stacks(monkeypatch):
    import torbif.intlat as intlat

    xgcd_calls = []
    monkeypatch.setattr(intlat, "xgcd", lambda a, b: xgcd_calls.append(1) or xgcd(a, b))
    rng = random.Random(20261018)
    paths = {"divisible": 0, "xgcd": 0, "big": 0}
    for _ in range(1000):
        ambient, rows = random_stack(rng)
        before = len(xgcd_calls)
        basis = hermite_basis(ambient, rows)
        # a stack whose first column has two nonzero entries needs an elimination
        # step; with no xgcd call it went through the divisible path
        if sum(1 for row in rows if row[0]) >= 2:
            paths["xgcd" if len(xgcd_calls) > before else "divisible"] += 1
        paths["big"] += any(abs(e) > 2**64 for row in rows for e in row)

        pivots = []
        for b in basis:
            assert len(b) == ambient and any(b)
            c = next(j for j, e in enumerate(b) if e)
            assert b[c] > 0
            pivots.append(c)
        assert pivots == sorted(set(pivots))
        for i, c in enumerate(pivots):
            for above in basis[:i]:
                assert 0 <= above[c] < basis[i][c], (rows, basis)
        assert all(in_span(basis, row) for row in rows), (rows, basis)
        rank = rank_by_gauss(rows)
        assert len(basis) == rank
        if rank:
            assert minor_gcd(basis, rank) == minor_gcd(rows, rank), (rows, basis)
    assert paths["divisible"] >= 100 and paths["xgcd"] >= 100 and paths["big"] >= 40, paths


@pytest.mark.parametrize(
    ("ambient", "row", "basis"),
    [
        (3, (0, 0, 0), ()),
        (3, (-2, 1, 0), ((2, -1, 0),)),
        (3, (0, -3, 2), ((0, 3, -2),)),
        (3, (0, 0, -5), ((0, 0, 5),)),
        (2, (0, 4), ((0, 4),)),
        (1, (-7,), ((7,),)),
    ],
    ids=["zero", "negative-lead", "leading-zero-negative", "last-column", "leading-zero", "rank-1"],
)
def test_hermite_basis_of_a_single_row(ambient, row, basis):
    # one row is canonical once its first nonzero entry is positive; the zero row spans nothing
    assert hermite_basis(ambient, [row]) == basis


def test_zero_rows_among_the_rows_are_dropped():
    rng = random.Random(20261021)
    for _ in range(300):
        ambient, rows = random_stack(rng)
        nonzero = [row for row in rows if any(row)]
        mixed = list(nonzero)
        for _ in range(rng.randint(1, 3)):
            mixed.insert(rng.randint(0, len(mixed)), (0,) * ambient)
        assert hermite_basis(ambient, mixed) == hermite_basis(ambient, nonzero), mixed
    assert hermite_basis(3, [(0, 0, 0)] * 3) == ()


# --- subgroup encodings ---------------------------------------------------------


def test_subgroup_single_character():
    h = subgroup_canonical(2, [(1, 1)])
    assert h.dim == 1 and h.codim == 1


def test_subgroup_finite():
    # stacked lattice has rank 2
    assert rank_by_gauss([(1, 1), (1, -1)]) == 2
    h = subgroup_canonical(2, [(1, 1), (1, -1)])
    assert h.dim == 0


def test_subgroup_spanning_equivalence():
    # (2,2) lies in the span of (1,1)
    a = subgroup_canonical(2, [(1, 1), (2, 2)])
    b = subgroup_canonical(2, [(1, 1)])
    assert a == b


def test_subgroup_character_length_error():
    with pytest.raises(InputError):
        subgroup_canonical(2, [(1, 1, 1)])


# --- intersection ----------------------------------------------------------------


def test_intersect_transversal():
    h = subgroup_intersect(subgroup_canonical(2, [(1, 0)]), subgroup_canonical(2, [(0, 1)]))
    assert h.dim == 0
    assert rank_by_gauss([(1, 0), (0, 1)]) == 2


def test_intersect_with_full_torus():
    h = subgroup_canonical(2, [(1, 1)])
    assert subgroup_intersect(h, TorusSubgroup.full_torus(2)) == h


def test_intersect_dimension_lemma_instance():
    # H = kernel of (2,0) in T^2, extended by T^1, cut by the character (1,1,3)
    h = subgroup_canonical(2, [(2, 0)])
    meet = subgroup_intersect(extend_by_full_torus(h, 1), subgroup_canonical(3, [(1, 1, 3)]))
    assert meet.dim == 1  # l + dim H - 1 = 1 + 1 - 1


def random_subgroup(rng: random.Random, r: int, big: bool) -> TorusSubgroup:
    """Cut out by 0 to r random characters, so of codimension 0 to r; ``big`` adds entries above 2**64."""
    chars = []
    for _ in range(rng.randint(0, r)):
        m = [rng.randint(-6, 6) for _ in range(r)]
        if big:
            m[rng.randrange(r)] += rng.choice((-1, 1)) * rng.randint(2**64, 2**70)
        chars.append(m)
    return subgroup_canonical(r, chars)


def assert_hermite_of(basis, rows):
    """``basis`` is in Hermite form and spans the lattice of ``rows``, checked without the elimination."""
    pivots = []
    for b in basis:
        c = next(j for j, e in enumerate(b) if e)
        assert b[c] > 0, basis
        pivots.append(c)
    assert pivots == sorted(set(pivots)), basis
    for i, c in enumerate(pivots):
        assert all(0 <= above[c] < basis[i][c] for above in basis[:i]), basis
    assert all(in_span(basis, row) for row in rows), (rows, basis)
    assert len(basis) == rank_by_gauss(rows)
    if basis:  # same rank and same gcd of maximal minors: the spans are equal
        assert math.prod(factors_by_minor_gcds(basis)) == math.prod(factors_by_minor_gcds(rows))


def test_meet_core_matches_hermite_basis_on_random_pairs():
    # a meet hands the two stored bases to the elimination without the input checks
    rng = random.Random(20261019)
    counts = {"big": 0, "transversal": 0, "other": 0}
    for trial in range(400):
        r = 1 + trial % 5
        big = rng.random() < 0.2
        h, k = random_subgroup(rng, r, big), random_subgroup(rng, r, big)
        rows = h.basis + k.basis
        meet = subgroup_intersect(h, k)
        assert meet.basis == hermite_basis(r, rows), (h, k)
        assert meet == subgroup_canonical(r, rows)
        assert_hermite_of(meet.basis, rows)
        counts["big"] += any(abs(e) > 2**64 for row in rows for e in row)
        counts["transversal" if meet.codim == h.codim + k.codim else "other"] += 1
    assert counts["big"] >= 60 and counts["transversal"] >= 100 and counts["other"] >= 100, counts


def test_every_subgroup_of_a_benchmark_cycle_is_built_canonical(monkeypatch, bench_workloads):
    # the builder wraps the basis it is handed with no second elimination, and
    # equality compares bases: every constructor must hand it a Hermite basis
    handed = set()
    build = intlat._subgroup
    monkeypatch.setattr(intlat, "_subgroup", lambda r, basis: handed.add((r, basis)) or build(r, basis))
    for op in bench_workloads.cycle("report", 1, 0):
        bench_workloads.render_report(op["problem"])
    assert len(handed) >= 500 and {len(basis) for _, basis in handed} >= {0, 1, 2, 3}
    for r, basis in handed:
        assert hermite_basis(r, basis) == basis, (r, basis)


def test_intersect_rank_mismatch():
    with pytest.raises(InputError):
        subgroup_intersect(subgroup_canonical(1, [(1,)]), subgroup_canonical(2, [(1, 0)]))


# --- membership --------------------------------------------------------------------


def test_contains_examples():
    h = subgroup_canonical(2, [(1, 1)])
    assert contains(h, (Fraction(1, 2), Fraction(1, 2)))
    finite = subgroup_canonical(2, [(1, 1), (1, -1)])
    assert not contains(finite, (Fraction(1, 4), Fraction(1, 4)))
    assert contains(finite, (0, 0))


def test_contains_equals_the_fraction_test():
    rng = random.Random(20261019)
    for _ in range(500):
        r = rng.randint(1, 4)
        h = subgroup_canonical(r, [[rng.randint(-6, 6) for _ in range(r)] for _ in range(rng.randint(0, r))])
        # points of small order lie in h often enough to exercise both answers
        order = rng.randint(1, 12)
        q = [Fraction(rng.randint(-order, order), order) if rng.random() < 0.8 else rng.randint(-2, 2)
             for _ in range(r)]
        by_fractions = all(
            sum(k * Fraction(x) for k, x in zip(row, q)).denominator == 1 for row in h.basis
        )
        assert contains(h, q) == by_fractions, (h, q)


def test_contains_length_error():
    with pytest.raises(InputError):
        contains(subgroup_canonical(2, [(1, 1)]), (Fraction(1, 2),))


# --- extension ---------------------------------------------------------------------


def test_extend_examples():
    h = extend_by_full_torus(subgroup_canonical(2, [(1, 1)]), 1)
    assert h.basis == ((1, 1, 0),)
    assert extend_by_full_torus(TorusSubgroup.full_torus(2), 2) == TorusSubgroup.full_torus(4)
    point = subgroup_canonical(2, [(1, 0), (0, 1)])
    assert extend_by_full_torus(point, 3).dim == 3


def test_extension_is_the_canonical_subgroup_of_the_padded_rows():
    # padding with zero columns commutes with taking the Hermite basis
    rng = random.Random(20261022)
    for _ in range(300):
        r, rows = random_stack(rng)
        h = subgroup_canonical(r, rows)
        for l in range(3):
            padded = [row + (0,) * l for row in rows]
            assert extend_by_full_torus(h, l) == subgroup_canonical(r + l, padded), rows


# --- value semantics -------------------------------------------------------------


def test_equal_subgroups_from_every_constructor_are_equal():
    # the subgroup {phi_1 = 0} of T^2 built three ways, and the full torus T^3 four ways
    canonical = subgroup_canonical(2, [(2, 0), (3, 0)])
    met = subgroup_intersect(TorusSubgroup.full_torus(2), subgroup_canonical(2, [(1, 0)]))
    extended = extend_by_full_torus(subgroup_canonical(1, [(1,)]), 1)
    assert canonical == met == extended
    assert hash(canonical) == hash(met) == hash(extended)
    full = TorusSubgroup.full_torus(3)
    for h in (subgroup_canonical(3, []), extend_by_full_torus(TorusSubgroup.full_torus(1), 2),
              subgroup_intersect(full, full)):
        assert h == full and hash(h) == hash(full)
    assert subgroup_canonical(2, [(1, 2)]) != subgroup_canonical(2, [(2, 4)])


def test_direct_construction_gives_no_second_instance():
    # equality compares bases, which is sound only for canonical ones, so no
    # subgroup is built around a basis that the constructors did not canonicalise
    with pytest.raises(TypeError):
        TorusSubgroup(2, ((2, 4),))
    with pytest.raises(TypeError):
        TorusSubgroup()
    h = subgroup_canonical(2, [(1, 2)])
    with pytest.raises(TypeError):
        h._replace(basis=((2, 4),))
    with pytest.raises(TypeError):
        TorusSubgroup._make(h)
    # equality and hashing are the tuple's own, in C
    assert TorusSubgroup.__eq__ is tuple.__eq__ and TorusSubgroup.__hash__ is tuple.__hash__


def test_subgroup_is_the_flat_pair_of_rank_and_basis():
    for r, chars in [(2, [(2, 4)]), (3, [(6, 4, 2), (0, 1, 1)]), (2, [])]:
        h = subgroup_canonical(r, chars)
        assert tuple(h) == (r, h.basis) == (r, hermite_basis(r, chars))
        assert hash(h) == hash((r, h.basis))
        assert h.annihilator is h


def test_no_module_reads_the_annihilator_alias():
    # the alias is left for the benchmark tracer alone; the package reads h.basis
    paths = sorted(Path(intlat.__file__).parent.glob("*.py"))
    readers = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr == "annihilator"
    ]
    assert len(paths) > 1 and readers == []


def test_subgroup_str():
    assert str(subgroup_canonical(2, [(2, 4)])) == "H[(2, 4)]"
    assert str(subgroup_canonical(2, [(1, 1), (0, 2)])) == "H[(1, 1),(0, 2)]"
    assert str(TorusSubgroup.full_torus(3)) == "T^3"


def test_copies_and_pickles_are_equal_subgroups():
    h = subgroup_canonical(3, [(6, 4, 2)])
    for again in (copy.copy(h), copy.deepcopy(h), pickle.loads(pickle.dumps(h))):
        assert type(again) is TorusSubgroup
        assert again == h and hash(again) == hash(h)
    assert copy.deepcopy({h: [h]}) == {h: [h]}


# --- randomized structure properties --------------------------------------------------


characters = st.integers(1, 3).flatmap(
    lambda r: st.lists(
        st.lists(st.integers(-5, 5), min_size=r, max_size=r), min_size=0, max_size=3
    ).map(lambda chars: (r, chars))
)


@settings(max_examples=100, deadline=None)
@given(characters)
def test_subgroup_canonical_order_independent(data):
    r, chars = data
    h = subgroup_canonical(r, chars)
    assert subgroup_canonical(r, list(reversed(chars))) == h
    assert subgroup_canonical(r, h.basis) == h


@settings(max_examples=100, deadline=None)
@given(characters)
def test_intersection_commutative_associative(data):
    r, chars = data
    half = len(chars) // 2
    h1 = subgroup_canonical(r, chars[:half])
    h2 = subgroup_canonical(r, chars[half:])
    meet = subgroup_intersect(h1, h2)
    assert meet == subgroup_intersect(h2, h1)
    assert meet.dim <= min(h1.dim, h2.dim)
