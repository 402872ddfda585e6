import copy
import math
import pickle
import random
from fractions import Fraction
from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torbif.errors import InputError
from torbif.torusrep import TorusRep, canonical_weight, character, direct_sum, tensor


def rep_strategy(rank: int, max_weights: int = 3):
    weight = st.lists(st.integers(-5, 5), min_size=rank, max_size=rank).filter(any)
    pairs = st.lists(
        st.tuples(weight.map(tuple), st.integers(1, 2)), min_size=0, max_size=max_weights
    )
    return st.builds(
        lambda triv, ws: TorusRep(rank, triv, ws), st.integers(0, 2), pairs
    )


def complexified_tensor(w: TorusRep, v: TorusRep) -> TorusRep:
    """Brute-force decomposition through complex weight multisets."""

    def cw(rep):
        out = {}
        zero = (0,) * rep.ambient_rank
        if rep.trivial_mult:
            out[zero] = rep.trivial_mult
        for m, k in rep.weights:
            out[m] = out.get(m, 0) + k
            neg = tuple(-x for x in m)
            out[neg] = out.get(neg, 0) + k
        return out

    comb = {}
    for a, ka in cw(w).items():
        for b, kb in cw(v).items():
            comb[a + b] = comb.get(a + b, 0) + ka * kb
    rank = w.ambient_rank + v.ambient_rank
    trivial = comb.pop((0,) * rank, 0)
    folded = {}
    for m, k in comb.items():
        if canonical_weight(m) == m:
            assert comb[tuple(-x for x in m)] == k
            folded[m] = k
    return TorusRep(rank, trivial, folded)


# --- construction ----------------------------------------------------------


def test_constructor_canonicalises_weights():
    v = TorusRep(2, 1, [((-1, 2), 1), ((0, 3), 0), ((1, -2), 2), ((0, -1), 1)])
    assert v.weights == (((0, 1), 1), ((1, -2), 3))
    assert v == TorusRep(2, 1, {(1, -2): 3, (0, 1): 1}) == TorusRep(2, 1, list(reversed(v.weights)))
    with pytest.raises(InputError):
        TorusRep(2, 0, [((1, 0, 0), 1)])


def test_constructor_takes_any_mapping_or_pairs():
    pairs = [((1, -2), 3), ((0, 1), 1), ((-1, 2), 0)]
    as_dict = dict(pairs)
    built = [TorusRep(2, 1, as_dict), TorusRep(2, 1, MappingProxyType(as_dict)), TorusRep(2, 1, pairs)]
    assert built[0] == built[1] == built[2]
    assert built[0].weights == (((0, 1), 1), ((1, -2), 3))


def test_make_and_replace_go_through_the_constructor():
    v = TorusRep(1, 0, [((1,), 2)])
    assert v._replace(weights=(((-1,), 1),)).weights == (((1,), 1),)
    assert TorusRep._make((2, 1, [((0, -1), 2), ((0, 1), 1)])).weights == (((0, 1), 3),)
    for bad in ({"trivial_mult": -1}, {"weights": [((0,), 1)]}, {"weights": [((1, 0), 1)]}):
        with pytest.raises(InputError):
            v._replace(**bad)


def test_copies_are_equal_with_equal_hashes():
    v = TorusRep(2, 1, [((1, -2), 3), ((0, 1), 1)])
    for w in (copy.copy(v), copy.deepcopy(v), pickle.loads(pickle.dumps(v))):
        assert type(w) is TorusRep and w == v and hash(w) == hash(v)


def test_tuple_operators_do_not_leak_in():
    # a representation is a tuple, but direct_sum and tensor are its only sum and product
    v = TorusRep.rotation(1, [1])
    for op in (lambda: v + v, lambda: 2 * v, lambda: v * 2):
        with pytest.raises(TypeError):
            op()


def test_canonical_weight_flips_a_negative_first_entry():
    assert canonical_weight((0, -1, 2)) == (0, 1, -2)
    assert canonical_weight([0, 3, -2]) == (0, 3, -2)
    assert canonical_weight((0, 0)) == (0, 0)


def fraction_character(v, q):
    """The character with its phase <m, q> mod 1 summed in Fractions."""
    total = float(v.trivial_mult)
    for m, k in v.weights:
        phase = sum(mi * Fraction(qi) for mi, qi in zip(m, q)) % 1
        total += 2.0 * k * math.cos(2.0 * math.pi * float(phase))
    return total


def test_character_equals_the_fraction_formula_bitwise():
    rng = random.Random(20261019)
    for _ in range(500):
        r = rng.randint(1, 4)
        weights = {tuple(rng.randint(-9, 9) for _ in range(r)): rng.randint(1, 3) for _ in range(rng.randint(0, 4))}
        v = TorusRep(r, rng.randint(0, 2), {m: k for m, k in weights.items() if any(m)})
        q = [Fraction(rng.randint(-50, 50), rng.randint(1, 60)) if rng.random() < 0.8 else rng.randint(-3, 3)
             for _ in range(r)]
        assert character(v, q) == fraction_character(v, q), (v, q)


def test_zero_weight_rejected():
    with pytest.raises(InputError):
        TorusRep(2, 0, [((0, 0), 1)])


def test_negative_multiplicity_rejected():
    with pytest.raises(InputError):
        TorusRep(1, 0, [((1,), -1)])


def test_rotation_of_zero_weight_is_trivial():
    assert TorusRep.rotation(3, (0, 0)) == TorusRep(2, 3)


def test_dim():
    v = TorusRep(2, 1, {(1, 0): 2})
    assert v.dim == 5


# --- direct sum -------------------------------------------------------------


def test_direct_sum_merges_multiplicities():
    assert direct_sum(TorusRep.rotation(1, [1]), TorusRep.rotation(1, [1])) == TorusRep.rotation(2, [1])


def test_direct_sum_with_trivial():
    v = direct_sum(TorusRep(1, 1), TorusRep.rotation(1, [1]))
    assert v.trivial_mult == 1 and dict(v.weights) == {(1,): 1}


def test_direct_sum_sign_canonicalization():
    # the weight -m block is equivalent to the weight m block
    assert direct_sum(TorusRep.rotation(1, [-1]), TorusRep.rotation(1, [1])) == TorusRep.rotation(2, [1])


# --- tensor -----------------------------------------------------------------


def test_tensor_splits_into_mirror_pair():
    t = tensor(TorusRep.rotation(1, [1]), TorusRep.rotation(1, [1]))
    assert t == TorusRep(2, 0, {(1, 1): 1, (1, -1): 1})


def test_tensor_with_trivial_factor():
    t = tensor(TorusRep(1, 1), TorusRep.rotation(1, [3]))
    assert t == TorusRep(2, 0, {(0, 3): 1})


def test_tensor_bilinear_multiplicities():
    t = tensor(TorusRep.rotation(2, [1]), TorusRep.rotation(3, [2]))
    assert t == TorusRep(2, 0, {(1, 2): 6, (1, -2): 6})
    assert t.dim == 24  # 4 * 6


# --- character ----------------------------------------------------------------


def test_character_at_identity_is_dimension():
    assert character(TorusRep.rotation(1, [1]), (0,)) == pytest.approx(2.0)


def test_character_halfturn():
    assert character(TorusRep.rotation(1, [1]), (Fraction(1, 2),)) == pytest.approx(-2.0)


def test_character_of_trivial_block():
    assert character(TorusRep(1, 1), (Fraction(3, 7),)) == pytest.approx(1.0)


# --- properties ------------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(rep_strategy(1), rep_strategy(2))
def test_tensor_dimension_multiplicative(w, v):
    assert tensor(w, v).dim == w.dim * v.dim


@settings(max_examples=100, deadline=None)
@given(rep_strategy(2), rep_strategy(1))
def test_tensor_matches_complexified_bruteforce(w, v):
    assert tensor(w, v) == complexified_tensor(w, v)


points = st.lists(
    st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12)), min_size=1, max_size=1
)


@settings(max_examples=100, deadline=None)
@given(rep_strategy(1), rep_strategy(1), points, points)
def test_tensor_character_is_product(w, v, q1, q2):
    lhs = character(tensor(w, v), tuple(q1) + tuple(q2))
    assert abs(lhs - character(w, tuple(q1)) * character(v, tuple(q2))) < 1e-9


@settings(max_examples=60, deadline=None)
@given(rep_strategy(2), rep_strategy(2), rep_strategy(2), rep_strategy(1))
def test_sum_algebra(a, b, c, w):
    assert direct_sum(a, b) == direct_sum(b, a)
    assert direct_sum(direct_sum(a, b), c) == direct_sum(a, direct_sum(b, c))
    assert tensor(direct_sum(a, b), w) == direct_sum(tensor(a, w), tensor(b, w))
