import copy
import hashlib
import json
import pickle
import sys
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torbif import spectra
from torbif.errors import InputError, RefusalError
from torbif.eulerring import EulerElement
from torbif.oracle import circle_quartic_spec
from torbif.problemfile import (
    build_report,
    parse_problem,
    parse_problem_dict,
    parse_rational,
    render_text,
    report_to_json,
)
from torbif.torusrep import TorusRep


def circle_doc():
    return {
        "r": 1,
        "l": 1,
        "p": 2,
        "matrix_spectrum": [
            {"alpha": "1", "trivial_mult": 0, "weights": [{"m": [1], "mult": 1}], "marker": [1]}
        ],
        "laplace": {"provider": "flat_torus", "params": {"d": 1, "cutoff": 9}},
        "beta_cutoff": "9",
        "degF_pos": [{"characters": [], "coeff": 1}],
        "degF_neg": [{"characters": [], "coeff": 1}, {"characters": [[1]], "coeff": -1}],
    }


# --- rational parsing -------------------------------------------------------------


def test_parse_rational_forms():
    assert parse_rational(4, "x") == 4
    assert parse_rational("4", "x") == 4
    assert parse_rational("-3/2", "x") == Fraction(-3, 2)


def test_parse_rational_rejects_floats_and_junk():
    with pytest.raises(InputError):
        parse_rational(0.5, "x")
    with pytest.raises(InputError):
        parse_rational("1/0", "x")
    with pytest.raises(InputError):
        parse_rational(True, "x")


@pytest.mark.parametrize("text", ["1e3", "0.5", " 1", "1_000", "1/-2", "+", "", "١", pytest.param("x" * 10**6, id="long")])
def test_parse_rational_accepts_only_num_or_num_over_den(text):
    with pytest.raises(InputError) as err:
        parse_rational(text, "x")
    assert err.value.code == "SCHEMA"
    assert len(str(err.value)) < 100  # a long value is not echoed whole


# --- problem parsing ----------------------------------------------------------------


def test_parse_circle_fixture(circle_fixture_path):
    spec = parse_problem(circle_fixture_path)
    assert (spec.r, spec.l, spec.p) == (1, 1, 2)
    assert spec.matrix_spectrum[0].alpha == 1
    assert spec.matrix_spectrum[0].eigenspace == TorusRep.rotation(1, [1])
    assert spec.origin_degree_pos == EulerElement.unit(1)
    assert [e.beta for e in spec.laplace_spectrum] == [0, 1, 4, 9]


def test_dim_mismatch_code():
    doc = circle_doc()
    doc["p"] = 3
    with pytest.raises(InputError) as err:
        parse_problem_dict(doc)
    assert err.value.code == "DIM_MISMATCH"


def test_sweep_and_parser_raise_the_same_structural_code(circle_spec):
    doc = circle_doc()
    doc["p"] = 3
    with pytest.raises(InputError) as built:
        circle_spec._replace(p=3)
    with pytest.raises(InputError) as parsed:
        parse_problem_dict(doc)
    assert built.value.code == parsed.value.code == "DIM_MISMATCH"
    assert str(built.value) == str(parsed.value)


def test_shipped_fixture_matches_the_python_builder(circle_fixture_path):
    assert parse_problem(circle_fixture_path) == circle_quartic_spec(9)


def test_parse_and_report_validate_once(circle_fixture_path, monkeypatch):
    calls = []
    original = spectra.validate

    def counting(spec):
        calls.append(spec)
        return original(spec)

    # every torbif namespace that holds the function, as a tracer would see it
    for name, module in list(sys.modules.items()):
        if name == "torbif" or name.startswith("torbif."):
            for attr, obj in list(vars(module).items()):
                if obj is original:
                    monkeypatch.setattr(module, attr, counting)
    build_report(parse_problem_dict(json.loads(circle_fixture_path.read_text())))
    assert len(calls) == 1


def test_b6_trivial_code():
    doc = circle_doc()
    doc["degF_pos"] = []
    with pytest.raises(InputError) as err:
        parse_problem_dict(doc)
    assert err.value.code == "B6_TRIVIAL"


def test_b6_trivial_by_cancellation():
    doc = circle_doc()
    doc["degF_pos"] = [
        {"characters": [], "coeff": 1},
        {"characters": [], "coeff": -1},
    ]
    with pytest.raises(InputError) as err:
        parse_problem_dict(doc)
    assert err.value.code == "B6_TRIVIAL"


def test_cutoff_insufficient_code():
    doc = circle_doc()
    doc["laplace"]["params"]["cutoff"] = 4  # below the declared beta_cutoff
    with pytest.raises(InputError) as err:
        parse_problem_dict(doc)
    assert err.value.code == "CUTOFF_INSUFFICIENT"


@pytest.mark.parametrize(
    ("change", "message"),
    [
        ({"matrix_spectrum": [{"alpha": "1", "weights": [{"m": [1]}], "marker": [1, 0]}]},
         "SCHEMA: matrix eigenvalue 1: marker of length 2, not r=1"),
        ({"laplace": [{"beta": "-1", "trivial_mult": 1}]}, "SCHEMA: Laplace eigenvalue -1: must be nonnegative"),
        ({"laplace": [{"beta": "0", "trivial_mult": 1}, {"beta": "10", "weights": [{"m": [3]}]}]},
         "CUTOFF_INSUFFICIENT: eigenvalue 10 exceeds declared cutoff 9"),
    ],
    ids=["marker-length", "negative-beta", "entry-cutoff"],
)
def test_parser_leaves_content_rules_to_the_spec(change, message):
    doc = circle_doc()
    doc.update(change)
    with pytest.raises(InputError) as err:
        parse_problem_dict(doc)
    assert str(err.value) == message
    assert err.value.code == message.split(":")[0]


def test_malformed_json_code(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(InputError) as err:
        parse_problem(path)
    assert err.value.code == "MALFORMED_JSON"


@pytest.mark.parametrize("as_str", [False, True], ids=["path", "str"])
def test_unreadable_file_code(tmp_path, as_str):
    path = tmp_path / "missing.json"
    with pytest.raises(InputError) as err:
        parse_problem(str(path) if as_str else path)
    assert err.value.code == "INPUT"
    assert str(err.value).startswith(f"cannot read {path}: ")


def test_float_rejected_in_spectrum():
    doc = circle_doc()
    doc["beta_cutoff"] = 9.0
    with pytest.raises(InputError) as err:
        parse_problem_dict(doc)
    assert err.value.code == "SCHEMA"


def _leaf_paths(node, path=()):
    if isinstance(node, dict):
        return [p for key, child in node.items() for p in _leaf_paths(child, path + (key,))]
    if isinstance(node, list) and node:
        return [p for i, child in enumerate(node) for p in _leaf_paths(child, path + (i,))]
    return [path]


FIXTURE_DOCS = [
    json.loads((resources.files("torbif") / "fixtures" / name).read_text())
    for name in ("circle_quartic.json", "sphere_p1.json")
]
LEAVES = [(i, path) for i, doc in enumerate(FIXTURE_DOCS) for path in _leaf_paths(doc)]
# small integers and short strings keep every provider and rational parse cheap
JSON_SCALARS = (
    st.none() | st.booleans() | st.integers(-20, 20)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=6)
)
# scalars drawn directly as well as inside containers, which st.recursive favours
JSON_VALUES = JSON_SCALARS | st.recursive(
    JSON_SCALARS,
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=8,
)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(LEAVES), JSON_VALUES)
def test_parse_raises_only_documented_errors_on_any_leaf(leaf, value):
    doc_index, path = leaf
    doc = copy.deepcopy(FIXTURE_DOCS[doc_index])
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    try:
        parse_problem_dict(doc)
    except (InputError, RefusalError):
        pass


@pytest.mark.parametrize(
    "path, top, params, message",
    [
        ("circle_fixture_path", {"beta_cutoff": "-1"}, {"cutoff": -1}, "cutoff must be nonnegative"),
        ("sphere_fixture_path", {"l": 0}, {"n": 1, "cutoff_k": 5}, "ambient dimension must be at least 2"),
    ],
)
def test_provider_errors_are_schema_errors(path, top, params, message, request):
    doc = json.loads(request.getfixturevalue(path).read_text())
    doc.update(top)
    doc["laplace"]["params"].update(params)
    with pytest.raises(InputError, match=message) as err:
        parse_problem_dict(doc)
    assert err.value.code == "SCHEMA"


def test_explicit_laplace_list():
    doc = circle_doc()
    doc["laplace"] = [
        {"beta": "0", "trivial_mult": 1, "weights": [], "irreducible": False, "highest_weight": [0]},
        {"beta": "1", "trivial_mult": 0, "weights": [{"m": [1], "mult": 1}], "irreducible": True, "highest_weight": [1]},
    ]
    doc["beta_cutoff"] = "1"
    spec = parse_problem_dict(doc)
    assert [e.beta for e in spec.laplace_spectrum] == [0, 1]
    assert spec.laplace_spectrum[1].irreducible_nontrivial


@pytest.mark.parametrize(
    ("field", "value", "message"),
    # bool("false") is True: a string flag would certify irreducibility
    [("irreducible", flag, "irreducible: expected a boolean") for flag in ("false", "true", 0, 1, None, [])]
    + [("highest_weight", ["1"], "highest_weight[0]: expected an integer")],
)
def test_laplace_entry_errors_name_the_field_once(field, value, message):
    doc = circle_doc()
    doc["laplace"] = [
        {"beta": "0", "trivial_mult": 1, "irreducible": False},
        {"beta": "1", "weights": [{"m": [1]}], "irreducible": True, "highest_weight": [1]},
    ]
    doc["laplace"][1][field] = value
    doc["beta_cutoff"] = "1"
    with pytest.raises(InputError) as err:
        parse_problem_dict(doc)
    assert (err.value.code, str(err.value)) == ("SCHEMA", f"laplace[1].{message}")


# --- round trip ------------------------------------------------------------------------


def test_pickle_roundtrip(circle_spec, sphere_spec):
    # subgroups compare by value, so a copied or unpickled spec and the degrees inside it compare equal
    for spec in (circle_spec, sphere_spec):
        for again in (copy.copy(spec), copy.deepcopy(spec), pickle.loads(pickle.dumps(spec))):
            assert again == spec
            assert [h for h, _ in again.origin_degree_neg.terms] == [h for h, _ in spec.origin_degree_neg.terms]


# --- reports ------------------------------------------------------------------------------


def test_report_structure_and_determinism(circle_spec):
    doc = build_report(circle_spec)
    assert [rec["lambda0"] for rec in doc["levels"]] == ["0", "1", "4", "9"]
    assert doc["validation"]["N1"] and doc["validation"]["E"]
    level_one = doc["levels"][1]
    assert level_one["kernel"]["dim"] == 4
    assert {"characters": [[1, 2]], "coeff": -1} in doc["levels"][2]["index"]
    # byte-stable across repeated builds
    again = build_report(circle_spec)
    assert report_to_json(doc) == report_to_json(again)
    parsed = json.loads(report_to_json(doc))
    assert parsed["levels"][1]["verdict"]["global_bifurcation"]


@pytest.mark.parametrize(
    "path, digest",
    [
        ("circle_fixture_path", "64be75ed31b757ff0924fe44cfbdbc0a7e0361bb7cc648a319b98aa8248a4b6e"),
        ("sphere_fixture_path", "5687cb316fc5e508afe448a30c1a3b2684bf93a4a9094c3013ad2ca0976f7d85"),
    ],
)
def test_report_bytes_pinned(path, digest, request):
    text = report_to_json(build_report(parse_problem(request.getfixturevalue(path))))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_benchmark_reports_match_golden(bench_workloads):
    # the seven reports of benchmark seed 1, cycle 0: flat T^2 and S^3 with refusals
    golden = json.loads((Path(bench_workloads.__file__).parent / "golden.json").read_text())
    ops = bench_workloads.cycle("report", 1, 0)
    assert len(ops) == 7 and any(op["expect"]["refused"] for op in ops)
    for op in ops:
        assert op["key"] in golden
        result = bench_workloads.run_op(op, golden)
        assert result.ok, result.detail


def dumps(x) -> str:
    return json.dumps(x, indent=2, sort_keys=True)


report_strings = st.one_of(
    st.text(),
    st.text(st.sampled_from('"\\/\x00\x08\x1f\x7fé \U0001f600 aZ')),
    st.lists(st.integers(0xD800, 0xDFFF).map(chr) | st.characters(), max_size=6).map("".join),
)
report_ints = st.integers() | st.integers(-(2**200), 2**200) | st.sampled_from([0, 1, -1, 2**64, -(2**64)])
report_leaves = st.none() | st.booleans() | report_ints | report_strings
report_trees = st.recursive(
    report_leaves,
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(st.booleans() | st.sampled_from([0, 1]), max_size=5)
    | st.dictionaries(report_strings, inner, max_size=5),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(report_trees)
def test_report_writer_matches_json_dumps(tree):
    assert report_to_json(tree) == dumps(tree)


def test_report_writer_edge_cases():
    cases = [
        [True, 1, False, 0],
        {"a": [1, True], "b": [0, False], "c": [1, 1]},
        {}, [], [{}, [], ""], {"e": {}, "f": []},
        ["\ud800", "x\udfffy", "\"\\\n\t\x00é\U0001f600"],
        [2**300, -(2**300), -1, 0],
        {"é": 1, "B": 2, "a": 3, "": 4},
    ]
    deep_list, deep_dict = 1, "leaf"
    for depth in range(150):
        deep_list = [deep_list, depth]
        deep_dict = {"k": deep_dict, "d": depth}
    for x in cases + [deep_list, deep_dict]:
        assert report_to_json(x) == dumps(x), x


@pytest.mark.parametrize(
    "x", [1.5, (1, 2), {1: "a"}, {None: 1}, object(), [1, 2.0], {"a": [(0,)]}, {"a": {"b": b"c"}}]
)
def test_report_writer_refuses_other_types(x):
    with pytest.raises(TypeError):
        report_to_json(x)


def test_report_errors_in_level_order(circle_spec):
    # -16 is past the cutoff and comes first in level order; 1/2 is not a candidate
    levels = [Fraction(1, 2), -16]
    with pytest.raises(InputError):  # the refusal is recorded, the input error propagates
        build_report(circle_spec, levels=levels)
    doc = build_report(circle_spec, levels=[16, 1, 1])
    assert [rec["lambda0"] for rec in doc["levels"]] == ["1", "1", "16"]


def test_report_records_refusals(circle_spec):
    doc = build_report(circle_spec, levels=[Fraction(16)])
    assert "refused" in doc["levels"][0]


def test_render_text_mentions_verdicts(circle_spec):
    text = render_text(build_report(circle_spec))
    assert "global bifurcation" in text
    assert "symmetry breaking" in text
    assert "unbounded: certified" in text
