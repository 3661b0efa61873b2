import json
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

import dolearn
from dolearn import io as dio
from dolearn.admg import Admg, GraphError
from dolearn.demo import fig3a_graph
from dolearn.identify import InvalidQuery
from dolearn.learn import fit_from_table, learn_interventional
from dolearn.scm import exact_observational, random_net_for, sample_observational
from dolearn.tables import Samples, ScopeMismatch, iter_assignments


@pytest.fixture
def setup():
    g = fig3a_graph()
    net = random_net_for(g, seed=7)
    return g, net


def test_admg_roundtrip(setup):
    g, _ = setup
    again = dio.admg_from_dict(json.loads(json.dumps(dio.admg_to_dict(g))))
    assert again == g


def test_admg_parse_rejects_cycle():
    with pytest.raises(GraphError):
        dio.admg_from_dict({
            "vars": [{"name": "A"}, {"name": "B"}],
            "directed": [["A", "B"], ["B", "A"]],
        })


def test_admg_parse_rejects_duplicates():
    with pytest.raises(GraphError):
        dio.admg_from_dict({
            "vars": [{"name": "A"}, {"name": "A"}],
        })
    with pytest.raises(GraphError):
        dio.admg_from_dict({
            "vars": [{"name": "A"}, {"name": "B"}],
            "bidirected": [["A", "B"], ["B", "A"]],
        })


def test_net_roundtrip(setup):
    g, net = setup
    again = dio.net_from_dict(json.loads(json.dumps(dio.net_to_dict(net))))
    assert again.names == net.names
    for a, b in zip(again.nodes, net.nodes):
        assert a.parents == b.parents
        assert a.hidden == b.hidden
        assert np.allclose(a.cpt, b.cpt)
    oa = exact_observational(again)
    ob = exact_observational(net)
    assert np.allclose(oa.probs, ob.probs)


def test_samples_csv_roundtrip(setup):
    _, net = setup
    s = sample_observational(net, seed=1, m=200)
    again = dio.samples_from_csv(dio.samples_to_csv(s))
    assert again.names == s.names
    assert (again.values == s.values).all()


def test_learned_object_roundtrip(setup):
    g, net = setup
    batch = sample_observational(net, seed=2, m=20_000)
    li = learn_interventional(batch, g, {"X": 1})
    again = dio.li_from_dict(json.loads(json.dumps(dio.li_to_dict(li))))
    assert again.order == li.order
    assert again.x == li.x
    table = li.table()
    for env in iter_assignments(table.names, table.cards):
        assert again.evaluate(env) == pytest.approx(li.evaluate(env), abs=1e-15)
    assert again.metadata["m"] == 20_000


@pytest.mark.parametrize("value", [-1, 2])
def test_learned_object_rejects_out_of_range_intervention(setup, value):
    g, net = setup
    obj = dio.li_to_dict(fit_from_table(exact_observational(net), g, {"X": 0}))
    obj["intervention"] = {"X": value}
    with pytest.raises(InvalidQuery, match="out of range for 'X'"):
        dio.li_from_dict(obj)


def _collider_li_dict():
    """A learned object on X(3) -> Y(2) <- Z(2), as a dict, and its Y factor."""
    g = Admg.build([("X", 3), ("Y", 2), ("Z", 2)], [("X", "Y"), ("Z", "Y")])
    obj = dio.li_to_dict(fit_from_table(exact_observational(random_net_for(g, 3)), g, {}))
    factor = next(f for f in obj["factors"] if f["target"] == "Y")
    assert factor["cond"] == ["X", "Z"] and factor["cond_cardinalities"] == [3, 2]
    return obj, factor


@pytest.mark.parametrize("field, value", [
    ("cond_cardinalities", [2, 3]),  # same 6 rows, strides that read the wrong one
    ("target_cardinality", 3),
])
def test_learned_object_rejects_factor_cardinalities_unlike_the_graph(field, value):
    obj, factor = _collider_li_dict()
    if field == "target_cardinality":  # six rows of three symbols
        factor["probs"] = [[0.5, 0.25, 0.25]] * 6
    factor[field] = value
    with pytest.raises(ScopeMismatch, match="factor 'Y' declares cardinalities"):
        dio.li_from_dict(obj)


@pytest.mark.parametrize("row", [[1.5, -0.5], [float("nan")] * 2])
def test_learned_object_rejects_negative_or_nan_probabilities(setup, row):
    g, net = setup
    obj = dio.li_to_dict(fit_from_table(exact_observational(net), g, {"X": 0}))
    factor = next(f for f in obj["factors"] if f["target"] == "Z1")
    factor["probs"] = [row] * len(factor["probs"])
    with pytest.raises(ValueError, match="Z1: negative or NaN conditional entry"):
        dio.li_from_dict(json.loads(json.dumps(obj)))


def test_learned_object_is_the_same_json_under_any_hash_seed():
    """The fixed context of a fragment factor follows the graph's variable
    order, not the iteration order of a set of names."""
    script = (
        "from dolearn.demo import fig4a_graph\n"
        "from dolearn.io import dump_json, li_to_dict\n"
        "from dolearn.learn import fit_from_table\n"
        "from dolearn.scm import exact_observational, random_net_for\n"
        "g = fig4a_graph()\n"
        "obs = exact_observational(random_net_for(g, seed=3))\n"
        "print(dump_json(li_to_dict(fit_from_table(obs, g, {'W': 1, 'R': 0, 'X': 1}))))\n"
    )
    src = str(pathlib.Path(dolearn.__file__).resolve().parents[1])
    outs = [
        subprocess.run([sys.executable, "-c", script], check=True, capture_output=True,
                       text=True, env={**os.environ, "PYTHONHASHSEED": seed,
                                       "PYTHONPATH": src}).stdout
        for seed in ("1", "2")
    ]
    contexts = [list(f["fixed_context"]) for f in json.loads(outs[0])["factors"]]
    assert ["R", "X"] in contexts
    assert outs[0] == outs[1]


def test_net_rejects_nan_cpt(setup):
    _, net = setup
    obj = dio.net_to_dict(net)
    node = next(nd for nd in obj["nodes"] if nd["name"] == "Y")
    node["cpt"] = np.full(np.shape(node["cpt"]), np.nan).tolist()
    with pytest.raises(GraphError, match="Y: negative or NaN cpt entry"):
        dio.net_from_dict(json.loads(json.dumps(obj)))


def test_learned_object_roundtrip_exact(setup):
    g, net = setup
    li = fit_from_table(exact_observational(net), g, {"X": 0})
    again = dio.li_from_dict(json.loads(json.dumps(dio.li_to_dict(li))))
    table_a = again.table()
    table_b = li.table()
    assert np.abs(table_a.probs - table_b.probs).max() < 1e-15


def test_dump_json_is_deterministic_and_unicode(setup):
    g, _ = setup
    a = dio.dump_json(dio.admg_to_dict(g))
    b = dio.dump_json(dio.admg_to_dict(g))
    assert a == b
    assert dio.dump_json({"s": "Σ_x"}).strip() == '{\n  "s": "Σ_x"\n}'


def test_samples_csv_bytes_unchanged(setup):
    _, net = setup
    s = sample_observational(net, seed=3, m=50)
    rows = "".join(",".join(str(int(v)) for v in row) + "\n" for row in s.values)
    assert dio.samples_to_csv(s) == "X,Z1,Z2,Y\n" + rows


@pytest.mark.parametrize("values, message", [
    (np.array([[0, 1], [1, -1]]), "negative symbol -1 in column 'B'"),
    (np.array([[0.0, 1.0], [1.0, 0.5]]), "must be integer symbols"),
    (np.zeros((0, 2)), "must be integer symbols"),
])
def test_samples_csv_rejects_batches_no_reader_accepts(values, message):
    with pytest.raises(ScopeMismatch, match=message):
        dio.samples_to_csv(Samples(("A", "B"), values))


def test_samples_csv_accepts_crlf_and_blank_lines():
    s = dio.samples_from_csv("A,B\r\n0,1\r\n\r\n1,0\r\n")
    assert s.names == ("A", "B")
    assert s.values.tolist() == [[0, 1], [1, 0]]
    assert s.values.dtype == np.int64
    assert dio.samples_from_csv("A\n1\n").values.shape == (1, 1)


@pytest.mark.parametrize("text, message", [
    ("A,B\n0,1\n1,0,1\n", "number of columns changed"),
    ("A,B\n0,1,1\n1,0,0\n", "rows have 3 cells, header has 2"),
    ("A,B,C\n0,1\n1,0\n", "rows have 2 cells, header has 3"),
    ("A,B\n", "no data rows"),
    ("A,B\n\n\n", "no data rows"),
    ("", "no header row"),
    ("A,B\n0.7,1\n", "could not convert"),
    ("A,B\n0,x\n", "could not convert"),
    ("a\rb,A\n0,1\n", "sample CSV header: new-line character"),
])
def test_samples_csv_rejects_malformed_files(text, message):
    with pytest.raises(dio.SampleCsvError, match=message):
        dio.samples_from_csv(text)


@pytest.mark.parametrize("text, message", [
    ("A,A\n0,1\n", "names column 'A' twice"),
    ("X,Z1,Z2,Y,X\n0,1,0,1,1\n", "names column 'X' twice"),
    ("A,\n0,1\n", "column 2 has no name"),
    (",B\n0,1\n", "column 1 has no name"),
])
def test_samples_csv_rejects_duplicate_or_empty_names(text, message):
    with pytest.raises(dio.SampleCsvError, match=message):
        dio.samples_from_csv(text)


@pytest.mark.parametrize("name", ["line\nbreak", "carriage\rreturn", "both\r\n"])
def test_samples_csv_writer_rejects_a_name_with_a_line_break(name):
    with pytest.raises(dio.SampleCsvError, match=re.escape(f"column name {name!r} holds")):
        dio.samples_to_csv(Samples((name, "A"), [[0, 1], [1, 0]]))


def test_query_intervening_twice_on_one_variable_fails_by_name():
    with pytest.raises(InvalidQuery, match="intervene names 'X' twice"):
        dio.query_from_dict({"intervene": [{"var": "X", "value": 0}, {"var": "X", "value": 1}]})


def test_learned_object_with_two_factors_for_one_target_fails_by_name(setup):
    g, net = setup
    obj = dio.li_to_dict(fit_from_table(exact_observational(net), g, {"X": 0}))
    obj["factors"].append(dict(next(f for f in obj["factors"] if f["target"] == "Z1")))
    with pytest.raises(ScopeMismatch, match="factors names 'Z1' twice"):
        dio.li_from_dict(obj)


def test_readme_lists_every_file_schema_as_declared():
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    for kind, schema in dio.SCHEMAS.items():
        assert f"- {kind} JSON: `{dio.describe(schema)}`" in readme, kind
