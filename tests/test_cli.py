import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dolearn import io as dio
from dolearn.admg import Admg
from dolearn.cli import main
from dolearn.demo import bow_graph, fig3a_graph
from dolearn.scm import exact_interventional, exact_observational, random_net_for


@pytest.fixture
def workdir(tmp_path):
    g = fig3a_graph()
    net = random_net_for(g, seed=7)
    (tmp_path / "graph.json").write_text(dio.dump_json(dio.admg_to_dict(g)))
    (tmp_path / "net.json").write_text(dio.dump_json(dio.net_to_dict(net)))
    (tmp_path / "query.json").write_text(json.dumps({
        "intervene": [{"var": "X", "value": 0}],
        "targets": ["Z1", "Z2", "Y"],
    }))
    return tmp_path, g, net


def test_identify_success(workdir, capsys):
    tmp, g, net = workdir
    # a query without targets asks for every variable it does not intervene on
    (tmp / "all.json").write_text(json.dumps({"intervene": [{"var": "X", "value": 0}]}))
    outs = []
    for query in ("query.json", "all.json"):
        code = main(["identify", "--graph", str(tmp / "graph.json"),
                     "--query", str(tmp / query)])
        assert code == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    out = json.loads(outs[0])
    assert out["identifiable"] is True
    assert "P[z1|x]" in out["formula"]
    assert out["trace"][0]["step"] == "step4"


def test_identify_hedge_exit_code(tmp_path, capsys):
    bow = bow_graph()
    (tmp_path / "g.json").write_text(dio.dump_json(dio.admg_to_dict(bow)))
    (tmp_path / "q.json").write_text(json.dumps({
        "intervene": [{"var": "X", "value": 1}], "targets": ["Y"],
    }))
    code = main(["identify", "--graph", str(tmp_path / "g.json"),
                 "--query", str(tmp_path / "q.json")])
    assert code == 2
    out = json.loads(capsys.readouterr().out)
    assert out["identifiable"] is False
    assert out["root_set"] == ["Y"]


def test_missing_file_is_input_error(capsys):
    code = main(["identify", "--graph", "/nonexistent/graph.json",
                 "--query", "/nonexistent/query.json"])
    assert code == 4
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "FileNotFound"


@pytest.mark.parametrize("flag, bad", [
    ("--graph", "directory"), ("--samples", "directory"), ("--out", "directory"),
    ("--graph", "latin-1"), ("--samples", "latin-1"),
])
def test_unreadable_or_unwritable_file_fails_by_name(workdir, capsys, flag, bad):
    tmp, g, net = workdir
    assert main(["simulate", "--cbn", str(tmp / "net.json"), "--seed", "3",
                 "--m", "200", "--out", str(tmp / "obs.csv")]) == 0
    capsys.readouterr()
    files = {"--graph": tmp / "graph.json", "--query": tmp / "query.json",
             "--samples": tmp / "obs.csv", "--out": tmp / "li.json"}
    if bad == "directory":
        (tmp / "bad").mkdir()
    else:  # a variable name outside ASCII, in a file that is not UTF-8
        (tmp / "bad").write_bytes(files[flag].read_text().replace("X", "É").encode("latin-1"))
    files[flag] = tmp / "bad"
    argv = ["learn"]
    for option, path in files.items():
        argv += [option, str(path)]
    err = _input_error(capsys, argv)
    assert err["error"] == ("UnwritableFile" if flag == "--out" else "UnreadableFile")
    assert err["message"].startswith(f"{tmp / 'bad'}: ")


def test_invalid_query_is_input_error(workdir, capsys):
    tmp, g, net = workdir
    (tmp / "bad.json").write_text(json.dumps({
        "intervene": [{"var": "X", "value": 0}], "targets": ["X", "Y"],
    }))
    code = main(["identify", "--graph", str(tmp / "graph.json"),
                 "--query", str(tmp / "bad.json")])
    assert code == 4


def test_oracle_tables(workdir, capsys):
    tmp, g, net = workdir
    for name, targets in [("y.json", ["Y"]), ("yz.json", ["Y", "Z1"]), ("q.json", ["Y", "Q"])]:
        (tmp / name).write_text(json.dumps({"intervene": [{"var": "X", "value": 0}],
                                            "targets": targets}))
    oracle = exact_interventional(net, {"X": 0})
    for query, want in [("query.json", oracle), ("y.json", oracle.marginal_to({"Y"})),
                        ("yz.json", oracle.marginal_to(("Z1", "Y")))]:
        code = main(["oracle", "--cbn", str(tmp / "net.json"), "--query", str(tmp / query)])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["vars"] == list(want.names)  # in table order, whatever the file's
        assert np.allclose(out["probs"], want.probs.reshape(-1))
    err = _input_error(capsys, ["oracle", "--cbn", str(tmp / "net.json"),
                                "--query", str(tmp / "q.json")])
    assert err == {"error": "ScopeMismatch", "message": "cannot keep unknown variables ['Q']"}


def test_full_pipeline_roundtrip(workdir, capsys):
    tmp, g, net = workdir
    assert main(["simulate", "--cbn", str(tmp / "net.json"), "--seed", "3",
                 "--m", "20000", "--out", str(tmp / "samples.csv")]) == 0
    assert main(["learn", "--graph", str(tmp / "graph.json"),
                 "--query", str(tmp / "query.json"),
                 "--samples", str(tmp / "samples.csv"),
                 "--out", str(tmp / "li.json")]) == 0
    capsys.readouterr()

    (tmp / "assign.json").write_text(json.dumps({"Z1": 0, "Z2": 1, "Y": 1}))
    assert main(["eval", "--li", str(tmp / "li.json"),
                 "--assign", str(tmp / "assign.json")]) == 0
    out = json.loads(capsys.readouterr().out)
    assert 0.0 <= out["probability"] <= 1.0

    assert main(["sample", "--li", str(tmp / "li.json"), "--seed", "5",
                 "--m", "50", "--out", str(tmp / "gen.csv")]) == 0
    gen = dio.samples_from_csv((tmp / "gen.csv").read_text())
    assert gen.names == ("Z1", "Z2", "Y")
    assert gen.m == 50

    assert main(["verify", "--li", str(tmp / "li.json"),
                 "--cbn", str(tmp / "net.json")]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["tv"] < 0.1
    assert report["m"] == 20000


@pytest.mark.parametrize("point", [
    {"Z1": -1, "Z2": 0, "Y": 1},
    {"Z1": 0, "Z2": 0, "Y": 2},
])
def test_eval_rejects_out_of_range_symbols(workdir, capsys, point):
    tmp, g, net = workdir
    from dolearn.learn import learn_interventional
    from dolearn.scm import sample_observational

    li = learn_interventional(sample_observational(net, seed=3, m=5_000), g, {"X": 0})
    (tmp / "li.json").write_text(dio.dump_json(dio.li_to_dict(li)))
    (tmp / "point.json").write_text(json.dumps(point))
    code = main(["eval", "--li", str(tmp / "li.json"), "--assign", str(tmp / "point.json")])
    assert code == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "ScopeMismatch"


@pytest.mark.parametrize("command", [
    ["eval", "--assign", "point.json"],
    ["sample", "--seed", "1", "--m", "10"],
    ["verify", "--cbn", "net.json"],
])
def test_li_commands_reject_factor_cardinalities_unlike_the_graph(tmp_path, capsys, command):
    from dolearn.admg import Admg
    from dolearn.learn import fit_from_table

    g = Admg.build([("X", 3), ("Y", 2), ("Z", 2)], [("X", "Y"), ("Z", "Y")])
    net = random_net_for(g, seed=3)
    obj = dio.li_to_dict(fit_from_table(exact_observational(net), g, {}))
    next(f for f in obj["factors"] if f["target"] == "Y")["cond_cardinalities"] = [2, 3]
    (tmp_path / "li.json").write_text(dio.dump_json(obj))
    (tmp_path / "net.json").write_text(dio.dump_json(dio.net_to_dict(net)))
    (tmp_path / "point.json").write_text(json.dumps({"X": 1, "Z": 1, "Y": 1}))
    argv = [command[0], "--li", str(tmp_path / "li.json")]
    argv += [str(tmp_path / a) if a.endswith(".json") else a for a in command[1:]]
    assert main(argv) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "ScopeMismatch"


@pytest.mark.parametrize("drop_from", ["order", "factors"])
def test_eval_rejects_order_unlike_factors(workdir, capsys, drop_from):
    from dolearn.learn import fit_from_table

    tmp, g, net = workdir
    obj = dio.li_to_dict(fit_from_table(exact_observational(net), g, {"X": 0}))
    if drop_from == "order":  # a factor whose target is not in the order
        obj["order"].remove("Z2")
    else:  # an order entry without a factor
        obj["factors"] = [f for f in obj["factors"] if f["target"] != "Z2"]
    (tmp / "li.json").write_text(dio.dump_json(obj))
    (tmp / "point.json").write_text(json.dumps({"Z1": 0, "Z2": 0, "Y": 0}))
    code = main(["eval", "--li", str(tmp / "li.json"), "--assign", str(tmp / "point.json")])
    assert code == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "ScopeMismatch"
    assert "'Z2'" in err["message"]


@pytest.mark.parametrize("row", [[1.5, -0.5], [float("nan")] * 2])
def test_eval_rejects_negative_or_nan_probabilities(workdir, capsys, row):
    from dolearn.learn import fit_from_table

    tmp, g, net = workdir
    obj = dio.li_to_dict(fit_from_table(exact_observational(net), g, {"X": 0}))
    factor = next(f for f in obj["factors"] if f["target"] == "Z1")
    factor["probs"] = [row] * len(factor["probs"])
    (tmp / "li.json").write_text(json.dumps(obj))  # writes NaN as JSON's NaN
    (tmp / "point.json").write_text(json.dumps({"Z1": 0, "Z2": 0, "Y": 0}))
    code = main(["eval", "--li", str(tmp / "li.json"), "--assign", str(tmp / "point.json")])
    assert code == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "ValueError"
    assert err["message"].startswith("Z1: negative or NaN")


def test_simulate_rejects_nan_cpt(workdir, capsys):
    tmp, g, net = workdir
    obj = dio.net_to_dict(net)
    node = next(nd for nd in obj["nodes"] if nd["name"] == "Y")
    node["cpt"] = np.full(np.shape(node["cpt"]), np.nan).tolist()
    (tmp / "nan.json").write_text(json.dumps(obj))
    code = main(["simulate", "--cbn", str(tmp / "nan.json"), "--seed", "1", "--m", "10"])
    assert code == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "NetError"
    assert "Y: negative or NaN cpt entry" in err["message"]


def test_learn_self_generate_requires_seed(workdir, capsys):
    tmp, g, net = workdir
    learn = ["learn", "--graph", str(tmp / "graph.json"), "--query", str(tmp / "query.json")]
    for source, error in [(["--cbn", str(tmp / "net.json"), "--m", "1000"], "MissingSeed"),
                          ([], "MissingInput")]:  # neither --samples nor --cbn
        assert main(learn + source) == 4
        assert json.loads(capsys.readouterr().err)["error"] == error


def test_learn_self_generate_requires_sample_size(workdir, capsys):
    # the recommended size on fig3a is trillions of rows: it is reported, not drawn
    from dolearn.learn import recommended_sample_size

    tmp, g, net = workdir
    code = main(["learn", "--graph", str(tmp / "graph.json"),
                 "--query", str(tmp / "query.json"),
                 "--cbn", str(tmp / "net.json"), "--seed", "1"])
    assert code == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    recommended, _ = recommended_sample_size(g, g.indices({"X"}), 0.1, 0.1, 0.05)
    assert err["error"] == "MissingSampleSize"
    assert err["recommended_m"] == recommended > 10**12
    assert str(recommended) in err["message"] and "--m" in err["message"]


@pytest.mark.parametrize("epsilon", ["-1", "0", "2"])
def test_learn_rejects_out_of_range_epsilon(workdir, capsys, epsilon):
    tmp, g, net = workdir
    code = main(["learn", "--graph", str(tmp / "graph.json"),
                 "--query", str(tmp / "query.json"),
                 "--cbn", str(tmp / "net.json"), "--seed", "1", "--m", "1000",
                 "--epsilon", epsilon, "--out", str(tmp / "li.json")])
    assert code == 4
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"
    assert "epsilon" in err["message"]
    assert not (tmp / "li.json").exists()


@pytest.mark.parametrize("command", ["simulate", "sample"])
@pytest.mark.parametrize("flag, value", [("--m", "-3"), ("--seed", "-1")])
def test_negative_sample_size_or_seed_fails_by_name(workdir, capsys, command, flag, value):
    from dolearn.learn import fit_from_table

    tmp, g, net = workdir
    li = fit_from_table(exact_observational(net), g, {"X": 0})
    (tmp / "li.json").write_text(dio.dump_json(dio.li_to_dict(li)))
    source = ["--cbn", str(tmp / "net.json")] if command == "simulate" else [
        "--li", str(tmp / "li.json")]
    argv = [command, *source, "--seed", "3", "--m", "10"]
    argv[argv.index(flag) + 1] = value
    assert main(argv) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "ValueError"
    assert err["message"].startswith(("sample size m" if flag == "--m" else "seed") + " must")


def test_learn_positivity_exit_code(workdir, capsys):
    tmp, g, net = workdir
    code = main(["learn", "--graph", str(tmp / "graph.json"),
                 "--query", str(tmp / "query.json"),
                 "--cbn", str(tmp / "net.json"), "--seed", "1", "--m", "2"])
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "PositivityViolation"


def test_learn_rejects_non_default_targets(workdir, capsys):
    tmp, g, net = workdir
    (tmp / "q_y.json").write_text(json.dumps({
        "intervene": [{"var": "X", "value": 0}], "targets": ["Y"],
    }))
    code = main(["learn", "--graph", str(tmp / "graph.json"),
                 "--query", str(tmp / "q_y.json"),
                 "--cbn", str(tmp / "net.json"), "--seed", "1", "--m", "2000"])
    assert code == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "InvalidQuery"


def test_learn_non_identifiable_fragment_beats_positivity(tmp_path, capsys):
    # at 50 rows the fragment's step-5c rebase meets empty conditioning
    # events, but the fragment is not identifiable: exit 2, not exit 3
    from .test_learn import six_ternary_hedge_graph

    g = six_ternary_hedge_graph()
    (tmp_path / "g.json").write_text(dio.dump_json(dio.admg_to_dict(g)))
    (tmp_path / "net.json").write_text(dio.dump_json(dio.net_to_dict(random_net_for(g, 1053))))
    (tmp_path / "q.json").write_text(json.dumps({
        "intervene": [{"var": "V0", "value": 1}, {"var": "V1", "value": 0}],
    }))
    code = main(["learn", "--graph", str(tmp_path / "g.json"),
                 "--query", str(tmp_path / "q.json"),
                 "--cbn", str(tmp_path / "net.json"), "--seed", "60", "--m", "50"])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["root_set"] == ["V3", "V5"]
    assert err["trace"][-1]["step"] == "step5a"


def test_learn_not_identifiable_exit_code(tmp_path, capsys):
    bow = bow_graph()
    net = random_net_for(bow, seed=2)
    (tmp_path / "g.json").write_text(dio.dump_json(dio.admg_to_dict(bow)))
    (tmp_path / "net.json").write_text(dio.dump_json(dio.net_to_dict(net)))
    (tmp_path / "q.json").write_text(json.dumps({
        "intervene": [{"var": "X", "value": 0}], "targets": ["Y"],
    }))
    code = main(["learn", "--graph", str(tmp_path / "g.json"),
                 "--query", str(tmp_path / "q.json"),
                 "--cbn", str(tmp_path / "net.json"), "--seed", "1", "--m", "100"])
    assert code == 2


def test_simulate_deterministic(workdir, capsys):
    tmp, g, net = workdir
    main(["simulate", "--cbn", str(tmp / "net.json"), "--seed", "9", "--m", "100",
          "--out", str(tmp / "a.csv")])
    main(["simulate", "--cbn", str(tmp / "net.json"), "--seed", "9", "--m", "100",
          "--out", str(tmp / "b.csv")])
    assert (tmp / "a.csv").read_text() == (tmp / "b.csv").read_text()


def test_demo_example1(capsys):
    code = main(["demo", "example1", "--seed", "7", "--m", "20000"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["symbolic_vs_oracle_tv"] <= 1e-9
    assert out["learned_vs_oracle_tv"] < 0.1
    assert "P[z1|x]" in out["formula"]


def test_demo_example2(capsys):
    code = main(["demo", "example2", "--seed", "11", "--m", "20000"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["query"] == {"intervene": {"W": 0, "R": 0, "X": 1}, "targets": ["Y"]}
    assert out["trace"] == ["step5c", "step2", "step5b"]
    assert out["symbolic_vs_oracle_tv"] <= 1e-9
    assert out["learned_vs_oracle_tv"] < 0.1
    assert out["formula"].startswith("(Σ_w P[w]P[x|w,r]P[y|w,r,x])/(")


def test_oracle_without_a_query_prints_the_observational_table(workdir, capsys):
    tmp, g, net = workdir
    assert main(["oracle", "--cbn", str(tmp / "net.json")]) == 0
    out = json.loads(capsys.readouterr().out)
    obs = exact_observational(net)
    assert out["vars"] == list(obs.names)
    assert np.allclose(out["probs"], obs.probs.reshape(-1))


def test_demo_bow(capsys):
    assert main(["demo", "bow"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["identifiable"] is False
    assert out["query"] == {"intervene": {"X": 1}, "targets": ["Y"]}
    assert out["observational_tv"] <= 1e-9
    assert out["interventional_tv"] >= 1e-3


def test_float_rendering_17_digits(tmp_path):
    text = dio.dump_json({"p": 1 / 3})
    assert "0.33333333333333331" in text


@pytest.mark.parametrize("corrupt, error", [
    (lambda rows: rows[:-1] + [rows[-1][:-1] + "2"], "ScopeMismatch"),
    (lambda rows: rows[:-1] + [rows[-1][:-1] + "-1"], "ScopeMismatch"),
    (lambda rows: rows[:-1] + [rows[-1][:-1] + "0.7"], "SampleCsvError"),
    (lambda rows: rows[:-1] + [rows[-1] + ",1"], "SampleCsvError"),
    (lambda rows: rows[:1], "SampleCsvError"),
])
def test_learn_rejects_bad_sample_csv(workdir, capsys, corrupt, error):
    tmp, g, net = workdir
    assert main(["simulate", "--cbn", str(tmp / "net.json"), "--seed", "3",
                 "--m", "2000", "--out", str(tmp / "samples.csv")]) == 0
    rows = (tmp / "samples.csv").read_text().splitlines()
    (tmp / "bad.csv").write_text("\n".join(corrupt(rows)) + "\n")
    capsys.readouterr()
    code = main(["learn", "--graph", str(tmp / "graph.json"),
                 "--query", str(tmp / "query.json"),
                 "--samples", str(tmp / "bad.csv")])
    assert code == 4
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == error


NON_INTEGERS = [1.5, 1.0, True, "1"]


def _input_error(capsys, argv):
    """Run the CLI and return the JSON error of an exit-4 failure."""
    assert main(argv) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    return json.loads(captured.err)


@pytest.mark.parametrize("value", NON_INTEGERS)
def test_learn_rejects_non_integer_query_value(workdir, capsys, value):
    tmp, g, net = workdir
    (tmp / "q.json").write_text(json.dumps({"intervene": [{"var": "X", "value": value}]}))
    err = _input_error(capsys, ["learn", "--graph", str(tmp / "graph.json"),
                                "--query", str(tmp / "q.json"),
                                "--cbn", str(tmp / "net.json"), "--seed", "1", "--m", "2000"])
    assert err["error"] == "QueryError"
    assert "value of 'X' must be an integer" in err["message"]


@pytest.mark.parametrize("value", [2.7, 2.0, True, "2"])
def test_identify_rejects_non_integer_graph_cardinality(workdir, capsys, value):
    tmp, g, net = workdir
    obj = dio.admg_to_dict(g)
    obj["vars"][0]["cardinality"] = value
    (tmp / "g.json").write_text(json.dumps(obj))
    err = _input_error(capsys, ["identify", "--graph", str(tmp / "g.json"),
                                "--query", str(tmp / "query.json")])
    assert err["error"] == "GraphError"
    assert f"cardinality of {obj['vars'][0]['name']!r} must be an integer" in err["message"]


@pytest.fixture
def li_file(workdir):
    from dolearn.learn import fit_from_table

    tmp, g, net = workdir
    obj = dio.li_to_dict(fit_from_table(exact_observational(net), g, {"X": 0}))
    (tmp / "point.json").write_text(json.dumps({"Z1": 0, "Z2": 0, "Y": 0}))
    return tmp, obj


@pytest.mark.parametrize("value", [0.9, 0.0, False, "0"])
def test_eval_rejects_non_integer_assignment(li_file, capsys, value):
    tmp, obj = li_file
    (tmp / "li.json").write_text(json.dumps(obj))
    (tmp / "point.json").write_text(json.dumps({"Z1": value, "Z2": 0, "Y": 0}))
    err = _input_error(capsys, ["eval", "--li", str(tmp / "li.json"),
                                "--assign", str(tmp / "point.json")])
    assert err["error"] == "ScopeMismatch"
    assert "value of 'Z1' must be an integer" in err["message"]


@pytest.mark.parametrize("value", NON_INTEGERS)
def test_eval_rejects_non_integer_learned_intervention(li_file, capsys, value):
    tmp, obj = li_file
    obj["intervention"] = {"X": value}
    (tmp / "li.json").write_text(json.dumps(obj))
    err = _input_error(capsys, ["eval", "--li", str(tmp / "li.json"),
                                "--assign", str(tmp / "point.json")])
    assert err["error"] == "InvalidQuery"
    assert "intervention value of 'X' must be an integer" in err["message"]


@pytest.mark.parametrize("edit, message", [
    (lambda o: o["factors"].__setitem__(0, "Z1"),
     "entry 0 of factors must be a JSON object, got str"),
    (lambda o: o["factors"].__setitem__(0, None),
     "entry 0 of factors must be a JSON object, got NoneType"),
    (lambda o: o.update(factors={"Z1": {}}), "factors must be a JSON array, got dict"),
    (lambda o: o.update(factors="Z1"), "factors must be a JSON array, got str"),
])
def test_eval_rejects_a_factor_that_is_not_an_object(li_file, capsys, edit, message):
    tmp, obj = li_file
    edit(obj)
    (tmp / "li.json").write_text(json.dumps(obj))
    err = _input_error(capsys, ["eval", "--li", str(tmp / "li.json"),
                                "--assign", str(tmp / "point.json")])
    assert err["error"] == "ScopeMismatch"
    assert message in err["message"]


@pytest.mark.parametrize("field", ["target_cardinality", "cond_cardinalities"])
@pytest.mark.parametrize("value", [2.7, 2.0, True, "2"])
def test_eval_rejects_non_integer_factor_cardinality(li_file, capsys, field, value):
    tmp, obj = li_file
    factor = next(f for f in obj["factors"] if f["target"] == "Y")
    assert factor["cond_cardinalities"]
    factor[field] = value if field == "target_cardinality" else [value] * len(factor[field])
    (tmp / "li.json").write_text(json.dumps(obj))
    err = _input_error(capsys, ["eval", "--li", str(tmp / "li.json"),
                                "--assign", str(tmp / "point.json")])
    assert err["error"] == "GraphError"
    assert f"{field} of 'Y'" in err["message"] and "must be an integer" in err["message"]


@pytest.mark.parametrize("value", [[0, 0, 0], 3, None, "x"])
@pytest.mark.parametrize("command, bad, error", [
    (["eval", "--li", "li.json", "--assign", "point.json"], "point.json", "ScopeMismatch"),
    (["eval", "--li", "li.json", "--assign", "point.json"], "li.json", "ScopeMismatch"),
    (["sample", "--li", "li.json", "--seed", "1", "--m", "10"], "li.json", "ScopeMismatch"),
    (["verify", "--li", "li.json", "--cbn", "net.json"], "li.json", "ScopeMismatch"),
    (["identify", "--graph", "graph.json", "--query", "query.json"], "query.json",
     "QueryError"),
    (["learn", "--graph", "graph.json", "--query", "query.json", "--cbn", "net.json",
      "--seed", "1", "--m", "100"], "query.json", "QueryError"),
    (["simulate", "--cbn", "net.json", "--seed", "1", "--m", "10"], "net.json", "NetError"),
    (["verify", "--li", "li.json", "--cbn", "net.json"], "net.json", "NetError"),
    (["identify", "--graph", "graph.json", "--query", "query.json"], "graph.json",
     "GraphError"),
])
def test_json_file_that_is_not_an_object_fails_by_name(li_file, capsys, command, bad, error,
                                                       value):
    tmp, obj = li_file
    (tmp / "li.json").write_text(json.dumps(obj))
    (tmp / bad).write_text(json.dumps(value))
    err = _input_error(capsys, [str(tmp / a) if a.endswith(".json") else a for a in command])
    assert err["error"] == error
    assert f"must be a JSON object, got {type(value).__name__}" in err["message"]


def _learn_from(tmp, capsys, name, text):
    (tmp / name).write_text(text)
    code = main(["learn", "--graph", str(tmp / "graph.json"),
                 "--query", str(tmp / "query.json"), "--samples", str(tmp / name)])
    return code, capsys.readouterr()


def test_learn_ignores_sample_columns_the_graph_does_not_name(workdir, capsys):
    tmp, g, net = workdir
    assert main(["simulate", "--cbn", str(tmp / "net.json"), "--seed", "3",
                 "--m", "2000", "--out", str(tmp / "samples.csv")]) == 0
    capsys.readouterr()
    rows = (tmp / "samples.csv").read_text().splitlines()
    extra = np.random.default_rng(0).integers(0, 12, size=len(rows) - 1)
    wide = ["X,W," + rows[0].partition(",")[2]] + [
        f"{r.partition(',')[0]},{w},{r.partition(',')[2]}" for r, w in zip(rows[1:], extra)]
    code, plain = _learn_from(tmp, capsys, "samples.csv", "\n".join(rows) + "\n")
    assert code == 0
    code, widened = _learn_from(tmp, capsys, "wide.csv", "\n".join(wide) + "\n")
    assert code == 0
    assert widened.out == plain.out


def test_learn_rejects_a_sample_column_named_twice(workdir, capsys):
    tmp, g, net = workdir
    assert main(["simulate", "--cbn", str(tmp / "net.json"), "--seed", "3",
                 "--m", "200", "--out", str(tmp / "samples.csv")]) == 0
    capsys.readouterr()
    rows = (tmp / "samples.csv").read_text().splitlines()
    assert rows[0] == "X,Z1,Z2,Y"
    twice = ["X,Z1,Z2,Y,X"] + [r + "," + str(1 - int(r[0])) for r in rows[1:]]
    code, captured = _learn_from(tmp, capsys, "twice.csv", "\n".join(twice) + "\n")
    assert code == 4
    err = json.loads(captured.err)
    assert err["error"] == "SampleCsvError"
    assert "'X' twice" in err["message"]



def _factor(obj, target):
    return next(f for f in obj["factors"] if f["target"] == target)


ARRAY = "must be a JSON array of names"
STRING = "must be a JSON string"
NAME_CASES = {  # file, edit in place, error the CLI reports, part of its message
    "directed edge as a string": (
        "graph", lambda o: o.update(directed=["XY"]), "GraphError", ARRAY),
    "bidirected edge as a string": (
        "graph", lambda o: o.update(bidirected=["XZ"]), "GraphError", ARRAY),
    "edge naming three variables": (
        "graph", lambda o: o.update(directed=[["X", "Y", "Z"]]), "GraphError",
        "must name exactly two variables"),
    "variable name not a string": (
        "graph", lambda o: o["vars"].append({"name": 1}), "GraphError", STRING),
    "targets as a string": (
        "query", lambda o: o.update(targets="YZ"), "QueryError", ARRAY),
    "intervened variable not a string": (
        "query", lambda o: o["intervene"][0].update(var=1), "QueryError", STRING),
    "parents as a string": (
        "net", lambda o: o["nodes"][1].update(parents="X"), "NetError", ARRAY),
    "order as a string": ("li", lambda o: o.update(order="YZ"), "ScopeMismatch", ARRAY),
    "conditioning variables as a string": (
        "li", lambda o: _factor(o, "Z").update(cond="Y"), "ScopeMismatch", ARRAY),
    "target as an array": (
        "li", lambda o: _factor(o, "Y").update(target=["Y"]), "ScopeMismatch", STRING),
    "intervened variable named twice": (
        "query", lambda o: o["intervene"].append({"var": "X", "value": 1}), "QueryError",
        "intervene names 'X' twice"),
    "two factors for one target": (
        "li", lambda o: o["factors"].append(dict(_factor(o, "Z"))), "ScopeMismatch",
        "factors names 'Z' twice"),
    # each value below once escaped as a TypeError or was silently read as another
    "bidirected edges as an object": (
        "graph", lambda o: o.update(bidirected={}), "GraphError",
        "bidirected must be a JSON array, got dict"),
    "node not an object": (
        "net", lambda o: o["nodes"].__setitem__(1, float("nan")), "NetError",
        "entry 1 of nodes must be a JSON object, got float"),
    "cpt as an object": (
        "net", lambda o: o["nodes"][1].update(cpt={}), "NetError",
        "cpt of 'Y' must be nested JSON arrays of numbers of one shape, got dict"),
    "hidden as the string false": (
        "net", lambda o: o["nodes"][0].update(hidden="false"), "NetError",
        "hidden of 'X' must be a JSON boolean, got str"),
    "hidden as null": (
        "net", lambda o: o["nodes"][0].update(hidden=None), "NetError",
        "hidden of 'X' must be a JSON boolean, got NoneType"),
    "hidden as an array": (
        "net", lambda o: o["nodes"][0].update(hidden=["X"]), "NetError",
        "hidden of 'X' must be a JSON boolean, got list"),
    "conditioning cardinalities not an array": (
        "li", lambda o: _factor(o, "Z").update(cond_cardinalities=3), "GraphError",
        "cond_cardinalities of 'Z' must be a JSON array, got int"),
    "object in probs": (
        "li", lambda o: _factor(o, "Z")["probs"][0].__setitem__(1, {}), "ScopeMismatch",
        "probs of 'Z' must be nested JSON arrays of numbers"),
    "object in counts": (
        "li", lambda o: _factor(o, "Z").update(counts=[[1.0, {}], [1.0, 1.0]]), "ScopeMismatch",
        "counts of 'Z' must be nested JSON arrays of numbers"),
    "null in counts": (
        "li", lambda o: _factor(o, "Z").update(counts=[[1.0, None], [1.0, 1.0]]),
        "ScopeMismatch", "counts of 'Z' must be nested JSON arrays of numbers"),
    "true in counts": (
        "li", lambda o: _factor(o, "Z").update(counts=[[1.0, True], [1.0, 1.0]]),
        "ScopeMismatch", "counts of 'Z' must be nested JSON arrays of numbers"),
    # each count file below once loaded, evaluated and was written back unchecked
    "counts of another shape": (
        "li", lambda o: _factor(o, "Z").update(counts=[[-5, 1e9, 3]]), "ScopeMismatch",
        "Z: counts must be 2 rows of 2 non-negative numbers"),
    "negative count": (
        "li", lambda o: _factor(o, "Z").update(counts=[[1.0, -1.0], [1.0, 1.0]]),
        "ScopeMismatch", "Z: counts must be 2 rows of 2 non-negative numbers"),
    "NaN count": (
        "li", lambda o: _factor(o, "Z").update(counts=[[1.0, float("nan")], [1.0, 1.0]]),
        "ScopeMismatch", "Z: counts must be 2 rows of 2 non-negative numbers"),
    "kind not a string": (
        "li", lambda o: _factor(o, "Z").update(kind=1), "ScopeMismatch",
        "kind of 'Z' must be one of \"add1\", \"exact\" and \"fragment\", got int"),
    "kind not a known former": (
        "li", lambda o: _factor(o, "Z").update(kind="add2"), "ScopeMismatch",
        "kind of 'Z' must be one of \"add1\", \"exact\" and \"fragment\", got str"),
    "fixed context not an object": (
        "li", lambda o: _factor(o, "Z").update(fixed_context=[1]), "InvalidQuery",
        "fixed_context of 'Z' must be a JSON object, got list"),
    "intervention not an object": (
        "li", lambda o: o.update(intervention=[1]), "InvalidQuery",
        "intervention must be a JSON object, got list"),
    "metadata not an object": (
        "li", lambda o: o.update(metadata=[1]), "ScopeMismatch",
        "metadata must be a JSON object, got list"),
}


@pytest.mark.parametrize("case", NAME_CASES)
def test_json_names_must_be_arrays_of_strings(tmp_path, capsys, case):
    from dolearn.learn import fit_from_table

    file, edit, error, message = NAME_CASES[case]
    g = Admg.build(["X", "Y", "Z"], [("X", "Y"), ("Y", "Z")])
    net = random_net_for(g, seed=2)
    objs = {
        "graph": dio.admg_to_dict(g),
        "query": {"intervene": [{"var": "X", "value": 0}], "targets": ["Y", "Z"]},
        "net": dio.net_to_dict(net),
        "li": dio.li_to_dict(fit_from_table(exact_observational(net), g, {"X": 0})),
        "point": {"Y": 0, "Z": 0},
    }
    assert _factor(objs["li"], "Z")["cond"] == ["Y"]
    edit(objs[file])
    for name, obj in objs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(obj))
    argv = {
        "graph": ["identify", "--graph", "graph", "--query", "query"],
        "query": ["identify", "--graph", "graph", "--query", "query"],
        "net": ["simulate", "--cbn", "net", "--seed", "1", "--m", "10"],
        "li": ["eval", "--li", "li", "--assign", "point"],
    }[file]
    err = _input_error(capsys, [str(tmp_path / f"{a}.json") if a in objs else a
                                for a in argv])
    assert err["error"] == error
    assert message in err["message"]


# -- the fuzz gate: a corrupted input file of any kind fails by name ------------------


MISSING = object()  # a mutation that deletes the key or array element
JUNK = [MISSING, None, True, False, 0, -1, 2, 1.5, 1e308, float("nan"), "", "X", "false",
        [], [1], ["X"], [[0.5, 0.5]], {}, {"X": 1}]
CELLS = ["", "x", "-1", "1.5", "2", "99", " 1", "X", "a,b", '"', "\r"]
FUZZ_COMMANDS = {  # file kind, its golden file, the commands that read it
    "graph": ("graph.json", [["identify", "--graph", "graph.json", "--query", "query.json"],
                             ["learn", "--graph", "graph.json", "--query", "query.json",
                              "--samples", "obs.csv"]]),
    "query": ("query.json", [["learn", "--graph", "graph.json", "--query", "query.json",
                              "--samples", "obs.csv"],
                             ["oracle", "--cbn", "net.json", "--query", "query.json"]]),
    "net": ("net.json", [["simulate", "--cbn", "net.json", "--seed", "1", "--m", "10"],
                         ["verify", "--li", "li.json", "--cbn", "net.json"]]),
    "li": ("li.json", [["eval", "--li", "li.json", "--assign", "point.json"],
                       ["sample", "--li", "li.json", "--seed", "1", "--m", "10"],
                       ["verify", "--li", "li.json", "--cbn", "net.json"]]),
    "assignment": ("point.json", [["eval", "--li", "li.json", "--assign", "point.json"]]),
    "samples": ("obs.csv", [["learn", "--graph", "graph.json", "--query", "query.json",
                             "--samples", "obs.csv"]]),
}


@pytest.fixture(scope="module")
def golden(tmp_path_factory):
    """Valid files of every kind on fig3a, as bytes by file name."""
    from dolearn.learn import learn_interventional
    from dolearn.scm import sample_observational

    g = fig3a_graph()
    net = random_net_for(g, seed=7)
    li = learn_interventional(sample_observational(net, seed=3, m=2_000), g, {"X": 0})
    files = {
        "graph.json": dio.dump_json(dio.admg_to_dict(g)),
        "query.json": json.dumps({"intervene": [{"var": "X", "value": 0}],
                                  "targets": ["Z1", "Z2", "Y"]}),
        "net.json": dio.dump_json(dio.net_to_dict(net)),
        "li.json": dio.dump_json(dio.li_to_dict(li)),
        "point.json": json.dumps({"Z1": 0, "Z2": 1, "Y": 1}),
        "obs.csv": dio.samples_to_csv(sample_observational(net, seed=4, m=300)),
    }
    return tmp_path_factory.mktemp("golden"), {k: v.encode() for k, v in files.items()}


def _locations(value, at=()):
    """The path of every value inside a parsed JSON value, its own included."""
    yield at
    items = (value.items() if isinstance(value, dict) else
             enumerate(value) if isinstance(value, list) else ())
    for key, inner in items:
        yield from _locations(inner, (*at, key))


def _replaced(value, at, new):
    if not at:
        return new
    out = value.copy()
    if at[1:] or new is not MISSING:
        out[at[0]] = _replaced(value[at[0]], at[1:], new)
    else:
        del out[at[0]]
    return out


@st.composite
def corrupted(draw, data: bytes, csv: bool):
    """``data`` with one or two values swapped for junk, or cut short, or
    holding a byte that is not UTF-8."""
    how = draw(st.sampled_from(["values", "values", "values", "cut", "byte"]))
    if how != "values":
        at = draw(st.integers(0, len(data)))
        return data[:at] + (b"\xff" + data[at:] if how == "byte" else b"")
    if csv:
        rows = [r.split(",") for r in data.decode().split("\n")]
        for _ in range(draw(st.integers(1, 2))):
            row = draw(st.integers(0, len(rows) - 1))
            col = draw(st.integers(0, len(rows[row]) - 1))
            rows[row][col] = draw(st.sampled_from(CELLS))
        return "\n".join(",".join(r) for r in rows).encode()
    value = json.loads(data)
    for _ in range(draw(st.integers(1, 2))):
        at = draw(st.sampled_from(list(_locations(value))))
        value = _replaced(value, at, draw(st.sampled_from(JUNK)))
    return b"null" if value is MISSING else json.dumps(value).encode()


@pytest.mark.parametrize("kind", FUZZ_COMMANDS)
def test_every_corrupted_file_fails_by_name(golden, kind):
    """Each command that reads a corrupted file exits 0, 2, 3 or 4; any
    exit but 0 writes a JSON object on stderr, and nothing escapes."""
    root, files = golden
    name, commands = FUZZ_COMMANDS[kind]

    @settings(max_examples=500, derandomize=True, deadline=None, database=None)
    @given(corrupted(files[name], name.endswith(".csv")))
    def run(data):
        for file, golden_bytes in files.items():
            (root / file).write_bytes(data if file == name else golden_bytes)
        for command in commands:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([str(root / a) if a in files else a for a in command])
            assert code in (0, 2, 3, 4), (command, code, err.getvalue())
            if code:
                assert isinstance(json.loads(err.getvalue()), dict), (command, err.getvalue())

    run()
