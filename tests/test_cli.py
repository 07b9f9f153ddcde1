import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from k3lat import elliptic, finite_geometry
from k3lat.cli import build_parser, run
from k3lat.data import data_dir


MP108 = str(data_dir() / "mp108.json")
MP108_RELATION = str(data_dir() / "mp108_relation.json")
MP9 = str(data_dir() / "mp9.json")


def mp9_relation_with_p(p):
    """The bundled mp9 relation as JSON text, with its ``p`` replaced."""
    return json.dumps({**json.loads((data_dir() / "mp9_relation.json").read_text()), "p": p})


def mp108_edited(edit):
    """The bundled mp108 spec as JSON text, after ``edit`` has changed a copy of it."""
    spec = json.loads(Path(MP108).read_text())
    edit(spec)
    return json.dumps(spec)


def set_dots(p1, p2):
    """An edit that sets the ``dots`` of the two torsion sections P1 and P2 of mp108."""
    def edit(spec):
        spec["sections"][0]["dots"], spec["sections"][1]["dots"] = p1, p2
    return edit


def run_capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_lemma13(capsys):
    code, out, _ = run_capture(capsys, ["--json", "lemma13"])
    assert code == 0
    payload = json.loads(out)
    assert payload == [
        {"p": 2, "c": 8, "cover": "K3"},
        {"p": 2, "c": 16, "cover": "abelian"},
        {"p": 3, "c": 6, "cover": "K3"},
        {"p": 3, "c": 9, "cover": "abelian"},
        {"p": 5, "c": 4, "cover": "K3"},
        {"p": 7, "c": 3, "cover": "K3"},
    ]


@pytest.mark.parametrize(
    "name", ["kummer_chain_span", "ag23_chain_span", "double_iv_star_formal_gram"]
)
def test_lattice_snf_transforms_are_pinned(capsys, name):
    """`lattice snf --json` prints the pinned D, P and Q of three model matrices."""
    pin = json.loads((Path(__file__).parent / "data" / "snf_pins.json").read_text())[name]
    models = {"kummer_chain_span": finite_geometry.kummer_lattice,
              "ag23_chain_span": finite_geometry.ag23_lattice}
    if name in models:
        cfg = models[name]()[1]
        matrix = [list(v[: cfg.ambient.rank]) for chain in cfg.chains for v in chain]
    else:
        spec = elliptic.parse_fibration(json.loads((data_dir() / "double_iv_star.json").read_text()))
        matrix = [list(row) for row in elliptic.formal_gram(spec)[1]]
    assert matrix == pin["matrix"]
    code, out, _ = run_capture(capsys, ["--json", "lattice", "snf", "--matrix", json.dumps(matrix)])
    assert code == 0
    got = json.loads(out)
    assert (got["D"], got["P"], got["Q"]) == (pin["D"], pin["P"], pin["Q"])


def test_cli_answers_are_pinned(capsys):
    """Exit code and stdout of every subcommand and operation, text and --json, against
    `tests/data/cli_pins.json`; an argument `data:NAME` is the bundled file NAME."""
    pins = json.loads((Path(__file__).parent / "data" / "cli_pins.json").read_text())
    for pin in pins:
        argv = [str(data_dir() / a[5:]) if a.startswith("data:") else a for a in pin["argv"]]
        code, out, _ = run_capture(capsys, argv)
        assert (code, out) == (pin["code"], pin["stdout"]), pin["argv"]


def test_lattice_snf_and_disc(capsys):
    code, out, _ = run_capture(capsys, ["--json", "lattice", "snf", "--matrix", "[[2,0],[0,3]]"])
    assert code == 0
    assert json.loads(out)["diagonal"] == [1, 6]
    code, out, _ = run_capture(capsys, ["--json", "lattice", "disc", "--lattice", '"A4"'])
    assert code == 0
    assert json.loads(out)["invariants"] == [5]


def test_lattice_closure(capsys):
    code, out, _ = run_capture(
        capsys,
        ["--json", "lattice", "closure", "--lattice", '{"gram": [[1,0],[0,1]]}',
         "--basis", "[[2,0]]"],
    )
    assert code == 0
    assert json.loads(out)["glue"] == [2]


def test_group_normal_count_c_style_name(capsys):
    code, out, _ = run_capture(
        capsys, ["--json", "groups", "normal-count", "--group", "C2^4", "--index", "2"]
    )
    assert code == 0
    assert json.loads(out)["count"] == 15


def test_group_build_inline_presentation(capsys):
    code, out, _ = run_capture(
        capsys,
        ["--json", "groups", "build", "--presentation",
         '{"gens": ["a", "b", "c"], "rels": ["a4", "b2", "c2", "abAB", "acBA3C", "bcBC"]}'],
    )
    assert code == 0
    assert json.loads(out)["order"] == 16


def test_group_iso_exit_codes(capsys):
    code, _, _ = run_capture(capsys, ["groups", "iso", "--group", "D8", "--other", "C2^3"])
    assert code == 1
    code, _, _ = run_capture(
        capsys, ["groups", "iso", "--group", "Gamma2c1", "--other", "(Z/4xZ/2):Z/2"]
    )
    assert code == 0


def test_fibration_relation_bundled(capsys):
    base = data_dir()
    code, out, _ = run_capture(
        capsys,
        ["--json", "fibration", "relation", "--spec", str(base / "mp108.json"),
         "--relation", str(base / "mp108_relation.json")],
    )
    assert code == 0
    assert json.loads(out)["verified"] is True


def test_fibration_height(capsys):
    base = data_dir()
    code, out, _ = run_capture(
        capsys,
        ["--json", "fibration", "height", "--spec", str(base / "mp9.json"), "--section", "P1"],
    )
    assert code == 0
    assert json.loads(out)["height"] == 0


def test_a_non_integral_fraction_prints_as_p_over_q(capsys):
    """P1 moved to component G1 of the I2 fibre G takes its local correction 1/2,
    so its height falls from 0 to -1/2."""
    spec = mp108_edited(lambda s: s["sections"][0]["meets"].update(G="G1"))
    code, out, _ = run_capture(capsys, ["--json", "fibration", "height", "--spec", spec,
                                        "--section", "P1"])
    assert code == 0
    assert out == '{\n "section": "P1",\n "height": "-1/2"\n}\n'


def test_fibration_relation_false_exits_1(capsys):
    base = data_dir()
    rel = json.loads((base / "mp108_relation.json").read_text())
    rel["lhs"]["A1"] += 1
    code, out, _ = run_capture(
        capsys,
        ["--json", "fibration", "relation", "--spec", str(base / "mp108.json"),
         "--relation", json.dumps(rel)],
    )
    assert code == 1
    assert json.loads(out)["verified"] is False


def test_classify_k3(capsys):
    code, out, _ = run_capture(
        capsys, ["--json", "classify", "k3", "--p", "2", "--c", "13", "--facts", "nonprimitive"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["row"] == 5 and payload["pi1"] == "(Z/2)^2" and payload["sing_y"] == "4A1"


def test_classify_enriques(capsys):
    code, out, _ = run_capture(
        capsys,
        ["--json", "classify", "enriques", "--p", "5", "--c", "2",
         "--w", "primitive", "--cover", "nonprimitive"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["row"] == 25 and payload["pi1"] == "D10"


def test_classify_inconsistent_facts_exit_2(capsys):
    code, _, err = run_capture(
        capsys, ["classify", "k3", "--p", "2", "--c", "16", "--facts", "primitive"]
    )
    assert code == 2
    assert "error" in err


def test_table_lookup(capsys):
    code, out, _ = run_capture(capsys, ["--json", "table", "1", "--row", "8"])
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 1 and rows[0]["no"] == 8
    code, out, _ = run_capture(capsys, ["--json", "table", "2", "--realizability", "unknown"])
    rows = json.loads(out)
    assert [r["no"] for r in rows] == [14, 20]


def test_geometry_commands(capsys):
    code, out, _ = run_capture(capsys, ["--json", "geometry", "hyperplanes", "--p", "3", "--n", "2"])
    assert code == 0
    assert len(json.loads(out)) == 12
    code, out, _ = run_capture(capsys, ["--json", "geometry", "ag23"])
    assert code == 0
    code, out, _ = run_capture(capsys, ["--json", "geometry", "kummer"])
    assert code == 0
    assert len(json.loads(out)["divisible_subsets"]) == 31


def test_config_primitive_exit_codes(capsys, tmp_path):
    cfg = {
        "ambient": {"gram": [[-2, 0], [0, -2]]},
        "p": 2,
        "chains": [[[1, 0]], [[0, 1]]],
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out, _ = run_capture(capsys, ["--json", "config", "primitive", "--config", str(path)])
    assert code == 0
    assert json.loads(out)["primitive"] is True
    code, out, _ = run_capture(capsys, ["--json", "config", "divisible", "--config", str(path)])
    assert code == 0
    assert json.loads(out) == []
    path.write_text(json.dumps({"ambient": "A2", "p": 10**18 + 3, "chains": []}))
    code, out, _ = run_capture(capsys, ["--json", "config", "divisible", "--config", str(path)])
    assert code == 0
    assert json.loads(out) == []


def test_malformed_json_exit_2(capsys):
    code, _, err = run_capture(capsys, ["lattice", "snf", "--matrix", "[[2,0],"])
    assert code == 2
    assert "line" in err and "column" in err


@pytest.mark.parametrize(
    "argv, named",
    [
        (["lattice", "snf", "--matrix", "[1,2]"], "bad matrix"),
        (["lattice", "snf", "--matrix", "[[1.5,2]]"],
         "bad matrix: matrix[0][0] must be an integer"),
        (["lattice", "snf", "--matrix", "[[Infinity]]"],
         "bad matrix: matrix[0][0] must be an integer"),
        (["lattice", "disc", "--lattice", '{"gram":5}'], "bad lattice"),
        (["lattice", "disc", "--lattice", '{"sum":5}'], "bad lattice"),
        (["lattice", "disc", "--lattice", '{"gram":[[2.7]]}'],
         "bad lattice: gram[0][0] must be an integer"),
        (["groups", "build", "--presentation", '{"gens":["a"]}'], "missing field 'rels'"),
        (["groups", "build", "--presentation", '{"gens":5,"rels":[]}'], "bad presentation"),
        (["groups", "build", "--presentation", "[]"], "bad presentation"),
        (["config", "divisible", "--config", "[]"], "bad configuration"),
        (["lattice", "snf", "--matrix", "[[true,2]]"],
         "bad matrix: matrix[0][0] must be an integer"),
        (["lattice", "snf", "--matrix", "[" * 5000 + "]" * 5000], "nested"),
        (["lattice", "disc", "--lattice", '{"sum":[' * 495 + '"A2"' + "]}" * 495], "nested"),
        (["lattice", "snf", "--matrix", "[" * 101 + "]" * 101], "nested"),
        (["fibration", "relation", "--spec", MP108, "--relation",
          '{"lhs":[],"rhs":{},"p":5}'], "bad relation"),
        (["fibration", "relation", "--spec", MP108, "--relation",
          '{"lhs":{"A1":"1/0"},"rhs":{},"p":5}'], "bad relation"),
        (["groups", "build", "--presentation", '{"gens":["a"],"rels":["a99999999999"]}'],
         "bad presentation: word 'a99999999999'"),
        (["lattice", "disc", "--lattice", '"A100000"'], "bad lattice: catalog lattice 'A100000'"),
        (["lattice", "disc", "--lattice", '{"gram":[[-2]],"name":"A100000"}'], "rank 100000"),
        (["geometry", "hyperplanes", "--p", "1000000000000000003", "--n", "1"],
         "p = 1000000000000000003, n = 1"),
        (["config", "divisible", "--config",
          '{"ambient":"A2","p":%d,"chains":[]}' % (2**89 - 1)], "bad configuration: p = "),
        (["lattice", "disc", "--lattice", json.dumps({"sum": ["E8"] * 2000})],
         "bad lattice: 'sum' of 2000 lattices has rank above 256"),
        (["groups", "build", "--presentation", '{"gens":["a"],"rels":["a0"]}'],
         "possibly infinite or bound too small"),
        (["groups", "build", "--bound", "1000001", "--presentation",
          '{"gens":["a"],"rels":["a2"]}'], "--bound 1000001 is above"),
        (["geometry", "hyperplanes", "--p", "2", "--n", "16"], "p = 2, n = 16"),
        (["geometry", "hyperplanes", "--p", "251", "--n", "2"], "p = 251, n = 2"),
        (["groups", "normal-count", "--group", "D8", "--index", "0"], "--index 0"),
        (["groups", "normal-count", "--group", "D8", "--index", "-2"], "--index -2"),
        (["fibration", "validate", "--spec",
          mp108_edited(lambda s: s["fibres"][1].update(id="G"))], "duplicate fibre ids: 'G'"),
        (["fibration", "validate", "--spec",
          mp108_edited(lambda s: s["fibres"][0]["labels"].__setitem__(1, "P1"))],
         "component label 'P1' of fibre G clashes"),
        (["fibration", "validate", "--spec",
          mp108_edited(lambda s: s["fibres"][0].update(type="I9*"))],
         "fibre G: unknown fibre kind 'I9*'"),
        (["fibration", "validate", "--spec",
          mp108_edited(lambda s: s["fibres"][1]["labels"].pop())],
         "fibre A: expected 3 component labels"),
        (["fibration", "relation", "--spec", mp108_edited(set_dots({}, {})),
          "--relation", MP108_RELATION], "no recorded intersection number for sections P1, P2"),
        # a dots value is typed by its path, as a meets value is
        (["fibration", "relation", "--spec", mp108_edited(set_dots({"P2": "x"}, {})),
          "--relation", MP108_RELATION],
         "bad fibration: sections[0].dots['P2'] must be an integer"),
        (["fibration", "relation", "--spec", mp108_edited(set_dots({"P2": 1}, {"P1": 0})),
          "--relation", MP108_RELATION], "sections P2, P1: recorded as 1 and 0"),
        (["fibration", "validate", "--spec", mp108_edited(set_dots({"P2": 0, "P9": 0}, {}))],
         "section P1: 'P9' is not another section"),
        (["fibration", "validate", "--spec",
          mp108_edited(lambda s: s["sections"][1].update(name="P1", dots={}))],
         "two sections are named 'P1'"),
        # fibre refusals name the fibre or the label at fault
        (["fibration", "validate", "--spec",
          mp108_edited(lambda s: s["fibres"][1]["labels"].__setitem__(0, "G0"))],
         "globally unique: 'G0' is used twice"),
        (["fibration", "validate", "--spec",
          mp108_edited(lambda s: s["fibres"][0]["labels"].__setitem__(1, "F"))],
         "component label 'F' of fibre G clashes"),
        (["fibration", "validate", "--spec", mp108_edited(lambda s: s["fibres"][0].update(n=0))],
         "fibre G: In fibres need n >= 1"),
        # a fibration field of the wrong JSON type is named by its path
        (["fibration", "validate", "--spec",
          mp108_edited(lambda s: s["fibres"][0].update(id=["G"]))],
         "bad fibration: fibres[0].id must be a string"),
        (["fibration", "validate", "--spec",
          mp108_edited(lambda s: s["fibres"][0].update(type=["In"]))],
         "bad fibration: fibres[0].type must be a string"),
        (["fibration", "validate", "--spec",
          mp108_edited(lambda s: s["fibres"][0]["labels"].__setitem__(1, ["G1"]))],
         "bad fibration: fibres[0].labels[1] must be a string"),
        (["fibration", "validate", "--spec",
          mp108_edited(lambda s: s["fibres"][0].update(labels="G0G1"))],
         "bad fibration: fibres[0].labels must be a list"),
        (["fibration", "validate", "--spec", mp108_edited(lambda s: s.update(zero_section=["P0"]))],
         "bad fibration: zero_section must be a string"),
        (["fibration", "validate", "--spec",
          mp108_edited(lambda s: s["sections"][0].update(name=["P1"]))],
         "bad fibration: sections[0].name must be a string"),
        (["fibration", "validate", "--spec",
          mp108_edited(lambda s: s["sections"][0].update(meets=[["G", "G0"]]))],
         "bad fibration: sections[0].meets must be an object"),
        (["fibration", "validate", "--spec",
          mp108_edited(lambda s: s["sections"][0]["meets"].update(G=["G0"]))],
         "bad fibration: sections[0].meets['G'] must be a string"),
        (["fibration", "validate", "--spec",
          mp108_edited(lambda s: s["sections"][0].update(dots=[["P2", 0]]))],
         "bad fibration: sections[0].dots must be an object"),
        # refusals of the other commands that no other test reaches
        (["groups", "build", "--group", "D8", "--bound", "50"],
         "--bound bounds a --presentation; a --group takes none"),
        (["groups", "build", "--presentation", '{"gens":["a","a"],"rels":["a2"]}'],
         "bad presentation: duplicate generator names"),
        (["lattice", "closure", "--lattice", '{"gram":[[2,2],[2,2]]}', "--basis", "[[1,0]]"],
         "degenerate lattice"),
        (["lattice", "disc", "--lattice", '"A0"'], "bad lattice: A_n needs n >= 1"),
        (["lattice", "disc", "--lattice", '"D3"'], "bad lattice: D_n needs n >= 4"),
        (["lattice", "disc", "--lattice", '"E5"'], "bad lattice: E_n needs n in {6, 7, 8}"),
        (["lattice", "disc", "--lattice", '{"gram":[[2,1],[0,2]]}'],
         "bad lattice: gram: Gram matrix must be symmetric"),
        (["config", "divisible", "--config", '{"ambient":"A2","p":2,"chains":[[[1]],[[0]]]}'],
         "bad configuration: chain vectors shorter than the ambient rank"),
        (["config", "divisible", "--config",
          '{"ambient":"A2","p":2,"chains":[[[1,0]],[[0,1,0]]]}'],
         "bad configuration: inconsistent vector lengths"),
        # the containers around fibres and sections, and integer fields given as strings
        (["fibration", "validate", "--spec",
          mp108_edited(lambda s: s.update(fibres={"G": s["fibres"][0]}))],
         "bad fibration: fibres must be a list"),
        (["fibration", "validate", "--spec",
          mp108_edited(lambda s: s["fibres"].__setitem__(0, "G"))],
         "bad fibration: fibres[0] must be an object"),
        (["fibration", "validate", "--spec",
          mp108_edited(lambda s: s.update(sections={"P1": s["sections"][0]}))],
         "bad fibration: sections must be a list"),
        (["fibration", "validate", "--spec",
          mp108_edited(lambda s: s["sections"].__setitem__(0, "P1"))],
         "bad fibration: sections[0] must be an object"),
        (["fibration", "validate", "--spec", mp108_edited(lambda s: s["fibres"][0].update(n="two"))],
         "bad fibration: fibres[0].n must be an integer"),
        (["fibration", "validate", "--spec", mp108_edited(lambda s: s["fibres"][0].update(n="2"))],
         "bad fibration: fibres[0].n must be an integer"),
        (["fibration", "validate", "--spec",
          mp108_edited(lambda s: s["sections"][0].update(dot_zero="0"))],
         "bad fibration: sections[0].dot_zero must be an integer"),
        (["fibration", "validate", "--spec", mp108_edited(lambda s: s.update(chi="2"))],
         "bad fibration: chi must be an integer"),
        # a numeric string is not an integer (it used to pass through int())
        (["lattice", "snf", "--matrix", '[["2",0],[0,3]]'],
         "bad matrix: matrix[0][0] must be an integer"),
        (["lattice", "disc", "--lattice", '{"gram":[[2,"1"],[1,2]]}'],
         "bad lattice: gram[0][1] must be an integer"),
        # every JSON field is read by one typed reader, which names the field's path
        (["config", "divisible", "--config", '{"ambient":"A2","p":"3","chains":[]}'],
         "bad configuration: p must be an integer"),
        (["config", "divisible", "--config", '{"ambient":"A2","p":3,"chains":[[["1",0],[0,1]]]}'],
         "bad configuration: chains[0][0][0] must be an integer"),
        (["config", "divisible", "--config", '{"ambient":"A2","p":3,"chains":7}'],
         "bad configuration: chains must be a list"),
        (["lattice", "closure", "--lattice", '"A2"', "--basis", '[["1",0]]'],
         "bad basis: basis[0][0] must be an integer"),
        (["lattice", "closure", "--lattice", '"A2"', "--basis", '{"a":1}'],
         "bad basis: basis must be a list"),
        (["lattice", "snf", "--matrix", '{"a":1}'], "bad matrix: matrix must be a list"),
        (["lattice", "disc", "--lattice", '{"sum":"A2"}'], "bad lattice: sum must be a list"),
        (["lattice", "disc", "--lattice", '{"gram":5}'], "bad lattice: gram must be a list"),
        (["fibration", "relation", "--spec", MP9, "--relation", mp9_relation_with_p("5")],
         "bad relation: p must be an integer"),
        (["fibration", "relation", "--spec", MP9, "--relation", mp9_relation_with_p("6")],
         "bad relation: p must be an integer"),
        (["groups", "build", "--presentation", '{"gens":"ab","rels":[]}'],
         "bad presentation: gens must be a list"),
        (["groups", "build", "--presentation", '{"gens":["a"],"rels":"a2"}'],
         "bad presentation: rels must be a list"),
        (["fibration", "relation", "--spec", MP108, "--relation",
          '{"lhs":{"A1":[1]},"rhs":{},"p":3}'], "bad relation: lhs['A1'] must be an integer"),
        # a coefficient string that is no fraction is named by its symbol
        (["fibration", "relation", "--spec", MP108, "--relation",
          '{"lhs":{"A1":"abc"},"rhs":{},"p":3}'], "bad relation: lhs['A1'] is not a number: 'abc'"),
        (["fibration", "relation", "--spec", MP108, "--relation",
          '{"lhs":{},"rhs":{"A1":"1/0"},"p":3}'],
         "bad relation: rhs['A1'] is not a number: '1/0'"),
        # a relation's p is an integer of at least 2, even when both sides are 0
        *((["fibration", "relation", "--spec", MP108, "--relation",
            '{"lhs":{},"rhs":{},"p":%d}' % p], f"p must be an integer of at least 2, not {p}")
          for p in (0, 1, -7)),
        # a lattice's name is typed, and a nested field keeps its path
        (["lattice", "disc", "--lattice", '{"gram":[[-2]],"name":5}'],
         "bad lattice: name must be a string"),
        (["lattice", "disc", "--lattice", '{"sum":[{"gram":5}]}'],
         "bad lattice: sum[0].gram must be a list"),
        (["lattice", "disc", "--lattice", '{"sum":["A1",{"sum":[{"name":7}]}]}'],
         "bad lattice: sum[1].sum[0].name must be a string"),
        (["config", "divisible", "--config", '{"ambient":{"gram":5},"p":3,"chains":[]}'],
         "bad configuration: ambient.gram must be a list"),
        # a Gram entry at any nesting, and a fibration's name, are named by their paths
        (["fibration", "validate", "--spec", mp108_edited(lambda s: s.update(name=1.5))],
         "bad fibration: name must be a string"),
        (["lattice", "disc", "--lattice", '{"sum":["A1",{"gram":[[2,"1"],[1,2]]}]}'],
         "bad lattice: sum[1].gram[0][1] must be an integer"),
        (["config", "divisible", "--config",
          '{"ambient":{"gram":[[-2.0,1],[1,-2]]},"p":3,"chains":[]}'],
         "bad configuration: ambient.gram[0][0] must be an integer"),
        (["fibration", "validate", "--spec", mp108_edited(set_dots({"P2": True}, {}))],
         "bad fibration: sections[0].dots['P2'] must be an integer"),
        # a matrix of the wrong shape is named by its field, at any nesting
        (["lattice", "snf", "--matrix", "[[1,2],[3]]"], "bad matrix: ragged matrix"),
        (["lattice", "snf", "--matrix", "[]"],
         "bad matrix: matrix must have at least one row and one column"),
        (["lattice", "snf", "--matrix", "[[]]"],
         "bad matrix: matrix must have at least one row and one column"),
        (["lattice", "disc", "--lattice", '{"sum":["A1",{"gram":[[2,1]]}]}'],
         "bad lattice: sum[1].gram: Gram matrix must be square, not 1 x 2"),
        (["lattice", "disc", "--lattice", '{"sum":["A1",{"gram":[[2,1],[0,2]]}]}'],
         "bad lattice: sum[1].gram: Gram matrix must be symmetric"),
        (["config", "divisible", "--config", '{"ambient":{"gram":[[-2],[1]]},"p":3,"chains":[]}'],
         "bad configuration: ambient.gram: Gram matrix must be square, not 2 x 1"),
        # library refusals that reach `run` as they are raised
        (["groups", "normal-count", "--group", "Q9", "--index", "2"],
         "error: unknown catalog group 'Q9'"),
        (["classify", "k3", "--p", "2", "--c", "16", "--facts", "primitive"],
         "error: Table 1 rows [8] at p = 2, c = 16 considered, [] fit; facts = primitive"),
        (["lattice", "closure", "--lattice", '"A2"', "--basis", "[[1,0],[1,0,0]]"],
         "error: basis[1] has 3 entries, not the ambient rank 2"),
    ],
)
def test_malformed_input_exits_2(capsys, argv, named):
    code, out, err = run_capture(capsys, argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and named in err and "Traceback" not in err


def test_fibration_missing_fields_exit_2(capsys):
    base = data_dir()
    spec = json.loads((base / "mp108.json").read_text())
    rel = json.loads((base / "mp108_relation.json").read_text())
    for field in ("fibres", "zero_section"):
        broken = json.dumps({k: v for k, v in spec.items() if k != field})
        for argv in (["validate"], ["height", "--section", "P1"],
                     ["relation", "--relation", json.dumps(rel)]):
            code, _, err = run_capture(capsys, ["fibration", argv[0], "--spec", broken, *argv[1:]])
            assert code == 2, (field, argv)
            assert f"missing field '{field}'" in err and "Traceback" not in err
    for field in ("lhs", "rhs", "p"):
        broken = json.dumps({k: v for k, v in rel.items() if k != field})
        code, _, err = run_capture(
            capsys,
            ["fibration", "relation", "--spec", str(base / "mp108.json"), "--relation", broken],
        )
        assert code == 2, field
        assert f"missing field '{field}'" in err
    code, _, err = run_capture(
        capsys,
        ["fibration", "relation", "--spec", str(base / "mp108.json"),
         "--relation", json.dumps({**rel, "p": "three"})],
    )
    assert code == 2 and "bad relation" in err


def test_unknown_subcommand_exit_2(capsys):
    assert run(["frobnicate"]) == 2


def argparse_refusal(err: str) -> str:
    """The error line of a refusal by argparse, which follows its usage line."""
    assert err.startswith("usage: k3lat") and "Traceback" not in err, err
    line = err.strip().splitlines()[-1]
    assert line.startswith("k3lat") and ": error: " in line, err
    return line


def test_missing_operation_flags_exit_2(capsys):
    """A flag an operation needs is required by its parser, which names it."""
    for argv, missing in (
        (["lattice", "snf"], ["--matrix"]),
        (["lattice", "disc"], ["--lattice"]),
        (["lattice", "closure", "--lattice", '"U"'], ["--basis"]),
        (["config", "primitive"], ["--config"]),
        (["fibration", "validate"], ["--spec"]),
        (["fibration", "height", "--spec", MP9], ["--section"]),
        (["fibration", "relation", "--spec", MP9], ["--relation"]),
        (["groups", "build"], ["--group", "--presentation"]),
        (["groups", "build", "--bound", "50"], ["--group", "--presentation"]),
        (["groups", "normal-count", "--index", "2"], ["--group"]),
        (["groups", "normal-count", "--group", "D8"], ["--index"]),
        (["groups", "iso", "--group", "D8"], ["--other"]),
        (["classify", "k3", "--p", "2"], ["--c"]),
        (["classify", "enriques", "--c", "2"], ["--p"]),
    ):
        code, out, err = run_capture(capsys, argv)
        assert code == 2 and out == "", argv
        line = argparse_refusal(err)
        assert all(flag in line for flag in missing), (argv, line)


# the flags each operation reads, and a valid invocation of it
OPERATIONS = {
    ("lattice", "snf"): {"--matrix": "[[2,0],[0,3]]"},
    ("lattice", "disc"): {"--lattice": '"A4"'},
    ("lattice", "closure"): {"--lattice": '{"gram":[[1,0],[0,1]]}', "--basis": "[[2,0]]"},
    ("config", "divisible"): {"--config": '{"ambient":"A2","p":3,"chains":[]}'},
    ("config", "primitive"): {"--config": '{"ambient":"A2","p":3,"chains":[]}'},
    ("geometry", "hyperplanes"): {"--p": "3", "--n": "2"},
    ("geometry", "kummer"): {},
    ("geometry", "lemma16"): {},
    ("geometry", "ag23"): {},
    ("fibration", "validate"): {"--spec": MP9},
    ("fibration", "height"): {"--spec": MP9, "--section": "P1"},
    ("fibration", "relation"): {"--spec": MP108, "--relation": MP108_RELATION},
    ("groups", "build"): {"--group": "D8", "--presentation": None, "--bound": None},
    ("groups", "normal-count"): {"--group": "D8", "--index": "2"},
    ("groups", "iso"): {"--group": "D8", "--other": "D8"},
    ("classify", "k3"): {"--p": "2", "--c": "13", "--facts": "nonprimitive"},
    ("classify", "enriques"): {"--p": "5", "--c": "2", "--w": "primitive", "--cover": "nonprimitive"},
}
# a value for each flag, given where an operation does not read it
VALUES = {"--matrix": "[[1]]", "--lattice": '"A4"', "--basis": "[[1]]", "--p": "3", "--n": "2",
          "--section": "P1", "--relation": MP108_RELATION,
          "--presentation": '{"gens":["a"],"rels":["a2"]}', "--bound": "50", "--index": "2",
          "--other": "D8", "--facts": "nonprimitive", "--w": "primitive", "--cover": "nonprimitive"}


def _invocation(command, op):
    """``command op`` with every flag it reads that has a value."""
    return [command, op, *(x for flag, value in OPERATIONS[command, op].items()
                           if value is not None for x in (flag, value))]


# (command, op, flag): a flag that another operation of the command reads and this one does not
UNREAD = [(command, op, flag) for (command, op), flags in OPERATIONS.items()
          for flag in sorted({f for (c, _), fs in OPERATIONS.items() if c == command for f in fs}
                             - set(flags))]


def test_each_operation_declares_the_flags_it_reads(capsys):
    """Each operation's parser declares exactly the flags of `OPERATIONS`, and the
    invocation built from them runs."""
    commands = next(a for a in build_parser()._actions if a.dest == "command").choices
    declared = {}
    for command, parser in commands.items():
        ops = next((a for a in parser._actions if a.dest == "op"), None)
        for op, op_parser in (ops.choices.items() if ops else ()):
            declared[command, op] = {s for a in op_parser._actions for s in a.option_strings
                                     if s.startswith("--") and s != "--help"}
    assert declared == {key: set(flags) for key, flags in OPERATIONS.items()}
    for command, op in OPERATIONS:
        assert run_capture(capsys, _invocation(command, op))[0] == 0, (command, op)
    assert len(UNREAD) == 26


@pytest.mark.parametrize(
    "argv, prog, flags",
    [(_invocation(command, op) + [flag, VALUES[flag]], f"k3lat {command} {op}", [flag])
     for command, op, flag in UNREAD]
    + [(["groups", "build", "--group", "D8", "--presentation", '{"gens":["a"],"rels":["a2"]}'],
        "k3lat groups build", ["--group", "--presentation"]),
       (["lemma13", "--p", "3"], "k3lat lemma13", ["--p 3"]),
       (["table", "1", "--facts", "one_H"], "k3lat table", ["--facts one_H"])],
    ids=[" ".join(key) for key in UNREAD]
    + ["groups build --group --presentation", "lemma13 --p", "table --facts"],
)
def test_argparse_refuses_a_flag_by_name(capsys, argv, prog, flags):
    """A flag the operation does not read, or two that exclude each other, exit 2 through
    the operation's own usage line, and its error line names them."""
    code, out, err = run_capture(capsys, argv)
    assert code == 2 and out == ""
    assert err.startswith(f"usage: {prog} "), err
    line = argparse_refusal(err)
    assert line.startswith(f"{prog}: error: ") and all(flag in line for flag in flags), line


def test_data_dir_env_override(capsys, tmp_path, monkeypatch):
    (tmp_path / "table1.json").write_text(
        json.dumps({"version": 1, "table": 1, "rows": []})
    )
    monkeypatch.setenv("K3LAT_DATA", str(tmp_path))
    assert data_dir() == tmp_path
    code, out, _ = run_capture(capsys, ["--json", "table", "1"])
    assert code == 0
    assert json.loads(out) == []


# ---------------------------------------------------------------------------
# fuzzing every JSON-taking option

_WORDS = ["A2", "A4", "E8", "U", "U(2)", "K3", "D4(-1)", "a", "b", "a3", "aB2", "abab", "In",
          "IV*", "I0*", "P0", "P1", "A1", "S0", "S", "1/2", "1/0", "-3/4", ""]
_KEYS = ["gram", "sum", "name", "ambient", "p", "chains", "kw_mod2", "gens", "rels", "lhs",
         "rhs", "fibres", "zero_section", "sections", "id", "type", "n", "labels", "meets",
         "dot_zero", "dots", "mw_order", "chi"]
_SCALARS = (st.integers(-3, 30) | st.sampled_from(_WORDS) | st.integers() | st.text(max_size=3)
            | st.sampled_from([None, True, False]))
_JSON = st.recursive(
    _SCALARS,
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.sampled_from(_KEYS) | st.text(max_size=2), kids, max_size=4),
    max_leaves=12,
)
_SEEDS = {
    "matrix": [[2, 4, 4], [-6, 6, 12]],
    "lattice": {"sum": ["A2", {"gram": [[2, 1], [1, 2]]}]},
    "basis": [[1, 0, 1, 0], [0, 2, 0, 0]],
    "config": {"ambient": {"gram": [[-2, 0], [0, -2]]}, "p": 2, "chains": [[[1, 0]], [[0, 1]]],
               "kw_mod2": [1, 0]},
    "spec": json.loads(Path(MP108).read_text()),
    "relation": json.loads(Path(MP108_RELATION).read_text()),
    "presentation": {"gens": ["a", "b"], "rels": ["a3", "b2", "abab"]},
}
_COMMANDS = [
    ["lattice", "snf", "--matrix"],
    ["lattice", "disc", "--lattice"],
    ["lattice", "closure", "--lattice", "--basis"],
    ["config", "divisible", "--config"],
    ["config", "primitive", "--config"],
    ["fibration", "validate", "--spec"],
    ["fibration", "height", "--section", "P1", "--spec"],
    ["fibration", "relation", "--spec", "--relation"],
    ["groups", "build", "--bound", "50", "--presentation"],
]


def _mutate(value, draw, rng):
    """value with one node, reached by a random walk from the root, replaced or dropped."""
    if not isinstance(value, (list, dict)) or not value or rng.random() < 0.1:
        if isinstance(value, int) and rng.random() < 0.5:  # keep the type, to get further in
            return draw(st.integers(-3, 30) | st.integers())
        if isinstance(value, int) and rng.random() < 0.3:  # the same number as a string
            return str(value)
        return draw(_SCALARS if rng.random() < 0.5 else _JSON)
    key = rng.choice(list(value) if isinstance(value, dict) else range(len(value)))
    out = dict(value) if isinstance(value, dict) else list(value)
    if rng.random() < 0.15:
        del out[key]
    else:
        out[key] = _mutate(value[key], draw, rng)
    return out


def _fuzzed_json(option, draw, rng) -> str:
    """A generated document (one time in five) or a seed with one or two mutations."""
    if rng.random() < 0.2:
        value = draw(_JSON)
    else:
        value = _SEEDS[option]
        for _ in range(rng.randint(1, 2)):
            value = _mutate(value, draw, rng)
    text = json.dumps(value)
    return text[: rng.randint(0, len(text))] if rng.random() < 0.1 else text


@settings(derandomize=True, database=None, max_examples=500, deadline=None)
@given(st.data())
def test_fuzzed_json_options_exit_0_1_or_2(data):
    """Generated and mutated JSON for every JSON-taking option: the exit code is
    0, 1 or 2, nothing escapes `run` and no traceback is printed."""
    draw = data.draw
    rng = draw(st.randoms(use_true_random=True))
    argv = ["--json"] if rng.random() < 0.5 else []
    for token in rng.choice(_COMMANDS):
        argv.append(token)
        if token[2:] in _SEEDS:
            argv.append(_fuzzed_json(token[2:], draw, rng))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in out.getvalue() + err.getvalue(), argv
    if code == 2:
        assert err.getvalue().startswith("error:") and out.getvalue() == "", argv


# ---------------------------------------------------------------------------
# every integer a command reads refuses a string, float, boolean or NaN, by the leaf's path

def _seeded_argv(command, option=None, text=None):
    """``command`` with each JSON option given its seed document, except ``option``,
    which is given ``text``."""
    argv = []
    for token in command:
        argv.append(token)
        if token[2:] in _SEEDS:
            argv.append(text if token[2:] == option else json.dumps(_SEEDS[token[2:]]))
    return argv


def _int_leaves(value, path=()):
    """(path, leaf) for every integer leaf of a JSON value; a path is a tuple of keys
    and indices."""
    if isinstance(value, (dict, list)):
        for key, item in value.items() if isinstance(value, dict) else enumerate(value):
            yield from _int_leaves(item, path + (key,))
    elif isinstance(value, int):
        yield path, value


def _refusal(option, path):
    """The refusal that names the integer leaf at ``path`` by its path, such as
    ``matrix[0][1]``, ``sum[1].gram[0][1]`` or ``sections[0].dots['P2']``."""
    text = option if option in ("matrix", "basis") else ""  # the list documents
    for parent, key in zip((None, *path), path):
        if isinstance(key, int):
            text += f"[{key}]"
        elif parent in ("lhs", "rhs", "dots"):  # a symbol, not a field
            text += f"[{key!r}]"
        else:
            text += f".{key}" if text else key
    return f"{text} must be an integer"


def _with_leaf(value, path, leaf):
    """A copy of a JSON value with the leaf at ``path`` replaced by ``leaf``."""
    if not path:
        return leaf
    out = dict(value) if isinstance(value, dict) else list(value)
    out[path[0]] = _with_leaf(value[path[0]], path[1:], leaf)
    return out


# the key of each seed that no command reads
_UNREAD = {"config": "kw_mod2", "spec": "mw_order", "relation": "fibration"}


def _stand_ins(option, path, leaf):
    """What replaces an integer leaf: its decimal string, except for a divisor
    coefficient, which may be a rational string, and values that are not integers."""
    coefficient = option == "relation" and path[0] in ("lhs", "rhs")
    return ([] if coefficient else [str(leaf)]) + [1.5, 2.0, True, float("nan")]


@pytest.mark.parametrize("command", _COMMANDS, ids=" ".join)
def test_numeric_string_for_an_integer_is_refused_by_its_path(capsys, command):
    """The seeds run; each seed with one integer leaf that the command reads replaced
    by its decimal string, a float, ``true`` or ``NaN`` exits 2 and names the leaf."""
    assert run_capture(capsys, _seeded_argv(command))[0] == 0
    checked = 0
    for option in (token[2:] for token in command if token[2:] in _SEEDS):
        for path, leaf in _int_leaves(_SEEDS[option]):
            if _UNREAD.get(option) in path:
                continue
            for value in _stand_ins(option, path, leaf):
                text = json.dumps(_with_leaf(_SEEDS[option], path, value))
                code, out, err = run_capture(capsys, _seeded_argv(command, option, text))
                assert code == 2 and out == "", (option, path, value)
                assert _refusal(option, path) in err and "Traceback" not in err, (path, err)
                checked += 1
    assert checked or command[0] == "groups"  # a presentation holds no integer


@pytest.mark.parametrize(
    "command", [c for c in _COMMANDS if any(t[2:] in _UNREAD for t in c)], ids=" ".join
)
def test_unread_keys_are_not_checked(capsys, command):
    """A key that no command reads is not type-checked: set to a float, ``true`` or
    ``NaN``, it leaves the seed's output and exit code as they are."""
    seeded = run_capture(capsys, _seeded_argv(command))[:2]
    for option in (token[2:] for token in command if token[2:] in _UNREAD):
        for value in (1.5, True, float("nan")):
            text = json.dumps({**_SEEDS[option], _UNREAD[option]: value})
            assert run_capture(capsys, _seeded_argv(command, option, text))[:2] == seeded, value
