import contextlib
import io
import json
import os
import sys
import tempfile
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hamgraphs import blowdown, blowdown_sites, graph_to_json, minimal_graph
from hamgraphs.cli import _parser, run
from conftest import CHOPPED_SQUARE, S2S2_POLYGONS, s2s2_graph, tent_graph

F = Fraction


@pytest.fixture
def tent_path(tmp_path):
    p = tmp_path / "tent.json"
    p.write_text(json.dumps(graph_to_json(tent_graph())))
    return str(p)


@pytest.fixture
def hirzebruch_path(tmp_path):
    g = minimal_graph("hirzebruch", "right", 2, r=2, s=1)
    p = tmp_path / "hirz.json"
    p.write_text(json.dumps(graph_to_json(g)))
    return str(p)


def out_path(tmp_path, name="out.json"):
    return str(tmp_path / name)


def test_validate_graph_ok(tent_path, tmp_path):
    out = out_path(tmp_path)
    assert run(["validate", "--in", tent_path, "--out", out]) == 0
    assert json.load(open(out)) == {"valid": True}


def test_validate_graph_bad(tmp_path):
    bad = tmp_path / "bad.json"
    data = graph_to_json(tent_graph())
    data["edges"].append({"a": "lo", "b": "a", "k": 1})
    bad.write_text(json.dumps(data))
    out = out_path(tmp_path)
    assert run(["validate", "--in", str(bad), "--out", out]) == 2
    report = json.load(open(out))
    assert report["valid"] is False and report["problems"]


def test_validate_polygon(tmp_path):
    p = tmp_path / "poly.json"
    p.write_text(json.dumps(CHOPPED_SQUARE.to_json()))
    assert run(["validate", "--in", str(p), "--out",
                out_path(tmp_path)]) == 0


def test_iso_modes(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    from hamgraphs import shift
    a.write_text(json.dumps(graph_to_json(s2s2_graph())))
    b.write_text(json.dumps(graph_to_json(shift(s2s2_graph(), F(5)))))
    out = out_path(tmp_path)
    assert run(["iso", str(a), str(b), "--out", out]) == 0
    assert json.load(open(out))["isomorphic"] is False
    assert run(["iso", str(a), str(b), "--mode", "shift",
                "--out", out]) == 0
    assert json.load(open(out))["isomorphic"] is True


def test_dh_output(tent_path, tmp_path):
    out = out_path(tmp_path)
    svg = out_path(tmp_path, "rho.svg")
    assert run(["dh", "--in", tent_path, "--out", out, "--svg", svg]) == 0
    data = json.load(open(out))
    assert data["total_mass"] == "3"
    assert data["density"]["breakpoints"] == ["0", "1", "3", "4"]
    assert open(svg).read().startswith("<svg")


def test_polygon_graph_round_trip(tmp_path):
    p = tmp_path / "poly.json"
    p.write_text(json.dumps(S2S2_POLYGONS[0].to_json()))
    gout = out_path(tmp_path, "g.json")
    assert run(["polygon2graph", "--in", str(p), "--out", gout]) == 0
    pout = out_path(tmp_path, "p.json")
    assert run(["graph2polygon", "--in", gout, "--out", pout]) == 0
    back = out_path(tmp_path, "g2.json")
    assert run(["polygon2graph", "--in", pout, "--out", back]) == 0
    iso = out_path(tmp_path, "iso.json")
    assert run(["iso", gout, back, "--out", iso]) == 0
    assert json.load(open(iso))["isomorphic"] is True


def test_blowup_listing_and_action(hirzebruch_path, tmp_path):
    out = out_path(tmp_path)
    assert run(["blowup", "--in", hirzebruch_path, "--out", out]) == 0
    sites = json.load(open(out))["sites"]
    assert all(row["max_size"] == "1" and row["attainable"] is False
               for row in sites)
    vid = sites[0]["vertex"]
    assert run(["blowup", "--in", hirzebruch_path, "--vertex", vid,
                "--lambda", "1/3", "--out", out]) == 0
    blown = json.load(open(out))
    assert len(blown["vertices"]) == 4


def test_blowup_oversized_exits_2(hirzebruch_path, tmp_path):
    assert run(["blowup", "--in", hirzebruch_path, "--vertex", "max",
                "--lambda", "2", "--out", out_path(tmp_path)]) == 2


def test_blowup_missing_lambda_exits_1(hirzebruch_path, tmp_path):
    assert run(["blowup", "--in", hirzebruch_path, "--vertex", "max",
                "--out", out_path(tmp_path)]) == 1


def test_blowup_lambda_without_vertex_exits_1(hirzebruch_path, tmp_path,
                                              capsys):
    # the size is not dropped in silence: no site list is written
    out = out_path(tmp_path)
    assert run(["blowup", "--in", hirzebruch_path, "--lambda", "1/2",
                "--out", out]) == 1
    assert capsys.readouterr().err == \
        "error: --vertex is required with --lambda\n"
    assert not os.path.exists(out)


def test_blowdown_and_minimal(tmp_path):
    from conftest import chopped_square_graph
    g = chopped_square_graph()
    p = tmp_path / "g.json"
    p.write_text(json.dumps(graph_to_json(g)))
    out = out_path(tmp_path)
    assert run(["blowdown", "--in", str(p), "--out", out]) == 0
    sites = json.load(open(out))["sites"]
    assert {(s["pattern"], s["lambda"]) for s in sites} >= \
        {("B", "2"), ("B", "3")}
    assert run(["blowdown", "--in", str(p), "--site", "0",
                "--out", out]) == 0
    assert len(json.load(open(out))["vertices"]) == 2
    for i, site in enumerate(blowdown_sites(g)):
        assert run(["blowdown", "--in", str(p), "--site", str(i),
                    "--out", out]) == 0
        assert json.load(open(out)) == graph_to_json(blowdown(g, site))
    assert run(["blowdown", "--in", str(p), "--site", str(len(sites)),
                "--out", out]) == 1
    assert run(["minimal", "--in", str(p), "--out", out]) == 0
    rep = json.load(open(out))
    assert rep["family"] == "ruled" and len(rep["steps"]) == 1


def test_enumerate_writes_class_files(tmp_path):
    outdir = str(tmp_path / "classes")
    assert run(["enumerate", "--seed", "cp2:1,2", "--seed", "ruled:0,1",
                "--max-blowups", "1", "--out", outdir]) == 0
    index = json.load(open(os.path.join(outdir, "index.json")))
    assert len(index) > 2
    for row in index:
        body = json.load(open(os.path.join(outdir, row["file"])))
        assert "vertices" in body
    digests = [row["digest"] for row in index]
    assert len(digests) == len(set(digests))


def test_enumerate_without_seed_exits_1(tmp_path):
    assert run(["enumerate", "--out", out_path(tmp_path)]) == 1


def test_enumerate_refuses_negative_depth(tmp_path, capsys):
    outdir = tmp_path / "classes"
    assert run(["enumerate", "--seed", "cp2:1,2", "--max-blowups", "-1",
                "--out", str(outdir)]) == 1
    assert "--max-blowups must be at least 0" in capsys.readouterr().err
    assert not outdir.exists()


@pytest.mark.parametrize("seed,problem", [("cp2:1.5,2", "m = 3/2"),
                                          ("ruled:0.5,1", "genus = 1/2")])
def test_enumerate_refuses_non_integer_seed_parameters(tmp_path, capsys,
                                                        seed, problem):
    assert run(["enumerate", "--seed", seed, "--max-blowups", "0",
                "--out", out_path(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "%s is not an integer" % problem in err
    assert "Traceback" not in err


@pytest.mark.parametrize("seed,count", [("cp2:1", 1),
                                        ("cp2:1,1,0,1,extra", 5)])
def test_enumerate_refuses_wrong_parameter_count(tmp_path, capsys, seed,
                                                 count):
    assert run(["enumerate", "--seed", seed, "--max-blowups", "0",
                "--out", out_path(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "cp2 takes 2 to 4 parameters (m, n, alpha, beta), not %d" \
        % count in err
    assert "Traceback" not in err


@pytest.mark.parametrize("seed,problem", [
    ("cp2:1,1,1e9999999", "alpha = 1e9999999"),
    ("cp2:1,1,0,1e5000", "beta = 1e5000"),
    ("cp2-surface:0,1e-5000", "lambda = 1e-5000"),
    ("cp2:1,1,1e4300", "alpha = 1e4300"),
    ("ruled:0,0,1,x", "s = x")])
def test_enumerate_refuses_seed_parameters_that_are_not_rationals(
        tmp_path, capsys, seed, problem):
    # an exponent beyond parse_rat's bound is refused at once, not built,
    # and so is a value of more digits than fmt_rat prints
    assert run(["enumerate", "--seed", seed, "--max-blowups", "0",
                "--out", out_path(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "%s is not a rational" % problem in err
    assert "Traceback" not in err


@pytest.mark.parametrize("layout", ["file", "under_file", "index_dir"])
def test_enumerate_unwritable_out_exits_1(tmp_path, capsys, layout):
    # --out is a file, lies under a file, or holds a directory index.json
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    outdir = {"file": blocker, "under_file": blocker / "classes",
              "index_dir": tmp_path / "classes"}[layout]
    if layout == "index_dir":
        (outdir / "index.json").mkdir(parents=True)
    assert run(["enumerate", "--seed", "cp2:1,2", "--out", str(outdir)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write ")
    assert "Traceback" not in err


def test_enumerate_failed_index_leaves_no_class_files(tmp_path, capsys):
    outdir = tmp_path / "idx"
    (outdir / "index.json").mkdir(parents=True)
    assert run(["enumerate", "--seed", "cp2:1,2", "--max-blowups", "1",
                "--out", str(outdir)]) == 1
    assert "cannot write" in capsys.readouterr().err
    assert sorted(os.listdir(outdir)) == ["index.json"]


def test_enumerate_failed_class_file_leaves_no_class_files(tmp_path):
    # the second class file's name is taken by a directory
    args = ["enumerate", "--seed", "cp2:1,2", "--max-blowups", "1", "--out"]
    assert run(args + [str(tmp_path / "ok")]) == 0
    names = [row["file"] for row in
             json.load(open(tmp_path / "ok" / "index.json"))]
    assert len(names) > 2
    outdir = tmp_path / "blocked"
    (outdir / names[1]).mkdir(parents=True)
    assert run(args + [str(outdir)]) == 1
    assert os.listdir(outdir) == [names[1]]


def test_dh_failed_svg_write_prints_nothing(tent_path, tmp_path, capsys):
    svg = str(tmp_path / "missing" / "rho.svg")
    assert run(["dh", "--in", tent_path, "--svg", svg]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "cannot write %s" % svg in err


def test_classify_command(tmp_path):
    p = tmp_path / "g.json"
    p.write_text(json.dumps(graph_to_json(s2s2_graph())))
    out = out_path(tmp_path)
    assert run(["classify", "--in", str(p), "--out", out]) == 0
    assert len(json.load(open(out))["vertices"]) == 4


def test_classify_rejects_surface_graph(tmp_path):
    from conftest import chopped_square_graph
    p = tmp_path / "g.json"
    p.write_text(json.dumps(graph_to_json(chopped_square_graph())))
    assert run(["classify", "--in", str(p), "--out",
                out_path(tmp_path)]) == 2


def test_homology_command(tmp_path):
    from conftest import chopped_square_graph
    p = tmp_path / "g.json"
    p.write_text(json.dumps(graph_to_json(chopped_square_graph())))
    out = out_path(tmp_path)
    assert run(["homology", "--in", str(p), "--out", out]) == 0
    rep = json.load(open(out))
    assert rep["labels"][:3] == ["Bmin", "Bmax", "F"]
    assert rep["values"]["Bmin"] == "6"
    assert len(rep["pretty"]) == len(rep["labels"])


def test_render_formats(tent_path, tmp_path):
    svg = out_path(tmp_path, "g.svg")
    assert run(["render", "--in", tent_path, "--format", "svg",
                "--out", svg]) == 0
    assert open(svg).read().startswith("<svg")
    dot = out_path(tmp_path, "g.dot")
    assert run(["render", "--in", tent_path, "--format", "dot",
                "--out", dot]) == 0
    assert "graph" in open(dot).read()


def test_outputs_are_byte_identical(tent_path, tmp_path):
    a = out_path(tmp_path, "a.json")
    b = out_path(tmp_path, "b.json")
    for target in (a, b):
        assert run(["dh", "--in", tent_path, "--out", target]) == 0
    assert open(a, "rb").read() == open(b, "rb").read()


def test_unreadable_input_exits_1(tmp_path):
    assert run(["dh", "--in", str(tmp_path / "missing.json"),
                "--out", out_path(tmp_path)]) == 1


def test_repeated_runs_keep_seeds_apart(tmp_path):
    # the parser is built once per process; a second call must not see
    # the --seed values of the first
    for seed in ("cp2:1,2", "ruled:0,1"):
        outdir = str(tmp_path / seed.replace(":", "_"))
        assert run(["enumerate", "--seed", seed, "--out", outdir]) == 0
    index = json.load(open(os.path.join(outdir, "index.json")))
    assert [row["seed"] for row in index] == ["ruled#0"]


def test_enumerate_names_a_repeated_seed_by_its_first_place(tmp_path):
    outdir = tmp_path / "classes"
    assert run(["enumerate", "--seed", "ruled:0,1", "--seed", "cp2:1,2",
                "--seed", "ruled:0,1", "--out", str(outdir)]) == 0
    index = json.loads((outdir / "index.json").read_text())
    assert [row["seed"] for row in index] == ["ruled#0", "cp2#1"]


@pytest.mark.parametrize("field,value", [
    ("k", 2.9), ("k", True), ("k", "3"), ("genus", 0.7), ("genus", None)])
def test_non_integer_fields_exit_2(tmp_path, capsys, field, value):
    data = graph_to_json(minimal_graph("hirzebruch", "right", 2, r=2, s=1))
    target = data["edges"][0] if field == "k" else data["vertices"][0]
    assert field in target
    target[field] = value
    p = tmp_path / "g.json"
    p.write_text(json.dumps(data))
    assert run(["validate", "--in", str(p), "--out",
                out_path(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "is not an integer" in err and "Traceback" not in err


def test_integral_float_fields_accepted(tmp_path):
    data = graph_to_json(minimal_graph("hirzebruch", "right", 2, r=2, s=1))
    data["edges"][0]["k"] = 2.0
    p = tmp_path / "g.json"
    p.write_text(json.dumps(data))
    out = out_path(tmp_path)
    assert run(["validate", "--in", str(p), "--out", out]) == 0
    assert json.load(open(out)) == {"valid": True}


# -- malformed input ----------------------------------------------------------

IN_COMMANDS = ["validate", "dh", "polygon2graph", "graph2polygon", "blowup",
               "blowdown", "minimal", "classify", "homology", "render"]


def run_on_stdin(argv, text):
    """run(argv) with text on stdin: (return code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def two_spheres_of_genus(genus):
    """Two fixed surfaces of one genus, written as the JSON integer
    genus."""
    surface = '{"id": "%s", "kind": "surface", "moment": "%s", "area": "1", '
    return ('{"vertices": [' + surface % ("lo", 0) + '"genus": %s}, '
            + surface % ("hi", 1) + '"genus": %s}]}') % (genus, genus)


HUGE_INT = "error: cannot read %s: an integer has more than 4300 digits\n"


@pytest.mark.parametrize("genus", ["1" * 4301, "-" + "9" * 4301,
                                   "1" * 5001],
                         ids=["4301", "-4301", "5001"])
def test_json_integer_past_the_digit_limit_exits_1(tmp_path, genus):
    text = two_spheres_of_genus(genus)
    for command in IN_COMMANDS:
        assert run_on_stdin([command], text) == (1, "", HUGE_INT % "stdin")
    path = tmp_path / "g.json"
    path.write_text(text)
    for command in IN_COMMANDS:
        assert run_on_stdin([command, "--in", str(path)], "") == \
            (1, "", HUGE_INT % path)
    assert run_on_stdin(["iso", str(path), str(path)], "") == \
        (1, "", HUGE_INT % path)
    # a readable first graph does not hide an unreadable second one
    ok = tmp_path / "ok.json"
    ok.write_text(two_spheres_of_genus(0))
    assert run_on_stdin(["iso", str(ok), str(path)], "") == \
        (1, "", HUGE_INT % path)


def test_json_integer_at_the_digit_limit_is_read(tmp_path):
    code, out, err = run_on_stdin(["validate"],
                                  two_spheres_of_genus("1" * 4300))
    assert (code, json.loads(out), err) == (0, {"valid": True}, "")
    code, out, err = run_on_stdin(["validate"],
                                  two_spheres_of_genus("-" + "9" * 4300))
    assert code == 2 and err == ""
    assert json.loads(out)["problems"][0] == \
        "vertex lo: surface needs genus >= 0"


def test_undecodable_input_exits_1(tmp_path):
    path = tmp_path / "g.json"
    path.write_bytes(b"\xff\xfe")
    code, out, err = run_on_stdin(["validate", "--in", str(path)], "")
    assert (code, out) == (1, "")
    assert err.startswith("error: cannot read %s: 'utf-8' codec" % path)


@pytest.mark.parametrize("command", ["validate", "render"])
@pytest.mark.parametrize("doc", [
    [], "x", 3, None, {"vertices": {"a": 1}}, {"vertices": 5},
    {"breakpoints": ["0", "1"]}, {"breakpoints": 3, "values": []},
    {"breakpoints": [], "values": []}, {"breakpoints": "01", "values": "01"}])
def test_malformed_object_exits_2(command, doc):
    code, out, err = run_on_stdin([command], json.dumps(doc))
    assert code == 2 and out == ""
    assert err.startswith("error: malformed ") and " JSON" in err


@pytest.mark.parametrize("command,doc", [
    ("polygon2graph", {"vertices": ["00", "20", "02"]}),
    ("minimal", {"vertices": [
        {"id": None, "kind": "surface", "moment": "0", "area": "1",
         "genus": 0},
        {"id": [1], "kind": "surface", "moment": "1", "area": "1",
         "genus": 0}]}),
])
def test_non_string_ids_and_non_array_points_exit_2(command, doc):
    code, out, err = run_on_stdin([command], json.dumps(doc))
    assert code == 2 and out == ""
    assert err.startswith("error: malformed ") and " JSON" in err


@pytest.mark.parametrize("doc,problem", [
    ({"vertices": [[0, 0], [2, 1], [0, 1]]},
     "normal determinant != 1 at vertex 0"),
    ({"vertices": [[0, 0]]}, "fewer than three vertices"),
    ({"vertices": []}, "fewer than three vertices")])
def test_render_refuses_polygons_that_validate_refuses(doc, problem):
    code, out, err = run_on_stdin(["render"], json.dumps(doc))
    assert (code, out, err) == (2, "", "error: %s\n" % problem)
    code, out, _ = run_on_stdin(["validate"], json.dumps(doc))
    assert code == 2 and json.loads(out)["problems"][0] == problem


def test_validate_refuses_a_density_that_render_draws():
    doc = json.dumps({"breakpoints": ["0", "1"], "values": ["1", "0"]})
    code, out, err = run_on_stdin(["render"], doc)
    assert code == 0 and out.startswith("<svg") and err == ""
    code, out, err = run_on_stdin(["validate"], doc)
    assert (code, out) == (2, "")
    assert err == "error: validate takes a graph or a polygon, not a density\n"


def test_enumerate_names_the_digit_limit(tmp_path, capsys):
    outdir = tmp_path / "classes"
    assert run(["enumerate", "--seed", "ruled:0,0,1e4000,1e-4000",
                "--max-blowups", "1", "--out", str(outdir)]) == 2
    assert capsys.readouterr().err == (
        "error: seed ruled:0,0,1e4000,1e-4000 at depth 1: a label has grown "
        "past the 4300 digits the package can print\n")
    assert not outdir.exists()


# two graphs whose labels break the extremal conditions: two points with
# no edges (e_min = e_max = 0, not -1), and two spheres one level apart
# (e_min = -1/2, e_max = 1/2, not integers)
BAD_EXTREMA = [
    ({"vertices": [{"id": "lo", "kind": "point", "moment": "0"},
                   {"id": "hi", "kind": "point", "moment": "1"}]},
     "vertex lo: isolated extremum with weights {1, 1} has "
     "self-intersection 0, not -1"),
    ({"vertices": [{"id": "lo", "kind": "surface", "moment": "0",
                    "area": "1", "genus": 0},
                   {"id": "hi", "kind": "surface", "moment": "1",
                    "area": "3/2", "genus": 0}]},
     "vertex lo: fixed surface has non-integer self-intersection -1/2"),
]


@pytest.mark.parametrize("command", ["validate", "dh", "blowup", "minimal",
                                     "homology", "graph2polygon"])
@pytest.mark.parametrize("doc,first", BAD_EXTREMA)
def test_every_command_rejects_bad_extrema_alike(command, doc, first):
    code, out, err = run_on_stdin([command], json.dumps(doc))
    assert code == 2 and "Traceback" not in err
    if command == "validate":
        assert json.loads(out)["problems"][0] == first
    else:
        assert out == "" and err.startswith("error: " + first + ";")


def _points(levels, edges):
    return {"vertices": [{"id": vid, "kind": "point", "moment": y}
                         for vid, y in levels],
            "edges": [{"a": a, "b": b, "k": k} for a, b, k in edges]}


# two graphs that pass every other condition but carry a sphere whose
# self-intersection (m_low - m_high)/k is not an integer: S.S = 2/3 on
# mn--mx and -2/3 on p--q, and 1/5 on mn--p0
FRACTIONAL_SPHERES = [
    (_points([("mn", "0"), ("p", "1/2"), ("q", "1"), ("mx", "3/2")],
             [("mn", "mx", 3), ("p", "q", 3)]),
     "edge mn--mx: sphere of weight 3 has non-integer self-intersection "
     "2/3"),
    (_points([("mn", "0"), ("p0", "1/2"), ("p1", "11/12"),
              ("p2", "23/24"), ("mx", "1")],
             [("mn", "mx", 3), ("mn", "p0", 5), ("p0", "p1", 2),
              ("p1", "p2", 5)]),
     "edge mn--p0: sphere of weight 5 has non-integer self-intersection "
     "1/5"),
]


@pytest.mark.parametrize("command", ["validate", "dh", "minimal", "classify",
                                     "graph2polygon", "homology", "blowup",
                                     "blowdown"])
@pytest.mark.parametrize("doc,first", FRACTIONAL_SPHERES)
def test_every_command_rejects_a_fractional_sphere_alike(command, doc,
                                                          first):
    code, out, err = run_on_stdin([command], json.dumps(doc))
    assert code == 2 and "Traceback" not in err
    if command == "validate":
        assert json.loads(out)["problems"][0] == first
    else:
        assert out == "" and err.startswith("error: " + first + ";")


# an edge to an unknown vertex, and two vertices on one level
UNKNOWN_END = {"vertices": [{"id": "lo", "kind": "point", "moment": "0"},
                            {"id": "hi", "kind": "point", "moment": "1"}],
               "edges": [{"a": "lo", "b": "nowhere", "k": 2}]}
ONE_LEVEL = {"vertices": [{"id": "a", "kind": "point", "moment": "0"},
                          {"id": "b", "kind": "point", "moment": "0"}]}


@pytest.mark.parametrize("argv", [
    ["iso", "{0}", "{0}"], ["render", "--in", "{0}"],
    ["render", "--in", "{0}", "--format", "dot"]])
@pytest.mark.parametrize("doc,problem", [
    (UNKNOWN_END, "edge lo--nowhere: unknown endpoint"),
    (ONE_LEVEL, "minimum and maximum level coincide")])
def test_iso_and_render_reject_invalid_graphs(tmp_path, capsys, argv, doc,
                                              problem):
    p = tmp_path / "g.json"
    p.write_text(json.dumps(doc))
    out = out_path(tmp_path)
    assert run([a.format(p) for a in argv] + ["--out", out]) == 2
    assert capsys.readouterr().err == "error: %s\n" % problem
    assert not os.path.exists(out)


JSON_KEYS = st.sampled_from(["vertices", "edges", "breakpoints", "values",
                             "id", "kind", "moment", "area", "genus", "a",
                             "b", "k"]) | st.text(max_size=3)
JSON_DOCS = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from(["point", "surface", "0", "1/2", "3", "-1"])
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(JSON_KEYS, inner, max_size=4),
    max_leaves=16)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(doc=JSON_DOCS)
@example(doc=UNKNOWN_END)
def test_any_json_on_stdin_exits_cleanly(doc):
    text = json.dumps(doc)
    for command in IN_COMMANDS:
        code, _, err = run_on_stdin([command], text)
        assert code in (0, 1, 2), (command, text)
        assert "Traceback" not in err
    # iso takes two paths, not stdin; tmp_path would be shared by examples
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "doc.json")
        with open(path, "w") as f:
            f.write(text)
        code, _, err = run_on_stdin(["iso", path, path], "")
    assert code in (0, 1, 2), ("iso", text)
    assert "Traceback" not in err


# -- argument parsing ---------------------------------------------------------

COMMANDS = ["validate", "iso", "dh", "polygon2graph", "graph2polygon",
            "blowup", "blowdown", "minimal", "enumerate", "classify",
            "homology", "render"]
USAGE_ERRORS = ([[], ["-h"], ["--help"], ["nosuch"]]
                + [[name, "-h"] for name in COMMANDS]
                + [["blowdown", "--bogus"], ["blowdown", "extra"],
                   ["blowdown", "--site", "x"],
                   ["enumerate", "--max-blowups"], ["iso", "a.json"],
                   ["minimal", "--bogus", "-h"], ["iso", "a", "b", "c"],
                   ["render", "--format", "pdf"]])


def full_parser_result(argv):
    """The full parser's own (exit code, stdout, stderr) on argv, with its
    exit status mapped to an exit code as run maps it."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as info:
            _parser().parse_args(argv)
    code = 1 if info.value.code not in (0, None) else 0
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", USAGE_ERRORS, ids=" ".join)
def test_usage_errors_and_help_read_as_the_full_parser_prints_them(
        monkeypatch, argv):
    # each command's own parser reads its arguments; what it cannot read
    # alone, and every help flag, goes to the full parser
    want = full_parser_result(argv)
    parsed = []
    full = _parser()

    def parse_args(args):
        parsed.append(args)
        return type(full).parse_args(full, args)

    monkeypatch.setattr(full, "parse_args", parse_args)
    assert run_on_stdin(argv, "") == want
    if "-h" in argv or "--help" in argv:
        assert parsed == [argv]
