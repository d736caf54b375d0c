"""The CLI's JSON writer against json.dumps(..., indent=2, sort_keys=True),
on generated values and on every document the CLI writes for a corpus."""

import json
from collections import OrderedDict

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hamgraphs import cli, graph_to_json


def stdlib(obj):
    return json.dumps(obj, indent=2, sort_keys=True)


# quotes, backslashes, control characters and non-ASCII text, surrogates
# included
TEXT = st.text(st.sampled_from('"\\/\n\t\r\b\f\x00\x1f\x7f\xe9 ')
               | st.characters(), max_size=6)
VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | TEXT,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(TEXT, inner, max_size=4),
    max_leaves=24)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(obj=VALUES)
@example(obj=[])
@example(obj=())
@example(obj={"": {}, "b": [[], ()], "a": [None, True, False, -1]})
def test_writer_matches_stdlib(obj):
    assert cli._dumps(obj) == stdlib(obj)


@pytest.fixture
def emitted(monkeypatch):
    """Every value the CLI hands to _emit_json while the test runs."""
    docs = []
    emit = cli._emit_json

    def record(data, path):
        docs.append(data)
        emit(data, path)

    monkeypatch.setattr(cli, "_emit_json", record)
    return docs


def test_writer_matches_stdlib_on_cli_documents(emitted, enumerated_small,
                                                tmp_path):
    outdir = tmp_path / "classes"
    argv = ["enumerate", "--max-blowups", "2", "--out", str(outdir)]
    for seed in ("cp2:1,1", "cp2:1,2", "ruled:0,1", "ruled:0,0"):
        argv += ["--seed", seed]
    assert cli.run(argv) == 0
    classes = len(json.loads((outdir / "index.json").read_text()))
    path, out = tmp_path / "g.json", str(tmp_path / "out.json")
    for rec in enumerated_small:
        path.write_text(json.dumps(graph_to_json(rec.graph)))
        for command in ("blowdown", "minimal"):
            assert cli.run([command, "--in", str(path), "--out", out]) == 0
    assert len(emitted) == classes + 1 + 2 * len(enumerated_small)
    for doc in emitted:
        assert cli._dumps(doc) == stdlib(doc)


@pytest.mark.parametrize("obj", [1.5, [0.0], {1: "a"}, {"a": {2: 3}},
                                 OrderedDict(a=1), [OrderedDict()],
                                 {"a": {1, 2}}, b"bytes"])
def test_writer_refuses_other_types(obj):
    with pytest.raises(TypeError):
        cli._dumps(obj)


def test_writer_refuses_an_integer_the_stdlib_cannot_print():
    for obj in (10 ** 4300, [{"k": -(10 ** 5000)}]):
        with pytest.raises(ValueError):
            stdlib(obj)
        with pytest.raises(ValueError):
            cli._dumps(obj)
