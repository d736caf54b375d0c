"""Reading and indexing a graph in one pass against the code it replaced.

``graph_from_json`` reads the vertex rows and the edge rows in one loop
each, with the type tests of the id, the endpoints, the weight and the
genus in line, where it once called a helper per field.
``DecoratedGraph`` keys its vertices in one dict comprehension and names
the first unhashable or repeated id only when that fails, and it splits
the edges into the edges at each vertex and the up and down edges in one
pass with no set built per edge.  The references below keep the old
forms.  They build every graph of the small corpus with its flips, the
graphs of the level-index test and its malformed fixtures, and every
graph read back from its JSON, and the two builds must agree on every
field the index holds, in the same key order; on malformed JSON they
must raise the same problems.
"""

import json
from fractions import Fraction
from math import lcm
from types import MappingProxyType

import pytest

from hamgraphs import (DecoratedGraph, Edge, ValidationError, Vertex, flip,
                       graph_from_json, graph_to_json)
from hamgraphs.graph_core import _json_int, _json_str
from hamgraphs.rational import parse_rat
from test_level_index_reference import (HI, LO, MALFORMED, P1, Q1,
                                        indexed_graphs)

FIELDS = ("edges", "_scale", "_y", "_at", "_up", "_down", "_order",
          "_interior")


class ReferenceGraph:
    """The index DecoratedGraph(vertices, edges) built as it was: ids
    checked one at a time, the edges at a vertex found through a set of
    the two endpoints."""

    def __init__(self, vertices, edges=()):
        by_id = {}
        for v in vertices:
            try:
                seen = v.id in by_id
            except TypeError:
                raise ValidationError(["vertex %r: id is not a string"
                                       % (v.id,)]) from None
            if seen:
                raise ValidationError(["duplicate vertex id %r" % v.id])
            by_id[v.id] = v
        self.vertices = MappingProxyType(by_id)
        self.edges = tuple(edges)
        self._scale = y = None
        if all(isinstance(v.moment, Fraction) for v in by_id.values()):
            ratios = [(vid, v.moment.as_integer_ratio())
                      for vid, v in by_id.items()]
            self._scale = scale = lcm(*[d for _, (_, d) in ratios])
            y = {vid: n * (scale // d) for vid, (n, d) in ratios}
        self._y = y
        at, up, down = {}, {}, {}
        for e in self.edges:
            try:
                ends = {e.a, e.b}
            except TypeError:
                raise ValidationError(["edge %s--%s: unknown endpoint"
                                       % (e.a, e.b)]) from None
            for end in ends:
                if end in by_id:
                    at.setdefault(end, []).append(e)
            if y is not None and e.a in y and e.b in y and y[e.a] != y[e.b]:
                low, high = (e.a, e.b) if y[e.a] < y[e.b] else (e.b, e.a)
                up.setdefault(low, []).append(e)
                down.setdefault(high, []).append(e)
        self._at = dict.fromkeys(by_id, ())
        self._up, self._down = self._at.copy(), self._at.copy()
        for index, lists in ((self._at, at), (self._up, up),
                             (self._down, down)):
            for vid, es in lists.items():
                index[vid] = tuple(es)
        ids = ()
        if y is not None:
            try:
                ids = sorted(by_id)
                ids.sort(key=y.__getitem__)
            except TypeError:
                pass
        self._order = tuple(map(by_id.__getitem__, ids))
        self._interior = tuple(ids[1:-1])


def reference_from_json(data):
    """graph_from_json as it was: a helper call per checked field."""
    if isinstance(data, str):
        data = json.loads(data)
    try:
        vertices = [Vertex(_json_str(d, "id"), d["kind"],
                           parse_rat(d["moment"]),
                           parse_rat(d["area"]) if "area" in d else None,
                           _json_int(d, "genus") if "genus" in d else None)
                    for d in data["vertices"]]
        edges = [Edge(_json_str(d, "a"), _json_str(d, "b"), _json_int(d, "k"))
                 for d in data.get("edges", [])]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(["malformed graph JSON: %s" % exc]) from exc
    return ReferenceGraph(vertices, edges)


def fields(g):
    """Every field of g's index, dicts as lists of items so that their key
    order counts."""
    got = {"vertices": list(g.vertices.items())}
    for name in FIELDS:
        value = getattr(g, name)
        got[name] = list(value.items()) if isinstance(value, dict) else value
    return got


def assert_same_build(build, reference, *args):
    """build(*args) and reference(*args) give the same index, or raise
    the same problems."""
    try:
        want = fields(reference(*args))
    except ValidationError as exc:
        with pytest.raises(ValidationError) as got:
            build(*args)
        assert got.value.problems == exc.problems
        return None
    got = fields(build(*args))
    assert got == want
    return got


def corpus_graphs(enumerated_small, indexed_graphs):
    graphs = [rec.graph for rec in enumerated_small]
    return graphs + [flip(g) for g in graphs] + indexed_graphs


def test_construction_matches_reference(enumerated_small, indexed_graphs):
    for g in corpus_graphs(enumerated_small, indexed_graphs):
        vertices = list(g.vertices.values())
        for vs in (vertices, vertices[::-1], tuple(vertices)):
            assert assert_same_build(DecoratedGraph, ReferenceGraph, vs,
                                     g.edges) is not None
        # any iterables, each read once
        assert fields(DecoratedGraph(iter(vertices), iter(g.edges))) == \
            fields(ReferenceGraph(vertices, g.edges))


def test_reading_matches_reference(enumerated_small, indexed_graphs):
    for g in corpus_graphs(enumerated_small, indexed_graphs):
        data = graph_to_json(g)
        data["vertices"].reverse()
        for doc in (data, json.dumps(data)):
            assert assert_same_build(graph_from_json, reference_from_json,
                                     doc) is not None


RECURRING = [
    ([LO, P1, Q1, P1, Q1, HI], []),            # p repeats first, then q
    ([LO, P1, Q1, Q1, P1, HI], []),            # q repeats first
    ([LO, P1, P1, Vertex(["x"], "point", Fraction(1, 2)), HI], []),
    ([LO, Vertex(["x"], "point", Fraction(1, 2)), P1, P1, HI], []),
    ([LO, Vertex(1, "point", Fraction(1, 2)),
      Vertex(True, "point", Fraction(1, 3)), HI], []),   # 1 == True
]


@pytest.mark.parametrize("vertices,edges", MALFORMED + RECURRING)
def test_malformed_construction_matches_reference(vertices, edges):
    assert_same_build(DecoratedGraph, ReferenceGraph, vertices, edges)


def test_first_repeated_id_is_named():
    with pytest.raises(ValidationError) as info:
        DecoratedGraph([LO, P1, Q1, P1, Q1, HI])
    assert info.value.problems == ["duplicate vertex id 'p'"]
    g = DecoratedGraph([LO, P1, HI], [Edge("p", "p", 2)])
    assert g._at["p"] == (Edge("p", "p", 2),)


def graph_doc(vertex=None, edge=None, drop=None):
    """A valid graph's JSON: vertex updates vertex p's row and edge the
    row of the edge lo--p; drop, a (rows, key) pair, removes key from the
    first row of rows, or from the document when rows is "doc"."""
    doc = {"vertices": [{"id": "lo", "kind": "point", "moment": "0"},
                        {"id": "p", "kind": "point", "moment": "1/2"},
                        {"id": "hi", "kind": "point", "moment": "1"}],
           "edges": [{"a": "lo", "b": "p", "k": 2},
                     {"a": "p", "b": "hi", "k": 3}]}
    doc["vertices"][1].update(vertex or {})
    doc["edges"][0].update(edge or {})
    if drop is not None:
        row, key = drop
        if row == "doc":
            del doc[key]
        else:
            del doc[row][0][key]
    return doc


MALFORMED_DOCS = [
    graph_doc(vertex={"id": 1}), graph_doc(vertex={"id": None}),
    graph_doc(vertex={"id": ["p"]}), graph_doc(vertex={"id": {"p": 1}}),
    graph_doc(edge={"a": 1}), graph_doc(edge={"b": None}),
    graph_doc(edge={"a": ["lo"]}), graph_doc(edge={"b": {"p": 1}}),
    graph_doc(edge={"k": "2"}), graph_doc(edge={"k": True}),
    graph_doc(edge={"k": 2.5}), graph_doc(edge={"k": None}),
    graph_doc(vertex={"genus": None}), graph_doc(vertex={"genus": 0.5}),
    graph_doc(vertex={"genus": False}), graph_doc(vertex={"moment": "x"}),
    graph_doc(vertex={"area": []}),
    graph_doc(vertex={"id": 1, "kind": None}),     # the id is named first
    graph_doc(edge={"a": 1, "k": "2"}),            # so is the endpoint
    graph_doc(drop=("vertices", "id")), graph_doc(drop=("vertices", "kind")),
    graph_doc(drop=("vertices", "moment")), graph_doc(drop=("edges", "a")),
    graph_doc(drop=("edges", "b")), graph_doc(drop=("edges", "k")),
    graph_doc(drop=("doc", "vertices")), graph_doc(drop=("doc", "edges")),
    graph_doc(vertex={"id": "lo"}),                # duplicate id
    {"vertices": [1]}, {"vertices": ["p"]}, {"vertices": 5},
    {"vertices": [], "edges": [[]]}, [], "[1, 2]", "{}",
]


@pytest.mark.parametrize("doc", MALFORMED_DOCS)
def test_malformed_json_matches_reference(doc):
    assert_same_build(graph_from_json, reference_from_json, doc)


def test_integral_float_weight_and_genus_are_read_as_ints():
    doc = graph_doc(edge={"k": 2.0})
    doc["vertices"][0].update(kind="surface", area="1", genus=1.0)
    assert assert_same_build(graph_from_json, reference_from_json,
                             doc) is not None
    g = graph_from_json(doc)
    assert type(g.edges[0].k) is int and g.edges[0].k == 2
    assert type(g.vertex("lo").genus) is int and g.vertex("lo").genus == 1
