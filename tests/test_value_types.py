"""The value types are named tuples: the constructor, repr and hash of
each are those of the frozen records they replace, and importing the
package loads neither ``dataclasses`` nor ``inspect`` nor ``render``."""

import os
import subprocess
import sys
from fractions import Fraction as F

import pytest

import hamgraphs
from hamgraphs.blowup_calculus import (BlowdownSite, BlowupSite,
                                       SymbolicBlowup)
from hamgraphs.chain_arith import WeightChain
from hamgraphs.dh_measure import ExtremalData, PiecewiseLinearDensity
from hamgraphs.graph_core import CanonicalForm, Edge, ExtendedGraph, Vertex
from hamgraphs.homology import Decomposition, IntersectionData

# (value, its repr as the frozen dataclasses printed it)
VALUES = [
    (Vertex("a", "point", F(1, 2)),
     "Vertex(id='a', kind='point', moment=Fraction(1, 2), area=None, "
     "genus=None)"),
    (Vertex("m", "surface", F(0), F(3), 1),
     "Vertex(id='m', kind='surface', moment=Fraction(0, 1), "
     "area=Fraction(3, 1), genus=1)"),
    (Edge("a", "b", 2), "Edge(a='a', b='b', k=2)"),
    (CanonicalForm("d1", "text"), "CanonicalForm(digest='d1', text='text')"),
    (ExtendedGraph((("a", "b"),), (("a", "b"),), ()),
     "ExtendedGraph(free_edges=(('a', 'b'),), branches=(('a', 'b'),), "
     "chains=())"),
    (BlowupSite("p", "Interior"), "BlowupSite(vertex='p', tag='Interior')"),
    (BlowdownSite("A", ("p", "q"), F(1, 3)),
     "BlowdownSite(pattern='A', vertices=('p', 'q'), lam=Fraction(1, 3), "
     "side='')"),
    (BlowdownSite("B", ("q",), F(2), "min"),
     "BlowdownSite(pattern='B', vertices=('q',), lam=Fraction(2, 1), "
     "side='min')"),
    (WeightChain([1, 2, 1]),
     "WeightChain(weights=(1, 2, 1), bottom=None, top=None)"),
    (WeightChain((3,), 2), "WeightChain(weights=(3,), bottom=2, top=None)"),
    (PiecewiseLinearDensity([0, F(1, 2)], [F(1), 0]),
     "PiecewiseLinearDensity(breakpoints=(0, Fraction(1, 2)), "
     "values=(Fraction(1, 1), 0))"),
    (ExtremalData(F(-1), F(1)),
     "ExtremalData(e_min=Fraction(-1, 1), e_max=Fraction(1, 1))"),
    (IntersectionData(("Bmin",), ((0,),), ("Bmax",), ()),
     "IntersectionData(labels=('Bmin',), matrix=((0,),), basis=('Bmax',), "
     "chains=())"),
    (Decomposition(False, None, "why"),
     "Decomposition(ok=False, coefficients=None, failure='why')"),
]


@pytest.mark.parametrize("value,text", VALUES,
                         ids=[type(v).__name__ for v, _ in VALUES])
def test_value_type_keeps_repr_hash_and_immutability(value, text):
    assert repr(value) == text
    assert hash(value) == hash(tuple(value))
    assert value == tuple(value)
    field = value._fields[0]
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        value.extra = None


def test_sequence_fields_are_kept_as_tuples():
    assert WeightChain([1, 2, 1]).weights == (1, 2, 1)
    assert type(WeightChain([1, 2, 1]).weights) is tuple
    assert type(WeightChain([3])._replace(weights=[1, 2]).weights) is tuple
    rho = PiecewiseLinearDensity([0, 1], [F(1), F(2)])
    assert type(rho.breakpoints) is tuple and type(rho.values) is tuple


def test_density_checks_its_breakpoints():
    with pytest.raises(ValueError, match="differ in length"):
        PiecewiseLinearDensity([0, 1], [1])
    with pytest.raises(ValueError, match="increase strictly"):
        PiecewiseLinearDensity([0, 1, 1], [1, 2, 3])
    rho = PiecewiseLinearDensity([0, 1], [F(1), F(2)])
    with pytest.raises(ValueError, match="increase strictly"):
        rho._replace(breakpoints=[1, 0])


def test_symbolic_blowup_is_a_named_tuple_with_tuple_edges():
    g = hamgraphs.minimal_graph("cp2", 1, 2)
    sb = hamgraphs.blowup_symbolic(g, BlowupSite("int", "Interior"))
    assert type(sb) is SymbolicBlowup and sb == tuple(sb)
    assert sb._fields == ("g", "p", "new", "edges", "sup", "area")
    assert type(sb.edges) is tuple and sb.area is None
    assert SymbolicBlowup(*sb[:5]) == sb
    with pytest.raises(AttributeError):
        sb.sup = 1
    # a field replaced is read by instantiate
    h = hamgraphs.instantiate(sb._replace(sup=sb.sup / 4), sb.sup / 2)
    assert h._problems is None
    assert hamgraphs.instantiate(sb, sb.sup / 2)._problems == ()


def test_import_loads_no_dataclasses_inspect_or_render():
    src = os.path.dirname(os.path.dirname(hamgraphs.__file__))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=src + (os.pathsep + path if path else ""))
    probe = ("import sys, hamgraphs, hamgraphs.cli; "
             "print(sorted(m for m in ('dataclasses', 'inspect', "
             "'hamgraphs.render') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "[]\n"
