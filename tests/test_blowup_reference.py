"""Blow-ups are valid by construction.

``instantiate`` marks the graph it builds at an admissible size as valid
instead of validating it.  Here every blow-up site of a corpus is
instantiated at several admissible sizes and checked with the uncached
validation stages, and ``blowup`` must return that same graph.  At sizes
outside the admissible range it must refuse, and ``instantiate`` must
leave the graph to ``validate_graph``.  ``enumerate_graphs`` blows up at
half the supremum without even the size check; every such child must
pass ``monotone_check`` and the uncached validation stages too.  No
site's supremum passes ``monotone_check``, as ``max_size``'s docstring
states without checking.
"""

import pytest

from hamgraphs import (GraphError, blowup, blowup_sites, blowup_symbolic,
                       enumerate_graphs, instantiate, max_size,
                       monotone_check, validate_graph)
from hamgraphs.graph_core import _problems
from test_blowdown_reference import flipped_and_hirzebruch_seeds
from test_reduce_reference import surface_chain


def assert_valid_by_construction(g):
    """Check every blow-up site of g; returns the number of sites."""
    sites = blowup_sites(g)
    for site in sites:
        sb = blowup_symbolic(g, site)
        sup = sb.sup
        for lam in (sup / 2, sup / 1000, sup * 9 / 10):
            h = instantiate(sb, lam)
            assert _problems(h) == [], (site, lam, _problems(h))
            # instantiate marks exactly the sizes monotone_check admits
            assert (h._problems == ()) == monotone_check(sb, lam), (site, lam)
            child = blowup(g, site.vertex, lam)
            assert dict(child.vertices) == dict(h.vertices), (site, lam)
            assert child.edges == h.edges, (site, lam)
        with pytest.raises(GraphError, match="monotonicity violated"):
            blowup(g, site.vertex, 2 * sup)
        # the supremum itself is not admissible: its own constraint is 0
        # there
        assert not monotone_check(sb, sup), site
        assert max_size(g, site) == sup, site
        with pytest.raises(GraphError, match="monotonicity violated"):
            blowup(g, site.vertex, sup)
        # a size outside (0, sup) is left unmarked, validated when asked
        for lam in (sup, 2 * sup):
            h = instantiate(sb, lam)
            assert h._problems is None and not monotone_check(sb, lam), \
                (site, lam)
            assert validate_graph(h) == _problems(h), (site, lam)
            assert h._problems == tuple(_problems(h)), (site, lam)
    return len(sites)


def test_valid_by_construction_on_corpus(enumerated):
    tags = set()
    for rec in enumerated:
        assert_valid_by_construction(rec.graph)
        tags |= {site.tag for site in blowup_sites(rec.graph)}
    assert tags == {"Interior", "SurfaceMin", "SurfaceMax", "IsolatedMin11",
                    "IsolatedMax11", "IsolatedMinDistinct",
                    "IsolatedMaxDistinct"}


def test_valid_by_construction_on_flipped_and_hirzebruch_seeds():
    recs = enumerate_graphs(flipped_and_hirzebruch_seeds(), 1)
    assert sum(assert_valid_by_construction(rec.graph) for rec in recs) > 100


@pytest.mark.parametrize("k", range(1, 7))
def test_valid_by_construction_on_surface_chain(k):
    assert assert_valid_by_construction(surface_chain(k)) == k + 2


def test_enumerated_children_are_valid(enumerated):
    # enumerate_graphs makes every child of a graph of depth at most 2 in
    # the depth-3 corpus at half the supremum and marks it valid unchecked
    children = 0
    for rec in enumerated:
        if rec.depth == 3:
            continue
        for site in blowup_sites(rec.graph):
            sb = blowup_symbolic(rec.graph, site)
            sup = sb.sup
            child = instantiate(sb, sup / 2)
            assert sup > 0 and monotone_check(sb, sup / 2), site
            assert child._problems == ()
            assert _problems(child) == [], (site, _problems(child))
            h = instantiate(sb, sup / 2)
            assert dict(child.vertices) == dict(h.vertices), site
            assert child.edges == h.edges, site
            children += 1
    assert children > 900
