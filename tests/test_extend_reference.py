"""The backtracking search for free spheres, kept as a reference for
``extend_graph``.

``extend_graph`` refuses three interior points on one level before it
searches.  The reference below searches every arrangement, as the library
did before that check; the tests check that both give the same free
spheres and the same refusal.
"""

import time
from fractions import Fraction

import pytest

from hamgraphs import (NoExtensionError, blowup, extend_graph, minimal_graph,
                       require_valid)
from hamgraphs.graph_core import _free_capacity

MESSAGE = "no arrangement of free spheres with at most two chains exists"


def reference_free_edges(g):
    """The sorted free spheres of the full backtracking search, or None
    when no arrangement exists."""
    require_valid(g)
    lo, hi = g.min_vertex().id, g.max_vertex().id
    interiors = g.interior_ids()
    need_up = [vid for vid in interiors if not g.up_edges(vid)]
    need_up.sort(key=lambda vid: (-g.moment(vid), vid))

    def search(i, frees):
        if i == len(need_up):
            extra = []
            cap_lo = _free_capacity(g, lo, frees)
            for vid in interiors:
                has_down = bool(g.down_edges(vid)) or any(
                    h == vid for _, h in frees)
                if not has_down:
                    if cap_lo <= 0:
                        return None
                    cap_lo -= 1
                    extra.append((lo, vid))
            return frees + extra
        v = need_up[i]
        yv = g.moment(v)
        candidates = []
        if _free_capacity(g, hi, frees) > 0:
            candidates.append(hi)
        for w in interiors:
            if g.moment(w) > yv and not g.down_edges(w) and not any(
                    high == w for _, high in frees):
                candidates.append(w)
        for w in candidates:
            result = search(i + 1, frees + [(v, w)])
            if result is not None:
                return result
        return None

    frees = search(0, [])
    return None if frees is None else sorted(frees)


def no_extension_chain(k):
    """ruled(0, 0, 100, 10) with its minimum surface blown up at sizes
    1/2, ..., 1/2^k and then three times at 1/2^(k+1): the last three
    points share a level, so no two chains can hold them."""
    g = minimal_graph("ruled", 0, 0, 100, 10)
    sizes = [Fraction(1, 2 ** i) for i in range(1, k + 1)]
    for lam in sizes + [Fraction(1, 2 ** (k + 1))] * 3:
        g = blowup(g, g.min_vertex().id, lam)
    return g


def check_against_reference(g):
    """Whether g has an extension; asserts extend_graph agrees with the
    reference on the free spheres or on the refusal."""
    expected = reference_free_edges(g)
    if expected is None:
        with pytest.raises(NoExtensionError) as info:
            extend_graph(g)
        assert str(info.value) == MESSAGE
        return False
    assert extend_graph(g).free_edges == expected
    return True


def test_matches_reference_on_corpus(enumerated):
    extended = [check_against_reference(rec.graph) for rec in enumerated]
    assert extended.count(False) >= 1
    assert extended.count(True) > 800


@pytest.mark.parametrize("k", [1, 4, 8])
def test_matches_reference_on_no_extension_chain(k):
    assert not check_against_reference(no_extension_chain(k))


def test_three_on_a_level_is_refused_at_once():
    # the full search grows about 2.2-fold per point and took 11 s at
    # k = 16 on a 2-core machine (Python 3.11)
    g = no_extension_chain(16)
    assert len(g.vertices) == 21
    start = time.perf_counter()
    with pytest.raises(NoExtensionError, match=MESSAGE):
        extend_graph(g)
    assert time.perf_counter() - start < 2
