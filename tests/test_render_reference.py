"""graph_svg against the layout it replaced.

The reference below is graph_svg as it was when it found each vertex's
level by scanning every vertex, O(V^2); graph_svg now groups the sorted
order by level once.  Both must write the same bytes.
"""

import time
from fractions import Fraction

from hamgraphs import DecoratedGraph, Vertex, flip
from hamgraphs.rational import fmt_rat
from hamgraphs.render import _H, _PAD, _W, _esc, _scale, _svg, graph_svg


def reference_graph_svg(g):
    ys = [v.moment for v in g.vertices.values()]
    sy = _scale(ys, _H - _PAD, _PAD)
    order = sorted(g.vertices, key=lambda vid: (g.moment(vid), vid))
    slots = {}
    for i, vid in enumerate(order):
        level = [w for w in order if g.moment(w) == g.moment(vid)]
        slots[vid] = level.index(vid) - Fraction(len(level) - 1, 2)
    max_slot = max((abs(s) for s in slots.values()), default=Fraction(1))
    sx = _scale([-max_slot - 1, max_slot + 1], _PAD, _W - _PAD)
    body = []
    for e in sorted(g.edges, key=lambda e: (e.a, e.b, e.k)):
        x1, y1 = sx(slots[e.a]), sy(g.moment(e.a))
        x2, y2 = sx(slots[e.b]), sy(g.moment(e.b))
        body.append('<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" '
                    'stroke="black"/>' % (x1, y1, x2, y2))
        body.append('<text x="%.1f" y="%.1f" font-size="11">%d</text>'
                    % ((x1 + x2) / 2 + 4, (y1 + y2) / 2, e.k))
    for vid in order:
        v = g.vertices[vid]
        x, y = sx(slots[vid]), sy(v.moment)
        if v.kind == "surface":
            body.append('<ellipse cx="%.1f" cy="%.1f" rx="26" ry="9" '
                        'fill="lightgray" stroke="black"/>' % (x, y))
            label = "%s a=%s g=%d" % (vid, fmt_rat(v.area), v.genus)
        else:
            body.append('<circle cx="%.1f" cy="%.1f" r="4" '
                        'fill="black"/>' % (x, y))
            label = vid
        body.append('<text x="%.1f" y="%.1f" font-size="11">%s '
                    '(%s)</text>' % (x + 30, y + 4, _esc(label),
                                     fmt_rat(v.moment)))
    return _svg(body)


def test_graph_svg_matches_reference(enumerated_small):
    tied = 0
    for rec in enumerated_small:
        for g in (rec.graph, flip(rec.graph)):
            assert graph_svg(g) == reference_graph_svg(g), rec
            tied += len({v.moment for v in g.vertices.values()}) < len(
                g.vertices)
    assert tied > 0   # some graphs put several points on one level


def test_graph_svg_of_1000_points_is_fast():
    # 1000 points, two on each level: the scan took about 1 s on a 2-core
    # x86-64 VM (Python 3.11), grouping takes a few hundredths
    g = DecoratedGraph([Vertex("p%04d" % i, "point", Fraction(i // 2, 3))
                        for i in range(1000)])
    start = time.perf_counter()
    svg = graph_svg(g)
    assert time.perf_counter() - start < 0.3
    assert svg.count("<circle") == 1000
