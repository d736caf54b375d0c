"""Deterministic SVG and DOT rendering of graphs, polygons, densities.

Graphs are drawn with vertex height proportional to the moment label,
fixed surfaces as fat ellipses, isolated fixed points as dots, and edges
labeled by their stabilizer order.  Polygons get their lattice points
drawn; densities become polyline plots with ticks at the breakpoints.
"""

from fractions import Fraction
from itertools import groupby

from .graph_core import DecoratedGraph
from .rational import fmt_rat

_W, _H, _PAD = 420, 420, 40


def _esc(s):
    return (str(s).replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;"))


def _svg(body, width=_W, height=_H):
    head = ('<svg xmlns="http://www.w3.org/2000/svg" width="%d" '
            'height="%d" viewBox="0 0 %d %d">' % (width, height,
                                                  width, height))
    return head + "\n" + "\n".join(body) + "\n</svg>\n"


def _scale(vals, lo_px, hi_px):
    lo, hi = min(vals), max(vals)
    span = hi - lo if hi > lo else Fraction(1)

    def f(v):
        return float(lo_px + (hi_px - lo_px) * Fraction(v - lo, span))

    return f


def graph_svg(g):
    """Vertices placed by (branch slot, moment); deterministic layout."""
    ys = [v.moment for v in g.vertices.values()]
    sy = _scale(ys, _H - _PAD, _PAD)
    order = sorted(g.vertices, key=lambda vid: (g.moment(vid), vid))
    slots = {}
    for _, level in groupby(order, key=g.moment):
        level = list(level)
        for i, vid in enumerate(level):
            slots[vid] = i - Fraction(len(level) - 1, 2)
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


def graph_dot(g):
    lines = ["graph decorated {"]
    for vid in sorted(g.vertices):
        v = g.vertices[vid]
        shape = "ellipse" if v.kind == "surface" else "point"
        extra = ""
        if v.kind == "surface":
            extra = " a=%s g=%d" % (fmt_rat(v.area), v.genus)
        lines.append('  "%s" [shape=%s label="%s Phi=%s%s"];'
                     % (vid, shape, vid, fmt_rat(v.moment), extra))
    for e in sorted(g.edges, key=lambda e: (e.a, e.b, e.k)):
        lines.append('  "%s" -- "%s" [label="%d"];' % (e.a, e.b, e.k))
    lines.append("}")
    return "\n".join(lines) + "\n"


def polygon_svg(P):
    xs = [x for x, _ in P.vertices]
    ys = [y for _, y in P.vertices]
    sx = _scale([min(xs) - 1, max(xs) + 1], _PAD, _W - _PAD)
    sy = _scale([min(ys) - 1, max(ys) + 1], _H - _PAD, _PAD)
    pts = " ".join("%.1f,%.1f" % (sx(x), sy(y)) for x, y in P.vertices)
    body = ['<polygon points="%s" fill="none" stroke="black"/>' % pts]
    import math
    for ix in range(math.floor(min(xs)), math.ceil(max(xs)) + 1):
        for iy in range(math.floor(min(ys)), math.ceil(max(ys)) + 1):
            body.append('<circle cx="%.1f" cy="%.1f" r="1.5" '
                        'fill="gray"/>' % (sx(ix), sy(iy)))
    for x, y in P.vertices:
        body.append('<circle cx="%.1f" cy="%.1f" r="3" fill="black"/>'
                    % (sx(x), sy(y)))
        body.append('<text x="%.1f" y="%.1f" font-size="10">(%s,%s)'
                    '</text>' % (sx(x) + 5, sy(y) - 5, fmt_rat(x),
                                 fmt_rat(y)))
    return _svg(body)


def density_svg(rho):
    bps, vals = rho.breakpoints, rho.values
    sx = _scale([bps[0], bps[-1]], _PAD, _W - _PAD)
    top = max(vals) if max(vals) > 0 else Fraction(1)
    sy = _scale([0, top], _H - _PAD, _PAD)
    pts = " ".join("%.1f,%.1f" % (sx(b), sy(v)) for b, v in zip(bps, vals))
    body = ['<line x1="%d" y1="%.1f" x2="%d" y2="%.1f" stroke="gray"/>'
            % (_PAD, sy(0), _W - _PAD, sy(0)),
            '<polyline points="%s" fill="none" stroke="black"/>' % pts]
    for b, v in zip(bps, vals):
        body.append('<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" '
                    'stroke="gray"/>' % (sx(b), sy(0) - 3, sx(b),
                                         sy(0) + 3))
        body.append('<text x="%.1f" y="%.1f" font-size="10">%s</text>'
                    % (sx(b) - 6, sy(0) + 15, fmt_rat(b)))
    return _svg(body)


def render(obj, fmt="svg"):
    """Dispatch on object type; fmt is "svg" or "dot" (graphs only)."""
    from .dh_measure import PiecewiseLinearDensity
    from .toric_geometry import DelzantPolygon
    if fmt == "dot":
        if not isinstance(obj, DecoratedGraph):
            raise ValueError("dot output is only defined for graphs")
        return graph_dot(obj)
    if fmt != "svg":
        raise ValueError("unknown render format %r" % (fmt,))
    if isinstance(obj, DecoratedGraph):
        return graph_svg(obj)
    if isinstance(obj, DelzantPolygon):
        return polygon_svg(obj)
    if isinstance(obj, PiecewiseLinearDensity):
        return density_svg(obj)
    raise ValueError("cannot render %r" % (type(obj).__name__,))
