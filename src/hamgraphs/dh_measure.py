"""Duistermaat-Heckman density of a decorated graph.

The density on the moment interval [y_min, y_max] is

    rho(y) = a_min H(y - y_min) - e_min T(y - y_min)
             - sum_p T(y - y_p) / (m_p n_p)
             - e_max T(y - y_max) - a_max H(y - y_max)

with H(x) = 1 for x >= 0 else 0, and T(x) = x for x >= 0 else 0.  The sum
runs over interior fixed points with weights {-m_p, n_p}.  Stored values
follow the limit from inside the support, so the function is continuous
piecewise-linear data; pointwise evaluation with the closed H convention
is available through ``evaluate``.

``density`` computes the values in one sweep up the levels, not term by
term: rho(y_min) = a_min, the slope starts at -e_min, each value is the
one below plus slope times the gap, and at each interior level the slope
drops by the sum of 1/(m_p n_p) over the points there.  The sweep runs on
the graph's integer levels (``_y``, over ``_scale``), with the slope over
one common denominator and each value made a Fraction once.  The values
stay exact, and the last one is a_max.
"""

from collections import namedtuple
from fractions import Fraction
from math import lcm

from .graph_core import _extremal_pair, _weight_products, require_valid
from .rational import fmt_rat


class PiecewiseLinearDensity(namedtuple("PiecewiseLinearDensity",
                                        "breakpoints values")):
    """Continuous piecewise-linear function on [breakpoints[0], breakpoints[-1]],
    zero outside; values are the limits from inside the support."""
    __slots__ = ()

    def __new__(cls, breakpoints, values):
        breakpoints, values = tuple(breakpoints), tuple(values)
        if len(breakpoints) != len(values):
            raise ValueError("breakpoints and values differ in length")
        for a, b in zip(breakpoints, breakpoints[1:]):
            if a >= b:
                raise ValueError("breakpoints must increase strictly")
        return super().__new__(cls, breakpoints, values)

    @classmethod
    def _make(cls, iterable):   # so _replace checks as the constructor does
        return cls(*iterable)

    def value_inside(self, y):
        bp, vals = self.breakpoints, self.values
        if y < bp[0] or y > bp[-1]:
            return Fraction(0)
        for i in range(len(bp) - 1):
            if bp[i] <= y <= bp[i + 1]:
                t = Fraction(y - bp[i], bp[i + 1] - bp[i])
                return vals[i] + t * (vals[i + 1] - vals[i])
        return vals[-1]

    def to_json(self):
        return {"breakpoints": [fmt_rat(b) for b in self.breakpoints],
                "values": [fmt_rat(v) for v in self.values]}


ExtremalData = namedtuple("ExtremalData", "e_min e_max")


def extremal_self_intersections(g):
    """Self-intersections of the extremal sets of a valid graph, solved from
    its labels by ``validate_graph``."""
    require_valid(g)
    return ExtremalData(*_extremal_pair(g))


def density(g):
    """Exact Duistermaat-Heckman density of a valid graph."""
    e_min = extremal_self_intersections(g).e_min
    lo, hi = g.min_vertex(), g.max_vertex()
    a_min = lo.area if lo.kind == "surface" else Fraction(0)
    mns = _weight_products(g)
    # slope over den, values over den * _scale
    den = lcm(e_min.denominator, a_min.denominator, *mns)
    slope = -e_min.numerator * (den // e_min.denominator)
    val = a_min.numerator * (den // a_min.denominator) * g._scale
    y, prev = g._y, g._y[lo.id]
    bps, values = [lo.moment], [a_min]
    # interior levels come in level order; the maximum closes the sweep
    for vid, mn in zip(g.interior_ids() + (hi.id,), mns + [None]):
        if y[vid] != prev:
            val += slope * (y[vid] - prev)
            prev = y[vid]
            bps.append(g.moment(vid))
            values.append(Fraction(val, den * g._scale))
        if mn is not None:
            slope -= den // mn
    return PiecewiseLinearDensity(bps, values)


def evaluate(g, y):
    """Pointwise value of rho with the literal H(0) = 1 convention: the
    density on [y_min, y_max) and 0 elsewhere.  At y_max the jump
    -a_max H(0) cancels the value a_max reached from inside, and above
    y_max the terms cancel because the extremal data solve the two
    Duistermaat-Heckman equations."""
    rho = density(g)
    if rho.breakpoints[0] <= y < rho.breakpoints[-1]:
        return rho.value_inside(y)
    return Fraction(0)


def total_mass(rho):
    """Exact integral of a piecewise-linear density."""
    total = Fraction(0)
    for i in range(len(rho.breakpoints) - 1):
        dy = rho.breakpoints[i + 1] - rho.breakpoints[i]
        total += Fraction(rho.values[i] + rho.values[i + 1], 2) * dy
    return total


def check_concave_nonneg(rho):
    """Slopes must be non-increasing and values nonnegative on the support."""
    if any(v < 0 for v in rho.values):
        return False
    slopes = []
    for i in range(len(rho.breakpoints) - 1):
        dy = rho.breakpoints[i + 1] - rho.breakpoints[i]
        slopes.append(Fraction(rho.values[i + 1] - rho.values[i], dy))
    return all(s1 >= s2 for s1, s2 in zip(slopes, slopes[1:]))


def polygon_pushforward(P):
    """Horizontal width function of a Delzant polygon: the pushforward of
    Lebesgue measure under (x, y) -> y."""
    from .toric_geometry import require_valid_polygon
    require_valid_polygon(P)
    heights = sorted({y for _, y in P.vertices})

    def width(y):
        xs = []
        n = len(P.vertices)
        for i in range(n):
            (x1, y1), (x2, y2) = P.vertices[i], P.vertices[(i + 1) % n]
            if y1 == y2 == y:
                xs += [x1, x2]
            elif min(y1, y2) <= y <= max(y1, y2) and y1 != y2:
                xs.append(x1 + (x2 - x1) * Fraction(y - y1, y2 - y1))
        return max(xs) - min(xs)

    return PiecewiseLinearDensity(heights, [width(y) for y in heights])
