"""Curves and intersection numbers on blown-up ruled spaces.

For a graph with two fixed surfaces, the invariant spheres organize into
chains running from the bottom surface to the top one: each monotone path
of recorded edges contributes its spheres plus a free sphere at either
end, and an edgeless interior point contributes a chain of two free
spheres.  Together with the fixed surfaces B_min, B_max and a generic
fiber F these curves span the homology, and their pairing matrix, class
values, and positive decompositions are all computable from the labels.

Nothing here restates a blow-up: the class values after one are
class_values of the blown-up graph (blowup_calculus.blowup), and they are
all positive exactly at the admissible sizes (0, sup) that
blowup_calculus.blowup_symbolic proves.  The module reads graph_core and
dh_measure only.
"""

from collections import namedtuple
from fractions import Fraction

from . import graph_core
from .dh_measure import extremal_self_intersections
from .graph_core import GraphError, _exact, require_valid

BMIN, BMAX, FIBER = "Bmin", "Bmax", "F"


def _elabel(ci, pos):
    return "E:%d:%d" % (ci, pos)


class IntersectionData(namedtuple("IntersectionData",
                                  "labels matrix basis chains")):
    """labels: the spanning set, in deterministic order; matrix: their
    symmetric integer pairing, a row per label; basis: Bmax, F and E_i
    with i >= 2 in each chain; chains: tuples of graph_core.Sphere."""
    __slots__ = ()

    def to_json(self):
        return {"labels": list(self.labels),
                "matrix": [list(r) for r in self.matrix],
                "basis": list(self.basis)}


def _chain_structure(g):
    """Chains of invariant spheres of the valid two-surface graph g, bottom
    to top, in deterministic order: its strands, each a tuple of sphere
    table rows (low, high, k, S.S, rise) (graph_core._sphere_links)."""
    if g.min_vertex().kind != "surface" or g.max_vertex().kind != "surface":
        raise GraphError("homology needs a graph with two fixed surfaces")
    return tuple(graph_core._sphere_links(g).strands.values())


def intersection_matrix(g):
    """Integer pairing of the spanning curves of a two-surface graph.  The
    diagonal entry of a chain sphere is its self-intersection, read off
    the sphere table (graph_core._sphere_table), an int on a valid graph."""
    ext = extremal_self_intersections(g)
    chains = _chain_structure(g)
    labels = [BMIN, BMAX, FIBER]
    for ci, chain in enumerate(chains, start=1):
        labels += [_elabel(ci, i) for i in range(1, len(chain) + 1)]
    pos = {lab: i for i, lab in enumerate(labels)}
    n = len(labels)
    M = [[0] * n for _ in range(n)]

    def put(a, b, v):
        M[pos[a]][pos[b]] = v
        M[pos[b]][pos[a]] = v

    put(BMIN, BMIN, int(ext.e_min))
    put(BMAX, BMAX, int(ext.e_max))
    put(FIBER, BMIN, 1)
    put(FIBER, BMAX, 1)
    basis = [BMAX, FIBER]
    for ci, chain in enumerate(chains, start=1):
        for i, (_, _, _, square, _) in enumerate(chain, start=1):
            put(_elabel(ci, i), _elabel(ci, i), square)
        for i in range(1, len(chain)):
            put(_elabel(ci, i), _elabel(ci, i + 1), 1)
        put(BMIN, _elabel(ci, 1), 1)
        put(BMAX, _elabel(ci, len(chain)), 1)
        basis += [_elabel(ci, i) for i in range(2, len(chain) + 1)]
    spheres = tuple(tuple(graph_core.Sphere(*r[:3]) for r in c)
                    for c in chains)
    return IntersectionData(tuple(labels), tuple(tuple(r) for r in M),
                            tuple(basis), spheres)


def class_values(g):
    """Symplectic area of each spanning curve: a fixed surface contributes
    its area label, a k-sphere (Phi(north) - Phi(south))/k, and the fiber
    y_max - y_min.  Each sphere's area is graph_core._area."""
    require_valid(g)
    chains = _chain_structure(g)
    lo, hi = g.min_vertex(), g.max_vertex()
    vals = {BMIN: lo.area, BMAX: hi.area,
            FIBER: graph_core._area(g, lo.id, hi.id, 1)}
    for ci, chain in enumerate(chains, start=1):
        for i, s in enumerate(chain, start=1):
            vals[_elabel(ci, i)] = graph_core._area(g, *s[:3])
    return vals


def _integers(labels, values, what):
    """values[lab] as a Fraction for each of the labels.  An unknown or a
    missing label, and a value that is not an int or an integer Fraction,
    raise a GraphError that names the label: a float, a string or a bool
    would stand for some other number (graph_core._exact)."""
    for lab in values:
        if lab not in labels:
            raise GraphError("unknown label %s" % (lab,))
    for lab in labels:
        if lab not in values:
            raise GraphError("%s %s is missing" % (what, lab))
        x = _exact(values[lab], "%s %s" % (what, lab))
        if x.denominator != 1:
            raise GraphError("%s %s must be an integer, not %s"
                             % (what, lab, x))
    return {lab: Fraction(values[lab]) for lab in labels}


# coefficients is a dict, or None with failure the reason
Decomposition = namedtuple("Decomposition", "ok coefficients failure")


def decompose_positive(g, inters):
    """Express a class with the given nonnegative intersection numbers as a
    combination of spanning curves with alpha_min = alpha_1 = 0.

    inters: label -> integer intersection with each spanning curve, for
    every label and no other (_integers).  The linear system is solved
    chain by chain; the surplus equations are consistency checks, and the
    result must satisfy alpha_max >= 0, alpha_F >= 0 and
    alpha_{i+1}/k_{i+1} >= alpha_i/k_i >= 0 along every chain.  Returns a
    Decomposition; inconsistent data raises.
    """
    data = intersection_matrix(g)
    pos = {lab: i for i, lab in enumerate(data.labels)}
    C = _integers(data.labels, inters, "intersection number")
    if any(v < 0 for v in C.values()):
        raise GraphError("intersection numbers must be nonnegative")
    coeffs = {BMIN: Fraction(0)}
    coeffs[BMAX] = C[FIBER]
    coeffs[FIBER] = C[BMIN]
    sum_top = Fraction(0)
    for ci, chain in enumerate(data.chains, start=1):
        l = len(chain)
        es = [data.matrix[pos[_elabel(ci, i)]][pos[_elabel(ci, i)]]
              for i in range(1, l + 1)]
        a = [Fraction(0), C[_elabel(ci, 1)]]  # alpha_1, alpha_2
        for i in range(2, l):
            a.append(C[_elabel(ci, i)] - a[i - 2] - es[i - 1] * a[i - 1])
        if C[_elabel(ci, l)] != a[l - 2] + es[l - 1] * a[l - 1] + coeffs[BMAX]:
            raise GraphError("inconsistent intersection data on chain %d"
                             % ci)
        for i in range(1, l + 1):
            coeffs[_elabel(ci, i)] = a[i - 1]
        sum_top += a[l - 1]
        prev = Fraction(0)
        for i in range(1, l + 1):
            cur = Fraction(a[i - 1], chain[i - 1].k)
            if cur < prev:
                return Decomposition(False, None,
                                     "alpha_%d/k_%d < alpha_%d/k_%d on "
                                     "chain %d" % (i, i, i - 1, i - 1, ci))
            prev = cur
    e_max = data.matrix[pos[BMAX]][pos[BMAX]]
    if C[BMAX] != coeffs[BMAX] * e_max + coeffs[FIBER] + sum_top:
        raise GraphError("inconsistent intersection data at the top surface")
    if coeffs[BMAX] < 0:
        return Decomposition(False, None, "alpha_max < 0")
    if coeffs[FIBER] < 0:
        return Decomposition(False, None, "alpha_F < 0")
    return Decomposition(True, coeffs, None)


def pair_with(data, coeffs):
    """Intersection numbers of the combination sum coeffs[D] D against each
    spanning curve.  coeffs: label -> integer coefficient, for every label
    of data and no other (_integers)."""
    coeffs = _integers(data.labels, coeffs, "coefficient")
    out = {}
    for lab, row in zip(data.labels, data.matrix):
        out[lab] = sum(coeffs[l2] * x for l2, x in zip(data.labels, row))
    return out
