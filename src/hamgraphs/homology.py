"""Curves and intersection numbers on blown-up ruled spaces.

For a graph with two fixed surfaces, the invariant spheres organize into
chains running from the bottom surface to the top one: each monotone path
of recorded edges contributes its spheres plus a free sphere at either
end, and an edgeless interior point contributes a chain of two free
spheres.  Together with the fixed surfaces B_min, B_max and a generic
fiber F these curves span the homology, and their pairing matrix, class
values, and positive decompositions are all computable from the labels.
"""

from collections import namedtuple
from fractions import Fraction

from . import blowup_calculus, graph_core
from .dh_measure import extremal_self_intersections
from .graph_core import GraphError, require_valid

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


def _labels(chains):
    out = [BMIN, BMAX, FIBER]
    for ci, chain in enumerate(chains, start=1):
        out += [_elabel(ci, i) for i in range(1, len(chain) + 1)]
    return tuple(out)


def intersection_matrix(g):
    """Integer pairing of the spanning curves of a two-surface graph.  The
    diagonal entry of a chain sphere is its self-intersection, read off
    the sphere table (graph_core._sphere_table), an int on a valid graph."""
    ext = extremal_self_intersections(g)
    chains = _chain_structure(g)
    labels = _labels(chains)
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
    return IntersectionData(labels, tuple(tuple(r) for r in M),
                            tuple(basis), spheres)


def _values_along(g, chains):
    """Class values read off the labels, following a fixed chain layout:
    chains of (low, high, k, ...) spheres, each valued at its area on g
    (graph_core._area).

    The two surfaces are found by kind, not by extremal position, so this
    also evaluates oversized blow-ups whose exceptional point overshoots
    the top surface (their values simply come out nonpositive).
    """
    surfaces = sorted(g.surfaces(), key=lambda v: g._y[v.id])
    if len(surfaces) != 2:
        raise GraphError("homology needs a graph with two fixed surfaces")
    lo, hi = surfaces
    vals = {BMIN: lo.area, BMAX: hi.area,
            FIBER: graph_core._area(g, lo.id, hi.id, 1)}
    for ci, chain in enumerate(chains, start=1):
        for i, s in enumerate(chain, start=1):
            vals[_elabel(ci, i)] = graph_core._area(g, *s[:3])
    return vals


def class_values(g):
    """Symplectic area of each spanning curve: a fixed surface contributes
    its area label, a k-sphere (Phi(north) - Phi(south))/k, and the fiber
    y_max - y_min."""
    require_valid(g)
    return _values_along(g, _chain_structure(g))


def positivity_equiv(sb, lams):
    """Whether, for each lambda in lams, an int or a Fraction, positivity
    of all class values of the instantiated blow-up agrees with the
    monotonicity check.  The supremum is a positive Fraction (see
    blowup_calculus.blowup_symbolic), so sup/2 is admissible."""
    ref = blowup_calculus.instantiate(sb, sb.sup / 2)
    chains = _chain_structure(ref)
    for lam in lams:
        admissible = blowup_calculus.monotone_check(sb, lam)
        if lam <= 0:
            continue
        inst = blowup_calculus.instantiate(sb, lam)
        positive = all(v > 0 for v in _values_along(inst, chains).values())
        if positive != admissible:
            return False
    return True


def blowup_class_transform(g, values, site, lam):
    """Transform class values under a blow-up of size lam, an int or a
    Fraction, at the site.

    Each curve's value drops by lam times its intersection with the
    exceptional sphere, and the exceptional sphere itself gets value lam.
    Returns values keyed by the spanning labels of the blown-up graph.
    """
    require_valid(g)
    chains = _chain_structure(g)
    gb = blowup_calculus.blowup(g, site.vertex, lam)
    lam = Fraction(lam)
    new_chains = _chain_structure(gb)
    old_ids = [frozenset(s[1] for s in c[:-1]) for c in chains]
    out = {BMIN: values[BMIN], BMAX: values[BMAX], FIBER: values[FIBER]}
    if site.tag == "SurfaceMin":
        out[BMIN] = values[BMIN] - lam
    elif site.tag == "SurfaceMax":
        out[BMAX] = values[BMAX] - lam
    elif site.tag != "Interior":
        raise GraphError("no incidence data for site %s on a two-surface "
                         "graph" % (site.tag,))
    for nci, chain in enumerate(new_chains, start=1):
        ids = frozenset(s[1] for s in chain[:-1])
        if ids in old_ids:
            oci = old_ids.index(ids) + 1
            for i in range(1, len(chain) + 1):
                out[_elabel(nci, i)] = values[_elabel(oci, i)]
            continue
        if site.tag in ("SurfaceMin", "SurfaceMax"):
            # fresh two-sphere chain: the exceptional sphere sits next to
            # the blown-up surface, the other sphere is the proper
            # transform of the fiber through the blown-up point
            exc = 1 if site.tag == "SurfaceMin" else 2
            out[_elabel(nci, exc)] = lam
            out[_elabel(nci, 3 - exc)] = values[FIBER] - lam
        else:
            # interior blow-up: the split vertex's two neighbor spheres
            # each meet the exceptional sphere once
            oci = next(i + 1 for i, ids0 in enumerate(old_ids)
                       if site.vertex in ids0)
            j = next(i for i, s in enumerate(chains[oci - 1], start=1)
                     if s[1] == site.vertex)
            old = [values[_elabel(oci, i)]
                   for i in range(1, len(chain))]
            new = old[:j - 1] + [old[j - 1] - lam, lam, old[j] - lam] \
                + old[j + 1:]
            for i, v in enumerate(new, start=1):
                out[_elabel(nci, i)] = v
    return out


# coefficients is a dict, or None with failure the reason
Decomposition = namedtuple("Decomposition", "ok coefficients failure")


def decompose_positive(g, inters):
    """Express a class with the given nonnegative intersection numbers as a
    combination of spanning curves with alpha_min = alpha_1 = 0.

    inters: label -> integer intersection with each spanning curve.  The
    linear system is solved chain by chain; the surplus equations are
    consistency checks, and the result must satisfy alpha_max >= 0,
    alpha_F >= 0 and alpha_{i+1}/k_{i+1} >= alpha_i/k_i >= 0 along every
    chain.  Returns a Decomposition; inconsistent data raises.
    """
    data = intersection_matrix(g)
    pos = {lab: i for i, lab in enumerate(data.labels)}
    C = {lab: Fraction(inters[lab]) for lab in data.labels}
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
    spanning curve."""
    pos = {lab: i for i, lab in enumerate(data.labels)}
    out = {}
    for lab in data.labels:
        row = data.matrix[pos[lab]]
        out[lab] = sum(Fraction(coeffs.get(l2, 0)) * row[pos[l2]]
                       for l2 in data.labels)
    return out
