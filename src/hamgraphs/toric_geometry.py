"""Delzant polygons, smooth fans, and the polygon <-> graph dictionary.

Polygons are counterclockwise tuples of rational points.  An edge with
primitive outward normal (k, b), |k| >= 2, lies over a sphere with
stabilizer Z_k; horizontal edges lie over fixed surfaces; the moment level
is the height.  ``graph_to_polygon`` rebuilds a polygon from a graph with
two chains, one drawn as the right boundary and one as the left.
"""

from fractions import Fraction
from math import gcd, lcm

from .chain_arith import ChainError, _normals, _seed
from .dh_measure import extremal_self_intersections
from .graph_core import (DecoratedGraph, Edge, GraphError, Vertex, _exact,
                         extend_graph, require_valid)
from .rational import fmt_rat, parse_rat


class PolygonError(GraphError):
    pass


def _rat(x):
    return x if isinstance(x, Fraction) else Fraction(x)


def _coord(x):
    """The polygon coordinate x as a Fraction; anything but an int or a
    Fraction is refused (graph_core._exact)."""
    return x if type(x) is Fraction else _rat(_exact(x, "polygon coordinate"))


class DelzantPolygon:
    """A polygon, immutable after construction: ``vertices`` is a tuple of
    rational points, each coordinate given as an int or a Fraction (a
    float, a string or a bool is refused, as it would stand for some
    other number).  ``require_valid_polygon`` computes validate_delzant's
    problems at most once per polygon and keeps them in ``_problems``; a
    polygon built by a construction proved to give a Delzant polygon is
    marked valid at once (``_problems = ()``)."""

    def __init__(self, vertices):
        self.vertices = tuple((_coord(x), _coord(y)) for x, y in vertices)
        self._problems = None

    def __eq__(self, other):
        return isinstance(other, DelzantPolygon) and \
            self.vertices == other.vertices

    def __repr__(self):
        return "DelzantPolygon(%r)" % (self.vertices,)

    def edge_list(self):
        n = len(self.vertices)
        return [(self.vertices[i], self.vertices[(i + 1) % n])
                for i in range(n)]

    def to_json(self):
        return {"vertices": [[fmt_rat(x), fmt_rat(y)]
                             for x, y in self.vertices]}


def polygon_from_json(data):
    try:
        points = data["vertices"]
        for p in points:
            if not isinstance(p, list) or len(p) != 2:
                raise ValueError("vertex %r is not an array [x, y]" % (p,))
        return DelzantPolygon([(parse_rat(x), parse_rat(y))
                               for x, y in points])
    except (KeyError, TypeError, ValueError) as exc:
        raise PolygonError("malformed polygon JSON: %s" % exc) from exc


def primitive(dx, dy):
    """Primitive integer vector positively parallel to the rational (dx, dy).
    (a/b, c/d) is a positive multiple of the integer vector (a d, c b);
    two ints, as affine_normal_form passes, are that vector already."""
    if isinstance(dx, int) and isinstance(dy, int):
        ix, iy = dx, dy
    else:
        dx, dy = _rat(dx), _rat(dy)
        ix = dx.numerator * dy.denominator
        iy = dy.numerator * dx.denominator
    if ix == iy == 0:
        raise ValueError("zero vector")
    g = gcd(ix, iy)
    return ix // g, iy // g


def det2(u, v):
    return u[0] * v[1] - u[1] * v[0]


def edge_direction(p, q):
    return primitive(q[0] - p[0], q[1] - p[1])


def outward_normal(p, q):
    """Primitive outward normal of the ccw edge p -> q."""
    dx, dy = edge_direction(p, q)
    return (dy, -dx)


def lattice_length(p, q):
    d = edge_direction(p, q)
    if d[0] != 0:
        return Fraction(q[0] - p[0], d[0])
    return Fraction(q[1] - p[1], d[1])


def validate_delzant(P):
    """Return a list of problems; empty means P is a Delzant polygon.
    Computed afresh on every call, whatever P is marked."""
    verts = P.vertices
    problems = []
    if len(verts) < 3:
        return ["fewer than three vertices"]
    if len(set(verts)) != len(verts):
        return ["repeated vertex"]
    n = len(verts)
    dirs = []
    for i in range(n):
        p, q = verts[i], verts[(i + 1) % n]
        dirs.append(edge_direction(p, q))
    area2 = sum(verts[i][0] * verts[(i + 1) % n][1]
                - verts[(i + 1) % n][0] * verts[i][1] for i in range(n))
    if area2 <= 0:
        problems.append("vertices are not in counterclockwise order")
    for i in range(n):
        if det2(dirs[i], dirs[(i + 1) % n]) <= 0:
            problems.append("not strictly convex at vertex %d" % ((i + 1) % n))
    if problems:
        return problems
    normals = [(d[1], -d[0]) for d in dirs]
    for i in range(n):
        if det2(normals[i], normals[(i + 1) % n]) != 1:
            problems.append("normal determinant != 1 at vertex %d"
                            % ((i + 1) % n))
    return problems


def require_valid_polygon(P):
    """P, or a PolygonError with its problems; they are found once per
    polygon and kept on it."""
    if P._problems is None:
        P._problems = tuple(validate_delzant(P))
    if P._problems:
        raise PolygonError("; ".join(P._problems))
    return P


def polygon_to_graph(P):
    """Fixed-point data of the toric space over P, restricted to the
    vertical circle action."""
    require_valid_polygon(P)
    verts = P.vertices
    n = len(verts)
    vertex_of = {}
    graph_vertices = []
    edges = []
    for i in range(n):
        p, q = verts[i], verts[(i + 1) % n]
        if p[1] == q[1]:
            sid = "s%d" % i
            graph_vertices.append(Vertex(sid, "surface", p[1],
                                         area=lattice_length(p, q), genus=0))
            vertex_of[p] = sid
            vertex_of[q] = sid
    for i, p in enumerate(verts):
        if p not in vertex_of:
            vid = "p%d" % i
            graph_vertices.append(Vertex(vid, "point", p[1]))
            vertex_of[p] = vid
    for i in range(n):
        p, q = verts[i], verts[(i + 1) % n]
        k = abs(outward_normal(p, q)[0])
        if k >= 2:
            edges.append(Edge(vertex_of[p], vertex_of[q], k))
    g = DecoratedGraph(graph_vertices, edges)
    return require_valid(g)


# -- graph -> polygon --------------------------------------------------------

def _seed_pair(k1, k1p, k2_right):
    """Integers (b1, b1') for the bottom corner: det(u1' u1) = 1 for an
    isolated minimum, i.e. k1' b1 + k1 b1' = -1."""
    b1 = _seed(k1, k1p if k2_right is None else k2_right)
    num = -1 - k1p * b1
    if num % k1 != 0:
        raise GraphError("internal failure: bottom corner is not smooth: "
                         "weights %d, %d" % (k1, k1p))
    return b1, num // k1


def graph_to_polygon(g):
    """A Delzant polygon whose vertical circle action has graph g.

    The two chains of the extension become the right and left boundary;
    the horizontal distance between the boundaries at level t equals the
    Duistermaat-Heckman density at t.

    The width w(t) = x_right(t) - x_left(t) equals the density rho(t) on
    [y_min, y_max], so the polygon closes at the top without a check.  A
    sphere (k, b) moves x_right by -(b/k) dt and one (k', b') of the left
    chain moves x_left by +(b'/k') dt, so w is piecewise linear in t.
    - At y_min both are a_min, or 0 at an isolated minimum.
    - Both start with slope -e_min.  At a surface minimum the seeds are
      b1 = 0 and b1' = e_min with k1 = k1' = 1.  At an isolated minimum
      _seed_pair gives k1' b1 + k1 b1' = -1, a slope of 1/(k1 k1'), and
      validity demands e_min = -1/(k1 k1').
    - Every interior point p lies on exactly one chain, between spheres
      k_{i-1} and k_i, and its weights multiply to m_p n_p = k_{i-1} k_i.
      There _normals' k_{i-1} b_i - b_{i-1} k_i = 1 drops the slope of w
      by 1/(k_{i-1} k_i), which is rho's kink 1/(m_p n_p).
    So w(y_max) = rho(y_max-) = a_max and the slope of w just below y_max
    is e_max, by the equations validate_graph solves.  At a surface
    maximum the top gap is the area a_max.  At an isolated maximum
    a_max = 0, so the chains meet at one point, and e_max = -1/(k_r k_l)
    gives k_l b_r + k_r b_l = 1, the determinant of the top corner.

    The polygon is Delzant by construction, so it is marked valid, not
    validated.  A sphere (k, b) of the right chain is an edge along
    (-b, k), one of the left chain an edge along (b, k), traversed
    downwards; a surface is a horizontal edge.  Every corner has
    determinant 1:
    - along a chain, _normals gives k_{i-1} b_i - b_{i-1} k_i = 1;
    - at an isolated minimum, _seed_pair gives k1' b1 + k1 b1' = -1;
    - at an isolated maximum, k_l b_r + k_r b_l = 1 as above;
    - beside a fixed surface, the chain ends in a free sphere (k = 1; the
      edges at a surface are free), and (-b, 1) or (b, 1) meets a
      horizontal edge with determinant 1 for every integer b.
    So every edge direction is primitive, and so is every normal.
    Every edge turns the same way, once round: heights rise strictly up
    the right chain and fall strictly down the left (a sphere joins two
    levels), and the only horizontal edges are the surfaces, the bottom
    one of length a_min > 0 and the top one of length a_max > 0.  So every
    corner is a strict left turn, the directions point up on the right
    and down on the left, and the turns add up to exactly 2 pi: the
    polygon is simple, strictly convex and counterclockwise, with
    primitive normals of determinant 1 at each corner.

    Every division is exact, so the bottom-corner refusal and the
    ChainError conversion are internal failures.  A chain sphere of
    weight k_i between spheres k_{i-1} and k_{i+1} has S.S =
    -(k_{i-1} + k_{i+1})/k_i (graph_core._sphere_table; an added free
    sphere has k_i = 1), an integer on a valid graph, so
    k_{i+1} = -k_{i-1} (mod k_i).  Then, by induction on
    k_{i-1} b_i - b_{i-1} k_i = 1, which gives k_{i-1} b_i = 1
    (mod k_i), the step 1 + b_i k_{i+1} = 1 - b_i k_{i-1} = 0 (mod k_i)
    of _normals is exact.  Its first step is exact by the seed: at a
    surface minimum k1 = k1' = 1; at an isolated one b1 k2 = -1 (mod k1)
    on the right, and on the left k1 b1' = -1 (mod k1') from
    _seed_pair.  At an isolated minimum with weights
    {k1, k1'} the first right sphere has S.S = (k1' - k2)/k1, so
    k1' = k2 (mod k1) and k1' b1 = -1 (mod k1): _seed_pair's division
    is exact (with one right sphere, b1 is seeded from k1' itself).  The
    first left sphere has S.S = (k1 - k2')/k1', so k2' = k1 (mod k1')
    and 1 + b1' k2' = 1 + b1' k1 = 0 (mod k1'): the left chain's first
    step is exact.

    The polygon is built once per graph and kept on it (``_polygon``), so
    every later call returns the same object; a refusal is not kept, and
    each call raises it again.
    """
    require_valid(g)
    if g._polygon is None:
        g._polygon = _build_polygon(g)
    return g._polygon


def _build_polygon(g):
    """graph_to_polygon's polygon of the valid graph g."""
    for s in g.surfaces():
        if s.genus != 0:
            raise GraphError("graph with positive genus is not toric")
    lo, hi = g.min_vertex(), g.max_vertex()
    chains = list(extend_graph(g).chains)
    while len(chains) < 2:
        chains.append(((lo.id, hi.id, 1),))
    right, left = chains
    ks_r = [k for _, _, k in right]
    ks_l = [k for _, _, k in left]

    a_min = lo.area if lo.kind == "surface" else Fraction(0)
    if lo.kind == "surface":
        # both chains start with a free sphere (k1 = k1' = 1)
        b1, b1p = 0, int(extremal_self_intersections(g).e_min)
    else:
        k2_right = ks_r[1] if len(ks_r) > 1 else None
        b1, b1p = _seed_pair(ks_r[0], ks_l[0], k2_right)
    try:
        bs_r = _normals(ks_r, b1)
        bs_l = _normals(ks_l, b1p)
    except ChainError as exc:
        raise GraphError("internal failure: %s" % exc) from exc

    def side_points(chain, bs, x0, sign):
        # x over den = _scale * lcm(k of the chain, x0's denominator): a
        # sphere (k, b) moves it by sign * b * (den / (k _scale)) times
        # the rise of its integer levels
        y = g._y
        mult = lcm(x0.denominator, *(k for _, _, k in chain))
        den = g._scale * mult
        x = x0.numerator * (den // x0.denominator)
        pts = [(x0, lo.moment)]
        for (low, high, k), b in zip(chain, bs):
            x += sign * b * (mult // k) * (y[high] - y[low])
            pts.append((Fraction(x, den), g.moment(high)))
        return pts

    verts = side_points(right, bs_r, Fraction(0), -1)
    back = list(reversed(side_points(left, bs_l, -a_min, +1)))
    if hi.kind == "point":
        back = back[1:]
    if lo.kind == "point":
        back = back[:-1]
    verts += back
    P = DelzantPolygon(verts)
    P._problems = ()  # require_valid_polygon's cached result: no problems
    return P


# -- affine equivalence ------------------------------------------------------

def affine_normal_form(P):
    """Canonical representative of P under (x,y) -> (a +/- x + m y, y).

    Each map is affine with an integer linear part of determinant +/-1,
    so it keeps lattice directions primitive.  The one with +x keeps the
    orientation and the determinant of each pair of neighbouring normals.
    The one with -x reverses both, and reading its vertices in reverse
    order, as below, restores both.  A cyclic shift of the vertices
    changes nothing.  So the normal form of a Delzant polygon is Delzant,
    and it is marked valid, not validated.

    The work runs on integer points: every coordinate is multiplied by
    L, the least common multiple of the denominators, and the result is
    divided by L once.  Scaling both axes by L > 0 commutes with the
    reflection, the integer shear and the translation, keeps the order
    of the points and of the candidate lists, and keeps each edge
    direction's primitive vector.
    """
    require_valid_polygon(P)
    scale = lcm(*(c.denominator for p in P.vertices for c in p))
    verts = [(x.numerator * (scale // x.denominator),
              y.numerator * (scale // y.denominator)) for x, y in P.vertices]
    n = len(verts)
    candidates = []
    for Q in (verts, [(-x, y) for x, y in reversed(verts)]):
        pivot = min(range(n), key=lambda i: (Q[i][1], Q[i][0]))
        edge = next(i % n for i in range(pivot, pivot + n)
                    if Q[i % n][1] != Q[(i + 1) % n][1])
        k, b = outward_normal(Q[edge], Q[(edge + 1) % n])
        # shearing by m sends the normal (k, b) to (k, b - m k);
        # normalize b into [0, |k|)
        m = (b - b % abs(k)) // k
        R = [(x + m * y, y) for x, y in Q]
        x0 = min(x for x, _ in R)
        R = [(x - x0, y) for x, y in R]
        start = min(range(n), key=lambda i: (R[i][1], R[i][0]))
        candidates.append(R[start:] + R[:start])
    Q = DelzantPolygon([(Fraction(x, scale), Fraction(y, scale))
                        for x, y in min(candidates)])
    Q._problems = ()  # require_valid_polygon's cached result: no problems
    return Q


def polygon_affine_equivalent(P1, P2):
    """True iff the polygons differ by (x,y) -> (a +/- x + m y, y)."""
    return affine_normal_form(P1).vertices == affine_normal_form(P2).vertices


# -- corner chopping ---------------------------------------------------------

def polygon_chop(P, index, t):
    """Cut the corner at the given vertex at lattice distance t, an int or
    a Fraction.

    P is validated and t checked, but the result is Delzant by
    construction, so it is marked valid, not validated.  t is less than
    both adjacent lattice lengths, so p_a and p_b lie strictly inside
    their edges and the other corners keep their edges' directions.  The
    new edge p_a -> p_b runs along t (d_in + d_out), which is primitive
    because det(d_in, d_out) = 1 (the normals of P's corner have
    determinant 1, and the normal (dy, -dx) turns directions by the same
    rotation).  It lies strictly between d_in and d_out, so both new
    corners turn left.  Its outward normal is n_in + n_out, and
    det(n_in, n_in + n_out) = det(n_in + n_out, n_out) =
    det(n_in, n_out) = 1.
    """
    require_valid_polygon(P)
    t = Fraction(_exact(t, "chop size"))
    if t <= 0:
        raise PolygonError("chop size must be positive")
    verts = P.vertices
    n = len(verts)
    if not 0 <= index < n:
        raise PolygonError("no vertex with index %r" % (index,))
    v = verts[index]
    prev_v = verts[(index - 1) % n]
    next_v = verts[(index + 1) % n]
    if t >= lattice_length(prev_v, v) or t >= lattice_length(v, next_v):
        raise PolygonError("chop size %s does not fit inside the adjacent "
                           "edges" % t)
    d_in = edge_direction(prev_v, v)
    d_out = edge_direction(v, next_v)
    p_a = (v[0] - t * d_in[0], v[1] - t * d_in[1])
    p_b = (v[0] + t * d_out[0], v[1] + t * d_out[1])
    Q = DelzantPolygon(verts[:index] + (p_a, p_b) + verts[index + 1:])
    Q._problems = ()  # require_valid_polygon's cached result: no problems
    return Q


# -- fans --------------------------------------------------------------------

def polygon_to_fan(P):
    """Cyclically ordered primitive inward normals of P."""
    require_valid_polygon(P)
    return [tuple(-c for c in outward_normal(p, q))
            for p, q in P.edge_list()]


def _upper(u):
    return u[1] > 0 or (u[1] == 0 and u[0] > 0)


def validate_fan(F):
    problems = []
    n = len(F)
    if n < 3:
        return ["fewer than three rays"]
    for u in F:
        if gcd(abs(u[0]), abs(u[1])) != 1:
            problems.append("ray %r is not primitive" % (u,))
    if problems:
        return problems
    for i in range(n):
        if det2(F[i], F[(i + 1) % n]) != 1:
            problems.append("determinant != 1 between rays %d and %d"
                            % (i, (i + 1) % n))
    crossings = sum(1 for i in range(n)
                    if not _upper(F[i]) and _upper(F[(i + 1) % n]))
    if not problems and crossings != 1:
        problems.append("rays do not wind around the origin exactly once")
    return problems
