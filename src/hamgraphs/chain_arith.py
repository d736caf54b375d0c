"""Integer arithmetic of chains of gradient spheres.

A chain records the stabilizer orders k_1..k_l of the spheres joining the
fixed points of one branch, bottom to top.  Each end is either a fixed
surface (contributing neighbor weight 0) or an isolated extremum, whose
second isotropy weight is carried explicitly on the boundary marker.
"""

from collections import namedtuple
from math import gcd


class ChainError(Exception):
    pass


SURFACE_END = None  # boundary marker: adjacent to a fixed surface


class WeightChain(namedtuple("WeightChain", "weights bottom top",
                             defaults=(SURFACE_END, SURFACE_END))):
    """weights: k_1..k_l, positive integers, kept as a tuple; bottom and
    top: the other isotropy weight at each end, or SURFACE_END."""
    __slots__ = ()

    def __new__(cls, weights, bottom=SURFACE_END, top=SURFACE_END):
        return super().__new__(cls, tuple(weights), bottom, top)

    @classmethod
    def _make(cls, iterable):   # so _replace keeps weights a tuple
        return cls(*iterable)

    def end_weight(self, which):
        """Neighbor weight beyond the chain: 0 at a surface end."""
        mark = self.bottom if which == "bottom" else self.top
        return 0 if mark is SURFACE_END else abs(mark)


def validate_chain(c):
    """Return a list of violated conditions; empty means valid."""
    problems = []
    ks = c.weights
    if not ks:
        return ["empty chain"]
    for k in ks:
        if not isinstance(k, int) or k < 1:
            problems.append("weight %r is not a positive integer" % (k,))
    if problems:
        return problems
    for i in range(len(ks) - 1):
        if gcd(ks[i], ks[i + 1]) != 1:
            problems.append("gcd(k_%d, k_%d) = %d != 1"
                            % (i + 1, i + 2, gcd(ks[i], ks[i + 1])))
    for i in range(1, len(ks) - 1):
        q, r = divmod(ks[i - 1] + ks[i + 1], ks[i])
        if r != 0 or q <= 0:
            problems.append("(k_%d + k_%d)/k_%d = %d/%d is not a positive "
                            "integer" % (i, i + 2, i + 1,
                                         ks[i - 1] + ks[i + 1], ks[i]))
    if c.bottom is SURFACE_END and ks[0] != 1:
        problems.append("surface end at the bottom requires k_1 = 1")
    if c.top is SURFACE_END and ks[-1] != 1:
        problems.append("surface end at the top requires k_l = 1")
    return problems


def require_valid_chain(c):
    problems = validate_chain(c)
    if problems:
        raise ChainError("; ".join(problems))
    return c


def self_intersections(c):
    """Self-intersection numbers e_1..e_l of the chain spheres.

    e_i = -(k_{i-1} + k_{i+1})/k_i, with the neighbor weight beyond either
    end given by the boundary marker (0 at a surface).
    """
    require_valid_chain(c)
    ks = (c.end_weight("bottom"),) + c.weights + (c.end_weight("top"),)
    es = []
    for i in range(1, len(ks) - 1):
        q, r = divmod(ks[i - 1] + ks[i + 1], ks[i])
        if r != 0:
            raise ChainError("self-intersection at position %d is not an "
                             "integer; boundary data inconsistent" % i)
        es.append(-q)
    return es


def _seed(k1, k2):
    """The first normal b_1 = -k_2^{-1} mod k_1 of a chain whose first two
    weights are k_1, k_2 (0 when k_1 = 1)."""
    return 0 if k1 == 1 else (-pow(k2, -1, k1)) % k1


def _normals(ks, b1):
    """b_i with k_{i-1} b_i - b_{i-1} k_i = 1 along the weights ks, seeded
    at b1."""
    bs = [b1]
    for i in range(1, len(ks)):
        num = 1 + bs[i - 1] * ks[i]
        if num % ks[i - 1] != 0:
            raise ChainError("chain %r admits no integral normals with the "
                             "forced seed" % (ks,))
        bs.append(num // ks[i - 1])
    return bs


def b_sequence(c, b1=None, b2=None):
    """Integers b_i with k_i b_{i+1} - b_i k_{i+1} = 1 along the chain.

    The default seed comes from the extended Euclidean algorithm with
    0 <= b_1 < k_2 when possible; any valid seed gives an equivalent fan.
    """
    require_valid_chain(c)
    ks = c.weights
    if b1 is None or b2 is None:
        b1 = _seed(ks[0], ks[1] if len(ks) > 1 else 1)
    elif len(ks) > 1 and ks[0] * b2 - b1 * ks[1] != 1:
        raise ChainError("seed violates k_1 b_2 - b_1 k_2 = 1")
    return _normals(ks, b1)


def chain_fan(c, b1=None, b2=None):
    """Lattice vectors u_i = (k_i, b_i); consecutive determinants are 1 and
    all vectors lie in the open right half-plane.  The determinants are
    not checked: _normals builds each b_i from exactly
    k_{i-1} b_i - b_{i-1} k_i = 1."""
    return list(zip(c.weights, b_sequence(c, b1, b2)))


def kho_d(c):
    """The positive integer d with sum 1/(k_i k_{i+1}) = d/(k_1 k_l).

    d is the determinant k_1 b_l - b_1 k_l of the first and last vectors
    of chain_fan.  Each term is b_{i+1}/k_{i+1} - b_i/k_i =
    (k_i b_{i+1} - b_i k_{i+1})/(k_i k_{i+1}) = 1/(k_i k_{i+1}), so the
    sum telescopes to b_l/k_l - b_1/k_1 = (k_1 b_l - b_1 k_l)/(k_1 k_l).
    That determinant is an integer, and positive as a sum of positive
    terms times k_1 k_l.
    """
    bs = b_sequence(c)
    ks = c.weights
    if len(ks) < 2:
        raise ChainError("kho_d needs a chain of length >= 2")
    return ks[0] * bs[-1] - bs[0] * ks[-1]
