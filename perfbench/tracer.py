"""Per-layer tracing of ``hamgraphs`` from outside the package.

The layers are the package modules.  While installed, the tracer replaces
every public function of each layer in every ``hamgraphs`` module namespace
that binds it (``from .graph_core import validate_graph`` copies the
binding), and the public methods of ``DecoratedGraph``.  Each call opens a
span under the innermost open span.  Spans are aggregated as they close,
so memory stays bounded on millions of calls: per function the number of
calls under each parent function, the self time (the span's duration less
the time its child spans cover) and the total time of outermost
activations.  ``Fraction`` rich comparisons are wrapped as well and counted
against the layer of the innermost open span.

Private helpers are not wrapped, so their time lands in the public function
of the same module that called them.
"""

import importlib
import pkgutil
import time
import types
import weakref
from fractions import Fraction

LAYERS = ("cli", "classify", "blowup_calculus", "graph_core", "dh_measure",
          "toric_geometry", "homology", "chain_arith", "rational")
ROOT = -1  # parent index of a span opened with no span open
_CMP_OPS = ("__eq__", "__lt__", "__le__", "__gt__", "__ge__")


def _modules():
    import hamgraphs

    mods = [hamgraphs]
    for info in pkgutil.iter_modules(hamgraphs.__path__):
        mods.append(importlib.import_module("hamgraphs." + info.name))
    return mods


def _has_twins(g):
    """Whether two vertices share their labels and their multiset of
    incident (weight, neighbour) pairs.  Such twins stay tied under colour
    refinement, so canonical_form has to individualise them."""
    incident = {vid: [] for vid in g.vertices}
    for e in g.edges:
        incident[e.a].append((e.k, e.b))
        incident[e.b].append((e.k, e.a))
    seen = set()
    for v in g.vertices.values():
        key = (v.kind, v.moment, v.area, v.genus,
               tuple(sorted(incident[v.id])))
        if key in seen:
            return True
        seen.add(key)
    return False


class Tracer:
    def __init__(self):
        from hamgraphs.graph_core import DecoratedGraph

        self.names = []          # index -> "layer.function"
        self.layer_of = []       # index -> layer name
        self.calls = {}          # (parent index, index) -> count
        self.self_s = []
        self.total_s = []
        self.active = []
        self.cmp = {layer: 0 for layer in LAYERS}
        self.stack = []          # open spans: [index, child seconds]
        self.validated = weakref.WeakSet()
        self.validate_distinct = 0
        self.twin_calls = 0
        self.twin_s = 0.0        # canonical_form time on graphs with twins
        self._patches = []       # (owner, attribute, original, wrapper)
        self._index = {}
        wrappers = {}
        for mod in _modules():
            for attr, obj in sorted(vars(mod).items()):
                if attr.startswith("_") or not isinstance(obj,
                                                          types.FunctionType):
                    continue
                layer = obj.__module__.rpartition(".")[2]
                if not obj.__module__.startswith("hamgraphs.") or \
                        layer not in LAYERS:
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(obj, layer, obj.__name__)
                self._patches.append((mod, attr, obj, wrappers[obj]))
        for attr, obj in sorted(vars(DecoratedGraph).items()):
            if not attr.startswith("_") and isinstance(obj,
                                                       types.FunctionType):
                self._patches.append((DecoratedGraph, attr, obj,
                                      self._wrap(obj, "graph_core",
                                                 "DecoratedGraph." + attr)))
        for op in _CMP_OPS:
            orig = vars(Fraction)[op]
            self._patches.append((Fraction, op, orig, self._count_cmp(orig)))

    def _wrap(self, fn, layer, name):
        idx = len(self.names)
        self.names.append("%s.%s" % (layer, name))
        self._index[self.names[-1]] = idx
        self.layer_of.append(layer)
        self.self_s.append(0.0)
        self.total_s.append(0.0)
        self.active.append(0)
        stack, calls = self.stack, self.calls
        self_s, total_s, active = self.self_s, self.total_s, self.active
        clock = time.perf_counter
        probe = {"validate_graph": self._probe_validate,
                 "canonical_form": self._probe_canonical}.get(name)

        def span(*args, **kwargs):
            twins = probe is not None and probe(args[0])
            key = (stack[-1][0] if stack else ROOT, idx)
            calls[key] = calls.get(key, 0) + 1
            frame = [idx, 0.0]
            stack.append(frame)
            active[idx] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spent = clock() - start
                stack.pop()
                active[idx] -= 1
                self_s[idx] += spent - frame[1]
                if not active[idx]:
                    total_s[idx] += spent
                if twins:
                    self.twin_s += spent
                if stack:
                    stack[-1][1] += spent

        span.__wrapped__ = fn
        return span

    def _probe_validate(self, g):
        if g not in self.validated:
            self.validated.add(g)
            self.validate_distinct += 1
        return False

    def _probe_canonical(self, g):
        if _has_twins(g):
            self.twin_calls += 1
            return True
        return False

    def _count_cmp(self, orig):
        stack, cmp, layer_of = self.stack, self.cmp, self.layer_of

        def compare(a, b):
            if stack:
                cmp[layer_of[stack[-1][0]]] += 1
            return orig(a, b)

        return compare

    def install(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, orig, _ in self._patches:
            setattr(owner, attr, orig)

    # -- reading the aggregates ---------------------------------------------

    def fn_calls(self, name, parent_layer=None, parent=None):
        """Calls of a function, optionally only those whose parent span is
        the named function or lies in the named layer."""
        idx = self._index[name]
        total = 0
        for (p, i), n in self.calls.items():
            if i != idx:
                continue
            if parent is not None and (p == ROOT or self.names[p] != parent):
                continue
            if parent_layer is not None and (
                    p == ROOT or self.layer_of[p] != parent_layer):
                continue
            total += n
        return total

    def layer_calls(self, layer):
        return sum(n for (_, i), n in self.calls.items()
                   if self.layer_of[i] == layer)

    def layer_self(self, layer):
        return sum(s for s, lay in zip(self.self_s, self.layer_of)
                   if lay == layer)

    def fn_self(self, name):
        return self.self_s[self._index[name]]

    def fn_total(self, name):
        return self.total_s[self._index[name]]

    def hot_spots(self, n=3):
        """The n functions with the most self time, as (name, seconds)."""
        order = sorted(range(len(self.names)), key=lambda i: -self.self_s[i])
        return [(self.names[i], self.self_s[i]) for i in order[:n]]
