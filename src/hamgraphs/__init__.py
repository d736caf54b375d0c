"""Exact combinatorics of compact 4-dimensional Hamiltonian circle spaces.

The central object is the decorated graph: fixed surfaces and isolated
fixed points placed at their moment-map levels, joined by edges recording
chains of gradient spheres with nontrivial stabilizers.  The package
validates these graphs, computes their Duistermaat-Heckman measures,
converts between graphs and Delzant polygons, performs blow-ups and
blow-downs, reduces to minimal models, enumerates classes, and computes
homological data on blown-up ruled spaces.  All arithmetic is exact.
"""

from .blowup_calculus import (blowdown, blowdown_sites, blowup,
                              blowup_sites, blowup_symbolic, instantiate,
                              max_size, monotone_check, reduce_to_minimal)
from .chain_arith import (SURFACE_END, ChainError, WeightChain, b_sequence,
                          chain_fan, kho_d, self_intersections,
                          validate_chain)
from .classify import (assign_labels, classify_isolated, enumerate_graphs,
                       is_toric_extendable, match_minimal_family,
                       minimal_graph)
from .dh_measure import (PiecewiseLinearDensity, check_concave_nonneg,
                         density, evaluate, extremal_self_intersections,
                         polygon_pushforward, total_mass)
from .graph_core import (DecoratedGraph, Edge, GraphError, NoExtensionError,
                         ValidationError, Vertex, canonical_form, compare,
                         extend_graph, flip, graph_from_json, graph_to_json,
                         is_isomorphic, isotropy_weights, require_valid,
                         shift, validate_graph)
from .homology import (class_values, decompose_positive,
                       intersection_matrix, pair_with)
from .toric_geometry import (DelzantPolygon, PolygonError,
                             affine_normal_form, graph_to_polygon,
                             polygon_affine_equivalent, polygon_chop,
                             polygon_from_json, polygon_to_fan,
                             polygon_to_graph, validate_delzant,
                             validate_fan)

__version__ = "0.1.0"
