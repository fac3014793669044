"""Deciding and certifying movability of small graphs.

The pipeline: enumerate NAC-colorings, take the constant distance closure,
apply the necessary condition (closure not complete), then construct a
proper flexible labeling with a machine-checkable certificate.
"""

from .graphs import Graph, edge, encode_graph6, parse_graph6, reduce_degree_two
from .pebble import has_spanning_laman, is_laman, spanning_laman_rank
from .canon import are_isomorphic, canonical_form
from .nac import (
    NacColoring,
    constant_distance_closure,
    enumerate_nac,
    is_nac,
    unicolor_pairs,
)
from .motion import (
    ParametrizedMotion,
    active_nac_colorings,
    candidate_places,
    refix_edge,
    valuation_table,
    verify_injectivity,
    w_function,
    z_function,
)
from .constructions import (
    deltoid_motion,
    dixon_one,
    grid_construction,
    motion_from_embedding,
    s5_motion,
    two_nac_embedding,
)
from .decide import (
    census,
    certify_no_unicolor_pairs,
    classify,
    nac_witnesses,
)

__all__ = [
    "Graph",
    "NacColoring",
    "ParametrizedMotion",
    "active_nac_colorings",
    "are_isomorphic",
    "candidate_places",
    "canonical_form",
    "census",
    "certify_no_unicolor_pairs",
    "classify",
    "constant_distance_closure",
    "deltoid_motion",
    "dixon_one",
    "edge",
    "encode_graph6",
    "enumerate_nac",
    "grid_construction",
    "has_spanning_laman",
    "is_laman",
    "is_nac",
    "motion_from_embedding",
    "nac_witnesses",
    "parse_graph6",
    "reduce_degree_two",
    "refix_edge",
    "s5_motion",
    "spanning_laman_rank",
    "two_nac_embedding",
    "unicolor_pairs",
    "valuation_table",
    "verify_injectivity",
    "w_function",
    "z_function",
]
