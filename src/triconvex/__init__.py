"""Triangle path convexity algorithms.

A triangle path admits chords only between vertices at most two positions
apart; the convexity it induces is the one structure among the classical
path convexities where convex sets can be recognized, hulls computed, and
both the convexity number and the hull number found in polynomial time.
This package implements those algorithms over a clique minimal separator
decomposition, together with exponential brute-force oracles used by the
test-suite to cross-validate everything on small graphs.
"""

from .bitset import VertexSet
from .convexity import (
    ConvexityWitness,
    is_m_convex,
    is_p3_convex,
    is_t_convex,
    is_t_hull_set,
    t_convex_hull,
)
from .convexity_number import ConvexityNumberResult, convex_extension, convexity_number
from .decomposition import Decomposition, decompose, is_prime, pivots, verify_d_ordering
from .errors import (
    AlgorithmError,
    BudgetExceededError,
    ContractViolationError,
    Error,
    ParseError,
    ValidationError,
)
from .graph import (
    Graph,
    Path,
    connected_components,
    is_connected,
    load_graph,
    parse_graph,
    shortest_path,
    to_dimacs,
    to_edge_list,
)
from .hull_number import (
    HullNumberResult,
    SatisfactionVerdict,
    hull_number,
    is_hull_set_by_characterization,
    satisfies,
)
from .prime import PrimeConvexFamily, enumerate_prime_convex_sets, prime_is_t_convex, prime_t_hull

__version__ = "0.1.0"

__all__ = [
    "AlgorithmError",
    "BudgetExceededError",
    "ContractViolationError",
    "ConvexityNumberResult",
    "ConvexityWitness",
    "Decomposition",
    "Error",
    "Graph",
    "HullNumberResult",
    "ParseError",
    "Path",
    "PrimeConvexFamily",
    "SatisfactionVerdict",
    "ValidationError",
    "VertexSet",
    "connected_components",
    "convex_extension",
    "convexity_number",
    "decompose",
    "enumerate_prime_convex_sets",
    "hull_number",
    "is_connected",
    "is_hull_set_by_characterization",
    "is_m_convex",
    "is_p3_convex",
    "is_prime",
    "is_t_convex",
    "is_t_hull_set",
    "load_graph",
    "parse_graph",
    "pivots",
    "prime_is_t_convex",
    "prime_t_hull",
    "satisfies",
    "shortest_path",
    "t_convex_hull",
    "to_dimacs",
    "to_edge_list",
    "verify_d_ordering",
]
