"""Clique packings, decompositions, and divisibility gadgets."""

from .graphs import (
    Graph,
    Packing,
    is_kq_divisible,
    optimal_leave_number,
    parse_graph,
    serialize_graph,
    union,
    verify_packing,
)

__version__ = "0.1.0"

__all__ = [
    "Graph",
    "Packing",
    "is_kq_divisible",
    "optimal_leave_number",
    "parse_graph",
    "serialize_graph",
    "union",
    "verify_packing",
    "__version__",
]
