"""Exact chromatic, flow, and order polynomials on desk-scale graphs and posets.

Computes the polynomials exactly, rewrites them in shifted binomial bases,
splits the resulting coefficient vectors into palindromic parts, and audits
the positivity and partial-sum inequalities those parts satisfy, with
independent brute-force oracles for every route.
"""

__version__ = "0.1.0"

from .decompositions import (
    CADecomposition,
    InequalityReport,
    SymmetricSplit,
    ca_decomposition,
    symmetric_split,
)
from .errors import (
    CapExceeded,
    InputFormatError,
    NotApplicable,
    PolybinomError,
)
from .graphs import (
    Multigraph,
    acyclic_orientations_up_to_reversal,
    cyclomatic_number,
    enumerate_totally_cyclic_orientations,
    in_degree_sequence_count,
)
from .polynomials import (
    Polynomial,
    StarVector,
    inverse_transform,
    star_from_values,
)
from .posets import (
    Poset,
    hstar_via_descents,
    lattice_point_counts,
    omega_star,
)
from .chromatic import (
    ChromaticResult,
    chromatic_analysis,
    chromatic_star,
    monomial_inequality_forms,
    star_via_order_polynomials,
)
from .flows import (
    FlowResult,
    flow_analysis,
    kochol_tables,
    modular_flow_count,
)

__all__ = [
    "CADecomposition",
    "CapExceeded",
    "ChromaticResult",
    "FlowResult",
    "InequalityReport",
    "InputFormatError",
    "Multigraph",
    "NotApplicable",
    "PolybinomError",
    "Polynomial",
    "Poset",
    "StarVector",
    "SymmetricSplit",
    "acyclic_orientations_up_to_reversal",
    "ca_decomposition",
    "chromatic_analysis",
    "chromatic_star",
    "cyclomatic_number",
    "enumerate_totally_cyclic_orientations",
    "flow_analysis",
    "hstar_via_descents",
    "in_degree_sequence_count",
    "inverse_transform",
    "kochol_tables",
    "lattice_point_counts",
    "modular_flow_count",
    "monomial_inequality_forms",
    "omega_star",
    "star_from_values",
    "star_via_order_polynomials",
    "symmetric_split",
]
