"""Omega-parametrized Rota-Baxter structures.

Subpackages by concern: exact coefficients and formal sums (``scalars``),
finite parameter structures with layered axiom checking (``omega``), the
free algebra on typed angularly decorated planar rooted trees (``trees``),
the operator-identity and dendriform checkers (``rba``), typed words over a
basis-presented commutative algebra (``words``), the product core and the
expression layer those two free algebras share (``free``, ``expr``),
brute-force classification of two-element structures against the shipped
fixture tables (``classify``, ``tables``), and the command-line front end
(``cli``).
"""

from .scalars import FormalSum, Scalar, bilinear_extend, format_scalar, parse_scalar
from .omega import (
    AxiomReport,
    OmegaStructure,
    OpTable,
    StructureError,
    build_example,
    check_diassociative,
    check_eds,
    check_ets,
    check_ets_maps_level,
    check_lambda_ets,
    check_maps_level,
    ets_to_lambda_ets,
    is_commutative,
    opposite,
    parse_structure,
    serialize_structure,
)
from .trees import Tree, TreeAlgebra, corolla, graft, unit
from .words import FiniteAlgebra, TypedWord, WordAlgebra, unitize, word_evaluate

__version__ = "0.1.0"
