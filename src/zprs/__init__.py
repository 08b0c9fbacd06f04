"""Additive constacyclic codes over the mixed alphabet Z_p x R x S,
with R = Z_p[u]/(u^2) and S = Z_p[u]/(u^3).

The toolkit covers exact chain-ring and polynomial arithmetic, additive
codes and their u-weighted duals, Gray maps and Lee weights, the four
weight enumerators with their MacWilliams transforms, and CSS quantum
codes from dual-containing cyclic codes over R.
"""

from .additive import (AdditiveCode, GeneratorHypothesisWarning, from_generator_polynomials,
                       shift_module_span, span_closure, word_from_polynomials)
from .enumerators import (Enumerator, complete_enumerator, hamming_enumerator,
                          hamming_transform, lee_enumerator, lee_transform,
                          macwilliams_complete_check, symbol_table, symmetrized_enumerator,
                          symmetrized_q_matrix, symmetrized_transform)
from .errors import ZprsError
from .field import find_kappa, is_prime
from .gray import GrayMap, LeeWeightMismatchWarning, gray_hamming_weight, lee_weight
from .linear import LinearCode, min_distance_by_enumeration
from .polynomials import (Poly, divides, factor_xn_minus_lambda, hat, parse_poly, poly_divmod,
                          reciprocal)
from .quantum import (FactorAssignment, QuantumParams, SearchHit, code_from_table_generators,
                      css, cyclic_code_from_assignment, cyclic_code_from_generators, cyclic_css,
                      is_dual_containing, search_dual_containing)
from .rings import ChainElement, eta0, eta1, eta2, unit_order
from .words import (BlockProfile, MixedWord, constacyclic_shift, flatten, inner_product,
                    mixed_scalar_mul, unflatten)

__version__ = "0.1.0"

__all__ = [
    "AdditiveCode", "BlockProfile", "ChainElement", "Enumerator",
    "FactorAssignment", "GeneratorHypothesisWarning",
    "GrayMap", "LeeWeightMismatchWarning", "LinearCode", "MixedWord", "Poly",
    "QuantumParams", "SearchHit", "ZprsError",
    "code_from_table_generators", "complete_enumerator", "constacyclic_shift", "css",
    "cyclic_code_from_assignment", "cyclic_code_from_generators", "cyclic_css", "divides",
    "eta0", "eta1", "eta2", "factor_xn_minus_lambda", "find_kappa", "flatten",
    "from_generator_polynomials", "gray_hamming_weight", "hamming_enumerator",
    "hamming_transform", "hat", "inner_product", "is_dual_containing", "is_prime",
    "lee_enumerator", "lee_transform", "lee_weight", "macwilliams_complete_check",
    "min_distance_by_enumeration", "mixed_scalar_mul", "parse_poly", "poly_divmod",
    "reciprocal", "search_dual_containing", "shift_module_span",
    "span_closure", "symbol_table", "symmetrized_enumerator", "symmetrized_q_matrix",
    "symmetrized_transform", "unflatten", "unit_order", "word_from_polynomials",
]
