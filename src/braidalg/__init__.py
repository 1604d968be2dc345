"""Exact symbolic construction and verification of braided-algebra objects:
braid operators and their tensor-power extensions, q-deformed symmetric and
exterior quotients, quantized enveloping algebra actions, the quadratic
t-bialgebra of an exchange matrix, and the finite-degree dual pairing
between the two."""

from .scalar import (Scalar, ScalarParseError, ONE, Q, ZERO, parse_poly,
                     parse_scalar, q_binomial, q_integer)
from .linalg import (BraidCheck, BraidedSpace, BraidEquationError,
                     SymMatrix, check_braid, extend_braiding, flip_matrix,
                     image_subspace, invert, kron, minimal_poly,
                     solve_commutant)
from .ncalg import (DegreeBoundError, NCPoly, RelationSet, RewriteSystem,
                    complete_rewrite, hilbert, hilbert_oracle,
                    relations_from_image)
from .uqg import (CartanData, Gen, GeneratorCoalgebra, Representation,
                  UqPresentation, act_on_quotient, check_antipode,
                  check_derivation_measuring, check_ideal_preserved,
                  check_measuring, check_preserves_R, check_representation,
                  coproduct_action, generator_independence,
                  presentation_from_cartan, word_action)
from .frt import (FRTPresentation, PairingTable, check_duality,
                  frt_coideal_check, frt_hilbert, frt_relations, pairing)
from .builtin import (adjoint_sl2, builtin_sl, classical_space,
                      sl2_lie_actions, sl_rtt_matrix, sp4_symmetric_relations)
from .report import CheckItem, Report

__all__ = [
    "Scalar", "ScalarParseError", "ONE", "Q", "ZERO",
    "parse_poly", "parse_scalar", "q_binomial", "q_integer",
    "BraidCheck", "BraidedSpace", "BraidEquationError", "SymMatrix",
    "check_braid", "extend_braiding", "flip_matrix", "image_subspace",
    "invert", "kron", "minimal_poly", "solve_commutant",
    "DegreeBoundError", "NCPoly", "RelationSet", "RewriteSystem",
    "complete_rewrite", "hilbert", "hilbert_oracle", "relations_from_image",
    "CartanData", "Gen", "GeneratorCoalgebra", "Representation",
    "UqPresentation", "act_on_quotient", "check_antipode",
    "check_derivation_measuring", "check_ideal_preserved", "check_measuring",
    "check_preserves_R", "check_representation", "coproduct_action",
    "generator_independence", "presentation_from_cartan", "word_action",
    "FRTPresentation", "PairingTable", "check_duality", "frt_coideal_check",
    "frt_hilbert", "frt_relations", "pairing",
    "adjoint_sl2", "builtin_sl", "classical_space", "sl2_lie_actions",
    "sl_rtt_matrix", "sp4_symmetric_relations",
    "CheckItem", "Report",
]

__version__ = "0.1.0"
