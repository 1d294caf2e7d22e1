"""Certified parameter-map synthesis between operator families on grids.

The library answers one question: given a parameterized family of operators
and a polynomial family in fixed slot operators, is the first the second in
disguise?  A positive answer is an explicit parameter map together with a
sampled certificate; a negative answer is a typed diagnosis of which
precondition failed.
"""

from .engine import (Certificate, EmergenceMap, ProvenanceNode,
                     brute_force_emerge, emerge, emerge_accumulate,
                     emerge_composition, emerge_monomial, emerge_sum,
                     identity_emergence, verify_emergence)
from .errors import (BadSpec, DegreeMismatch, DimensionTooLarge, EmergenceError,
                     EmptyAccumulation, HypothesisViolated, InfeasibleTarget,
                     NoPreimage, NoSquareRoot, NotInIdentityOrbit,
                     NotMultiplicative, NotRightInvertible, NotScalarForm,
                     NotScalarInvariant, ParseError, SchemaError,
                     SpaceMismatch)
from .operator_core import (FieldSpace, Operator, add, adjoint_wrt_pairing,
                            compose, grid_space, identity_operator,
                            lagrangian_value, make_discrete_operator,
                            operator_residual, plain_space, right_inverse,
                            scale, sym_part, zero_operator)
from .parameter_algebra import (BooleanComplex, CentralizerDiagonal,
                                CoefficientFunction, ComplexScalars,
                                NonnegativeReals, ParameterAlgebra,
                                ProductAlgebra, RealScalars, TuplePower,
                                check_action_compatibility,
                                solve_action_on_identity)
from .scenarios import (SCENARIO_RUNNERS, ScenarioResult, ScenarioSpec,
                        build_gravity_background, run_scenario_spec)
from .theories import (OperatorFamily, PolynomialFamily, check_structure,
                       compose_families, evaluate_family, evaluate_polynomial,
                       polynomial_family, scalar_family, sum_families,
                       verify_structure)

__version__ = "0.1.0"

__all__ = [
    "BadSpec", "BooleanComplex", "CentralizerDiagonal", "Certificate",
    "CoefficientFunction", "ComplexScalars", "DegreeMismatch",
    "DimensionTooLarge", "EmergenceError", "EmergenceMap",
    "EmptyAccumulation", "FieldSpace", "HypothesisViolated",
    "InfeasibleTarget", "NoPreimage", "NoSquareRoot", "NonnegativeReals",
    "NotInIdentityOrbit", "NotMultiplicative", "NotRightInvertible",
    "NotScalarForm", "NotScalarInvariant", "Operator",
    "OperatorFamily", "ParameterAlgebra", "ParseError", "PolynomialFamily",
    "ProductAlgebra", "ProvenanceNode", "RealScalars",
    "SCENARIO_RUNNERS", "ScenarioResult", "ScenarioSpec", "SchemaError",
    "SpaceMismatch", "TuplePower",
    "add", "adjoint_wrt_pairing", "brute_force_emerge",
    "build_gravity_background",
    "check_action_compatibility", "check_structure", "compose",
    "compose_families", "emerge", "emerge_accumulate",
    "emerge_composition", "emerge_monomial", "emerge_sum",
    "evaluate_family", "evaluate_polynomial", "grid_space",
    "identity_emergence",
    "identity_operator", "lagrangian_value", "make_discrete_operator",
    "operator_residual", "plain_space", "polynomial_family",
    "right_inverse", "run_scenario_spec",
    "scalar_family", "scale", "solve_action_on_identity", "sum_families",
    "sym_part", "verify_emergence", "verify_structure", "zero_operator",
]
