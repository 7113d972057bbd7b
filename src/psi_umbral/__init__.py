"""Exact computer algebra for calculus with generalized weights.

A weight sequence n_psi replaces n in the derivative's action on
monomials; everything classical umbral calculus builds from there
(basic polynomial sequences, shift-invariant operator expansions,
generalized translation, product rules, formal integration) carries
over and is implemented here in exact rational arithmetic.
"""

from .algebra import (NEG_INF, Polynomial, Scalar, TruncatedSeries, as_scalar,
                      format_polynomial, scalar_from_str, scalar_to_str)
from .errors import (AdmissibilityError, CapExceededError, CompositionError,
                     ExprParseError, JobSpecError, NonInvertibleError,
                     NotDegreeLoweringError, NotShiftInvariantError,
                     PsiUmbralError, SelfCheckError)
from .expansion import (DetectionResult, OperatorExpansion, apply_dual_form,
                        conjugate_indicator_check, detect_psi_series,
                        expand_in_basic, expand_in_monomials,
                        first_expansion_coeffs, reconstruct_from_monomial_form)
from .exprparse import OperatorContext, parse_operator
from .integration import psi_integral, q_integral, r_integral
from .jobs import JobSpec, load_job_spec, parse_job
from .operators import (GradedOperator, SeriesOperator, ShiftOperator,
                        apply_psi_series, derivative_op, dilation_op,
                        divided_difference, divided_difference_op,
                        forward_difference_op,
                        invert_shift_invariant, jackson_derivative_op,
                        multiply_x_op, operator_from_series,
                        pincherle_derivative, psi_derivative,
                        psi_derivative_op, psi_raise, psi_raise_op,
                        shift_invariant_coefficients, translation_op,
                        weight_multiplier, weight_op)
from .psi import (AdmissibilityReport, PsiSequence, RationalFunction,
                  jackson_bracket, validate_admissible)
from .special import (cos_psi_series, exp_psi_series, psi_exp_scaled,
                      psi_hyperbolic, sin_psi_series)
from .star_product import (poisson_weights, poisson_weights_raising,
                           poisson_weights_recursion, psi_leibniz, q_leibniz,
                           r_leibniz, star_mul, star_power)
from .umbral import (BasicSequence, DeltaOperator, basic_sequence_solve,
                     dual_raise_operator, eigenfunction_series,
                     rodrigues_sequence, sheffer_sequence, translate,
                     unit_normal_sequence)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
