"""Verification toolkit for sharp coefficient bounds of starlike functions
whose logarithmic derivative is driven by z + cosh(z).

The package builds the relevant extremal functions by exact truncated-series
algebra, evaluates every coefficient functional in closed form over the
parametrized Caratheodory class, implements the auxiliary piecewise maximum
lemmas next to brute-force oracles, and reproduces each sharp constant by a
deterministic global grid search.
"""

__version__ = "0.1.0"

from .series_engine import (
    COMPLEX,
    RATIONAL,
    TruncatedSeries,
    antiderivative_over_t,
    compose,
    cosh_series,
    divide_by_z,
    exp_series,
    extremal_function,
    log_series,
    monomial,
    series,
    series_div,
    starlike_from_schwarz,
)
from .caratheodory import (
    CaratheodoryPoint,
    SchwarzCoeffs,
    coeffs_from_point,
    extremal_p_series,
    schwarz_from_p,
)
from .functionals import (
    FunctionalValue,
    InverseCoeffs,
    LogCoeffs,
    TaylorCoeffs,
    evaluate_functional,
    gamma_from_a,
    hankel_inverse_tau,
    hankel_log,
    hankel_log_inverse,
    hankel_log_tau,
    inverse_from_a,
    moduli_diff_Gamma,
    moduli_diff_gamma,
    taylor_from_c,
)
from .lemmas import (
    PsiInput,
    YInput,
    case_scalar_extremum,
    case_scalar_functions,
    lemma23_bound,
    lemma23_empirical,
    lemma24_check,
    psi_empirical,
    psi_minus_bound,
    psi_plus_bound,
    y_argmax,
    y_branch,
    y_brute_force,
    y_closed_form,
)
from .verifier import (
    THEOREM_IDS,
    Bound,
    SearchConfig,
    VerificationReport,
    sharpness_witness,
    verify,
    verify_all,
)
