"""hermiteforge: exact construction, factorization and analysis of Hermite
subdivision schemes via generalized Taylor operators."""

from .exactalg import (
    ExactAlgError,
    LaurentMatrix,
    LaurentPoly,
    NotDivisible,
    NotTriangular,
    Rational,
    SingularDiagonal,
    TriangularInverse,
    delta_symbol,
    lm_triangular_inverse,
    triangular_inverse_check,
)
from .polybasis import (
    NotInVd,
    Poly,
    PolyVec,
    antidifference,
    classical_vector,
    falling_power,
    from_newton_coeffs,
    newton_basis,
    newton_vector,
    to_newton_coeffs,
)
from .taylor import (
    Chain,
    InvalidOperator,
    NotAChain,
    TaylorOperator,
    WindowTooSmall,
    allones_operator,
    annihilator,
    apply_operator,
    apply_operator_polys,
    chain_for,
    chain_validate,
    chain_with_last,
    classical_operator,
    compatibility_vector,
    delta_operator,
    padded_rows,
)
from .subdivision import DyadicGrid, Mask, eigen_check, hermite_step, polyvec_applied, subdivide
from .factor import (
    EigenvalueClash,
    Factorization,
    NotAnnihilated,
    SpanHypothesisFailed,
    SpectralReport,
    complete_from_incomplete,
    incomplete_from_complete,
    spectral_chain_from_factorization,
    taylor_factorize,
    unfactor,
    verify_spectral_chain,
)
from .construct import (
    BadSeed,
    LastRowSystem,
    SynthesisResult,
    assemble_factor,
    build_last_row_system,
    g_table_to_json,
    last_row_symbols,
    parse_g_table,
    recurrence_last_row,
    synthesize,
)
from .analysis import (
    ContractivityReport,
    ConvergenceReport,
    cascade,
    check_contractive,
    check_convergence,
    delta_grid,
    iterated_symbol,
    reconstruct_limits,
    scheme_norm,
    taylor_residuals,
)
from .splines import (
    BadOrder,
    SplineCascadeReport,
    SplineVerifyReport,
    bspline_derivative,
    bspline_value,
    check_spline_cascade,
    ell_polynomial,
    scalar_eigen_check,
    scalar_spline_symbol,
    spline_chain,
    spline_eigenpoly,
    spline_mask,
    spline_verify,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
