"""hermiteforge: exact construction, factorization and analysis of Hermite
subdivision schemes via generalized Taylor operators.

The package root exports the entry points, the value types they take and
return, and the exceptions they raise. A square matrix symbol, a Taylor
operator's included, is a ``Mask``: integer numerators over one denominator,
with ``*`` the symbol product. Everything else is imported from its module
(``hermiteforge.subdivision.level_step``, which steps one ``DyadicGrid`` to
the next, ``hermiteforge.exactalg.rat_from_str``, ...).
"""

from .exactalg import ExactAlgError, LaurentPoly, NotDivisible
from .polybasis import NotInVd, Poly, PolyVec
from .subdivision import DyadicGrid, Mask, WindowTooSmall
from .taylor import (
    Chain,
    InvalidOperator,
    NotAChain,
    TaylorOperator,
    allones_operator,
    annihilator,
    chain_for,
    classical_operator,
    delta_operator,
)
from .factor import (
    EigenvalueClash,
    NotAnnihilated,
    SpanHypothesisFailed,
    incomplete_from_complete,
    spectral_chain_from_factorization,
    taylor_factorize,
    unfactor,
    verify_spectral_chain,
)
from .construct import BadSeed, synthesize
from .analysis import (
    DeltaMissesWindow,
    cascade,
    check_contractive,
    check_convergence,
    scheme_norm,
)
from .splines import BadOrder, check_spline_cascade, spline_mask, spline_verify

__version__ = "0.1.0"

__all__ = [
    # exact algebra and polynomial vectors
    "ExactAlgError",
    "LaurentPoly",
    "NotDivisible",
    "NotInVd",
    "Poly",
    "PolyVec",
    # Taylor operators and chains
    "Chain",
    "InvalidOperator",
    "NotAChain",
    "TaylorOperator",
    "allones_operator",
    "annihilator",
    "chain_for",
    "classical_operator",
    "delta_operator",
    # masks and grids
    "DyadicGrid",
    "Mask",
    "WindowTooSmall",
    # factorization
    "EigenvalueClash",
    "NotAnnihilated",
    "SpanHypothesisFailed",
    "incomplete_from_complete",
    "spectral_chain_from_factorization",
    "taylor_factorize",
    "unfactor",
    "verify_spectral_chain",
    # synthesis
    "BadSeed",
    "synthesize",
    # analysis
    "DeltaMissesWindow",
    "cascade",
    "check_contractive",
    "check_convergence",
    "scheme_norm",
    # B-splines
    "BadOrder",
    "check_spline_cascade",
    "spline_mask",
    "spline_verify",
]
