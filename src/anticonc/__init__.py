"""Anti-concentration toolkit: concentration functions of weighted sums,
arithmetic-progression coverage functionals, least common denominators, and
the bound evaluators that tie them together."""

from .bounds import (
    BoundReport,
    ConstantsConfig,
    build_bound_report,
    verify_pointwise_chain,
)
from .concentration import (
    ConcentrationEstimate,
    WeightVector,
    esseen_upper_q,
    exact_q,
    mc_q,
    regularity_check,
    weighted_sum_distribution,
)
from .distributions import (
    CompoundPoisson,
    DiscreteDistribution,
    lambda_d,
    spectral_measure,
    symmetrize,
    tail_mass,
    truncated_second_moment,
)
from .errors import (
    AnticoncError,
    CapacityError,
    ChainViolationError,
    ClassCapError,
    DomainError,
    InputError,
    NumericsError,
)
from .lcd import LcdParams, LcdResult, compute_lcd
from .progressions import Cgap, Gap, beta_rm, gamma_rs, uncovered_mass

__version__ = "0.1.0"

__all__ = [
    "AnticoncError",
    "BoundReport",
    "CapacityError",
    "Cgap",
    "ChainViolationError",
    "ClassCapError",
    "CompoundPoisson",
    "ConcentrationEstimate",
    "ConstantsConfig",
    "DiscreteDistribution",
    "DomainError",
    "Gap",
    "InputError",
    "LcdParams",
    "LcdResult",
    "NumericsError",
    "WeightVector",
    "beta_rm",
    "build_bound_report",
    "compute_lcd",
    "esseen_upper_q",
    "exact_q",
    "gamma_rs",
    "lambda_d",
    "mc_q",
    "regularity_check",
    "spectral_measure",
    "symmetrize",
    "tail_mass",
    "truncated_second_moment",
    "uncovered_mass",
    "verify_pointwise_chain",
    "weighted_sum_distribution",
    "__version__",
]
