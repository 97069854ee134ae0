"""Collective risk analytics: compound Poisson losses and ruin theory.

The library covers the classical computational chain end to end: severity
models and their transforms, the cumulant/entropy pair with Chernoff and
Esscher tail approximations, exact lattice recursions, ruin-probability
analytics (ladder decomposition, adjustment coefficient, exact mixture
solutions, finite-time formulas and bounds, ruin-time normal limit), and a
reproducible Monte Carlo oracle for cross-validation.
"""

from .cumulant import (
    ChernoffBound,
    CompoundModel,
    EntropyPoint,
    EsscherTail,
    Policy,
    Portfolio,
    chernoff_bound,
    entropy,
    esscher_function,
    esscher_function_discrete,
    esscher_tail,
    esscher_tail_lattice,
    portfolio_exact_tail,
    portfolio_tail_bracket,
    portfolio_to_compound,
)
from .errors import (
    BudgetError,
    CollRiskError,
    ConvergenceError,
    DomainError,
    GridError,
    InsufficientRuinsError,
    LoadingError,
    NoRootError,
    ParseError,
    RootBracketError,
    TailError,
    UnderflowWarning,
)
from .lattice import LatticeDistribution, compound_geometric, panjer
from .montecarlo import (
    EstimateWithError,
    RuinTimeStudy,
    SimulationPlan,
    SimulationResult,
    ruin_time_samples,
    ruin_times_text,
    simulate,
)
from .ruin import (
    CompositeSplit,
    CramerLundberg,
    FiniteTimeBound,
    HittingBelow,
    LadderLaw,
    LundbergSeries,
    LundbergSolution,
    MixtureRuin,
    RiskSystem,
    RuinCurve,
    RuinTimeNormal,
    SealDecomposition,
    composite_split,
    cramer_lundberg_approx,
    finite_time_bound,
    hitting_below,
    ladder,
    lundberg,
    lundberg_series,
    mixture_exact,
    non_ruin_zero,
    ruin_panjer,
    ruin_time_clt,
    seal,
)
from .severity import (
    Exponential,
    Gamma,
    Lattice,
    MixtureOfExponentials,
    PointMass,
    SeverityModel,
    discretize,
    discretize_ladder,
    lattice_masses,
)

__version__ = "0.1.0"
