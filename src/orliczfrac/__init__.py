"""Fractional growth-function modulars, nonlocal-to-local limits, solver."""

from .errors import (
    ConfigError,
    DegenerateMollifierWarning,
    DivergentModularError,
    InvalidFunctionError,
    InvalidInputError,
    InvalidParameterError,
    NumericOverflowError,
    OrliczFracError,
    ToleranceNotMetError,
    UndefinedRatioError,
    UniquenessWarning,
    UnsupportedDimensionError,
)
from .fractional import (
    fractional_modular,
    fractional_modular_with_gradient,
)
from .grid import (
    GridFunction,
    gradient_modular,
    luxemburg_norm,
    modular,
    mollify,
    translate,
    truncate,
)
from .limit_density import (
    LimitDensity,
    ball_volume,
    equivalence_constants,
    limit_density,
    sphere_log_moment,
    sphere_moment,
    sphere_surface,
    tilde_closed_form,
    tilde_eval,
    tilde_prelimit,
)
from .limits import (
    LimitCurve,
    PoincareReport,
    bbm_curve,
    poincare_budget,
    poincare_check,
)
from .orlicz import (
    OrliczFunction,
    OrliczReport,
    compose,
    conjugate,
    make_combination,
    make_custom,
    make_power,
    make_power_abslog,
    make_power_log,
    verify_orlicz,
)
from .solver import (
    DirichletProblem,
    GammaReport,
    SolveResult,
    StopReason,
    energy,
    energy_gradient,
    gamma_run,
    solve,
    weak_residual,
)

__version__ = "0.1.0"
