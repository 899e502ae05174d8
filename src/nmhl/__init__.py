"""Numerical laboratory for heat semigroups of higher-order elliptic and
pseudodifferential generators on the torus: Fourier-multiplier symbols,
sign-changing kernels, perturbed generators, integration by parts with
auxiliary variables, action minimization, and small-time/small-noise
asymptotics.
"""

from .config import (
    ExperimentConfig,
    GridConfig,
    OperatorConfig,
    OutputConfig,
    RunConfig,
    apply_overrides,
    parse_config,
    serialize_config,
)
from .errors import (
    AuxDomainTooSmall,
    BranchCut,
    ComplexResidue,
    CutoffTooSmall,
    DegreeViolation,
    FitUnstable,
    MomentDiverged,
    NmhlError,
    NonPositiveDefiniteForm,
    OptimizerStalled,
    ParseError,
    QuadratureNonConverged,
    SupUnbounded,
    TiltOutOfDomain,
    ValidationError,
)
from .grids import TWO_PI, FrequencyGrid, spatial_grid, wrap_angle
from .ldp import (
    Hamiltonian,
    Lagrangian,
    PathPL,
    RateResult,
    action,
    biconjugate,
    growth_fit,
    lagrangian_table,
    legendre,
    maslov_scaled_spec,
    rate_function,
    straight_path,
    straight_rate,
)
from .malliavin import (
    AugmentedOperator,
    ExponentFit,
    GaugeFunction,
    GaugePotential,
    IbpResult,
    MomentBound,
    augmented_multiplier,
    aux_moment,
    bounded_moment_check,
    default_gauge,
    exponent_fit,
    gauge_conjugate,
    ibp_check,
)
from .runner import ReportSummary, run
from .semigroup import (
    KernelField,
    TiltedOperator,
    chapman_kolmogorov_check,
    derivative_seminorm,
    heat_kernel,
    kernel_symmetry_check,
    kernel_values,
    log_abs_kernel,
    tilted_semigroup,
)
from .spectral import (
    FractionalPower,
    Levy,
    LevyDensity,
    OperatorSpec,
    Perturbed,
    PurePower,
    QuadraticForm,
    Rescaled,
    Symbol,
    auto_cutoff,
    build_symbol,
    lattice_symbol,
    levy_hamiltonian,
    levy_symbol,
    multi_indices,
)
from .varadhan import (
    ExitBoundFit,
    ScalingCurve,
    TiltedBound,
    chernoff_extremize,
    exit_bound_check,
    tilted_bound_check,
    varadhan_curve,
)

__version__ = "0.1.0"
