"""Two-mode symmetric Gaussian states in independent thermal channels.

Builds the time-local diffusion/damping coefficients of a weakly coupled
oscillator pair, evolves symmetric covariance matrices through the
secular map (non-Markovian, Markovian and high-temperature variants) and
extracts dynamical paths in (purity, symplectic eigenvalue, discord)
space, including separability times, the universal discord at the
separability threshold, constants of motion and Markovian reachability.
"""
from .coefficients import (
    CoefficientGrid,
    ConfigError,
    QuadratureConfig,
    QuadratureError,
    build_coefficient_grid,
    gamma_markov,
    write_coefficients_csv,
)
from .dynamics import (
    DegenerateInputError,
    InconclusiveThresholdError,
    MapUnphysicalError,
    MotionConstant,
    ReachabilityDecision,
    SecularReachability,
    Trajectory,
    TrajectoryMode,
    constant_of_motion,
    evolve_cm,
    evolve_markovian,
    reachable_markovian,
    reachable_secular,
    separability_time,
    simulate_trajectory,
    write_trajectory_csv,
)
from .gaussian_core import (
    PathPoint,
    STSParams,
    SymmetricCM,
    UnphysicalStateError,
    cm_from_mu_lambda,
    discord,
    entropic_h,
    from_sts,
    gaussian_discord,
    log_negativity,
    mean_photons,
    min_symplectic,
    path_point,
    purity,
    to_sts,
)
from .paths import (
    DynamicalPath,
    PathSource,
    SweepRow,
    UniversalityReport,
    compare_paths,
    d_star,
    dsep_from_trajectory,
    dsep_sweep,
    dsep_universal,
    extract_path,
    write_path_csv,
    write_sweep_csv,
)
from .spectral_env import (
    Environment,
    SpectralDensity,
    SpectralKind,
    evaluate_j,
    thermal_occupation,
    thermal_weight,
)

__version__ = "0.1.0"
