import math

import pytest

from gaussian_paths import (
    Environment,
    QuadratureConfig,
    SpectralDensity,
    SpectralKind,
    build_coefficient_grid,
    gamma_markov,
)

R0 = 1.2
ALPHA = 0.1
NT_HIGH = 10.0
# the high-temperature regime sets in around n_T / sinh^2(r0) ~ 3
NT_BOUNDARY = 3.0 * math.sinh(R0) ** 2
T_MAX_RESONANT = 25.0


def make_spec(kind: SpectralKind, omega_c: float = 1.0) -> SpectralDensity:
    return SpectralDensity(kind=kind, omega_c=omega_c)


def make_env(n_T: float = NT_HIGH, alpha: float = ALPHA) -> Environment:
    return Environment(omega0=1.0, alpha=alpha, n_T=n_T)


@pytest.fixture(scope="session")
def quad() -> QuadratureConfig:
    return QuadratureConfig()


@pytest.fixture(scope="session")
def resonant_grids(quad):
    """Coefficient grids for the three spectra at n_T = 10, alpha = 0.1, omega_c = omega0."""
    out = {}
    env = make_env()
    for kind in SpectralKind:
        spec = make_spec(kind)
        out[kind] = (spec, env, build_coefficient_grid(spec, env, T_MAX_RESONANT, quad))
    return out


@pytest.fixture(scope="session")
def boundary_grid_ohmic(quad):
    """Ohmic resonant grid at the high-temperature transition n_T = 3 sinh^2(r0)."""
    spec = make_spec(SpectralKind.OHMIC)
    env = make_env(n_T=NT_BOUNDARY)
    return spec, env, build_coefficient_grid(spec, env, T_MAX_RESONANT, quad)


@pytest.fixture(scope="session")
def offres_weak_grid(quad):
    """Off-resonant Ohmic (omega0 = 10 omega_c) at weak coupling alpha = 0.01, n_T = 10."""
    spec = make_spec(SpectralKind.OHMIC, omega_c=0.1)
    env = make_env(alpha=0.01)
    return spec, env, build_coefficient_grid(spec, env, 40.0, quad)


@pytest.fixture(scope="session")
def gamma_m_ohmic() -> float:
    """Golden-rule Markovian damping rate of the resonant Ohmic bath at alpha = 0.1."""
    return gamma_markov(make_spec(SpectralKind.OHMIC), make_env())
