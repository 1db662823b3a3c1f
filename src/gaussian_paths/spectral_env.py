"""Environment spectral densities and thermal functions.

The reservoirs are bosonic baths characterized by a spectral density
j(omega) with a cutoff scale omega_c, and by a temperature expressed as
the mean thermal photon number n_T at the system frequency omega0.
These objects feed the double integrals that produce the time-dependent
diffusion and damping coefficients.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Union

import numpy as np

__all__ = [
    "SpectralKind",
    "SpectralDensity",
    "Environment",
    "evaluate_j",
    "thermal_weight",
    "thermal_occupation",
]

ArrayLike = Union[float, np.ndarray]


class SpectralKind(str, Enum):
    OHMIC = "ohmic"
    SUPER_OHMIC = "superohmic"
    WHITE_NOISE = "white"


@dataclass(frozen=True)
class SpectralDensity:
    """Spectral density j(omega) of a bosonic reservoir.

    kind selects one of

        ohmic       j(omega) = omega * omega_c^2 / (omega^2 + omega_c^2)
        superohmic  j(omega) = omega^2 * omega_c / (omega^2 + omega_c^2)
        white       j(omega) = omega_c

    The coefficient quadrature tapers super-Ohmic and white linearly to 0 over
    the last decade [omega_max/10, omega_max], so white is white only up to
    omega_max.  That band limit is why Delta(0+) = 0, as ``CoefficientGrid``
    requires: flat to infinity, the cosine kernel of a constant is pi delta(s),
    and Delta(t) would jump at t = 0.  Ohmic is not tapered: j is odd in omega, so
    its damping kernel is exact, (pi/2) omega_c^2 e^{-omega_c s} with no band edge, and
    at n_T > 0 so is its diffusion kernel, by Matsubara poles, unless they crowd past a fixed
    cap at the coldest, widest baths; there and at n_T = 0 that one is cut at omega_max
    (``coefficients`` module docstring).
    Every coefficient is linear in alpha^2 j, so a spectrum scaled by p is the same
    channel at coupling alpha sqrt(p).  ``ir_cutoff`` is the infrared
    regularization frequency used when integrating the white-noise
    spectrum against coth(omega*beta/2); ``None`` resolves to
    1e-6 * omega0 at quadrature time.
    """

    kind: SpectralKind
    omega_c: float
    ir_cutoff: float | None = None

    def __post_init__(self):
        # a plain string would fail every `is SpectralKind.X` test; unknown kinds raise
        object.__setattr__(self, "kind", SpectralKind(self.kind))
        if not (0 < self.omega_c < math.inf):
            raise ValueError(f"omega_c must be finite and > 0, got {self.omega_c}")
        if self.ir_cutoff is not None and not (self.ir_cutoff > 0):
            raise ValueError(f"ir_cutoff must be > 0, got {self.ir_cutoff}")

    def resolved_ir_cutoff(self, omega0: float) -> float:
        return self.ir_cutoff if self.ir_cutoff is not None else 1e-6 * omega0


@dataclass(frozen=True)
class Environment:
    """Thermal reservoir parameters for one oscillator of frequency omega0.

    Temperature is configured through n_T, the mean photon number of the
    bath at omega0; the inverse temperature follows from
    n_T = 1 / (exp(beta*omega0) - 1).  ``alpha`` is the dimensionless
    system-bath coupling (weak coupling, alpha << omega0, intended).
    """

    omega0: float
    alpha: float
    n_T: float

    def __post_init__(self):
        # chained comparisons are False for NaN, so NaN and inf fail here too
        if not (0 < self.omega0 < math.inf):
            raise ValueError(f"omega0 must be finite and > 0, got {self.omega0}")
        # alpha = 0 is admitted as the decoupled limit (all coefficients vanish)
        if not (0 <= self.alpha < math.inf):
            raise ValueError(f"alpha must be finite and >= 0, got {self.alpha}")
        if not (0 <= self.n_T < math.inf):
            raise ValueError(f"n_T must be finite and >= 0, got {self.n_T}")

    @property
    def beta(self) -> float:
        """Inverse temperature; infinite for a zero-temperature bath."""
        if self.n_T == 0:
            return math.inf
        return math.log1p(1.0 / self.n_T) / self.omega0

    @classmethod
    def from_beta(cls, omega0: float, alpha: float, beta: float) -> "Environment":
        if not (beta > 0):
            raise ValueError(f"beta must be > 0, got {beta}")
        n_T = 0.0 if math.isinf(beta) else thermal_occupation(beta, omega0)
        return cls(omega0=omega0, alpha=alpha, n_T=n_T)


def evaluate_j(spec: SpectralDensity, omega: ArrayLike) -> ArrayLike:
    """Spectral density at frequency omega (>= 0)."""
    w = np.asarray(omega, dtype=float)
    if not np.all(w >= 0):  # NaN fails too
        raise ValueError("evaluate_j requires omega >= 0")
    if spec.kind is SpectralKind.OHMIC:
        out = w * spec.omega_c**2 / (w**2 + spec.omega_c**2)
    elif spec.kind is SpectralKind.SUPER_OHMIC:
        out = w**2 * spec.omega_c / (w**2 + spec.omega_c**2)
    else:
        out = np.full_like(w, spec.omega_c)
    return float(out) if np.ndim(omega) == 0 else out


def thermal_weight(env: Environment, omega: ArrayLike) -> ArrayLike:
    """coth(omega*beta/2) for omega > 0, via coth(y) = 1 + 2/(e^{2y} - 1); identically 1 at zero
    temperature.  expm1 keeps the small-y branch accurate (coth(y) ~ 1/y) and the identity
    coth(beta*omega/2) = 2*n(beta,omega) + 1 exact in floats."""
    w = np.asarray(omega, dtype=float)
    if not np.all(w > 0):  # NaN fails too
        raise ValueError("thermal_weight requires omega > 0 (it is singular at 0)")
    y = np.asarray(0.5 * env.beta * w)  # beta = inf gives y = inf, where coth is exactly 1
    out = np.ones_like(y)
    small = y < 350.0  # beyond this 2/(e^{2y}-1) underflows anyway
    out[small] = 1.0 + 2.0 / np.expm1(2.0 * y[small])
    return float(out) if np.ndim(omega) == 0 else out


def thermal_occupation(beta: float, omega: float) -> float:
    """Mean photon number (e^{beta*omega} - 1)^{-1}; zero for beta = inf."""
    # NaN fails these comparisons, so NaN raises as well
    if not (omega > 0):
        raise ValueError(f"omega must be > 0, got {omega}")
    if not (beta > 0):
        raise ValueError(f"beta must be > 0, got {beta}")
    if math.isinf(beta):
        return 0.0
    x = beta * omega
    if x > 700.0:
        return 0.0
    return 1.0 / math.expm1(x)
