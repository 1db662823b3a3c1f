"""Symmetric two-mode Gaussian states and their correlation measures.

A symmetric state is fixed by two numbers (a, c): its covariance matrix
is sigma = a*I_4 + c*(sigma_1 x sigma_3), i.e. equal local blocks a*I_2
and correlation blocks c*diag(1, -1).  The measures used as path
coordinates are the purity mu = 1/(4(a^2-c^2)), the minimum symplectic
eigenvalue of the partial transpose lambda = a - c (separable iff
lambda >= 1/2) and the Gaussian discord D(a, c).

Physicality (the uncertainty relation) is sqrt(a^2 - c^2) >= 1/2: the
symplectic eigenvalues of sigma itself are both sqrt(a^2 - c^2).  Note
a - |c| >= 1/2 is the separability threshold, not the uncertainty bound;
entangled states sit below it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "UnphysicalStateError",
    "SymmetricCM",
    "STSParams",
    "PathPoint",
    "from_sts",
    "to_sts",
    "mean_photons",
    "purity",
    "min_symplectic",
    "log_negativity",
    "entropic_h",
    "gaussian_discord",
    "discord",
    "path_point",
    "cm_from_mu_lambda",
]

ArrayLike = Union[float, np.ndarray]

# slack for uncertainty-relation checks on evolved states (map roundoff)
PHYS_TOL = 1e-9
# below 1/2 - this, entropic_h raises; inside [1/2 - eps, 1/2) it clamps
H_BOUNDARY_EPS = 1e-9

_EPS = float(np.finfo(float).eps)


class UnphysicalStateError(ValueError):
    """State parameters violate the two-mode uncertainty relation."""


@dataclass(frozen=True)
class SymmetricCM:
    """The (a, c) pair of a symmetric two-mode covariance matrix."""

    a: float
    c: float

    def __post_init__(self):
        a, c = self.a, self.c
        if not (math.isfinite(a) and math.isfinite(c)):
            raise UnphysicalStateError(f"a and c must be finite, got ({a}, {c})")
        if not (a > 0):
            raise UnphysicalStateError(f"a must be > 0, got {a}")
        if a < 0.5 - PHYS_TOL:
            raise UnphysicalStateError(f"a must be >= 1/2, got {a}")
        nu2 = (a - c) * (a + c)
        # roundoff in a*a - c*c grows with a^2; keep the check meaningful at large a
        if nu2 < 0.25 - (PHYS_TOL + 8.0 * _EPS * a * a):
            raise UnphysicalStateError(
                f"uncertainty relation violated: a^2 - c^2 = {nu2} < 1/4"
            )

    @property
    def nu_squared(self) -> float:
        """Squared symplectic eigenvalue of sigma (doubly degenerate).

        Formed as (a - c)(a + c), which does not cancel as a^2 - c^2 does at large a.
        """
        return (self.a - self.c) * (self.a + self.c)


@dataclass(frozen=True)
class STSParams:
    """Two-mode squeezed thermal state: squeezing r applied to nu_T-photon thermal modes."""

    r: float
    nu_T: float

    def __post_init__(self):
        if not (0 <= self.r < math.inf):
            raise ValueError(f"r must be finite and >= 0, got {self.r}")
        if not (0 <= self.nu_T < math.inf):
            raise ValueError(f"nu_T must be finite and >= 0, got {self.nu_T}")


@dataclass(frozen=True)
class PathPoint:
    """One sample of a dynamical path: purity, PT symplectic eigenvalue, discord."""

    mu: float
    lam: float
    discord: float
    t: float


def from_sts(p: STSParams) -> SymmetricCM:
    """a = (nu_T + 1/2) cosh(2r),  c = (nu_T + 1/2) sinh(2r)."""
    nu = p.nu_T + 0.5
    return SymmetricCM(a=nu * math.cosh(2.0 * p.r), c=nu * math.sinh(2.0 * p.r))


def to_sts(cm: SymmetricCM) -> STSParams:
    """Invert from_sts: nu_T + 1/2 = sqrt(a^2 - c^2), tanh(2r) = c/a.  SymmetricCM
    guarantees physicality, so only the c >= 0 convention is checked."""
    if cm.c < 0:
        raise UnphysicalStateError("to_sts requires the c >= 0 sign convention")
    nu = math.sqrt(max(cm.nu_squared, 0.25))
    return STSParams(r=0.5 * math.atanh(min(cm.c / cm.a, 1.0)), nu_T=nu - 0.5)


def mean_photons(p: STSParams) -> float:
    """Mean photon number per mode: sinh^2(r) (2 nu_T + 1) + nu_T."""
    return math.sinh(p.r) ** 2 * (2.0 * p.nu_T + 1.0) + p.nu_T


def purity(cm: SymmetricCM) -> float:
    """mu = 1/(4 sqrt(det sigma)) = 1/(4 (a^2 - c^2))."""
    return _purity(cm.nu_squared)


def _purity(nu2: float) -> float:
    if nu2 <= 0:
        raise UnphysicalStateError(f"a^2 - c^2 = {nu2} <= 0: purity undefined")
    return 1.0 / (4.0 * nu2)


def min_symplectic(cm: SymmetricCM) -> float:
    """lambda = a - c, the minimum symplectic eigenvalue of the partial transpose."""
    if cm.c < 0:
        raise UnphysicalStateError("min_symplectic requires the c >= 0 sign convention")
    return cm.a - cm.c


def log_negativity(cm: SymmetricCM) -> float:
    """E_N = max(0, -ln(2 lambda))."""
    lam = cm.a - abs(cm.c)
    return max(0.0, -math.log(2.0 * lam))


def _h(x: float) -> float:
    """Scalar entropic_h on math.log, with the array branch's clamp and errors."""
    if x > 0.5:
        xm = x - 0.5
        return math.log(x + 0.5) + xm * math.log1p(1.0 / xm)
    if x >= 0.5 - H_BOUNDARY_EPS:
        return 0.0  # h(1/2), also for the clamped [1/2 - eps, 1/2)
    raise UnphysicalStateError(f"entropic_h requires x >= 1/2, got {x}")


def entropic_h(x: ArrayLike) -> ArrayLike:
    """h(x) = (x + 1/2) ln(x + 1/2) - (x - 1/2) ln(x - 1/2), for x >= 1/2.

    Evaluated as ln(x + 1/2) + (x - 1/2) ln(1 + 1/(x - 1/2)), which does not
    cancel at large x.  h(1/2) = 0; [1/2 - 1e-9, 1/2) clamps to 1/2 so that
    roundoff at the purity boundary cannot raise; lower values and NaN raise.
    A scalar (0-d) x takes the math.log branch (_h) and returns a float.
    """
    if np.ndim(x) == 0:
        return _h(float(x))
    arr = np.asarray(x, dtype=float)
    low = ~(arr >= 0.5 - H_BOUNDARY_EPS)
    if np.any(low):
        bad = float(arr[low][0])
        raise UnphysicalStateError(f"entropic_h requires x >= 1/2, got {bad}")
    xc = np.maximum(arr, 0.5)
    xm = xc - 0.5
    safe = xm > 1e-300
    term = np.where(safe, xm * np.log1p(1.0 / np.where(safe, xm, 1.0)), 0.0)
    return np.log(xc + 0.5) + term


def gaussian_discord(cm: SymmetricCM) -> float:
    """D(a, c) = h(a) - 2 h(sqrt(a^2 - c^2)) + h(a - 2c^2/(1 + 2a)), natural log.

    Scalar branch of discord(a, c): Python floats through _h, a float out.
    """
    a, c = float(cm.a), float(cm.c)
    return _discord(a, c, (a - c) * (a + c))


def _discord(a: float, c: float, nu2: float) -> float:
    """Scalar D(a, c) given nu2 = (a - c)(a + c), with the conditional argument
    a - 2c^2/(1 + 2a) written (a + 2 nu2)/(1 + 2a) so that neither cancels."""
    # at c = 0 all three arguments coincide; keep the cancellation exact
    nu = math.sqrt(max(nu2, 0.0)) if c != 0.0 else a
    cond = (a + 2.0 * nu2) / (1.0 + 2.0 * a) if c != 0.0 else a
    return _h(a) - 2.0 * _h(nu) + _h(cond)


def discord(a: ArrayLike, c: ArrayLike) -> np.ndarray:
    """Gaussian discord D(a, c) elementwise over arrays of symmetric states."""
    a, c = np.asarray(a, dtype=float), np.asarray(c, dtype=float)
    nu2 = (a - c) * (a + c)
    # at c = 0 all three arguments coincide; force the cancellation exact
    zero = c == 0.0
    nu = np.where(zero, a, np.sqrt(np.maximum(nu2, 0.0)))
    cond = np.where(zero, a, (a + 2.0 * nu2) / (1.0 + 2.0 * a))
    return entropic_h(a) - 2.0 * entropic_h(nu) + entropic_h(cond)


def path_point(cm: SymmetricCM, t: float) -> PathPoint:
    """Assemble the (mu, lambda, D) coordinates of a state at time t."""
    a, c = float(cm.a), float(cm.c)
    nu2 = (a - c) * (a + c)
    mu = _purity(nu2)
    lam = min_symplectic(cm)
    d = _discord(a, c, nu2)
    if d < 0.0:
        if d < -1e-12:
            raise UnphysicalStateError(f"negative discord {d} beyond roundoff tolerance")
        d = 0.0
    return PathPoint(mu, lam, d, t)


def cm_from_mu_lambda(mu: float, lam: float) -> SymmetricCM:
    """Invert (mu, lambda) -> (a, c) via a = (lam + v)/2, c = (v - lam)/2, v = 1/(4 mu lam)."""
    if mu <= 0 or lam <= 0:
        raise ValueError("mu and lambda must be > 0")
    v = 1.0 / (4.0 * mu * lam)
    return SymmetricCM(a=0.5 * (lam + v), c=0.5 * (v - lam))
