"""Symmetric two-mode Gaussian states and their correlation measures.

A symmetric state is fixed by two numbers (a, c): its covariance matrix
is sigma = a*I_4 + c*(sigma_1 x sigma_3), i.e. equal local blocks a*I_2
and correlation blocks c*diag(1, -1).  c >= 0 is the two-mode squeezed
sign convention; (a, -c) is the same state up to a local phase flip, and
SymmetricCM holds only c >= 0.  The measures used as path coordinates are
the purity mu = 1/(4(a^2-c^2)), the minimum symplectic eigenvalue of the
partial transpose lambda = a - c (separable iff lambda >= 1/2) and the
Gaussian discord D(a, c).

Physicality (the uncertainty relation) is sqrt(a^2 - c^2) >= 1/2: the
symplectic eigenvalues of sigma itself are both sqrt(a^2 - c^2).  Note
a - c >= 1/2 is the separability threshold, not the uncertainty bound;
entangled states sit below it.

SymmetricCM and PathPoint are NamedTuples, cheaper than dataclasses to build once per
sample; SymmetricCM checks its pair, c >= 0 included, on every path (new, _make,
_replace, copy, pickle), so the readers of a state check nothing again.

The discord has one float kernel, _discord, behind both the 0-d discord and path_point:
h(1/2 + x) = log1p(x) + x log1p(1/x) is written out on math.log1p for its three offsets.
Arrays take one _h_array pass over a (3, n) buffer of the same offsets.  The two forms
agree to an ulp of each h term, not bit for bit: math.log1p and numpy's log1p round
differently on a few percent of arguments.  On the separability threshold lambda = 1/2,
_threshold_discord takes D from c alone, accurate where 1/2 + c would round c away.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from math import log1p
from typing import NamedTuple, Union

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


def _physical(a, c):
    """a > 0 and (a - c)(a + c) >= 1/4 - (PHYS_TOL + 8 eps a^2), on floats or elementwise
    on arrays; NaN is unphysical.  The slack covers roundoff in a^2 - c^2 at large a."""
    return (a > 0) & ((a - c) * (a + c) >= 0.25 - (PHYS_TOL + 8.0 * _EPS * a * a))


class SymmetricCM(NamedTuple("_SymmetricCMFields", [("a", float), ("c", float)])):
    """The (a, c) pair of a symmetric two-mode covariance matrix: finite, c >= 0 and
    physical, else UnphysicalStateError."""

    __slots__ = ()

    def __new__(cls, a: float, c: float):
        if not (math.isfinite(a) and math.isfinite(c)):
            raise UnphysicalStateError(f"a and c must be finite, got ({a}, {c})")
        if c < 0:
            raise UnphysicalStateError(f"SymmetricCM holds the c >= 0 sign convention, got "
                                       f"c = {c}; (a, -c) is the same state")
        if not _physical(a, c):
            raise UnphysicalStateError(f"uncertainty relation violated: a = {a}, "
                                       f"a^2 - c^2 = {(a - c) * (a + c)} < 1/4")
        return tuple.__new__(cls, (a, c))

    @classmethod
    def _make(cls, iterable) -> SymmetricCM:  # _replace builds through _make
        return cls(*iterable)

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


class PathPoint(NamedTuple):
    """One sample of a dynamical path: purity, PT symplectic eigenvalue, discord."""

    mu: float
    lam: float
    discord: float
    t: float


def from_sts(p: STSParams) -> SymmetricCM:
    """a = (nu_T + 1/2) cosh(2r),  c = (nu_T + 1/2) sinh(2r); UnphysicalStateError where they
    overflow, as SymmetricCM raises for a non-finite pair."""
    nu = p.nu_T + 0.5
    try:
        a, c = nu * math.cosh(2.0 * p.r), nu * math.sinh(2.0 * p.r)
    except OverflowError:
        raise UnphysicalStateError(f"a and c overflow at r = {p.r}") from None
    return SymmetricCM(a=a, c=c)


def to_sts(cm: SymmetricCM) -> STSParams:
    """Invert from_sts: nu_T + 1/2 = sqrt(a^2 - c^2), tanh(2r) = c/a; SymmetricCM's c >= 0
    and physicality make r and nu_T >= 0."""
    nu = math.sqrt(max(cm.nu_squared, 0.25))
    return STSParams(r=0.5 * math.atanh(min(cm.c / cm.a, 1.0)), nu_T=nu - 0.5)


def mean_photons(p: STSParams) -> float:
    """Mean photon number per mode: sinh^2(r) (2 nu_T + 1) + nu_T."""
    return math.sinh(p.r) ** 2 * (2.0 * p.nu_T + 1.0) + p.nu_T


def purity(cm: SymmetricCM) -> float:
    """mu = 1/(4 sqrt(det sigma)) = 1/(4 (a^2 - c^2))."""
    return 1.0 / (4.0 * cm.nu_squared)


def min_symplectic(cm: SymmetricCM) -> float:
    """lambda = a - c, the minimum symplectic eigenvalue of the partial transpose (c >= 0)."""
    return cm.a - cm.c


def log_negativity(cm: SymmetricCM) -> float:
    """E_N = max(0, -ln(2 lambda)), lambda min_symplectic's."""
    return max(0.0, -math.log(2.0 * min_symplectic(cm)))


def _h(xm: float) -> float:
    """Scalar h(1/2 + xm) on math.log1p, with the array branch's clamp and errors."""
    if xm > 0.0:
        return math.log1p(xm) + xm * math.log1p(1.0 / xm)
    if xm >= -H_BOUNDARY_EPS:
        return 0.0  # h(1/2), also for the clamped [1/2 - eps, 1/2)
    raise UnphysicalStateError(f"entropic_h requires x >= 1/2, got {0.5 + xm}")


def _h_array(xm: np.ndarray) -> np.ndarray:
    """h(1/2 + xm) elementwise, with _h's clamp and errors (unneeded if all xm > 1e-300)."""
    if xm.size and xm.min() > 1e-300:
        return np.log1p(xm) + xm * np.log1p(1.0 / xm)
    low = ~(xm >= -H_BOUNDARY_EPS)
    if np.any(low):
        raise UnphysicalStateError(f"entropic_h requires x >= 1/2, got {0.5 + xm[low][0]}")
    xm = np.maximum(xm, 0.0)
    safe = xm > 1e-300
    return np.log1p(xm) + np.where(safe, xm * np.log1p(1.0 / np.where(safe, xm, 1.0)), 0.0)


def entropic_h(x: ArrayLike) -> ArrayLike:
    """h(x) = (x + 1/2) ln(x + 1/2) - (x - 1/2) ln(x - 1/2), for x >= 1/2.

    Evaluated from the offset x_m = x - 1/2 as ln(1 + x_m) + x_m ln(1 + 1/x_m),
    which does not cancel at large x.  h(1/2) = 0; [1/2 - 1e-9, 1/2) clamps to 1/2
    so that roundoff at the purity boundary cannot raise; lower values and NaN raise.
    A scalar (0-d) x takes the math.log1p branch (_h) and returns a float.
    """
    if np.ndim(x) == 0:
        return _h(float(x) - 0.5)
    return _h_array(np.asarray(x, dtype=float) - 0.5)


def _discord(a: float, c: float, nu2: float) -> float:
    """Scalar D(a, c) given nu2 = (a - c)(a + c), on the array form's offsets and operations.
    Where all three offsets are > 0, h(1/2 + x) = log1p(x) + x log1p(1/x) is inline; the
    clamp band [1/2 - eps, 1/2] and the errors below it go through _h; floored as in discord."""
    xa = a - 0.5
    if c == 0.0:  # all three arguments coincide; keep the cancellation exact
        xn = xc = xa
    else:
        q = nu2 - 0.25
        xn, xc = q / (math.sqrt(nu2 if nu2 > 0.0 else 0.0) + 0.5), 2.0 * q / (1.0 + 2.0 * a)
    if xa > 0.0 and xn > 0.0 and xc > 0.0:
        d = ((log1p(xa) + xa * log1p(1.0 / xa)) - 2.0 * (log1p(xn) + xn * log1p(1.0 / xn))
             + (log1p(xc) + xc * log1p(1.0 / xc)))
    else:
        d = _h(xa) - 2.0 * _h(xn) + _h(xc)
    return _negative_discord(d) if d < 0.0 else d


def _negative_discord(d: float) -> float:
    """What a computed D < 0 reads: 0 if it is roundoff, in [-1e-12, 0); lower raises."""
    if d < -1e-12:
        raise UnphysicalStateError(f"negative discord {d} beyond roundoff tolerance")
    return 0.0


def _threshold_discord(c: float) -> float:
    """D(1/2 + c, c), the discord on the separability threshold lambda = 1/2, from c >= 0 alone.
    There nu^2 - 1/4 = c, so discord's three offsets are c, x_n = c/(sqrt(1/4 + c) + 1/2) and
    c/(1 + c): no 1/2 + c is formed, which rounds away c's low bits, and above 2^52 the 1/2.
    The two large logs, each ~ln c, are taken as one: (1 + x_n)^2 = c + 1/2 + sqrt(1/4 + c), so
    log1p(c) - 2 log1p(x_n) = log1p(-x_n/(c + 1/2 + sqrt(1/4 + c))) exactly."""
    if c == 0.0:
        return 0.0
    root = math.sqrt(0.25 + c)
    xn = c / (root + 0.5)
    d = (log1p(-xn / (c + 0.5 + root)) + c * log1p(1.0 / c) - 2.0 * xn * log1p(1.0 / xn)
         + _h(c / (1.0 + c)))
    return _negative_discord(d) if d < 0.0 else d


def discord(a: ArrayLike, c: ArrayLike) -> ArrayLike:
    """D(a, c) = h(a) - 2 h(sqrt(a^2 - c^2)) + h(a - 2c^2/(1 + 2a)), natural log,
    elementwise over arrays of symmetric states.

    h is taken from x - 1/2 of its three arguments: a - 1/2, (nu^2 - 1/4)/(nu + 1/2) and
    2(nu^2 - 1/4)/(1 + 2a), which do not cancel where h' diverges.  Arrays fill one
    (3, ...) buffer of these offsets for a single _h_array pass, so an
    UnphysicalStateError names the first bad one in the order a, nu, conditional.
    Scalar (0-d) a and c take the math.log1p branch (_discord) and return a float.
    D is never negative: in both branches a result in [-1e-12, 0) is roundoff and reads 0,
    and one below -1e-12 raises UnphysicalStateError.
    """
    if np.ndim(a) == 0 and np.ndim(c) == 0:
        a, c = float(a), float(c)
        return _discord(a, c, (a - c) * (a + c))
    a, c = np.asarray(a, dtype=float), np.asarray(c, dtype=float)
    if a.shape != c.shape:
        a, c = np.broadcast_arrays(a, c)
    nu2 = (a - c) * (a + c)
    q = nu2 - 0.25
    x = np.empty((3,) + nu2.shape)
    np.subtract(a, 0.5, out=x[0])
    np.divide(q, np.sqrt(np.maximum(nu2, 0.0)) + 0.5, out=x[1])
    np.divide(2.0 * q, 1.0 + 2.0 * a, out=x[2])
    # at c = 0 all three arguments coincide; force the cancellation exact
    if (zero := c == 0.0).any():
        np.copyto(x[1:], x[0], where=zero)
    h = _h_array(x)
    d = h[0] - 2.0 * h[1] + h[2]
    if d.size and (low := d.min()) < 0.0:
        _negative_discord(low)
        np.maximum(d, 0.0, out=d)
    return d


def path_point(cm: SymmetricCM, t: float) -> PathPoint:
    """(mu, lambda = a - c, D) of a state at time t, D the 0-d discord's."""
    a, c = cm
    if type(a) is not float or type(c) is not float:  # np.float64 too: a float subclass
        a, c = float(a), float(c)
    nu2 = (a - c) * (a + c)
    return tuple.__new__(PathPoint, (1.0 / (4.0 * nu2), a - c, _discord(a, c, nu2), t))


def cm_from_mu_lambda(mu: float, lam: float) -> SymmetricCM:
    """Invert (mu, lambda) -> (a, c) via a = (lam + v)/2, c = (v - lam)/2, v = 1/(4 mu lam).

    The domain is 4 mu lam^2 <= 1 (c >= 0): SymmetricCM refuses a point past it with
    UnphysicalStateError.  A c within 4 eps lam below 0 is v's roundoff on the boundary
    (a c = 0 state's own mu and lambda land there) and reads 0."""
    for name, x in (("mu", mu), ("lam", lam)):
        if not 0 < x < math.inf:
            raise ValueError(f"{name} must be finite and > 0, got {x}")
    v = 1.0 / (4.0 * mu * lam)
    c = 0.5 * (v - lam)
    return SymmetricCM(a=0.5 * (lam + v), c=0.0 if -4.0 * _EPS * lam <= c < 0.0 else c)
