"""Secular evolution of symmetric states and derived dynamical quantities.

The covariance matrix map is sigma_t = e^{-Gamma(t)} sigma_0
+ (1/2) Delta_Gamma(t) I_4, which for symmetric states reduces to

    a(t) = a0 e^{-Gamma(t)} + Delta_Gamma(t)/2,   c(t) = c0 e^{-Gamma(t)}.

Its Markovian limit is the damping semigroup toward the thermal state
(n_T + 1/2) I_4, and the high-temperature short-time limit freezes c
while a is driven by the accumulated diffusion integral.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .coefficients import CoefficientGrid, _write_rows
from .gaussian_core import PHYS_TOL, PathPoint, SymmetricCM, discord

__all__ = [
    "TrajectoryMode",
    "Trajectory",
    "MapUnphysicalError",
    "InconclusiveThresholdError",
    "DegenerateInputError",
    "evolve_cm",
    "evolve_markovian",
    "simulate_trajectory",
    "separability_time",
    "ReachabilityDecision",
    "reachable_markovian",
    "SecularReachability",
    "reachable_secular",
    "MotionConstant",
    "constant_of_motion",
    "write_trajectory_csv",
]

SEPARABILITY_THRESHOLD = 0.5


class TrajectoryMode(str, Enum):
    NONMARKOVIAN = "nonmarkovian"
    MARKOVIAN = "markovian"
    HIGH_TEMPERATURE = "hight"


class MapUnphysicalError(RuntimeError):
    """The evolved covariance matrix violates the uncertainty relation.

    Signals coefficient-grid inaccuracy or secular-approximation breakdown.
    """


class InconclusiveThresholdError(RuntimeError):
    """lambda(t) stayed below 1/2 up to t_max but is still heading there."""


class DegenerateInputError(ValueError):
    """Input leaves the decision or coefficient undetermined."""


def _check_physical(a, c, times=None) -> None:
    """Raise MapUnphysicalError at the first sample of the map's output (scalars
    or arrays) with a <= 0 or (a - c)(a + c) < 1/4 - (PHYS_TOL + 8 eps a^2); NaN fails."""
    a, c = np.asarray(a), np.asarray(c)
    nu2 = (a - c) * (a + c)
    bad = np.flatnonzero(~((nu2 >= 0.25 - (PHYS_TOL + 8.0 * np.finfo(float).eps * a * a))
                           & (a > 0)))
    if len(bad):
        i = bad[0]
        at = "" if times is None else f" at t = {times[i]}"
        raise MapUnphysicalError(f"unphysical sample{at} (a={a.flat[i]}, c={c.flat[i]}): "
                                 f"a^2 - c^2 = {nu2.flat[i]} < 1/4")


def _secular_map(cm0: SymmetricCM, decay, delta_gamma, times=None):
    """(a, c) = (a0 e^{-Gamma} + Delta_Gamma/2, c0 e^{-Gamma}) for decay = e^{-Gamma},
    floats or arrays alike, checked by _check_physical."""
    a = cm0.a * decay + 0.5 * delta_gamma
    c = cm0.c * decay
    _check_physical(a, c, times)
    return a, c


def evolve_cm(cm0: SymmetricCM, big_gamma: float, delta_gamma: float) -> SymmetricCM:
    """Apply the secular map: a' = a0 e^{-Gamma} + Delta_Gamma/2, c' = c0 e^{-Gamma}.

    A transiently negative delta_gamma is accepted as long as the output
    stays physical within tolerance.
    """
    if big_gamma < 0:
        raise ValueError("big_gamma must be >= 0")
    a, c = _secular_map(cm0, math.exp(-big_gamma), delta_gamma)
    return SymmetricCM(a=a, c=c)


def evolve_markovian(cm0: SymmetricCM, gamma_m: float, n_T: float, t: float) -> SymmetricCM:
    """Closed-form Markovian relaxation toward the thermal state (n_T + 1/2) I."""
    if not 0 <= gamma_m < math.inf:
        raise ValueError(f"gamma_m must be finite and >= 0, got {gamma_m}")
    if not 0 <= n_T < math.inf:
        raise ValueError(f"n_T must be finite and >= 0, got {n_T}")
    if not t >= 0:
        raise ValueError(f"t must be >= 0, got {t}")
    if t == 0:
        return cm0
    x = math.exp(-gamma_m * t)
    lam_t = n_T + 0.5
    # relaxation form keeps the stationary state an exact fixed point
    return SymmetricCM(a=lam_t + (cm0.a - lam_t) * x, c=cm0.c * x)


@dataclass(frozen=True)
class Trajectory:
    """Time-ordered symmetric states under one of the three evolution modes."""

    mode: TrajectoryMode
    initial: SymmetricCM
    times: np.ndarray
    a: np.ndarray
    c: np.ndarray
    big_gamma: np.ndarray
    delta_gamma: np.ndarray
    n_T: float
    gamma_m: float | None = None
    label: str = ""

    def __post_init__(self):
        n = len(self.times)
        if n < 1 or self.times[0] != 0.0:
            raise ValueError("trajectory must start at t = 0")
        for name in ("a", "c", "big_gamma", "delta_gamma"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"{name} length differs from times")
        if self.a[0] != self.initial.a or self.c[0] != self.initial.c:
            raise ValueError("a[0], c[0] must equal the initial state")

    @property
    def lam(self) -> np.ndarray:
        return self.a - self.c

    @property
    def mu(self) -> np.ndarray:
        """Purity 1/(4 (a - c)(a + c)) per sample."""
        return 1.0 / (4.0 * ((self.a - self.c) * (self.a + self.c)))

    @property
    def points(self) -> list[tuple[float, SymmetricCM]]:
        return [(t, SymmetricCM(a, c))
                for t, a, c in zip(self.times.tolist(), self.a.tolist(), self.c.tolist())]


def simulate_trajectory(cm0: SymmetricCM, *, mode: TrajectoryMode, t_max: float,
                        n_samples: int, grid: CoefficientGrid | None = None,
                        gamma_m: float | None = None, n_T: float | None = None,
                        label: str = "") -> Trajectory:
    """Sample the evolution of cm0 at n_samples uniform times on [0, t_max].

    Markovian mode uses the closed form and needs (gamma_m, n_T); the grid
    modes interpolate Gamma / Delta_Gamma (or the diffusion integral) from
    a CoefficientGrid covering [0, t_max].
    """
    if n_samples < 2:
        raise ValueError("n_samples must be >= 2")
    if not 0 < t_max < math.inf:
        raise ValueError(f"t_max must be finite and > 0, got {t_max}")
    if n_T is None:
        raise ValueError("n_T is required (environment summary of the trajectory)")
    if not 0 <= n_T < math.inf:
        raise ValueError(f"n_T must be finite and >= 0, got {n_T}")
    times = np.linspace(0.0, t_max, n_samples)
    mode = TrajectoryMode(mode)
    if mode is TrajectoryMode.MARKOVIAN:
        if gamma_m is None or not 0 < gamma_m < math.inf:
            raise ValueError(f"markovian mode requires a finite gamma_m > 0, got {gamma_m}")
        big_gamma = gamma_m * times
        delta_gamma = -np.expm1(-big_gamma) * (2.0 * n_T + 1.0)
    else:
        if grid is None:
            raise ValueError(f"{mode.value} mode requires a coefficient grid")
        if not grid.covers(t_max):
            raise ValueError(f"grid covers [0, {grid.t_max}], need [0, {t_max}]")
        if mode is TrajectoryMode.NONMARKOVIAN:
            big_gamma = grid.interp_big_gamma(times)
            delta_gamma = grid.interp_delta_gamma(times)
        else:
            big_gamma = np.zeros_like(times)
            delta_gamma = grid.delta_integral(times)
    a, c = _secular_map(cm0, np.exp(-big_gamma), delta_gamma, times)
    # exact map structure: times[0] = 0 gives decay 1, delta_gamma 0
    a[0], c[0] = cm0.a, cm0.c
    return Trajectory(mode=mode, initial=cm0, times=times, a=a, c=c,
                      big_gamma=big_gamma, delta_gamma=delta_gamma,
                      n_T=float(n_T), gamma_m=gamma_m, label=label)


def _sign(x: float) -> int:
    return (x > 0.0) - (x < 0.0)


def _pchip_end_slope(h0: float, h1: float, m0: float, m1: float) -> float:
    """PchipInterpolator's one-sided three-point slope at an end sample, from the
    end interval (width h0, secant m0) and its neighbour (h1, m1)."""
    d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if _sign(d) != _sign(m0):
        return 0.0
    return 3.0 * m0 if _sign(m0) != _sign(m1) and abs(d) > 3.0 * abs(m0) else d


def _pchip_inner_slope(h0: float, h1: float, m0: float, m1: float) -> float:
    """PchipInterpolator's weighted harmonic mean of the secants m0, m1 on both
    sides of an interior sample (interval widths h0, h1)."""
    if _sign(m0) != _sign(m1) or m0 == 0.0 or m1 == 0.0:
        return 0.0
    w1, w2 = 2.0 * h1 + h0, h1 + 2.0 * h0
    return 1.0 / ((w1 / m0 + w2 / m1) / (w1 + w2))


def _pchip_piece(times: np.ndarray, y: np.ndarray, i: int):
    """The PCHIP through every sample of y, as a function on [times[i-1], times[i]].

    Its slopes there need samples i-2 .. i+1 only.  Slopes follow scipy's
    PchipInterpolator, coefficients CubicHermiteSpline and the evaluation
    order PPoly, so its values equal the full-grid interpolant's bit for bit.
    """
    n, lo = len(times), max(i - 2, 0)
    x, v = times[lo:i + 2].tolist(), y[lo:i + 2].tolist()
    h = [x1 - x0 for x0, x1 in zip(x, x[1:])]
    m = [(v1 - v0) / hk for v0, v1, hk in zip(v, v[1:], h)]
    k = i - 1 - lo  # [i-1, i] is interval k of the window
    if n == 2:
        d0 = d1 = m[0]
    else:
        d0 = (_pchip_end_slope(h[0], h[1], m[0], m[1]) if i == 1
              else _pchip_inner_slope(h[k - 1], h[k], m[k - 1], m[k]))
        d1 = (_pchip_end_slope(h[k], h[k - 1], m[k], m[k - 1]) if i == n - 1
              else _pchip_inner_slope(h[k], h[k + 1], m[k], m[k + 1]))
    t0, y0, dx, slope = x[k], v[k], h[k], m[k]
    c3 = (d0 + d1 - 2.0 * slope) / dx
    c2, c3 = (slope - d0) / dx - c3, c3 / dx

    def piece(t: float) -> float:
        s = t - t0
        return y0 + d0 * s + c2 * (s * s) + c3 * (s * s * s)

    return piece


def _pchip_at(times: np.ndarray, y: np.ndarray, t: float) -> float:
    """The full-grid PCHIP of y at t, on the sample interval PPoly would use."""
    i = min(max(int(np.searchsorted(times, t, side="right")), 1), len(times) - 1)
    return _pchip_piece(times, y, i)(t)


def _refine_crossing(times: np.ndarray, lam: np.ndarray, i: int) -> float:
    """First time in [t_{i-1}, t_i] where the PCHIP of lambda reaches 1/2.

    Bisects the monotone cubic until no float lies strictly between the
    bracket ends; lam[i-1] < 1/2 <= lam[i].
    """
    lo, hi = float(times[i - 1]), float(times[i])
    if lam[i] == SEPARABILITY_THRESHOLD:
        return hi
    piece = _pchip_piece(times, lam, i)
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if piece(mid) < SEPARABILITY_THRESHOLD:
            lo = mid
        else:
            hi = mid
    return hi


def separability_time(traj: Trajectory) -> float | None:
    """First time lambda(t) reaches 1/2; None if it never will.

    A grid-mode trajectory that has not crossed by t_max while the
    asymptote n_T + 1/2 lies above threshold raises
    InconclusiveThresholdError (too short), distinct from None.
    """
    lam = traj.lam
    if lam[0] >= SEPARABILITY_THRESHOLD:
        return 0.0
    if traj.mode is TrajectoryMode.MARKOVIAN:
        lam_t = traj.n_T + 0.5
        if lam_t <= SEPARABILITY_THRESHOLD:
            return None
        t_sep = math.log((lam_t - lam[0]) / (lam_t - SEPARABILITY_THRESHOLD)) / traj.gamma_m
        if t_sep > traj.times[-1] * (1 + 1e-12):
            raise InconclusiveThresholdError(
                f"closed-form t_sep = {t_sep} exceeds the sampled window {traj.times[-1]}"
            )
        return t_sep
    crossed = np.nonzero(lam >= SEPARABILITY_THRESHOLD)[0]
    if len(crossed):
        return _refine_crossing(traj.times, lam, int(crossed[0]))
    if traj.n_T + 0.5 > SEPARABILITY_THRESHOLD:
        raise InconclusiveThresholdError(
            f"lambda < 1/2 up to t_max = {traj.times[-1]} but the stationary value "
            f"{traj.n_T + 0.5} lies above threshold"
        )
    return None


@dataclass(frozen=True)
class ReachabilityDecision:
    """Whether a Markovian channel connects two symmetric states."""

    reachable: bool
    gamma_m_t: float | None = None
    n_T: float | None = None
    violated: str | None = None


def reachable_markovian(cm0: SymmetricCM, cm1: SymmetricCM) -> ReachabilityDecision:
    """Decide whether cm1 = Markovian-evolve(cm0; gamma_M t, n_T) has a solution.

    The correlation decay fixes e^{-gamma_M t} = c1/c0 (needs 0 < c1 <= c0);
    the diagonal then determines n_T + 1/2 = (a1 - a0 x)/(1 - x), which must
    be a temperature, i.e. n_T >= 0.  States failing either constraint are
    in the excluded region of cm0.
    """
    if cm0.c <= 0:
        raise DegenerateInputError("reachable_markovian requires c0 > 0")
    x = cm1.c / cm0.c
    if x <= 0 or x > 1 + 1e-12:
        return ReachabilityDecision(reachable=False, violated="c-growth")
    if x >= 1 - 1e-15:
        if abs(cm1.a - cm0.a) <= 1e-12 * max(1.0, cm0.a):
            return ReachabilityDecision(reachable=True, gamma_m_t=0.0, n_T=None)
        return ReachabilityDecision(reachable=False, violated="c-growth")
    nu = (cm1.a - cm0.a * x) / (1.0 - x)
    n_T = nu - 0.5
    if n_T < -1e-12:
        return ReachabilityDecision(reachable=False, violated="negative-temperature")
    return ReachabilityDecision(reachable=True, gamma_m_t=-math.log(x), n_T=max(n_T, 0.0))


@dataclass(frozen=True)
class SecularReachability:
    """Reachability under the wider family of maps with free Gamma >= 0, Delta_Gamma >= 0."""

    reachable: bool
    big_gamma: float | None = None
    delta_gamma: float | None = None
    violated: str | None = None


def reachable_secular(cm0: SymmetricCM, cm1: SymmetricCM) -> SecularReachability:
    """Same algebra as reachable_markovian without the n_T >= 0 sign constraint."""
    if cm0.c <= 0:
        raise DegenerateInputError("reachable_secular requires c0 > 0")
    x = cm1.c / cm0.c
    if x <= 0 or x > 1 + 1e-12:
        return SecularReachability(reachable=False, violated="c-growth")
    dg = 2.0 * (cm1.a - cm0.a * x)
    if dg < -1e-12:
        return SecularReachability(reachable=False, violated="negative-diffusion")
    return SecularReachability(reachable=True, big_gamma=-math.log(min(x, 1.0)),
                               delta_gamma=max(dg, 0.0))


@dataclass(frozen=True)
class MotionConstant:
    value: float | np.ndarray
    degenerate: bool = False


def constant_of_motion(point: PathPoint | Trajectory, lambda0: float, mu0: float,
                       lambda_T: float) -> MotionConstant:
    """C = lambda + k/(4 lambda mu) with k = (lambda_T - lambda0)/(v0 - lambda_T).

    Both lambda = a - c and v = a + c = 1/(4 lambda mu) relax through the
    same factor e^{-Gamma(t)} toward lambda_T = n_T + 1/2, so this k makes
    C time-independent along the relaxation; when v0 = lambda_T the
    coefficient is undetermined and lambda itself is returned, flagged.
    ``point`` is anything with ``lam`` and ``mu`` attributes: one PathPoint
    gives a float, a Trajectory or DynamicalPath an array over its samples.
    """
    if lambda0 <= 0 or mu0 <= 0:
        raise ValueError("lambda0 and mu0 must be > 0")
    v0 = 1.0 / (4.0 * mu0 * lambda0)
    if abs(v0 - lambda_T) <= 1e-12 * max(1.0, abs(v0), abs(lambda_T)):
        return MotionConstant(value=point.lam, degenerate=True)
    k = (lambda_T - lambda0) / (v0 - lambda_T)
    return MotionConstant(point.lam + k / (4.0 * point.lam * point.mu))


def write_trajectory_csv(traj: Trajectory, stream) -> None:
    """CSV export: t,a,c,mu,lambda,discord,big_gamma,delta_gamma per sample; values %.17g
    (17 significant digits, round-trip exact), streamed in fixed row blocks."""
    stream.write("t,a,c,mu,lambda,discord,big_gamma,delta_gamma\n")
    _write_rows(stream, (traj.times, traj.a, traj.c, traj.mu, traj.lam,
                         discord(traj.a, traj.c), traj.big_gamma, traj.delta_gamma))
