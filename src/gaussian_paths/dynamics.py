"""Secular evolution of symmetric states and derived dynamical quantities.

The covariance matrix map is sigma_t = e^{-Gamma(t)} sigma_0
+ (1/2) Delta_Gamma(t) I_4, which for symmetric states reduces to

    a(t) = a0 e^{-Gamma(t)} + Delta_Gamma(t)/2,   c(t) = c0 e^{-Gamma(t)}.

Its Markovian limit is the damping semigroup toward the thermal state
(n_T + 1/2) I_4, and the high-temperature short-time limit freezes c
while a is driven by the accumulated diffusion integral.  Channel.crossing
is the one source of the separability time t_sep and its discord D_sep.
"""
from __future__ import annotations

import math
import operator
import weakref
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, lru_cache
from itertools import repeat
from typing import NamedTuple

import numpy as np

from ._csv import _write_rows
from .coefficients import CoefficientGrid, _cumtrapz
from .gaussian_core import (PathPoint, SymmetricCM, _physical, _threshold_discord, discord,
                            min_symplectic)

__all__ = [
    "TrajectoryMode",
    "Channel",
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
CHANNEL_WINDOWS = 8  # sampled windows kept per grid, and for all Markovian channels


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
    or arrays) that fails the physicality test _physical; NaN fails."""
    a, c = np.asarray(a), np.asarray(c)
    bad = np.flatnonzero(~_physical(a, c))
    if len(bad):
        i = bad[0]
        ai, ci = a.flat[i], c.flat[i]
        at = "" if times is None else f" at t = {times[i]}"
        raise MapUnphysicalError(f"unphysical sample{at} (a={ai}, c={ci}): "
                                 f"a^2 - c^2 = {(ai - ci) * (ai + ci)} < 1/4")


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
    stays physical within tolerance.  big_gamma = inf is the fully damped limit.
    """
    if not 0 <= big_gamma <= math.inf:
        raise ValueError(f"big_gamma must be >= 0, got {big_gamma}")
    if not -math.inf < delta_gamma < math.inf:
        raise ValueError(f"delta_gamma must be finite, got {delta_gamma}")
    a, c = _secular_map(cm0, math.exp(-big_gamma), delta_gamma)
    return SymmetricCM(a=a, c=c)


def evolve_markovian(cm0: SymmetricCM, gamma_m: float, n_T: float, t: float) -> SymmetricCM:
    """Closed-form Markovian relaxation toward the thermal state (n_T + 1/2) I; cm0 itself at
    t = 0 or gamma_m = 0, where nothing moves."""
    if not 0 <= gamma_m < math.inf:
        raise ValueError(f"gamma_m must be finite and >= 0, got {gamma_m}")
    if not 0 <= n_T < math.inf:
        raise ValueError(f"n_T must be finite and >= 0, got {n_T}")
    if not t >= 0:
        raise ValueError(f"t must be >= 0, got {t}")
    if t == 0 or gamma_m == 0:
        return cm0
    x = math.exp(-gamma_m * t)
    lam_t = n_T + 0.5
    # relaxation form keeps the stationary state an exact fixed point
    return SymmetricCM(a=lam_t + (cm0.a - lam_t) * x, c=cm0.c * x)


@dataclass(frozen=True, eq=False)
class Channel:
    """One mode's (Gamma(t), Delta_Gamma(t)) at temperature n_T, the one place that knows what
    each mode means, checked once, when built (ValueError otherwise).  Markovian: gamma_m t and
    (1 - e^{-Gamma})(2 n_T + 1) from a finite gamma_m > 0 and n_T, no grid.  Non-Markovian: a
    CoefficientGrid's Gamma and Delta_Gamma; high-T: 0 and int_0^t Delta by cumulative
    trapezoid; both linear between the grid's knots on [0, grid.t_max], with no gamma_m.  A grid
    channel, Channel(mode, grid=grid), reads n_T (so lambda_T) from its grid, the bath the grid
    was built for, and refuses an n_T of its own."""

    mode: TrajectoryMode
    n_T: float | None = None
    gamma_m: float | None = None
    grid: CoefficientGrid | None = None

    def __post_init__(self):
        object.__setattr__(self, "mode", mode := TrajectoryMode(self.mode))
        if self.grid is not None:
            if self.n_T is not None:
                raise ValueError(f"a grid channel reads n_T = {self.grid.n_T} from its grid, "
                                 f"got n_T = {self.n_T}")
            object.__setattr__(self, "n_T", self.grid.n_T)
        if self.n_T is None or not 0 <= self.n_T < math.inf:
            raise ValueError(f"n_T must be finite and >= 0, got {self.n_T}")
        object.__setattr__(self, "n_T", float(self.n_T))
        if mode is TrajectoryMode.MARKOVIAN:
            if self.grid is not None or not 0 < (self.gamma_m or 0) < math.inf:
                raise ValueError("markovian mode requires a finite gamma_m > 0 and no grid, "
                                 f"got gamma_m = {self.gamma_m}")
        elif self.grid is None or self.gamma_m is not None:
            raise ValueError(f"{mode.value} mode requires a coefficient grid and no gamma_m")

    def __call__(self, t=None) -> tuple[np.ndarray, np.ndarray]:
        """(Gamma, Delta_Gamma) at the times t (within a grid's range, or >= 0), or at a grid's
        knots; ValueError otherwise."""
        if self.grid is None:
            if t is None or not np.all(np.asarray(t) >= 0):  # NaN too
                raise ValueError("a Markovian channel has no knots" if t is None else
                                 f"a Markovian channel covers t >= 0 but was asked for t = {t}")
            big_gamma = self.gamma_m * t
            return big_gamma, -np.expm1(-big_gamma) * (2.0 * self.n_T + 1.0)
        grid = self.grid
        knots = ((grid.big_gamma, grid.delta_gamma) if self.mode is TrajectoryMode.NONMARKOVIAN
                 else (np.zeros_like(grid.times), _cumtrapz(grid.delta, grid.times)))
        return knots if t is None else tuple(grid._interp(t, v) for v in knots)

    @property
    def lambda_T(self) -> float:
        """lambda's stationary value: n_T + 1/2, or inf in high-T mode, whose c stays frozen."""
        return math.inf if self.mode is TrajectoryMode.HIGH_TEMPERATURE else self.n_T + 0.5

    @property
    def _windows(self):  # this channel's lru window cache: its grid's, or the Markovian one
        if self.grid is None:
            return _MARKOVIAN_WINDOWS
        cache = _GRID_WINDOWS.get(self.grid)
        return cache or _GRID_WINDOWS.setdefault(self.grid, _window_cache(weakref.ref(self.grid)))

    def window(self, t_max: float, n_samples: int):
        """Read-only (times, Gamma, Delta_Gamma, e^{-Gamma}) at n_samples >= 2 times on [0, t_max]
        (finite, > 0), sampled once into this channel's cache of CHANNEL_WINDOWS windows."""
        if n_samples < 2:
            raise ValueError("n_samples must be >= 2")
        if not 0 < t_max < math.inf:
            raise ValueError(f"t_max must be finite and > 0, got {t_max}")
        return self._windows(self.mode, self.n_T, self.gamma_m, t_max, operator.index(n_samples))

    def crossing(self, cm0: SymmetricCM, t_max: float) -> tuple[float, float, float] | None:
        """(t_sep, Gamma(t_sep), D_sep) at which cm0's lambda reaches 1/2 by t_max (finite, > 0,
        on the grid), D_sep = D(1/2 + c*, c*) from c* = c0 e^{-Gamma} alone (_threshold_discord).
        Markovian: in closed form, no knots checked, since a completely positive map (n_T >= 0)
        keeps a state physical (Holevo & Werner, PRA 63, 032312); else _grid_crossing.  (0, 0,
        cm0's discord) if separable, None if never; InconclusiveThresholdError if not by t_max
        while lambda_T lies above 1/2."""
        end = math.inf if self.grid is None else self.grid.t_max * (1 + 1e-12)
        if not 0 < t_max < math.inf or t_max > end:
            raise ValueError(f"t_max must be finite, > 0 and within the grid, got {t_max}")
        lam0, lam_t = min_symplectic(cm0), self.lambda_T
        if self.grid is not None:
            crossing = self._grid_crossing(cm0, t_max)
        elif lam0 >= SEPARABILITY_THRESHOLD:
            crossing = 0.0, 0.0
        elif lam_t <= SEPARABILITY_THRESHOLD:
            return None
        else:
            t_sep = math.log((lam_t - lam0) / (lam_t - SEPARABILITY_THRESHOLD)) / self.gamma_m
            crossing = None if t_sep > t_max * (1 + 1e-12) else (t_sep, self.gamma_m * t_sep)
        if crossing is None:
            if lam_t > SEPARABILITY_THRESHOLD:
                raise InconclusiveThresholdError(f"lambda < 1/2 up to t_max = {t_max} but the "
                                                 f"stationary value {lam_t} lies above threshold")
            return None
        t_sep, big_gamma = crossing
        if t_sep == 0.0:
            return t_sep, big_gamma, discord(cm0.a, cm0.c)
        return t_sep, big_gamma, _threshold_discord(cm0.c * np.exp(-big_gamma).item())

    def _grid_crossing(self, cm0: SymmetricCM, t_max: float) -> tuple[float, float] | None:
        """(t, Gamma(t)) with t <= t_max at which the grid channel's lambda reaches 1/2, or None.
        cm0 is mapped over the (cached) knots that fix the channel on [0, t_max]:
        MapUnphysicalError if unphysical there.  The first knot k at or past 1/2 in the map's
        rounding holds it: (t_{k-1}, t_k] is bisected on the channel's interpolant, in the same
        rounding, to adjacent floats with lambda < 1/2 at the lower; t, the upper, is t_k or
        reads lambda >= 1/2.  Near 1/2 the rounded lambda need not be monotone, so t need not
        be the first such float."""
        nodes, big_gamma, delta_gamma, decay = self._windows(self.mode, self.n_T, None, None, None)
        end = int(np.searchsorted(nodes, t_max)) + 1  # knots of [0, t_max], one past if between
        a, c = _secular_map(cm0, decay[:end], delta_gamma[:end], nodes)
        above = a - c >= SEPARABILITY_THRESHOLD
        if (k := int(np.argmax(above))) == 0:  # separable cm0, or no knot reaches 1/2
            return (0.0, 0.0) if above[0] else None
        a0, c0 = cm0
        (t0, t1), (g0, g1), (d0, d1) = (v[k - 1:k + 1].tolist()
                                        for v in (nodes, big_gamma, delta_gamma))
        # Gamma, Delta_Gamma as np.interp rounds them, and lambda as _secular_map rounds a - c
        g_slope, d_slope = (g1 - g0) / (t1 - t0), (d1 - d0) / (t1 - t0)
        lo, hi = t0, t1
        while lo < (mid := 0.5 * (lo + hi)) < hi:
            x = float(np.exp(-(g_slope * (mid - t0) + g0)))
            if (a0 * x + 0.5 * (d_slope * (mid - t0) + d0)) - c0 * x < SEPARABILITY_THRESHOLD:
                lo = mid
            else:
                hi = mid
        if hi > t_max * (1 + 1e-12):  # the channel crosses, but after t_max
            return None
        return hi, float(np.interp(hi, nodes, big_gamma))


def _window_cache(grid_ref):
    """An lru cache of CHANNEL_WINDOWS windows by (mode, n_T, gamma_m, t_max, n_samples), t_max
    None at a grid's knots; a grid's holds its grid only by the weak grid_ref, so dies with it."""
    @lru_cache(maxsize=CHANNEL_WINDOWS)
    def sample_window(mode, n_T, gamma_m, t_max, n_samples):
        grid = grid_ref and grid_ref()
        channel = Channel(mode, None if grid else n_T, gamma_m, grid)
        times = channel.grid.times if t_max is None else np.linspace(0.0, t_max, n_samples)
        big_gamma, delta_gamma = channel(None if t_max is None else times)
        window = (times, big_gamma, delta_gamma, np.exp(-big_gamma))
        for v in window:
            v.flags.writeable = False
        return window
    return sample_window


_MARKOVIAN_WINDOWS = _window_cache(None)
_GRID_WINDOWS = weakref.WeakKeyDictionary()  # grid -> its window cache, dropped with the grid


@dataclass(frozen=True, eq=False)
class Trajectory:
    """The states of initial under channel, which gives the mode and n_T, at n_samples >= 2
    uniform times on [0, t_max] (finite, > 0): the channel's shared read-only window (times,
    big_gamma, delta_gamma) through the secular map, which checks every sample
    (MapUnphysicalError) and makes only a and c per state."""

    channel: Channel
    initial: SymmetricCM
    t_max: float
    n_samples: int
    label: str = ""
    times: np.ndarray = field(init=False)
    big_gamma: np.ndarray = field(init=False)
    delta_gamma: np.ndarray = field(init=False)
    a: np.ndarray = field(init=False)
    c: np.ndarray = field(init=False)

    def __post_init__(self):
        times, big_gamma, delta_gamma, decay = self.channel.window(self.t_max, self.n_samples)
        a, c = _secular_map(self.initial, decay, delta_gamma, times)
        vars(self).update(times=times, big_gamma=big_gamma, delta_gamma=delta_gamma, a=a, c=c)

    mode = property(lambda self: self.channel.mode)
    n_T = property(lambda self: self.channel.n_T)

    @property
    def lam(self) -> np.ndarray:
        return self.a - self.c

    @property
    def mu(self) -> np.ndarray:
        """Purity 1/(4 (a - c)(a + c)) per sample."""
        return 1.0 / (4.0 * ((self.a - self.c) * (self.a + self.c)))

    @property
    def points(self) -> list[tuple[float, SymmetricCM]]:
        """(t, SymmetricCM) per sample, unchecked: the map made each finite, c >= 0 and
        physical."""
        cms = map(tuple.__new__, repeat(SymmetricCM), zip(self.a.tolist(), self.c.tolist()))
        return list(zip(self.times.tolist(), cms))

    @cached_property
    def _crossing(self) -> tuple[float, float, float] | None:
        """channel.crossing(initial, t_max), solved once for separability_time and
        dsep_from_trajectory, which read t_sep and D_sep of one trajectory in two calls;
        InconclusiveThresholdError is raised, not stored, so it raises on every call."""
        return self.channel.crossing(self.initial, self.t_max)


def simulate_trajectory(cm0: SymmetricCM, *, mode: TrajectoryMode, t_max: float,
                        n_samples: int, grid: CoefficientGrid | None = None,
                        gamma_m: float | None = None, n_T: float | None = None,
                        label: str = "") -> Trajectory:
    """Trajectory(Channel(mode, n_T, gamma_m, grid), cm0, t_max, n_samples, label) by keywords,
    kept for keyword callers such as the benchmark's state sweep.  Markovian mode needs gamma_m,
    n_T and no grid, the grid modes a grid that covers [0, t_max] and no gamma_m; an n_T given
    with a grid must equal the grid's (ValueError otherwise)."""
    if grid is not None and n_T is not None and n_T != grid.n_T:
        raise ValueError(f"n_T = {n_T} differs from the grid's n_T = {grid.n_T}")
    return Trajectory(Channel(mode, None if grid else n_T, gamma_m, grid), cm0, t_max,
                      n_samples, label)


def separability_time(traj: Trajectory) -> float | None:
    """t_sep of traj's channel.crossing from its initial state by its t_max (Channel.crossing,
    _grid_crossing for the bisection); None if never, InconclusiveThresholdError if not by t_max
    while lambda_T lies above 1/2.  It does not depend on n_samples.  Kept, with
    Trajectory._crossing, for callers that read t_sep and D_sep of one trajectory in two calls,
    as the benchmark's state sweep does."""
    crossing = traj._crossing
    return None if crossing is None else crossing[0]


@dataclass(frozen=True)
class ReachabilityDecision:
    """Whether a Markovian channel connects two symmetric states."""

    reachable: bool
    gamma_m_t: float | None = None
    n_T: float | None = None
    violated: str | None = None


def _secular_inverse(cm0: SymmetricCM, cm1: SymmetricCM, caller: str):
    """(x, Delta_Gamma, violated) = (c1/c0, 2(a1 - a0 x), None) of the secular map taking cm0
    to cm1, x = e^{-Gamma}; (None, None, label) where no finite Gamma >= 0 gives x: label
    "infinite-damping" for c1 = 0 (x = 0, c decayed fully) and "c-growth" for x > 1."""
    if cm0.c <= 0:
        raise DegenerateInputError(f"{caller} requires c0 > 0")
    x = cm1.c / cm0.c
    if x == 0.0:  # c1 >= 0, as every SymmetricCM
        return None, None, "infinite-damping"
    if x > 1 + 1e-12:
        return None, None, "c-growth"
    return x, 2.0 * (cm1.a - cm0.a * x), None


def reachable_markovian(cm0: SymmetricCM, cm1: SymmetricCM) -> ReachabilityDecision:
    """Decide whether cm1 = Markovian-evolve(cm0; gamma_M t, n_T) has a solution.

    The secular inverse gives x = e^{-gamma_M t} = c1/c0 (needs 0 < c1 <= c0)
    and Delta_Gamma; the Markovian map has Delta_Gamma = (1 - x)(2 n_T + 1),
    and n_T must be a temperature, i.e. n_T >= 0.  States failing either
    constraint are in the excluded region of cm0.
    """
    x, dg, violated = _secular_inverse(cm0, cm1, "reachable_markovian")
    if violated:
        return ReachabilityDecision(reachable=False, violated=violated)
    if x >= 1 - 1e-15:
        if abs(cm1.a - cm0.a) <= 1e-12 * max(1.0, cm0.a):
            return ReachabilityDecision(reachable=True, gamma_m_t=0.0, n_T=None)
        # c kept means gamma_M t = 0, where a Markovian map cannot move a either
        return ReachabilityDecision(reachable=False, violated="diffusion-without-damping")
    n_T = dg / (2.0 * (1.0 - x)) - 0.5
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
    """The secular inverse alone: free Gamma >= 0 and Delta_Gamma >= 0, no temperature."""
    x, dg, violated = _secular_inverse(cm0, cm1, "reachable_secular")
    if violated:
        return SecularReachability(reachable=False, violated=violated)
    if dg < -1e-12:
        return SecularReachability(reachable=False, violated="negative-diffusion")
    return SecularReachability(reachable=True, big_gamma=-math.log(min(x, 1.0)),
                               delta_gamma=max(dg, 0.0))


class MotionConstant(NamedTuple):
    value: float | np.ndarray
    degenerate: bool = False


@lru_cache(maxsize=64)  # C is evaluated along a trajectory: calls repeat one triple
def _motion_coefficient(lambda0: float, mu0: float, lambda_T: float) -> float | None:
    """k = (lambda_T - lambda0)/(v0 - lambda_T) of C = lambda + k v, v0 = 1/(4 mu0 lambda0), and
    its limit -1 at lambda_T = inf; None where v0 = lambda_T leaves it undetermined.  A bad
    argument raises ValueError, which lru_cache does not store, so it raises on every call."""
    if not 0 < lambda0 < math.inf:
        raise ValueError(f"lambda0 must be finite and > 0, got {lambda0}")
    if not 0 < mu0 < math.inf:
        raise ValueError(f"mu0 must be finite and > 0, got {mu0}")
    if not -math.inf < lambda_T <= math.inf:
        raise ValueError(f"lambda_T must be finite or +inf, got {lambda_T}")
    if lambda_T == math.inf:
        return -1.0
    v0 = 1.0 / (4.0 * mu0 * lambda0)
    if abs(v0 - lambda_T) <= 1e-12 * max(1.0, abs(v0), abs(lambda_T)):
        return None
    return (lambda_T - lambda0) / (v0 - lambda_T)


def constant_of_motion(point: PathPoint | Trajectory, lambda0: float, mu0: float,
                       lambda_T: float) -> MotionConstant:
    """C = lambda + k/(4 lambda mu) with k = (lambda_T - lambda0)/(v0 - lambda_T).

    Both lambda = a - c and v = a + c = 1/(4 lambda mu) relax through the
    same factor e^{-Gamma(t)} toward lambda_T = n_T + 1/2, so this k makes
    C time-independent along the relaxation (k = -1 at lambda_T = inf: the
    frozen-c high-T map's C = lambda - v = -2c).  When v0 = lambda_T the
    coefficient is undetermined and lambda itself is returned, flagged.
    ``point`` is anything with ``lam`` and ``mu`` attributes: one PathPoint
    gives a float, a Trajectory or DynamicalPath an array over its samples.
    k is formed and its arguments (floats) checked once per triple.
    """
    k = _motion_coefficient(lambda0, mu0, lambda_T)
    lam = point.lam
    if k is None:
        return tuple.__new__(MotionConstant, (lam, True))
    return tuple.__new__(MotionConstant, (lam + k / (4.0 * lam * point.mu), False))


def write_trajectory_csv(traj: Trajectory, stream) -> None:
    """CSV export: t,a,c,mu,lambda,discord,big_gamma,delta_gamma per sample, as
    ``'%.17g' % v`` (``_csv``)."""
    _write_rows(stream, "t,a,c,mu,lambda,discord,big_gamma,delta_gamma",
                (traj.times, traj.a, traj.c, traj.mu, traj.lam, discord(traj.a, traj.c),
                 traj.big_gamma, traj.delta_gamma))
