"""Dynamical paths: time-eliminated curves in (mu, lambda, D) space.

A trajectory's path is its image in the (purity, PT symplectic
eigenvalue, discord) space.  Paths from different environment spectra at
the same initial state and effective temperature coincide; what the
spectrum changes is only the speed at which the path is traversed.
Matching candidate points to a reference at equal lambda makes that
statement testable, and the discord at the separability crossing gives a
temperature-universal function of the initial squeezing.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO, Sequence

import numpy as np

from .coefficients import CoefficientGrid, _write_rows
from .dynamics import (
    InconclusiveThresholdError,
    MapUnphysicalError,
    Trajectory,
    TrajectoryMode,
    _pchip_at,
    separability_time,
    simulate_trajectory,
)
from .gaussian_core import (
    STSParams,
    SymmetricCM,
    discord,
    from_sts,
    gaussian_discord,
    to_sts,
)
from .spectral_env import Environment, SpectralDensity

__all__ = [
    "PathSource",
    "DynamicalPath",
    "UniversalityReport",
    "extract_path",
    "compare_paths",
    "dsep_universal",
    "dsep_from_trajectory",
    "SweepRow",
    "dsep_sweep",
    "d_star",
    "write_path_csv",
    "write_sweep_csv",
]


@dataclass(frozen=True)
class PathSource:
    """Provenance of a path: spectrum label, temperature, mode, initial state."""

    spectrum: str
    n_T: float
    mode: str
    r0: float
    nu0: float


@dataclass(frozen=True)
class DynamicalPath:
    """Ordered path points; consecutive duplicates from static trajectories collapse."""

    mu: np.ndarray
    lam: np.ndarray
    discord: np.ndarray
    t: np.ndarray
    source: PathSource | None = None

    def __len__(self) -> int:
        return len(self.lam)


@dataclass(frozen=True)
class UniversalityReport:
    """Pointwise distance between a candidate path and a reference at matched lambda."""

    reference: PathSource | None
    candidate: PathSource | None
    max_deviation: float
    matched_fraction: float
    max_discord_deviation: float
    max_purity_deviation: float
    tol: float
    deviation_defined: bool = True

    @property
    def passed(self) -> bool:
        return self.deviation_defined and self.max_deviation <= self.tol


def _source_of(traj: Trajectory) -> PathSource:
    sts = to_sts(traj.initial)
    return PathSource(spectrum=traj.label or traj.mode.value, n_T=traj.n_T,
                      mode=traj.mode.value, r0=sts.r, nu0=sts.nu_T)


def extract_path(traj: Trajectory) -> DynamicalPath:
    """Map every trajectory sample through (mu, lambda, D); t is kept as metadata."""
    mu = traj.mu
    lam = traj.lam
    disc = np.maximum(discord(traj.a, traj.c), 0.0)
    keep = np.ones(len(lam), dtype=bool)
    keep[1:] = (np.diff(mu) != 0) | (np.diff(lam) != 0) | (np.diff(disc) != 0)
    return DynamicalPath(mu=mu[keep], lam=lam[keep], discord=disc[keep],
                         t=traj.times[keep], source=_source_of(traj))


def compare_paths(reference: DynamicalPath, candidate: DynamicalPath,
                  tol: float = 1e-2) -> UniversalityReport:
    """Sup over candidate points of |Delta D| + |Delta mu| at equal lambda.

    The reference must be monotone in lambda (Markovian references are);
    it is interpolated in the (lambda, v = 1/(4 mu lambda)) plane, where
    Markovian relaxation is exactly linear, so comparing two Markovian
    paths of different damping rates returns pure roundoff.  Candidate
    points are matched independently, which handles non-monotone
    (oscillating) candidates segment by segment automatically; points
    outside the reference lambda range are skipped and accounted for in
    matched_fraction.
    """
    if reference.source is not None and candidate.source is not None:
        same = (
            math.isclose(reference.source.n_T, candidate.source.n_T, rel_tol=1e-9, abs_tol=1e-12)
            and math.isclose(reference.source.r0, candidate.source.r0, rel_tol=1e-9, abs_tol=1e-12)
            and math.isclose(reference.source.nu0, candidate.source.nu0, rel_tol=1e-9, abs_tol=1e-12)
        )
        if not same:
            raise ValueError("paths stem from different initial states or temperatures")
    lam_r, mu_r, d_r = reference.lam, reference.mu, reference.discord
    keep = np.ones(len(lam_r), dtype=bool)
    keep[1:] = np.diff(lam_r) != 0
    lam_r, mu_r, d_r = lam_r[keep], mu_r[keep], d_r[keep]
    if len(lam_r) < 2:
        raise ValueError("reference path is a single point")
    direction = np.sign(np.diff(lam_r))
    if not (np.all(direction > 0) or np.all(direction < 0)):
        raise ValueError("reference path must be monotone in lambda")
    if direction[0] < 0:
        lam_r, mu_r, d_r = lam_r[::-1], mu_r[::-1], d_r[::-1]
    v_r = 1.0 / (4.0 * mu_r * lam_r)

    lam_c = candidate.lam
    lo, hi = lam_r[0], lam_r[-1]
    matched = (lam_c >= lo) & (lam_c <= hi)
    span = float(np.max(lam_c) - np.min(lam_c))
    if span == 0.0:
        frac = 1.0 if bool(matched[0]) else 0.0
    else:
        overlap = max(0.0, min(hi, float(np.max(lam_c))) - max(lo, float(np.min(lam_c))))
        frac = overlap / span
    if not np.any(matched):
        return UniversalityReport(reference=reference.source, candidate=candidate.source,
                                  max_deviation=math.nan, matched_fraction=0.0,
                                  max_discord_deviation=math.nan,
                                  max_purity_deviation=math.nan, tol=tol,
                                  deviation_defined=False)
    lam_m = lam_c[matched]
    v_ref = np.interp(lam_m, lam_r, v_r)
    mu_ref = 1.0 / (4.0 * lam_m * v_ref)
    a_ref = 0.5 * (lam_m + v_ref)
    c_ref = 0.5 * (v_ref - lam_m)
    d_ref = discord(a_ref, c_ref)
    # matches landing exactly on reference nodes take the stored node values,
    # so a path compared against itself reports zero deviation
    pos = np.minimum(np.searchsorted(lam_r, lam_m), len(lam_r) - 1)
    exact = lam_r[pos] == lam_m
    mu_ref[exact] = mu_r[pos[exact]]
    d_ref[exact] = d_r[pos[exact]]
    d_dev = np.abs(candidate.discord[matched] - d_ref)
    mu_dev = np.abs(candidate.mu[matched] - mu_ref)
    return UniversalityReport(
        reference=reference.source,
        candidate=candidate.source,
        max_deviation=float(np.max(d_dev + mu_dev)),
        matched_fraction=frac,
        max_discord_deviation=float(np.max(d_dev)),
        max_purity_deviation=float(np.max(mu_dev)),
        tol=tol,
    )


def dsep_universal(r0: float) -> float:
    """High-temperature discord at the separability threshold.

    D evaluated at the frozen-correlation crossing state
    a = (1 + sinh 2r0)/2, c = sinh(2r0)/2, a universal function of the
    initial squeezing alone.
    """
    if r0 < 0:
        raise ValueError("r0 must be >= 0")
    c = 0.5 * math.sinh(2.0 * r0)
    return gaussian_discord(SymmetricCM(a=0.5 + c, c=c))


def d_star() -> float:
    """Large-squeezing limit of dsep_universal: 2 ln 2 - 1."""
    return 2.0 * math.log(2.0) - 1.0


def dsep_from_trajectory(traj: Trajectory) -> float | None:
    """Discord at the first separability crossing of a trajectory; None if never."""
    return _dsep_at(traj, separability_time(traj))


def _dsep_at(traj: Trajectory, t_sep: float | None) -> float | None:
    """Discord of traj at its separability time t_sep; None when t_sep is."""
    if t_sep is None:
        return None
    if t_sep == 0.0:
        return gaussian_discord(traj.initial)
    # at the crossing lambda = 1/2 exactly, so only c needs interpolating
    c_sep = _pchip_at(traj.times, traj.c, t_sep)
    return gaussian_discord(SymmetricCM(a=0.5 + c_sep, c=c_sep))


@dataclass(frozen=True)
class SweepRow:
    r0: float
    n_T: float
    spectrum: str
    mode: str
    t_sep: float | None
    d_sep: float | None
    note: str = ""


def dsep_sweep(r0_values: Sequence[float], spec: SpectralDensity, env: Environment,
               mode: TrajectoryMode, *, t_max: float, n_samples: int = 2001,
               nu0: float = 0.0, grid: CoefficientGrid | None = None,
               gamma_m: float | None = None) -> list[SweepRow]:
    """Discord at separability for a list of initial squeezings.

    The coefficient grid (or, in Markovian mode, gamma_m) is required, as in
    simulate_trajectory (ValueError otherwise), and shared across r0 values;
    rows where the trajectory errors or never crosses carry None entries
    and the sweep continues.
    """
    if not len(r0_values):
        raise ValueError("r0_values must be non-empty")
    mode = TrajectoryMode(mode)
    rows: list[SweepRow] = []
    for r0 in r0_values:
        cm0 = from_sts(STSParams(r=float(r0), nu_T=nu0))
        try:
            traj = simulate_trajectory(cm0, mode=mode, t_max=t_max, n_samples=n_samples,
                                       grid=grid, gamma_m=gamma_m, n_T=env.n_T,
                                       label=spec.kind.value)
            t_sep = separability_time(traj)
            d_sep = _dsep_at(traj, t_sep)
            note = "" if t_sep is not None else "no-threshold"
        except (InconclusiveThresholdError, MapUnphysicalError) as exc:
            t_sep, d_sep, note = None, None, f"{type(exc).__name__}: {exc}"
        rows.append(SweepRow(r0=float(r0), n_T=env.n_T, spectrum=spec.kind.value,
                             mode=mode.value, t_sep=t_sep, d_sep=d_sep, note=note))
    return rows


def write_path_csv(path: DynamicalPath, stream: IO[str]) -> None:
    """CSV export: t,mu,lambda,discord per path point; values %.17g (17 significant digits,
    round-trip exact), streamed in fixed row blocks."""
    stream.write("t,mu,lambda,discord\n")
    _write_rows(stream, (path.t, path.mu, path.lam, path.discord))


def write_sweep_csv(rows: Sequence[SweepRow], stream: IO[str]) -> None:
    """CSV export: r0,n_T,spectrum,mode,t_sep,d_sep; empty cells for missing thresholds."""
    stream.write("r0,n_T,spectrum,mode,t_sep,d_sep\n")
    for r in rows:
        t_sep = "" if r.t_sep is None else "%.17g" % r.t_sep
        d_sep = "" if r.d_sep is None else "%.17g" % r.d_sep
        stream.write("%.17g,%.17g,%s,%s,%s,%s\n" % (r.r0, r.n_T, r.spectrum, r.mode, t_sep, d_sep))
