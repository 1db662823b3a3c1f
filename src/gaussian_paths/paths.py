"""Dynamical paths: time-eliminated curves in (mu, lambda, D) space.

A trajectory's path is its image in the (purity, PT symplectic
eigenvalue, discord) space.  Paths from different environment spectra at
the same initial state and effective temperature coincide; what the
spectrum changes is only the speed at which the path is traversed.
Matching candidate points to a reference at equal lambda makes that
statement testable, and the discord at the separability crossing
(Channel.crossing forms it; dsep_sweep and dsep_from_trajectory read it)
gives a temperature-universal function of the initial squeezing.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import IO, Sequence

import numpy as np

from ._csv import _write_rows
from .dynamics import (Channel, InconclusiveThresholdError, MapUnphysicalError, Trajectory,
                       _write_trajectory)
from .gaussian_core import _EPS, STSParams, _threshold_discord, discord, from_sts

__all__ = [
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

_PATH_HEADER = "t,mu,lambda,discord"


@dataclass(frozen=True, eq=False)
class DynamicalPath:
    """Ordered path points; consecutive duplicates from static trajectories collapse.
    trajectory is the Trajectory the path was extracted from, its origin (channel, initial
    state, sampling, label), or None for a path built from bare arrays."""

    mu: np.ndarray
    lam: np.ndarray
    discord: np.ndarray
    t: np.ndarray
    trajectory: Trajectory | None = None

    def __len__(self) -> int:
        return len(self.lam)

    @cached_property
    def _reference(self) -> tuple[np.ndarray, ...]:
        """compare_paths' (lam, mu, discord, v) ascending in lambda without repeats, once.  A
        point that falls back by at most 4 eps max|lambda|, roundoff where the path has relaxed
        to its end, is dropped like a repeat; a larger reversal is refused."""
        moved = self.lam - self.lam[0]
        ahead = np.sign(moved[np.argmax(np.abs(moved))]) * self.lam  # toward its farthest point
        reach = np.maximum.accumulate(ahead)[:-1]
        if np.any(ahead[1:] < reach - 4.0 * _EPS * np.max(np.abs(self.lam))):
            raise ValueError("reference path must be monotone in lambda")
        keep = np.concatenate(([True], ahead[1:] > reach))
        lam_r, mu_r, d_r = self.lam[keep], self.mu[keep], self.discord[keep]
        if len(lam_r) < 2:
            raise ValueError("reference path is a single point")
        if lam_r[-1] < lam_r[0]:
            lam_r, mu_r, d_r = lam_r[::-1], mu_r[::-1], d_r[::-1]
        return lam_r, mu_r, d_r, 1.0 / (4.0 * mu_r * lam_r)


@dataclass(frozen=True)
class UniversalityReport:
    """Pointwise distance between a candidate path and a reference at matched lambda."""

    max_deviation: float
    matched_fraction: float
    max_discord_deviation: float
    max_purity_deviation: float
    tol: float
    deviation_defined: bool = True

    @property
    def passed(self) -> bool:
        return self.deviation_defined and self.max_deviation <= self.tol


def extract_path(traj: Trajectory) -> DynamicalPath:
    """Map every trajectory sample through (mu, lambda, D); t is kept as metadata, and traj by
    reference as the path's trajectory.  If lambda moves at every step nothing is dropped or
    copied: t is the trajectory's read-only times."""
    mu, lam, t = traj.mu, traj.lam, traj.times
    disc = discord(traj.a, traj.c)
    if (keep := _kept(mu, lam, disc)) is not None:
        mu, lam, disc, t = mu[keep], lam[keep], disc[keep], t[keep]
    return DynamicalPath(mu=mu, lam=lam, discord=disc, t=t, trajectory=traj)


def _kept(mu: np.ndarray, lam: np.ndarray, disc: np.ndarray) -> np.ndarray | None:
    """The samples a path keeps: the first and each whose (mu, lambda, D) differs from the one
    before; None (all of them) where lambda moves at every step."""
    if (moved := np.diff(lam) != 0).all():
        return None
    return np.concatenate(([True], (np.diff(mu) != 0) | moved | (np.diff(disc) != 0)))


def compare_paths(reference: DynamicalPath, candidate: DynamicalPath,
                  tol: float = 1e-2) -> UniversalityReport:
    """Sup over candidate points of |Delta D| + |Delta mu| at equal lambda.

    The reference must be monotone in lambda (Markovian references are); it is interpolated
    in the (lambda, v = 1/(4 mu lambda)) plane, where Markovian relaxation is exactly linear:
    a Markovian reference needs only its two ends, and two Markovian paths of different
    damping rates differ by pure roundoff.  Candidate points are matched independently, which
    handles non-monotone (oscillating) candidates segment by segment; points outside the
    reference lambda range are skipped and accounted for in matched_fraction.  A reference is
    prepared once (DynamicalPath._reference).  Two paths that both carry a trajectory must
    share its initial state and n_T exactly (ValueError otherwise).
    """
    ref, cand = reference.trajectory, candidate.trajectory
    if ref is not None and cand is not None and (ref.initial != cand.initial
                                                 or ref.n_T != cand.n_T):
        raise ValueError("paths stem from different initial states or temperatures")
    lam_r, mu_r, d_r, v_r = reference._reference
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
        return UniversalityReport(max_deviation=math.nan, matched_fraction=0.0,
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
    initial squeezing alone, formed from c (_threshold_discord).  Where sinh(2 r0) overflows
    (r0 > 355.3) it is d_star(), its value to double precision from r0 ~ 19 on.
    """
    if not 0 <= r0 < math.inf:
        raise ValueError(f"r0 must be finite and >= 0, got {r0}")
    try:
        c = 0.5 * math.sinh(2.0 * r0)
    except OverflowError:
        return d_star()
    return _threshold_discord(c)


def d_star() -> float:
    """Large-squeezing limit of dsep_universal: 2 ln 2 - 1."""
    return 2.0 * math.log(2.0) - 1.0


def dsep_from_trajectory(traj: Trajectory) -> float | None:
    """D_sep of traj's channel.crossing from its initial state by its t_max; None if never.  An
    initially separable state gives its own discord.  Kept, like separability_time, for callers
    that read t_sep and D_sep of one trajectory in two calls: both read Trajectory._crossing."""
    crossing = traj._crossing
    return None if crossing is None else crossing[2]


@dataclass(frozen=True)
class SweepRow:
    r0: float
    n_T: float
    spectrum: str
    mode: str
    t_sep: float | None
    d_sep: float | None
    note: str = ""


def dsep_sweep(r0_values: Sequence[float], channel: Channel, *, t_max: float,
               nu0: float = 0.0, label: str = "") -> list[SweepRow]:
    """Discord at separability for a list of initial squeezings on one channel, label naming the
    rows' spectrum.  Each row is channel.crossing of its state by t_max, so it depends on r0,
    nu0, the channel and t_max alone, and no trajectory is sampled.  A row whose map is
    unphysical on the channel's knots, or that is inconclusive or never crosses, carries None,
    and the sweep continues."""
    if not len(r0_values):
        raise ValueError("r0_values must be non-empty")
    rows: list[SweepRow] = []
    for r0 in r0_values:
        cm0 = from_sts(STSParams(r=float(r0), nu_T=nu0))
        try:
            crossing = channel.crossing(cm0, t_max)
            note = "" if crossing is not None else "no-threshold"
        except (InconclusiveThresholdError, MapUnphysicalError) as exc:
            crossing, note = None, f"{type(exc).__name__}: {exc}"
        t_sep, _, d_sep = crossing or (None, None, None)
        rows.append(SweepRow(r0=float(r0), n_T=channel.n_T, spectrum=label, mode=channel.mode.value,
                             t_sep=t_sep, d_sep=d_sep, note=note))
    return rows


def write_path_csv(path: DynamicalPath, stream: IO[str]) -> None:
    """CSV export: t,mu,lambda,discord per path point, as ``'%.17g' % v`` (``_csv``)."""
    _write_rows(stream, _PATH_HEADER, (path.t, path.mu, path.lam, path.discord))


def _write_trajectory_and_path(traj: Trajectory, traj_stream: IO[str],
                               path_stream: IO[str]) -> None:
    """write_trajectory_csv(traj) and write_path_csv(extract_path(traj)) in one pass, byte for
    byte: mu, lambda and D formed once, a path row the t, mu, lambda and discord cells (columns
    0, 3, 4, 5) of a trajectory row that the path keeps."""
    mu, lam, disc = traj.mu, traj.lam, discord(traj.a, traj.c)
    _write_trajectory(traj, traj_stream, mu, lam, disc,
                      (path_stream, _PATH_HEADER, [0, 3, 4, 5], _kept(mu, lam, disc)))


def write_sweep_csv(rows: Sequence[SweepRow], stream: IO[str]) -> None:
    """CSV export: r0,n_T,spectrum,mode,t_sep,d_sep; empty cells for missing thresholds.

    A sweep is a few dozen rows, so its numbers go through ``'%.17g' %`` one by one."""
    stream.write("r0,n_T,spectrum,mode,t_sep,d_sep\n")
    for r in rows:
        t_sep = "" if r.t_sep is None else "%.17g" % r.t_sep
        d_sep = "" if r.d_sep is None else "%.17g" % r.d_sep
        stream.write("%.17g,%.17g,%s,%s,%s,%s\n" % (r.r0, r.n_T, r.spectrum, r.mode, t_sep, d_sep))
