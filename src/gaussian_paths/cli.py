"""Command-line front end: config parsing, orchestration, CSV/JSON artifacts.

Configs are flat ``key = value`` text files ('#' starts a comment).  All
frequencies are in units of omega0 (set omega0 = 1) and times in
1/omega0.  Commands: simulate, coefficients, dsep-sweep, verify.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .coefficients import (
    ConfigError,
    QuadratureConfig,
    build_coefficient_grid,
    gamma_markov,
    write_coefficients_csv,
)
from .dynamics import (
    TrajectoryMode,
    constant_of_motion,
    evolve_markovian,
    simulate_trajectory,
    write_trajectory_csv,
)
from .gaussian_core import PHYS_TOL, STSParams, UnphysicalStateError, discord, from_sts
from .paths import (
    compare_paths,
    dsep_sweep,
    extract_path,
    write_path_csv,
    write_sweep_csv,
)
from .spectral_env import Environment, SpectralDensity, SpectralKind

__all__ = ["RunConfig", "parse_config", "run_simulate", "run_coefficients",
           "run_dsep", "run_verify", "main"]

_SPECTRA = {k.value: k for k in SpectralKind}
_MODES = {m.value: m for m in TrajectoryMode}


@dataclass
class RunConfig:
    spectrum: str
    omega0: float
    omega_c: float
    alpha: float
    n_T: float
    r0: float
    t_max: float
    mode: str
    nu0: float = 0.0
    j_prefactor: float = 1.0
    ir_cutoff: float | None = None
    n_samples: int = 2001
    s_step: float | None = None
    omega_max: float | None = None
    rel_tol: float = 1e-4
    out_dir: str = "out"

    def __post_init__(self):
        for key in sorted(_FLOAT_KEYS):
            if getattr(self, key) is not None and not math.isfinite(getattr(self, key)):
                raise ConfigError(f"{key} must be finite, got {getattr(self, key)}")
        if self.spectrum not in _SPECTRA and self.spectrum != "all":
            raise ConfigError(f"spectrum must be one of {sorted(_SPECTRA)} or 'all', "
                              f"got {self.spectrum!r}")
        if self.mode not in _MODES:
            raise ConfigError(f"mode must be one of {sorted(_MODES)}, got {self.mode!r}")
        for key in ("omega0", "omega_c", "alpha", "t_max", "j_prefactor"):
            if getattr(self, key) is None or getattr(self, key) <= 0:
                if not (key == "alpha" and self.alpha == 0.0):
                    raise ConfigError(f"{key} must be > 0, got {getattr(self, key)}")
        if self.n_T < 0:
            raise ConfigError(f"n_T must be >= 0, got {self.n_T}")
        if self.r0 < 0 or self.nu0 < 0:
            raise ConfigError("r0 and nu0 must be >= 0")
        if self.n_samples < 2:
            raise ConfigError(f"n_samples must be >= 2, got {self.n_samples}")
        self.quadrature()  # field checks even in Markovian mode, which needs no grid

    def spectral_density(self, kind: str | None = None) -> SpectralDensity:
        kind = kind or self.spectrum
        if kind == "all":
            raise ConfigError("spectrum 'all' is only valid for dsep-sweep")
        return SpectralDensity(kind=_SPECTRA[kind], omega_c=self.omega_c,
                               prefactor=self.j_prefactor, ir_cutoff=self.ir_cutoff)

    def environment(self) -> Environment:
        return Environment(omega0=self.omega0, alpha=self.alpha, n_T=self.n_T)

    def quadrature(self) -> QuadratureConfig:
        return QuadratureConfig(omega_max=self.omega_max, rel_tol=self.rel_tol,
                                s_step=self.s_step)

    def initial_state(self):
        return from_sts(STSParams(r=self.r0, nu_T=self.nu0))


_FLOAT_KEYS = {"omega0", "omega_c", "alpha", "n_T", "r0", "nu0", "t_max", "j_prefactor",
               "ir_cutoff", "s_step", "omega_max", "rel_tol"}
_INT_KEYS = {"n_samples"}
_STR_KEYS = {"spectrum", "mode", "out_dir"}
_REQUIRED = {"spectrum", "omega0", "omega_c", "alpha", "n_T", "r0", "t_max", "mode"}


def parse_config(text: str) -> RunConfig:
    """Parse a flat key = value document into a validated RunConfig."""
    values: dict[str, object] = {}
    line_of: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key in line_of:
            raise ConfigError(f"key {key!r} given twice: lines {line_of[key]} and {lineno}")
        line_of[key] = lineno
        if key in _FLOAT_KEYS:
            try:
                values[key] = float(val)
            except ValueError:
                raise ConfigError(f"key {key!r}: expected a number, got {val!r}") from None
        elif key in _INT_KEYS:
            try:
                values[key] = int(val)
            except ValueError:
                raise ConfigError(f"key {key!r}: expected an integer, got {val!r}") from None
        elif key in _STR_KEYS:
            values[key] = val
        else:
            raise ConfigError(f"unknown config key: {key!r}")
    missing = _REQUIRED - set(values)
    if missing:
        raise ConfigError(f"missing required config keys: {sorted(missing)}")
    return RunConfig(**values)


def _grid_for(cfg: RunConfig, kind: str | None = None):
    return build_coefficient_grid(cfg.spectral_density(kind), cfg.environment(),
                                  cfg.t_max, cfg.quadrature())


def _trajectory_for(cfg: RunConfig, grid=None):
    mode = TrajectoryMode(cfg.mode)
    gamma_m = None
    if mode is TrajectoryMode.MARKOVIAN:
        gamma_m = gamma_markov(cfg.spectral_density(), cfg.environment())
    elif grid is None:
        grid = _grid_for(cfg)
    return simulate_trajectory(cfg.initial_state(), mode=mode, t_max=cfg.t_max,
                               n_samples=cfg.n_samples, grid=grid, gamma_m=gamma_m,
                               n_T=cfg.n_T, label=cfg.spectrum)


def run_simulate(cfg: RunConfig, out_dir: Path) -> list[Path]:
    """Simulate one trajectory; write trajectory.csv and path.csv."""
    out_dir.mkdir(parents=True, exist_ok=True)
    traj = _trajectory_for(cfg)
    traj_file = out_dir / "trajectory.csv"
    with traj_file.open("w") as fh:
        write_trajectory_csv(traj, fh)
    path_file = out_dir / "path.csv"
    with path_file.open("w") as fh:
        write_path_csv(extract_path(traj), fh)
    return [traj_file, path_file]


def run_coefficients(cfg: RunConfig, out_dir: Path) -> list[Path]:
    """Build the coefficient grid; write coefficients.csv."""
    out_dir.mkdir(parents=True, exist_ok=True)
    grid = _grid_for(cfg)
    out = out_dir / "coefficients.csv"
    with out.open("w") as fh:
        write_coefficients_csv(grid, fh)
    return [out]


def run_dsep(cfg: RunConfig, r0_values: list[float], out_dir: Path) -> list[Path]:
    """Sweep D_sep over r0 (and over all spectra when spectrum = all)."""
    out_dir.mkdir(parents=True, exist_ok=True)
    kinds = sorted(_SPECTRA) if cfg.spectrum == "all" else [cfg.spectrum]
    env, q = cfg.environment(), cfg.quadrature()
    mode = TrajectoryMode(cfg.mode)
    rows = []
    for kind in kinds:
        spec = cfg.spectral_density(kind)
        if mode is TrajectoryMode.MARKOVIAN:
            grid, gamma_m = None, gamma_markov(spec, env)
        else:
            grid, gamma_m = build_coefficient_grid(spec, env, cfg.t_max, q), None
        rows.extend(dsep_sweep(r0_values, spec, env, mode, t_max=cfg.t_max,
                               n_samples=cfg.n_samples, nu0=cfg.nu0, grid=grid,
                               gamma_m=gamma_m))
    out = out_dir / "dsep_sweep.csv"
    with out.open("w") as fh:
        write_sweep_csv(rows, fh)
    return [out]


def _verify_markovian(cfg: RunConfig, checks: list[dict]) -> None:
    gamma_m = gamma_markov(cfg.spectral_density(), cfg.environment())
    cm0 = cfg.initial_state()
    tau_max = 5.0
    traj = simulate_trajectory(cm0, mode=TrajectoryMode.MARKOVIAN, t_max=tau_max / gamma_m,
                               n_samples=cfg.n_samples, gamma_m=gamma_m, n_T=cfg.n_T,
                               label=cfg.spectrum)
    _common_checks(traj, checks, drift_tol=1e-8)
    # semigroup property at two split points
    mid = evolve_markovian(cm0, gamma_m, cfg.n_T, 0.3 / gamma_m)
    twostep = evolve_markovian(mid, gamma_m, cfg.n_T, 0.9 / gamma_m)
    direct = evolve_markovian(cm0, gamma_m, cfg.n_T, 1.2 / gamma_m)
    semi = max(abs(twostep.a - direct.a), abs(twostep.c - direct.c))
    checks.append(_check("semigroup-composition", semi, 1e-12))
    # same path at doubled damping: pure speed change
    ref = extract_path(traj)
    fast = extract_path(simulate_trajectory(cm0, mode=TrajectoryMode.MARKOVIAN,
                                            t_max=0.5 * tau_max / gamma_m,
                                            n_samples=cfg.n_samples, gamma_m=2 * gamma_m,
                                            n_T=cfg.n_T, label=cfg.spectrum))
    rep = compare_paths(ref, fast, tol=1e-10)
    checks.append(_check("markovian-reparametrization-deviation", rep.max_deviation, 1e-10))


def _verify_grid_mode(cfg: RunConfig, checks: list[dict]) -> None:
    grid = _grid_for(cfg)
    traj = _trajectory_for(cfg, grid=grid)
    # the constant of motion drifts by a transient O(alpha^2) amount before
    # the Markovian regime restores it; 30 alpha^2 covers the worst spectrum
    # (infrared-enhanced white noise) while staying tight at weak coupling
    drift_tol = max(1e-4, 30.0 * cfg.alpha**2)
    _common_checks(traj, checks, drift_tol=drift_tol)
    if cfg.mode == TrajectoryMode.NONMARKOVIAN.value:
        # universality against the Markovian reference path at the same temperature
        lam_end = float(np.max(traj.lam))
        lam_t = cfg.n_T + 0.5
        lam0 = float(traj.lam[0])
        if lam_t > lam_end and lam_t > lam0:
            tau_ref = -math.log(max((lam_t - lam_end) / (lam_t - lam0), 1e-12)) + 0.1
        else:
            tau_ref = 5.0
        ref = extract_path(simulate_trajectory(traj.initial, mode=TrajectoryMode.MARKOVIAN,
                                               t_max=tau_ref, n_samples=cfg.n_samples,
                                               gamma_m=1.0, n_T=cfg.n_T, label=cfg.spectrum))
        rep = compare_paths(ref, extract_path(traj), tol=1e-2)
        checks.append(_check("universality-max-deviation", rep.max_deviation, 1e-2))
        checks.append(_check("universality-matched-fraction", rep.matched_fraction, 0.95,
                             direction=">="))
    if cfg.mode == TrajectoryMode.HIGH_TEMPERATURE.value:
        # frozen correlations: D(t) must equal D(lambda + c0, c0)
        d_traj = discord(traj.a, traj.c)
        d_frozen = discord(traj.lam + traj.initial.c, np.full_like(traj.a, traj.initial.c))
        checks.append(_check("hight-frozen-correlation-identity",
                             float(np.max(np.abs(d_traj - d_frozen))), 1e-10))


def _common_checks(traj, checks: list[dict], drift_tol: float) -> None:
    c0 = traj.initial.c
    if c0 == 0:  # an uncorrelated state has nothing to damp: c(t) must stay exactly 0
        damp = float(np.max(np.abs(traj.c)))
    elif traj.mode is TrajectoryMode.HIGH_TEMPERATURE:
        damp = float(np.max(np.abs(traj.c - c0))) / max(abs(c0), 1e-300)
    else:
        damp = float(np.max(np.abs(traj.c / c0 - np.exp(-traj.big_gamma))))
    checks.append(_check("damping-law-relative-deviation", damp, 1e-10))
    nu2 = (traj.a - traj.c) * (traj.a + traj.c)
    violations = int(np.sum(nu2 < 0.25 - PHYS_TOL))
    checks.append(_check("physicality-violations", float(violations), 0.0, direction="=="))
    # the guards path_point applies to each sample
    if np.any(traj.c < 0):
        raise UnphysicalStateError("min_symplectic requires the c >= 0 sign convention")
    if not np.all(nu2 > 0):
        raise UnphysicalStateError(f"a^2 - c^2 = {np.min(nu2)} <= 0: purity undefined")
    d_min = float(np.min(discord(traj.a, traj.c)))
    if d_min < -1e-12:
        raise UnphysicalStateError(f"negative discord {d_min} beyond roundoff tolerance")
    lam0 = traj.initial.a - traj.initial.c
    mu0 = 1.0 / (4.0 * traj.initial.nu_squared)
    com = constant_of_motion(traj, lam0, mu0, traj.n_T + 0.5)
    if com.degenerate:
        checks.append(_check("constant-of-motion-degenerate", 1.0, 1.0, direction="=="))
        return
    # C = 2 c0 lambda_T / (v0 - lambda_T) vanishes at c0 = 0: its drift is then absolute
    drift = float(np.max(np.abs(com.value - com.value[0]))) / (abs(com.value[0]) if c0 else 1.0)
    checks.append(_check("constant-of-motion-relative-drift", drift, drift_tol))


def _check(name: str, value: float, tol: float, direction: str = "<=") -> dict:
    ok = {"<=": value <= tol, ">=": value >= tol, "==": value == tol}[direction]
    return {"name": name, "value": value, "tolerance": tol,
            "comparison": direction, "passed": bool(ok)}


def run_verify(cfg: RunConfig, out_dir: Path) -> tuple[Path, bool]:
    """Run the invariant suite for the configured mode; write verify.json."""
    out_dir.mkdir(parents=True, exist_ok=True)
    checks: list[dict] = []
    if cfg.mode == TrajectoryMode.MARKOVIAN.value:
        _verify_markovian(cfg, checks)
    else:
        _verify_grid_mode(cfg, checks)
    ok = all(c["passed"] for c in checks)
    report = {
        "mode": cfg.mode,
        "spectrum": cfg.spectrum,
        "n_T": cfg.n_T,
        "r0": cfg.r0,
        "nu0": cfg.nu0,
        "alpha": cfg.alpha,
        "checks": checks,
        "passed": ok,
    }
    out = out_dir / "verify.json"
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return out, ok


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="gaussian-paths",
                                description="Symmetric Gaussian states in thermal channels: "
                                            "coefficients, trajectories, dynamical paths.")
    sub = p.add_subparsers(dest="cmd", required=True)
    for name, help_text in (
        ("simulate", "Simulate one trajectory; write trajectory.csv and path.csv."),
        ("coefficients", "Build the coefficient grid; write coefficients.csv."),
        ("dsep-sweep", "Sweep discord-at-separability over r0; write dsep_sweep.csv."),
        ("verify", "Run the invariant suite; write verify.json."),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", type=Path, required=True, help="Path to key = value config file.")
        cmd.add_argument("--out", type=Path, default=None, help="Output directory (overrides out_dir).")
        cmd.add_argument("--mode", type=str, default=None,
                         help="Override the config mode (nonmarkovian|markovian|hight).")
        if name == "dsep-sweep":
            cmd.add_argument("--r0-list", type=str, required=True,
                             help="Comma-separated initial squeezings, e.g. 0.5,1.2,2.0.")
    return p


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = parse_config(Path(args.config).read_text())
        if args.mode is not None:
            if args.mode not in _MODES:
                raise ConfigError(f"mode must be one of {sorted(_MODES)}, got {args.mode!r}")
            cfg.mode = args.mode
        out_dir = Path(args.out) if args.out is not None else Path(cfg.out_dir)
        if args.cmd == "simulate":
            written = run_simulate(cfg, out_dir)
        elif args.cmd == "coefficients":
            written = run_coefficients(cfg, out_dir)
        elif args.cmd == "dsep-sweep":
            try:
                r0_values = [float(x) for x in args.r0_list.split(",") if x.strip()]
            except ValueError:
                raise ConfigError(f"--r0-list: expected comma-separated numbers, "
                                  f"got {args.r0_list!r}") from None
            if not r0_values:
                raise ConfigError("--r0-list is empty")
            written = run_dsep(cfg, r0_values, out_dir)
        else:
            report, ok = run_verify(cfg, out_dir)
            print(f"wrote {report}")
            print("verify: PASS" if ok else "verify: FAIL")
            return 0 if ok else 1
    except Exception as exc:  # noqa: BLE001 - single reporting point, provenance in the name
        print(f"error [{type(exc).__module__}.{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 2
    for path in written:
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
