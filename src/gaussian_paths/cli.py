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
from dataclasses import MISSING, dataclass, fields, replace
from functools import cache
from pathlib import Path

import numpy as np

from .coefficients import (
    ConfigError,
    QuadratureConfig,
    build_coefficient_grid,
    gamma_markov,
    write_coefficients_csv,
)
from .dynamics import Channel, Trajectory, TrajectoryMode, constant_of_motion, evolve_markovian
from .gaussian_core import STSParams, discord, from_sts, min_symplectic, purity
from .paths import (_write_trajectory_and_path, compare_paths, dsep_sweep, extract_path,
                    write_sweep_csv)
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
    ir_cutoff: float | None = None
    n_samples: int = 2001
    s_step: float | None = None
    omega_max: float | None = None
    out_dir: str = "out"

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type.startswith("float") and value is not None and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value}")
        if self.spectrum not in _SPECTRA and self.spectrum != "all":
            raise ConfigError(f"spectrum must be one of {sorted(_SPECTRA)} or 'all', "
                              f"got {self.spectrum!r}")
        if self.mode not in _MODES:
            raise ConfigError(f"mode must be one of {sorted(_MODES)}, got {self.mode!r}")
        if self.t_max <= 0:
            raise ConfigError(f"t_max must be > 0, got {self.t_max}")
        if self.r0 < 0 or self.nu0 < 0:  # by these names: STSParams calls them r and nu_T
            raise ConfigError("r0 and nu0 must be >= 0")
        if self.n_samples < 2:
            raise ConfigError(f"n_samples must be >= 2, got {self.n_samples}")
        if self.mode == TrajectoryMode.MARKOVIAN.value and self.alpha == 0.0:
            raise ConfigError("markovian mode needs alpha > 0 (gamma_M = 0 at alpha = 0)")
        self.quadrature()  # field checks even in Markovian mode, which needs no grid
        try:  # bath fields too; every spectral kind checks them alike, so 'all' asks one
            self.spectral_density("ohmic" if self.spectrum == "all" else None)
            self.environment()
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    def spectral_density(self, kind: str | None = None) -> SpectralDensity:
        kind = kind or self.spectrum
        if kind == "all":
            raise ConfigError("spectrum 'all' is only valid for dsep-sweep")
        return SpectralDensity(kind=_SPECTRA[kind], omega_c=self.omega_c,
                               ir_cutoff=self.ir_cutoff)

    def environment(self) -> Environment:
        return Environment(omega0=self.omega0, alpha=self.alpha, n_T=self.n_T)

    def quadrature(self) -> QuadratureConfig:
        return QuadratureConfig(omega_max=self.omega_max, s_step=self.s_step)

    def initial_state(self):
        return from_sts(STSParams(r=self.r0, nu_T=self.nu0))


# value parser and its expectation, by RunConfig field type ('float | None' reads 'float')
_PARSERS = {"float": (float, "a number"), "int": (int, "an integer"), "str": (str, "text")}


def parse_config(text: str) -> RunConfig:
    """Parse a flat key = value document into a validated RunConfig.

    The keys, their value types and which are required are RunConfig's fields.
    """
    schema = {f.name: f for f in fields(RunConfig)}
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
        if key not in schema:
            raise ConfigError(f"unknown config key: {key!r}")
        parse, expected = _PARSERS[schema[key].type.partition(" ")[0]]
        try:
            values[key] = parse(val)
        except ValueError:
            raise ConfigError(f"key {key!r}: expected {expected}, got {val!r}") from None
    missing = [k for k, f in schema.items() if f.default is MISSING and k not in values]
    if missing:
        raise ConfigError(f"missing required config keys: {sorted(missing)}")
    return RunConfig(**values)


def _grid_for(cfg: RunConfig, kind: str | None = None):
    return build_coefficient_grid(cfg.spectral_density(kind), cfg.environment(),
                                  cfg.t_max, cfg.quadrature())


def _coefficients_for(cfg: RunConfig, kind: str | None = None) -> Channel:
    """cfg.mode's channel: the golden-rule rate gamma_M if Markovian, else the grid."""
    if cfg.mode == TrajectoryMode.MARKOVIAN.value:
        return Channel(cfg.mode, cfg.n_T,
                       gamma_m=gamma_markov(cfg.spectral_density(kind), cfg.environment()))
    return Channel(cfg.mode, grid=_grid_for(cfg, kind))


def _trajectory_for(cfg: RunConfig):
    return Trajectory(_coefficients_for(cfg), cfg.initial_state(), cfg.t_max, cfg.n_samples,
                      cfg.spectrum)


def run_simulate(cfg: RunConfig, out_dir: Path) -> list[Path]:
    """Simulate one trajectory; write trajectory.csv and path.csv."""
    out_dir.mkdir(parents=True, exist_ok=True)
    traj = _trajectory_for(cfg)
    traj_file, path_file = out_dir / "trajectory.csv", out_dir / "path.csv"
    with traj_file.open("w") as traj_fh, path_file.open("w") as path_fh:
        _write_trajectory_and_path(traj, traj_fh, path_fh)
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
    rows = []
    for kind in kinds:
        rows.extend(dsep_sweep(r0_values, _coefficients_for(cfg, kind), t_max=cfg.t_max,
                               nu0=cfg.nu0, label=kind))
    out = out_dir / "dsep_sweep.csv"
    with out.open("w") as fh:
        write_sweep_csv(rows, fh)
    return [out]


def _verify_markovian(cfg: RunConfig, checks: list[dict]) -> None:
    channel = _coefficients_for(cfg)
    gamma_m, cm0, tau_max = channel.gamma_m, cfg.initial_state(), 5.0
    traj = Trajectory(channel, cm0, tau_max / gamma_m, cfg.n_samples, cfg.spectrum)
    _common_checks(traj, checks, drift_tol=1e-8)
    # semigroup property at two split points
    mid = evolve_markovian(cm0, gamma_m, cfg.n_T, 0.3 / gamma_m)
    twostep = evolve_markovian(mid, gamma_m, cfg.n_T, 0.9 / gamma_m)
    direct = evolve_markovian(cm0, gamma_m, cfg.n_T, 1.2 / gamma_m)
    semi = max(abs(twostep.a - direct.a), abs(twostep.c - direct.c))
    checks.append(_check("semigroup-composition", semi, 1e-12))
    # same path at doubled damping: pure speed change
    ref = extract_path(traj)
    fast = extract_path(Trajectory(Channel(TrajectoryMode.MARKOVIAN, cfg.n_T, gamma_m=2 * gamma_m),
                                   cm0, 0.5 * tau_max / gamma_m, cfg.n_samples, cfg.spectrum))
    rep = compare_paths(ref, fast, tol=1e-10)
    checks.append(_check("markovian-reparametrization-deviation", rep.max_deviation, 1e-10))


def _verify_grid_mode(cfg: RunConfig, checks: list[dict]) -> None:
    traj = _trajectory_for(cfg)
    # the full map's constant drifts by a transient O(alpha^2) amount before the Markovian
    # regime restores it; 30 alpha^2 covers the worst spectrum (infrared-enhanced white
    # noise) while staying tight at weak coupling.  The high-T map conserves its own exactly.
    high_t = cfg.mode == TrajectoryMode.HIGH_TEMPERATURE.value
    _common_checks(traj, checks, drift_tol=1e-10 if high_t else max(1e-4, 30.0 * cfg.alpha**2))
    if cfg.mode == TrajectoryMode.NONMARKOVIAN.value:
        # universality against the Markovian path at n_T: the straight segment from (lambda0,
        # v0) to the thermal state, exact in compare_paths' (lambda, v) interpolation from its
        # two ends, at t = 0 and at Gamma = 40, where e^{-Gamma} < 2^-53
        ref = extract_path(Trajectory(Channel(TrajectoryMode.MARKOVIAN, cfg.n_T, gamma_m=1.0),
                                      traj.initial, 40.0, 2, cfg.spectrum))
        rep = compare_paths(ref, extract_path(traj), tol=1e-2)
        checks.append(_check("universality-max-deviation", rep.max_deviation, 1e-2))
        checks.append(_check("universality-matched-fraction", rep.matched_fraction, 0.95,
                             direction=">="))
    if high_t:
        # frozen correlations: D(t) must equal D(lambda + c0, c0)
        d_traj = discord(traj.a, traj.c)
        d_frozen = discord(traj.lam + traj.initial.c, np.full_like(traj.a, traj.initial.c))
        checks.append(_check("hight-frozen-correlation-identity",
                             float(np.max(np.abs(d_traj - d_frozen))), 1e-10))


def _common_checks(traj, checks: list[dict], drift_tol: float) -> None:
    # no per-sample guard: traj's samples are physical (its channel raised otherwise), c0 >= 0
    # (SymmetricCM), so lambda0 = a0 - c0, and the discord every mode takes next checks D >= 0
    lam0, c0 = min_symplectic(traj.initial), traj.initial.c
    if c0 == 0:  # an uncorrelated state has nothing to damp: c(t) must stay exactly 0
        damp = float(np.max(np.abs(traj.c)))
    else:
        damp = float(np.max(np.abs(traj.c / c0 - np.exp(-traj.big_gamma))))
    checks.append(_check("damping-law-relative-deviation", damp, 1e-10))
    com = constant_of_motion(traj, lam0, purity(traj.initial), traj.channel.lambda_T)
    if com.degenerate:
        checks.append(_check("constant-of-motion-degenerate", 1.0, 1.0, direction="=="))
        return
    value = com.value
    # C = 2 c0 lambda_T / (v0 - lambda_T), or its lambda_T -> inf limit -2 c0 that the high-T
    # map's frozen c keeps, is formed with rounding at the scale of a but vanishes with c0.  The
    # Markovian and high-T maps conserve it exactly, so their drift is absolute below |C| = 1;
    # the non-Markovian drift (n_eff - n_T) is physical and stays relative to |C(0)|, absolute
    # only at c0 = 0
    exact = traj.mode is not TrajectoryMode.NONMARKOVIAN
    scale = max(abs(value[0]), 1.0) if exact or not c0 else abs(value[0])
    drift = float(np.max(np.abs(value - value[0]))) / scale
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


@cache  # parse_args leaves the parser unchanged, so in-process callers share one
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
            cfg = replace(cfg, mode=args.mode)
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
            if bad := [r for r in r0_values if not 0 <= r < math.inf]:  # NaN too
                raise ConfigError(f"--r0-list: each r0 must be finite and >= 0, got {bad[0]}")
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
