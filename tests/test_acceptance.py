"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines as they complete.
"""
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from gaussian_paths import (
    QuadratureConfig,
    STSParams,
    SpectralKind,
    SymmetricCM,
    TrajectoryMode,
    build_coefficient_grid,
    compare_paths,
    constant_of_motion,
    dsep_from_trajectory,
    dsep_sweep,
    dsep_universal,
    entropic_h,
    evolve_markovian,
    extract_path,
    from_sts,
    gaussian_discord,
    path_point,
    purity,
    reachable_markovian,
    separability_time,
    simulate_trajectory,
)

from conftest import NT_BOUNDARY, NT_HIGH, make_env, make_spec

R0_SET = (0.5, 1.2, 2.0)
TWB12 = from_sts(STSParams(r=1.2, nu_T=0.0))


@contextmanager
def criterion(num: int, desc: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num}: {desc}: FAIL")
        raise
    print(f"ACCEPTANCE {num}: {desc}: PASS")


def markovian_reference_path(cm0, n_T, gamma_m=1.0, tau_max=3.0, n=2001):
    traj = simulate_trajectory(cm0, mode=TrajectoryMode.MARKOVIAN,
                               t_max=tau_max / gamma_m, n_samples=n,
                               gamma_m=gamma_m, n_T=n_T, label="markovian")
    return extract_path(traj)


def test_criterion_1_dstar_reproduction():
    with criterion(1, "universal discord saturation value"):
        value = dsep_universal(4.0)
        assert 0.3843 <= value <= 0.3883
        reps = 200
        t0 = time.perf_counter()
        for _ in range(reps):
            dsep_universal(4.0)
        per_call = (time.perf_counter() - t0) / reps
        assert per_call < 1e-3, f"dsep_universal took {per_call*1e3:.3f} ms"


def test_criterion_2_threshold_discord_all_spectra(resonant_grids):
    with criterion(2, "discord at separability vs universal curve, three spectra"):
        t0 = time.perf_counter()
        for kind in SpectralKind:
            spec, env, grid = resonant_grids[kind]
            rows = dsep_sweep(R0_SET, spec, env, TrajectoryMode.NONMARKOVIAN,
                              t_max=grid.t_max, n_samples=2001, grid=grid)
            for row in rows:
                assert row.d_sep is not None, (kind, row)
                err = abs(row.d_sep - dsep_universal(row.r0))
                assert err <= 0.01, (kind.value, row.r0, err)
        assert time.perf_counter() - t0 < 300.0


def test_criterion_3_path_universality(resonant_grids):
    with criterion(3, "dynamical-path universality across spectra"):
        reference = markovian_reference_path(TWB12, NT_HIGH)
        for kind in SpectralKind:
            _, env, grid = resonant_grids[kind]
            traj = simulate_trajectory(TWB12, mode=TrajectoryMode.NONMARKOVIAN,
                                       t_max=grid.t_max, n_samples=2001, grid=grid,
                                       n_T=env.n_T, label=kind.value)
            rep = compare_paths(reference, extract_path(traj), tol=1e-2)
            assert rep.matched_fraction >= 0.95, (kind.value, rep.matched_fraction)
            assert rep.max_deviation <= 1e-2, (kind.value, rep.max_deviation)
        # a Markovian map at doubled damping runs the same path at doubled speed
        fast = markovian_reference_path(TWB12, NT_HIGH, gamma_m=2.0, tau_max=2.5, n=1499)
        rep = compare_paths(reference, fast, tol=1e-10)
        assert rep.max_deviation <= 1e-10, rep.max_deviation


def test_criterion_4_high_temperature_transition(resonant_grids, boundary_grid_ohmic):
    with criterion(4, "high-temperature transition of the threshold discord"):
        spec, env, grid = boundary_grid_ohmic
        traj = simulate_trajectory(TWB12, mode=TrajectoryMode.NONMARKOVIAN,
                                   t_max=grid.t_max, n_samples=2001, grid=grid,
                                   n_T=env.n_T, label=spec.kind.value)
        err_boundary = abs(dsep_from_trajectory(traj) - dsep_universal(1.2))
        assert env.n_T == pytest.approx(NT_BOUNDARY)
        assert err_boundary <= 0.03, err_boundary
        spec, env, grid = resonant_grids[SpectralKind.OHMIC]
        traj = simulate_trajectory(TWB12, mode=TrajectoryMode.NONMARKOVIAN,
                                   t_max=grid.t_max, n_samples=2001, grid=grid,
                                   n_T=env.n_T, label="ohmic")
        err_high = abs(dsep_from_trajectory(traj) - dsep_universal(1.2))
        assert err_high <= 0.01, err_high


def _com_drift(traj):
    lam0 = traj.initial.a - traj.initial.c
    mu0 = purity(traj.initial)
    lam_t = traj.n_T + 0.5
    vals = np.array([constant_of_motion(path_point(cm, t), lam0, mu0, lam_t).value
                     for t, cm in traj.points])
    return float(np.max(np.abs(vals - vals[0]))) / abs(vals[0])


def test_criterion_5_constant_of_motion(offres_weak_grid):
    with criterion(5, "constant of motion along Markovian and non-Markovian maps"):
        for n_T in (0.5, 10.0):
            traj = simulate_trajectory(TWB12, mode=TrajectoryMode.MARKOVIAN, t_max=5.0,
                                       n_samples=101, gamma_m=1.0, n_T=n_T)
            assert _com_drift(traj) <= 1e-8, n_T
        spec, env, grid = offres_weak_grid
        traj = simulate_trajectory(TWB12, mode=TrajectoryMode.NONMARKOVIAN,
                                   t_max=grid.t_max, n_samples=2001, grid=grid,
                                   n_T=env.n_T, label="ohmic-offresonant")
        drift = _com_drift(traj)
        assert drift <= 1e-4, drift


def test_criterion_6_zero_temperature_persistence():
    with criterion(6, "zero-temperature entanglement persistence"):
        traj = simulate_trajectory(TWB12, mode=TrajectoryMode.MARKOVIAN, t_max=40.0,
                                   n_samples=2001, gamma_m=1.0, n_T=0.0)
        assert separability_time(traj) is None
        end = path_point(traj.points[-1][1], 40.0)
        assert abs(end.mu - 1.0) <= 1e-6
        assert abs(end.lam - 0.5) <= 1e-6
        assert abs(end.discord) <= 1e-6


def test_criterion_7_excluded_region_and_roundtrip():
    with criterion(7, "Markovian excluded region and parameter recovery"):
        x = 0.5
        target = SymmetricCM(TWB12.a * x + 0.4 * (1 - x), TWB12.c * x)
        decision = reachable_markovian(TWB12, target)
        assert not decision.reachable
        assert decision.violated == "negative-temperature"
        rng = np.random.default_rng(2024)
        for _ in range(100):
            cm0 = from_sts(STSParams(r=float(rng.uniform(0.1, 2.0)),
                                     nu_T=float(rng.uniform(0.0, 2.0))))
            gt = float(rng.uniform(0.01, 5.0))
            n_T = float(rng.uniform(0.0, 20.0))
            cm1 = evolve_markovian(cm0, 1.0, n_T, gt)
            dec = reachable_markovian(cm0, cm1)
            assert dec.reachable
            assert dec.gamma_m_t == pytest.approx(gt, rel=1e-9, abs=1e-9)
            assert dec.n_T == pytest.approx(n_T, rel=1e-9, abs=1e-9)


def test_criterion_8_identity_and_oracle_suite(resonant_grids):
    with criterion(8, "identity and oracle suite"):
        # zero discord without correlations, exactly
        for a in (0.5, 1.0, 2.5, 40.0):
            assert gaussian_discord(SymmetricCM(a, 0.0)) == 0.0
        # pure-state identity D = h(a) on the a^2 - c^2 = 1/4 manifold
        for r in np.linspace(0.0, 2.5, 26):
            cm = from_sts(STSParams(float(r), 0.0))
            assert gaussian_discord(cm) == pytest.approx(entropic_h(cm.a), abs=1e-10)
        # coefficient grids converge under step halving within rel_tol
        spec, env = make_spec(SpectralKind.OHMIC), make_env()
        base = 2.0 * math.pi / 1000.0
        g1 = build_coefficient_grid(spec, env, 4.0, QuadratureConfig(s_step=base))
        g2 = build_coefficient_grid(spec, env, 4.0, QuadratureConfig(s_step=base / 2))
        for name in ("delta", "gamma", "big_gamma", "delta_gamma"):
            a = getattr(g1, name)
            b = getattr(g2, name)[::2]
            scale = max(float(np.max(np.abs(b))), 1e-12)
            assert float(np.max(np.abs(a - b))) / scale < 1e-4, name
        # exact damping law c(t)/c0 = e^{-Gamma(t)} on every trajectory mode
        mk = simulate_trajectory(TWB12, mode=TrajectoryMode.MARKOVIAN, t_max=5.0,
                                 n_samples=501, gamma_m=1.0, n_T=NT_HIGH)
        assert np.max(np.abs(mk.c / TWB12.c - np.exp(-mk.big_gamma))) <= 1e-10
        _, env10, grid = resonant_grids[SpectralKind.OHMIC]
        nm = simulate_trajectory(TWB12, mode=TrajectoryMode.NONMARKOVIAN,
                                 t_max=grid.t_max, n_samples=len(grid.times),
                                 grid=grid, n_T=env10.n_T)
        assert np.max(np.abs(nm.c / TWB12.c - np.exp(-grid.big_gamma))) <= 1e-10
        ht = simulate_trajectory(TWB12, mode=TrajectoryMode.HIGH_TEMPERATURE,
                                 t_max=grid.t_max, n_samples=801, grid=grid, n_T=env10.n_T)
        assert np.all(ht.c == TWB12.c)
