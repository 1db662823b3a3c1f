import io
import math

import numpy as np
import pytest
from scipy.interpolate import PchipInterpolator

from gaussian_paths import (
    DynamicalPath,
    STSParams,
    SpectralKind,
    TrajectoryMode,
    build_coefficient_grid,
    compare_paths,
    d_star,
    dsep_from_trajectory,
    dsep_sweep,
    dsep_universal,
    entropic_h,
    extract_path,
    from_sts,
    gaussian_discord,
    separability_time,
    simulate_trajectory,
    write_path_csv,
    write_sweep_csv,
)
from gaussian_paths.gaussian_core import SymmetricCM, discord

from conftest import make_env, make_spec

TWB12 = from_sts(STSParams(r=1.2, nu_T=0.0))


def markovian_path(cm0=TWB12, gamma_m=1.0, n_T=10.0, tau_max=5.0, n=2001):
    traj = simulate_trajectory(cm0, mode=TrajectoryMode.MARKOVIAN, t_max=tau_max / gamma_m,
                               n_samples=n, gamma_m=gamma_m, n_T=n_T, label="markovian")
    return traj, extract_path(traj)


# ------------------------------------------------------------ extraction

def test_extract_path_deduplicates_constant_trajectory(quad):
    grid = build_coefficient_grid(make_spec(SpectralKind.OHMIC), make_env(alpha=0.0), 2.0, quad)
    traj = simulate_trajectory(TWB12, mode=TrajectoryMode.NONMARKOVIAN, t_max=2.0,
                               n_samples=50, grid=grid, n_T=10.0)
    path = extract_path(traj)
    assert len(path) == 1
    assert path.source.mode == "nonmarkovian"
    assert path.source.r0 == pytest.approx(1.2, rel=1e-12)


def test_extract_path_zero_temperature_endpoint():
    traj, path = markovian_path(n_T=0.0, tau_max=40.0)
    assert abs(path.mu[-1] - 1.0) < 1e-6
    assert abs(path.lam[-1] - 0.5) < 1e-6
    assert abs(path.discord[-1]) < 1e-6


def test_extract_path_high_t_crosses_threshold_with_discord():
    _, path = markovian_path(n_T=10.0)
    i = np.searchsorted(path.lam, 0.5)
    assert 0 < i < len(path)
    assert path.discord[i] > 0.25


# ------------------------------------------------------------ comparison

def test_compare_path_with_itself_is_exact():
    _, path = markovian_path()
    rep = compare_paths(path, path)
    assert rep.max_deviation == 0.0
    assert rep.matched_fraction == 1.0
    assert rep.passed


def test_compare_markovian_speeds_pure_reparametrization():
    _, slow = markovian_path(gamma_m=1.0)
    _, fast = markovian_path(gamma_m=2.0, tau_max=4.0, n=1777)
    rep = compare_paths(slow, fast, tol=1e-10)
    assert rep.matched_fraction >= 0.999
    assert rep.max_deviation <= 1e-10
    assert rep.passed is True


def test_compare_rejects_mismatched_sources():
    _, p10 = markovian_path(n_T=10.0)
    _, p0 = markovian_path(n_T=0.0)
    with pytest.raises(ValueError):
        compare_paths(p10, p0)


def test_temperature_families_diverge():
    # identical initial state, different bath occupation: genuinely different paths
    _, cold = markovian_path(n_T=0.0, tau_max=12.0)
    _, hot = markovian_path(n_T=10.0)
    hot_unlabeled = DynamicalPath(mu=hot.mu, lam=hot.lam, discord=hot.discord, t=hot.t)
    cold_unlabeled = DynamicalPath(mu=cold.mu, lam=cold.lam, discord=cold.discord, t=cold.t)
    rep = compare_paths(cold_unlabeled, hot_unlabeled)
    assert rep.max_deviation > 0.05


def test_compare_disjoint_ranges():
    lam = np.linspace(0.6, 0.9, 10)
    ref = DynamicalPath(mu=np.full(10, 0.1), lam=lam, discord=np.zeros(10), t=lam)
    cand = DynamicalPath(mu=np.full(10, 0.1), lam=lam + 1.0, discord=np.zeros(10), t=lam)
    rep = compare_paths(ref, cand)
    assert rep.matched_fraction == 0.0
    assert not rep.deviation_defined
    assert not rep.passed


def test_compare_requires_monotone_reference():
    lam = np.array([0.1, 0.3, 0.2, 0.4])
    ref = DynamicalPath(mu=np.full(4, 0.1), lam=lam, discord=np.zeros(4), t=lam)
    with pytest.raises(ValueError):
        compare_paths(ref, ref)


# --------------------------------------------------- discord at threshold

def test_dsep_universal_values():
    assert dsep_universal(0.0) == 0.0
    assert 0.3843 <= dsep_universal(4.0) <= 0.3883
    assert dsep_universal(1.2) == pytest.approx(
        gaussian_discord(SymmetricCM(0.5 * (1 + math.sinh(2.4)), 0.5 * math.sinh(2.4))),
        rel=1e-14)
    with pytest.raises(ValueError):
        dsep_universal(-0.5)


def test_dsep_universal_monotone_and_bounded():
    r = np.linspace(0.0, 6.0, 121)
    d = np.array([dsep_universal(float(x)) for x in r])
    assert np.all(np.diff(d) >= -1e-14)
    assert np.all(d <= d_star() + 1e-12)


def test_d_star_closed_forms():
    assert d_star() == pytest.approx(0.3862943611198906, rel=1e-15)
    assert d_star() == pytest.approx(entropic_h(1.5) - 1.0, rel=1e-14)
    assert abs(dsep_universal(6.0) - d_star()) <= 1e-4


def test_dsep_from_trajectory_none_at_zero_temperature():
    traj, _ = markovian_path(n_T=0.0, tau_max=40.0)
    assert dsep_from_trajectory(traj) is None


def test_dsep_from_trajectory_matches_markovian_closed_form():
    # low temperature: D_sep = D(1/2 + c(t_sep), c(t_sep)) with the closed-form c
    n_T = 0.1
    traj, _ = markovian_path(n_T=n_T, tau_max=5.0, n=4001)
    lam0 = TWB12.a - TWB12.c
    lam_t = n_T + 0.5
    t_sep = math.log((lam_t - lam0) / (lam_t - 0.5))
    c_sep = TWB12.c * math.exp(-t_sep)
    expected = gaussian_discord(SymmetricCM(0.5 + c_sep, c_sep))
    assert dsep_from_trajectory(traj) == pytest.approx(expected, abs=1e-8)


def _full_grid_dsep(traj):
    t_sep = separability_time(traj)
    c_sep = float(PchipInterpolator(traj.times, traj.c)(t_sep))
    return gaussian_discord(SymmetricCM(0.5 + c_sep, c_sep)), t_sep


@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_dsep_from_trajectory_window_equals_full_grid_pchip(where):
    # Markovian trajectories sampled so the closed-form crossing lies half-way
    # through the first, a middle or the last sample interval
    n, n_T = 41, 1.0
    t_sep = math.log((n_T + 0.5 - (TWB12.a - TWB12.c)) / n_T)
    t_max = {"first": 2.0 * (n - 1) * t_sep, "middle": t_sep / 0.5125,
             "last": t_sep / (1.0 - 0.5 / (n - 1))}[where]
    traj = simulate_trajectory(TWB12, mode=TrajectoryMode.MARKOVIAN, t_max=t_max,
                               n_samples=n, gamma_m=1.0, n_T=n_T)
    expected, t_found = _full_grid_dsep(traj)
    i = int(np.searchsorted(traj.times, t_found))
    assert i == {"first": 1, "middle": 21, "last": n - 1}[where]
    assert dsep_from_trajectory(traj) == pytest.approx(expected, rel=1e-15, abs=0.0)


def test_dsep_from_trajectory_window_on_grid_crossing(resonant_grids):
    _, env, grid = resonant_grids[SpectralKind.OHMIC]
    traj = simulate_trajectory(TWB12, mode=TrajectoryMode.NONMARKOVIAN, t_max=25.0,
                               n_samples=2001, grid=grid, n_T=env.n_T)
    expected, _ = _full_grid_dsep(traj)
    assert dsep_from_trajectory(traj) == pytest.approx(expected, rel=1e-15, abs=0.0)


def test_dsep_already_separable_initial_state():
    cm0 = SymmetricCM(1.5, 0.4)
    traj = simulate_trajectory(cm0, mode=TrajectoryMode.MARKOVIAN, t_max=1.0,
                               n_samples=11, gamma_m=1.0, n_T=1.0)
    assert dsep_from_trajectory(traj) == pytest.approx(gaussian_discord(cm0), rel=1e-12)


# ----------------------------------------------------------------- sweeps

def test_dsep_sweep_markovian_rows():
    spec, env = make_spec(SpectralKind.OHMIC), make_env(n_T=0.5)
    rows = dsep_sweep([0.5, 1.2, 2.0], spec, env, TrajectoryMode.MARKOVIAN,
                      t_max=20.0, gamma_m=1.0)
    assert [r.r0 for r in rows] == [0.5, 1.2, 2.0]
    for r in rows:
        assert r.mode == "markovian" and r.spectrum == "ohmic" and r.n_T == 0.5
        assert r.t_sep is not None and r.d_sep is not None and r.note == ""
    # markovian d_sep is invariant under the damping rate (pure reparametrization)
    rows2 = dsep_sweep([0.5, 1.2, 2.0], spec, env, TrajectoryMode.MARKOVIAN,
                       t_max=10.0, gamma_m=2.0)
    for r, r2 in zip(rows, rows2):
        assert r2.d_sep == pytest.approx(r.d_sep, rel=1e-10)


def test_dsep_low_temperature_family_below_universal():
    # Markovian threshold discord at small n_T sits strictly below the
    # high-temperature universal curve, approaching it as n_T grows
    spec = make_spec(SpectralKind.OHMIC)
    for n_T in (1e-2, 1e-3):
        rows = dsep_sweep([0.5, 1.2, 2.0], spec, make_env(n_T=n_T),
                          TrajectoryMode.MARKOVIAN, t_max=400.0, gamma_m=1.0,
                          n_samples=4001)
        for r in rows:
            assert r.d_sep is not None
            assert r.d_sep < dsep_universal(r.r0)
    gap_cold = dsep_universal(1.2) - dsep_sweep(
        [1.2], spec, make_env(n_T=1e-3), TrajectoryMode.MARKOVIAN,
        t_max=400.0, gamma_m=1.0, n_samples=4001)[0].d_sep
    gap_warm = dsep_universal(1.2) - dsep_sweep(
        [1.2], spec, make_env(n_T=1.0), TrajectoryMode.MARKOVIAN,
        t_max=40.0, gamma_m=1.0, n_samples=4001)[0].d_sep
    assert 0 < gap_warm < gap_cold


def test_dsep_sweep_marks_missing_thresholds():
    spec, env = make_spec(SpectralKind.OHMIC), make_env(n_T=0.0)
    rows = dsep_sweep([0.7], spec, env, TrajectoryMode.MARKOVIAN, t_max=20.0, gamma_m=1.0)
    assert rows[0].t_sep is None and rows[0].d_sep is None
    assert rows[0].note == "no-threshold"
    with pytest.raises(ValueError):
        dsep_sweep([], spec, env, TrajectoryMode.MARKOVIAN, t_max=1.0, gamma_m=1.0)


def test_dsep_sweep_requires_grid_or_rate():
    # no silent fallback to default numerics: the caller supplies the bath data
    spec, env = make_spec(SpectralKind.OHMIC), make_env()
    with pytest.raises(ValueError, match="gamma_m"):
        dsep_sweep([0.7], spec, env, TrajectoryMode.MARKOVIAN, t_max=1.0)
    with pytest.raises(ValueError, match="grid"):
        dsep_sweep([0.7], spec, env, TrajectoryMode.NONMARKOVIAN, t_max=1.0)


def test_dsep_sweep_continues_past_inconclusive_rows(resonant_grids):
    spec, env, grid = resonant_grids[SpectralKind.OHMIC]
    # r0 = 2.5 cannot cross within 3 time units; the sweep marks it and moves on
    rows = dsep_sweep([2.5, 0.05], spec, env, TrajectoryMode.NONMARKOVIAN,
                      t_max=3.0, grid=grid)
    assert rows[0].d_sep is None and "Inconclusive" in rows[0].note
    assert rows[1].d_sep is not None and rows[1].note == ""


# ------------------------------------------------- high-temperature mode

def test_high_t_frozen_correlations(resonant_grids):
    spec, env, grid = resonant_grids[SpectralKind.OHMIC]
    traj = simulate_trajectory(TWB12, mode=TrajectoryMode.HIGH_TEMPERATURE, t_max=6.0,
                               n_samples=1201, grid=grid, n_T=env.n_T)
    assert np.all(traj.c == TWB12.c)
    d_traj = discord(traj.a, traj.c)
    d_frozen = discord(traj.lam + TWB12.c, np.full_like(traj.a, TWB12.c))
    assert np.max(np.abs(d_traj - d_frozen)) <= 1e-10
    # lambda(t) = lambda0 + (1/2) int_0^t Delta
    half_integral = grid.delta_integral(traj.times) / 2.0
    np.testing.assert_allclose(traj.lam, (TWB12.a - TWB12.c) + half_integral, rtol=0, atol=1e-12)


def test_high_t_path_agrees_with_full_map_early(resonant_grids):
    # short times, n_T = 10: frozen-c evolution tracks the full secular map in lambda
    spec, env, grid = resonant_grids[SpectralKind.OHMIC]
    full = simulate_trajectory(TWB12, mode=TrajectoryMode.NONMARKOVIAN, t_max=2.0,
                               n_samples=601, grid=grid, n_T=env.n_T)
    frozen = simulate_trajectory(TWB12, mode=TrajectoryMode.HIGH_TEMPERATURE, t_max=2.0,
                                 n_samples=601, grid=grid, n_T=env.n_T)
    err = np.abs(full.lam - frozen.lam) / np.maximum(full.lam, 0.04)
    assert np.max(err) < 0.01


# -------------------------------------------------------------------- CSV

def test_path_csv_roundtrip():
    _, path = markovian_path(n=101)
    buf = io.StringIO()
    write_path_csv(path, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "t,mu,lambda,discord"
    parsed = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
    np.testing.assert_array_equal(parsed[:, 2], path.lam)


def test_sweep_csv_roundtrip():
    spec, env = make_spec(SpectralKind.OHMIC), make_env(n_T=0.0)
    rows = dsep_sweep([0.7], spec, env, TrajectoryMode.MARKOVIAN, t_max=20.0, gamma_m=1.0)
    buf = io.StringIO()
    write_sweep_csv(rows, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "r0,n_T,spectrum,mode,t_sep,d_sep"
    assert lines[1].startswith("0.69999999999999996,0,ohmic,markovian,,")
