import io
import math

import numpy as np
import pytest

from gaussian_paths import (
    ConfigError,
    QuadratureConfig,
    QuadratureError,
    SpectralDensity,
    SpectralKind,
    SymmetricCM,
    TrajectoryMode,
    build_coefficient_grid,
    gamma_markov,
    simulate_trajectory,
    write_coefficients_csv,
)
from gaussian_paths import coefficients
from gaussian_paths.coefficients import _fast_len, _kernels_on, _omega_rule, _phase_sums

from conftest import make_env, make_spec


# ---------------------------------------------------------------- oracle

def brute_force_curves(spec, env, times, n_omega=20001, omega_max=50.0):
    """Independent evaluation of Delta(t), gamma(t) at the given times.

    A plain trapezoid on a uniform omega grid, no panels, no tapering; the
    omega = 0 node of the Delta integrand is its analytic limit
    (2/beta) * j(w)/w.  The s integral is exact: with k = w -/+ omega0,
    int_0^t cos(k s) ds = t sinc(k t / pi), so
    int_0^t cos(w s) cos(omega0 s) ds = (t/2) [sinc((w - w0) t/pi) + sinc((w + w0) t/pi)]
    and the sine product takes the difference.
    """
    w = np.linspace(0.0, omega_max, n_omega)
    beta = env.beta
    if spec.kind is SpectralKind.OHMIC:
        j = w * spec.omega_c**2 / (w**2 + spec.omega_c**2)
        j_over_w_at0 = 1.0
    elif spec.kind is SpectralKind.SUPER_OHMIC:
        j = w**2 * spec.omega_c / (w**2 + spec.omega_c**2)
        j_over_w_at0 = 0.0
    else:
        raise NotImplementedError
    with np.errstate(divide="ignore", invalid="ignore"):
        gc = j / np.tanh(0.5 * beta * w) if math.isfinite(beta) else j.copy()
    if math.isfinite(beta):
        gc[0] = 2.0 / beta * j_over_w_at0
    else:
        gc[0] = 0.0
    t = np.asarray(times, float)[:, None]
    minus = t * np.sinc((w - env.omega0) * t / math.pi)
    plus = t * np.sinc((w + env.omega0) * t / math.pi)
    a2 = env.alpha**2
    delta = a2 * np.trapezoid(gc * 0.5 * (minus + plus), w, axis=1)
    gamma = a2 * np.trapezoid(j * 0.5 * (minus - plus), w, axis=1)
    return delta, gamma


def test_brute_force_oracle_agreement(resonant_grids):
    spec, env, grid = resonant_grids[SpectralKind.OHMIC]
    idx = np.r_[np.searchsorted(grid.times, [0.5, 2.0, 5.0, 8.0]), len(grid.times) - 1]
    d_oracle, g_oracle = brute_force_curves(spec, env, grid.times[idx])
    assert grid.times[idx[-1]] == grid.t_max
    assert grid.delta[idx] == pytest.approx(d_oracle, rel=1e-4)
    assert grid.gamma[idx] == pytest.approx(g_oracle, rel=1e-4)


def test_delta_plateau_fluctuation_dissipation(resonant_grids, gamma_m_ohmic):
    # long-time Delta plateau approaches gamma_M * (2 n_T + 1)
    _, env, grid = resonant_grids[SpectralKind.OHMIC]
    d = np.interp(8.0, grid.times, grid.delta)
    assert d == pytest.approx(gamma_m_ohmic * (2.0 * env.n_T + 1.0), rel=0.02)


# ------------------------------------------------------ chirp-z kernels

def dense_kernels(nodes, wc, ws, s):
    """Direct O(N_s * N_omega) cos/sin sums over every node."""
    ph = np.outer(s, nodes.ravel())
    return np.cos(ph) @ wc.ravel(), np.sin(ph) @ ws.ravel()


@pytest.mark.parametrize("kind", [SpectralKind.OHMIC, SpectralKind.WHITE_NOISE])
def test_chirp_kernels_match_dense_sums(kind):
    spec, env = make_spec(kind), make_env()
    rq = QuadratureConfig(omega_max=20.0).resolve(spec, env)
    s = np.arange(1201) * rq.s_step
    nodes, wc, ws, n_ir, width = _omega_rule(spec, env, rq, float(s[-1]), 0)
    assert nodes.shape == wc.shape == ws.shape == (len(nodes), coefficients.GL_ORDER)
    # white noise: geometric infrared panels ahead of the uniform ones
    assert (n_ir > 0) == (kind is SpectralKind.WHITE_NOISE)
    np.testing.assert_allclose(np.diff(nodes[n_ir:], axis=0), width, rtol=1e-9)
    Kc, Ks = _kernels_on(nodes, wc, ws, n_ir, width, s)
    ref_c, ref_s = dense_kernels(nodes, wc, ws, s)
    for got, ref in ((Kc, ref_c), (Ks, ref_s)):
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_chirp_kernels_reject_non_uniform_grid(monkeypatch):
    def unreachable(*args):
        raise AssertionError("the infrared sum ran before the grid check")

    # the grid check comes first, so no sum is formed on a bad grid
    monkeypatch.setattr(coefficients, "_phase_sums", unreachable)
    for kind in (SpectralKind.OHMIC, SpectralKind.WHITE_NOISE):
        spec, env = make_spec(kind), make_env()
        rq = QuadratureConfig().resolve(spec, env)
        s = np.arange(101) * rq.s_step
        rule = _omega_rule(spec, env, rq, float(s[-1]), 0)
        assert (rule[3] > 0) == (kind is SpectralKind.WHITE_NOISE)
        thinned = s[np.r_[np.arange(0, 101, 8), 100]]  # every 8th point plus the last
        with pytest.raises(ValueError, match="uniform"):
            _kernels_on(*rule, thinned)
        with pytest.raises(ValueError, match="uniform"):
            _kernels_on(*rule, s[1:])


def test_fast_len_matches_scipy_next_fast_len():
    next_fast_len = pytest.importorskip("scipy.fft").next_fast_len
    assert all(_fast_len(n) == next_fast_len(n) for n in range(1, 50_001))


@pytest.mark.parametrize("m", [2, 3, 1009, 1025])
def test_blocked_phase_sums_match_direct_sums(m):
    # the white-noise infrared panels at the default numerics; 1009 is prime
    spec, env = make_spec(SpectralKind.WHITE_NOISE), make_env()
    rq = QuadratureConfig().resolve(spec, env)
    nodes, wc, ws, n_ir, _ = _omega_rule(spec, env, rq, 25.0, 0)
    w = nodes[:n_ir].ravel()
    s = np.arange(m) * rq.s_step
    got = _phase_sums(w, np.stack([wc[:n_ir].ravel(), ws[:n_ir].ravel()]), rq.s_step, m)
    assert got.shape == (2, m)
    ref_c = np.cos(np.outer(s, w)) @ wc[:n_ir].ravel()
    ref_s = np.sin(np.outer(s, w)) @ ws[:n_ir].ravel()
    for val, ref in ((got[0].real, ref_c), (got[1].imag, ref_s)):
        assert np.max(np.abs(val - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_default_ohmic_grid_matches_closed_form_gamma(resonant_grids):
    # gamma(t) = alpha^2 (pi/2) wc^2 [w0 - e^{-wc t}(wc sin w0 t + w0 cos w0 t)] / (wc^2 + w0^2);
    # the residual is the 1/omega tail cut at omega_max, not the kernel evaluation
    spec, env, grid = resonant_grids[SpectralKind.OHMIC]
    t, wc, w0 = grid.times, spec.omega_c, env.omega0
    closed = (env.alpha**2 * 0.5 * math.pi * wc**2
              * (w0 - np.exp(-wc * t) * (wc * np.sin(w0 * t) + w0 * np.cos(w0 * t)))
              / (wc**2 + w0**2))
    assert np.max(np.abs(grid.gamma - closed)) <= 3.9e-6


# ------------------------------------------------------ coefficient curves

def test_coefficients_vanish_at_t_zero(resonant_grids, quad):
    spec, env, grid = resonant_grids[SpectralKind.OHMIC]
    assert grid.delta[0] == 0.0
    assert grid.gamma[0] == 0.0
    for t_max in (0.0, -1.0):
        with pytest.raises(ValueError):
            build_coefficient_grid(spec, env, t_max, quad)


def test_gamma_is_temperature_independent(quad):
    spec = make_spec(SpectralKind.OHMIC)
    cold = build_coefficient_grid(spec, make_env(n_T=0.0), 3.0, quad).gamma
    hot = build_coefficient_grid(spec, make_env(n_T=25.0), 3.0, quad).gamma
    assert np.array_equal(cold, hot)


def test_alpha_squared_scaling(quad):
    spec = make_spec(SpectralKind.OHMIC)
    g1 = build_coefficient_grid(spec, make_env(alpha=0.05), 3.0, quad)
    g2 = build_coefficient_grid(spec, make_env(alpha=0.10), 3.0, quad)
    assert g2.delta == pytest.approx(4.0 * g1.delta, rel=1e-13)
    assert g2.gamma == pytest.approx(4.0 * g1.gamma, rel=1e-13)


def test_off_resonance_delta_changes_sign(quad):
    # omega0 = 10 omega_c: the early-time diffusion coefficient oscillates through 0
    spec = make_spec(SpectralKind.OHMIC, omega_c=0.1)
    grid = build_coefficient_grid(spec, make_env(), 4.0, quad)
    assert np.min(grid.delta) < 0.0 < np.max(grid.delta)


# ------------------------------------------------------------ grid builds

def test_zero_coupling_grid_is_identically_zero(quad):
    grid = build_coefficient_grid(make_spec(SpectralKind.OHMIC), make_env(alpha=0.0), 10.0, quad)
    for arr in (grid.delta, grid.gamma, grid.big_gamma, grid.delta_gamma):
        assert np.all(arr == 0.0)


def test_grid_structuring_long_window():
    # t_max = 100/omega0 at s_step = 0.01/omega0 (omega_max chosen to admit that step)
    q = QuadratureConfig(omega_max=10.0, s_step=0.01)
    grid = build_coefficient_grid(make_spec(SpectralKind.OHMIC), make_env(alpha=0.0), 100.0, q)
    assert len(grid.times) == 10001
    assert grid.times[0] == 0.0 and grid.t_max >= 100.0
    assert grid.delta[0] == grid.gamma[0] == grid.big_gamma[0] == grid.delta_gamma[0] == 0.0
    assert np.all(np.diff(grid.times) > 0)


def test_delta_gamma_approaches_markovian_closed_form(resonant_grids, gamma_m_ohmic):
    _, env, grid = resonant_grids[SpectralKind.OHMIC]
    i = np.searchsorted(grid.times, 20.0)
    dg_markov = markovian(gamma_m_ohmic, env.n_T, float(grid.times[i]))[1][-1]
    assert grid.delta_gamma[i] == pytest.approx(dg_markov, rel=0.05)
    # and the diffusion factor keeps growing toward 2 n_T + 1
    tail = grid.delta_gamma[len(grid.times) // 2:]
    assert np.all(np.diff(tail) > -1e-12)


def test_grid_convergence_under_step_halving():
    spec, env = make_spec(SpectralKind.OHMIC), make_env()
    base = 2.0 * math.pi / 1000.0
    q1 = QuadratureConfig(s_step=base)
    q2 = QuadratureConfig(s_step=base / 2)
    g1 = build_coefficient_grid(spec, env, 5.0, q1)
    g2 = build_coefficient_grid(spec, env, 5.0, q2)
    assert np.allclose(g1.times, g2.times[::2], rtol=0, atol=1e-12)
    for name in ("delta", "gamma", "big_gamma", "delta_gamma"):
        a = getattr(g1, name)
        b = getattr(g2, name)[::2]
        scale = max(np.max(np.abs(b)), 1e-12)
        assert np.max(np.abs(a - b)) / scale < q1.rel_tol, name


def test_grid_interpolators_and_coverage(resonant_grids):
    _, _, grid = resonant_grids[SpectralKind.OHMIC]
    assert grid.covers(25.0) and not grid.covers(26.0)
    t = np.array([0.0, 1.234, 24.9])
    assert grid.interp_big_gamma(t)[0] == 0.0
    assert grid.delta_integral(t)[0] == 0.0
    with pytest.raises(ValueError):
        grid.interp_big_gamma(np.array([30.0]))


# -------------------------------------------------------------- gamma_M

def test_gamma_markov_golden_rule(resonant_grids):
    # gamma_M = alpha^2 (pi/2) j(omega0): j(omega0) = 1/2 (Ohmic, super-Ohmic), 1 (white)
    weights = {SpectralKind.OHMIC: 0.5, SpectralKind.SUPER_OHMIC: 0.5,
               SpectralKind.WHITE_NOISE: 1.0}
    for kind, (spec, env, grid) in resonant_grids.items():
        gamma_m = gamma_markov(spec, env)
        assert gamma_m == pytest.approx(env.alpha**2 * 0.5 * math.pi * weights[kind], rel=1e-15)
        # the t -> infinity limit of gamma(t): the late mean of the resonant grid
        late = float(np.mean(grid.gamma[grid.times >= 20.0]))
        assert late == pytest.approx(gamma_m, rel=1e-2), kind


def test_gamma_markov_alpha_scaling():
    spec = make_spec(SpectralKind.OHMIC)
    g1 = gamma_markov(spec, make_env(alpha=0.05))
    g2 = gamma_markov(spec, make_env(alpha=0.10))
    assert g2 == pytest.approx(4.0 * g1, rel=1e-12)
    # zero coupling: no damping (simulate_trajectory then refuses the Markovian mode)
    assert gamma_markov(spec, make_env(alpha=0.0)) == 0.0


# ------------------------------------------------- markovian closed form

def markovian(gamma_m, n_T, t_max):
    """Gamma and Delta_Gamma of the Markovian map sampled at t = 0 and t_max."""
    traj = simulate_trajectory(SymmetricCM(1.0, 0.5), mode=TrajectoryMode.MARKOVIAN,
                               t_max=t_max, n_samples=2, gamma_m=gamma_m, n_T=n_T)
    return traj.big_gamma, traj.delta_gamma


def test_markovian_coefficients_closed_forms():
    bg, dg = markovian(1.0, 10.0, 1.0)
    assert (bg[0], dg[0]) == (0.0, 0.0)
    bg, dg = markovian(1.0, 0.0, math.log(2.0))
    assert bg[-1] == pytest.approx(math.log(2.0), rel=1e-15)
    assert dg[-1] == pytest.approx(0.5, rel=1e-15)
    # asymptote: by gamma_M t = 50 the diffusion factor has saturated at 2 n_T + 1
    _, dg_inf = markovian(1.0, 10.0, 50.0)
    assert dg_inf[-1] == pytest.approx(21.0, rel=1e-12)
    with pytest.raises(ValueError):
        markovian(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        markovian(1.0, 1.0, -1.0)


# ----------------------------------------------------- config validation

def test_quadrature_config_validation():
    spec, env = make_spec(SpectralKind.OHMIC), make_env()
    with pytest.raises(ConfigError):
        QuadratureConfig(omega_max=5.0).resolve(spec, env)
    with pytest.raises(ConfigError):
        QuadratureConfig(s_step=1.0).resolve(spec, env)
    with pytest.raises(ConfigError):
        QuadratureConfig(rel_tol=0.0)
    q = QuadratureConfig(omega_max=10.0, s_step=0.01).resolve(spec, env)
    assert q.s_step == 0.01
    # NaN slips past `x <= 0` checks and inf past the step checks: both name their field
    for field in ("omega_max", "rel_tol", "s_step"):
        for bad in (math.nan, math.inf):
            with pytest.raises(ConfigError, match=f"{field} must be finite and > 0"):
                QuadratureConfig(**{field: bad}).resolve(spec, env)


def test_quadrature_error_carries_achieved_estimate():
    spec, env = make_spec(SpectralKind.OHMIC), make_env()
    q = QuadratureConfig(rel_tol=1e-300)
    with pytest.raises(QuadratureError) as err:
        build_coefficient_grid(spec, env, 2.0, q)
    assert err.value.achieved > 0


def test_white_noise_ir_cutoff_is_respected(quad):
    env = make_env()
    fine = SpectralDensity(SpectralKind.WHITE_NOISE, omega_c=1.0, ir_cutoff=1e-6)
    coarse = SpectralDensity(SpectralKind.WHITE_NOISE, omega_c=1.0, ir_cutoff=1e-2)
    g_fine = build_coefficient_grid(fine, env, 2.0, quad)
    g_coarse = build_coefficient_grid(coarse, env, 2.0, quad)
    # the infrared log shows up in the early-time diffusion
    assert g_fine.delta[-1] != pytest.approx(g_coarse.delta[-1], rel=1e-3)
    # while the damping coefficient is insensitive (no infrared log there)
    assert g_fine.gamma[-1] == pytest.approx(g_coarse.gamma[-1], rel=1e-3)


# ------------------------------------------------------------------- CSV

def test_coefficients_csv_roundtrip(quad):
    grid = build_coefficient_grid(make_spec(SpectralKind.OHMIC), make_env(), 2.0, quad)
    buf = io.StringIO()
    write_coefficients_csv(grid, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "t,delta,gamma,big_gamma,delta_gamma"
    assert len(lines) == len(grid.times) + 1
    parsed = np.array([[float(x) for x in row.split(",")] for row in lines[1:]])
    np.testing.assert_array_equal(parsed[:, 0], grid.times)
    np.testing.assert_array_equal(parsed[:, 3], grid.big_gamma)
