import io
import itertools
import math

import numpy as np
import pytest

from gaussian_paths import (
    Channel,
    CoefficientGrid,
    ConfigError,
    QuadratureConfig,
    QuadratureError,
    SpectralDensity,
    SpectralKind,
    SymmetricCM,
    TrajectoryMode,
    build_coefficient_grid,
    evaluate_j,
    gamma_markov,
    simulate_trajectory,
    write_coefficients_csv,
)
from gaussian_paths import coefficients
from gaussian_paths.coefficients import _fast_len, _kernels_on, _omega_rule

from conftest import T_MAX_RESONANT, make_env, make_spec


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
    nodes, wc, ws, width, k_ir = _omega_rule(spec, env, rq, float(s[-1]), 0)
    assert nodes.shape == wc.shape == ws.shape == (len(nodes), coefficients.GL_ORDER)
    # every panel has the one width, white noise's first included; only it has k_ir
    np.testing.assert_allclose(np.diff(nodes, axis=0), width, rtol=1e-9)
    assert (k_ir != 0.0) == (kind is SpectralKind.WHITE_NOISE)
    Kc, Ks = _kernels_on(nodes, wc, ws, width, k_ir, s)
    ref_c, ref_s = dense_kernels(nodes, wc, ws, s)
    for got, ref in ((Kc, ref_c + k_ir), (Ks, ref_s)):
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_chirp_kernels_reject_non_uniform_grid():
    for kind in (SpectralKind.OHMIC, SpectralKind.WHITE_NOISE):
        spec, env = make_spec(kind), make_env()
        rq = QuadratureConfig().resolve(spec, env)
        s = np.arange(101) * rq.s_step
        rule = _omega_rule(spec, env, rq, float(s[-1]), 0)
        thinned = s[np.r_[np.arange(0, 101, 8), 100]]  # every 8th point plus the last
        with pytest.raises(ValueError, match="uniform"):
            _kernels_on(*rule, thinned)
        with pytest.raises(ValueError, match="uniform"):
            _kernels_on(*rule, s[1:])


def test_fast_len_matches_scipy_next_fast_len(monkeypatch):
    # _fast_len steps up to the next 11-smooth number: checked at every small n, on both
    # sides of each 11-smooth number up to 50,000, at the transform lengths of the default
    # grids and at seeded n up to 1e6 (a long-window grid has ~6.5e5 samples)
    next_fast_len = pytest.importorskip("scipy.fft").next_fast_len
    smooth = [1]
    for p in (2, 3, 5, 7, 11):
        smooth = [s * p**k for s in smooth for k in range(16) if s * p**k <= 50_000]
    ns = set(range(1, 5_001)) | {n for s in smooth for n in range(max(s - 2, 1), s + 3)}
    # the chirp-z length panels + samples - 1 of the resonant (t_max = 25) and off-resonant
    # (t_max = 40) grids, recorded for the probe (half the panels, every fourth sample) and
    # the accepted rule by a stand-in for the kernel sums
    lengths = []

    def record(nodes, wc, ws, width, k_ir, s):
        lengths.append(len(nodes) + len(s) - 1)
        return np.zeros_like(s), np.zeros_like(s)

    monkeypatch.setattr(coefficients, "_kernels_on", record)
    for kind in SpectralKind:
        for omega_c, alpha, t_max in ((1.0, 0.1, 25.0), (0.1, 0.01, 40.0)):
            build_coefficient_grid(make_spec(kind, omega_c), make_env(alpha=alpha), t_max,
                                   QuadratureConfig())
    assert len(lengths) == 12 and min(lengths) > 1_500
    # log-uniform: a step costs ~1 us and the gaps between 11-smooth numbers grow with n
    rng = np.random.default_rng(20_260_918)
    ns |= set(lengths) | set(np.floor(10.0 ** rng.uniform(0.0, 6.0, 2_000)).astype(int).tolist())
    assert all(_fast_len(n) == next_fast_len(n) for n in sorted(ns))


def white_kc_oracle(spec, env, rq, s):
    """K_c(s) = int_{w_ir}^{omega_max} j coth(beta w/2) taper(w) cos(w s) dw, s > 0, without panels.

    coth(beta w/2) = 2/(beta w) + r(w) with r smooth.  The 2 j/(beta w) part is
    Ci(w_a s) - Ci(w_ir s) below the taper start w_a = omega_max/10 (scipy sici)
    and quad(weight='cos') on the taper; the j r(w) part is quad(weight='cos').
    """
    special = pytest.importorskip("scipy.special")
    integrate = pytest.importorskip("scipy.integrate")
    j, beta = float(evaluate_j(spec, 1.0)), env.beta
    w_ir, top = spec.resolved_ir_cutoff(env.omega0), rq.omega_max
    w_a = top / 10.0

    def taper(w):
        return (top - w) / (top - w_a)

    def r(w):  # coth(y) - 1/y, y = beta w/2, by its series where the difference cancels
        y = 0.5 * beta * w
        return y / 3 - y**3 / 45 + 2 * y**5 / 945 if y < 1e-2 else 1 / math.tanh(y) - 1 / y

    out = []
    for si in s:
        def cos_quad(f, lo, hi):
            return integrate.quad(f, lo, hi, weight="cos", wvar=si, epsabs=1e-13,
                                  epsrel=1e-12, limit=2000)[0]
        ci = special.sici(w_a * si)[1] - special.sici(w_ir * si)[1]
        log_part = ci + cos_quad(lambda w: taper(w) / w, w_a, top)
        smooth = cos_quad(r, w_ir, w_a) + cos_quad(lambda w: taper(w) * r(w), w_a, top)
        out.append(j * (2.0 / beta * log_part + smooth))
    return np.array(out)


@pytest.mark.parametrize("t_max", [2.0, 25.0])
@pytest.mark.parametrize("ir_cutoff", [1e-6, 1e-3])
@pytest.mark.parametrize("n_T", [0.01, 10.0])
def test_white_noise_kernel_matches_sici_quad_oracle(n_T, ir_cutoff, t_max):
    # the panels start at the infrared cutoff and k_ir restores the first panel's 1/w integral
    spec = SpectralDensity(SpectralKind.WHITE_NOISE, omega_c=1.0, ir_cutoff=ir_cutoff)
    env = make_env(n_T=n_T)
    rq = QuadratureConfig().resolve(spec, env)
    s = np.arange(int(math.ceil(t_max / rq.s_step - 1e-9)) + 1) * rq.s_step
    Kc, _ = _kernels_on(*_omega_rule(spec, env, rq, float(s[-1]), 0), s)
    idx = np.unique(np.linspace(1, len(s) - 1, 9).astype(int))
    assert len(idx) == 9
    err = np.max(np.abs(Kc[idx] - white_kc_oracle(spec, env, rq, s[idx])))
    bound = 1e-12 if (t_max, ir_cutoff) == (2.0, 1e-6) else 2e-9
    assert err <= bound * np.max(np.abs(Kc))


def test_default_ohmic_grid_matches_closed_form_gamma(resonant_grids):
    # gamma(t) = alpha^2 (pi/2) wc^2 [w0 - e^{-wc t}(wc sin w0 t + w0 cos w0 t)] / (wc^2 + w0^2);
    # the residual is the 1/omega tail cut at omega_max, not the kernel evaluation
    spec, env, grid = resonant_grids[SpectralKind.OHMIC]
    t, wc, w0 = grid.times, spec.omega_c, env.omega0
    closed = (env.alpha**2 * 0.5 * math.pi * wc**2
              * (w0 - np.exp(-wc * t) * (wc * np.sin(w0 * t) + w0 * np.cos(w0 * t)))
              / (wc**2 + w0**2))
    assert np.max(np.abs(grid.gamma - closed)) <= 3.9e-6


@pytest.mark.parametrize("kind", [SpectralKind.WHITE_NOISE, SpectralKind.SUPER_OHMIC])
def test_default_grid_matches_closed_form_gamma(resonant_grids, kind):
    # white: gamma = alpha^2 wc Si(w0 t); super-Ohmic subtracts the Lorentzian part,
    # alpha^2 wc int_0^t sin(w0 s) F(wc s) ds, F(x) = [e^{-x} Ei(x) + e^{x} E1(x)]/2.
    # The residual is the constant UV tail cut at omega_max (3.45e-4 at t ~ 0.057,
    # <= 1.04e-5 beyond t = 2); taking that tail in closed form should tighten both bounds.
    special = pytest.importorskip("scipy.special")
    quad = pytest.importorskip("scipy.integrate").quad
    spec, env, grid = resonant_grids[kind]
    wc, w0, scale = spec.omega_c, env.omega0, env.alpha**2 * spec.omega_c
    idx = np.unique(np.geomspace(1, len(grid.times) - 1, 40).astype(int))
    t = grid.times[idx]
    closed = scale * special.sici(w0 * t)[0]
    if kind is SpectralKind.SUPER_OHMIC:
        def lorentz(s):
            x = wc * s
            return math.sin(w0 * s) * 0.5 * (math.exp(-x) * special.expi(x)
                                             + math.exp(x) * special.exp1(x))
        edges = np.concatenate([[0.0], t]).tolist()
        closed -= scale * np.cumsum([quad(lorentz, lo, hi)[0]
                                     for lo, hi in zip(edges, edges[1:])])
    err = np.abs(grid.gamma[idx] - closed)
    assert np.any((t >= 0.03) & (t <= 0.1)) and t[-1] == grid.times[-1]
    assert np.max(err) <= 4e-4
    assert np.max(err[t >= 2.0]) <= 1.5e-5


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
    _, env, grid = resonant_grids[SpectralKind.OHMIC]
    full, high_t = (Channel(mode, env.n_T, grid=grid)
                    for mode in (TrajectoryMode.NONMARKOVIAN, TrajectoryMode.HIGH_TEMPERATURE))
    # a grid channel answers on [0, t_max] and names the grid's range one step outside it
    t_max, step = grid.t_max, float(grid.times[1] - grid.times[0])
    assert full(t_max)[0][0] == grid.big_gamma[-1]
    full(25.0)  # the window it was built for
    for t in (t_max + step, -step):
        with pytest.raises(ValueError, match=r"grid covers \[0, "):
            full(t)
    t = np.array([0.0, 1.234, 24.9])
    assert full(t)[0][0] == 0.0
    assert high_t(t)[1][0] == 0.0
    with pytest.raises(ValueError):
        high_t(np.array([30.0]))


def test_grid_arrays_are_read_only_copies(resonant_grids):
    grid = resonant_grids[SpectralKind.OHMIC][2]
    with pytest.raises(ValueError, match="read-only"):
        grid.big_gamma[:] *= 2
    for name in ("times", "delta", "gamma", "big_gamma", "delta_gamma", "_delta_cumulative"):
        assert not getattr(grid, name).flags.writeable, name
    # the grid copies what it is given: the caller's arrays stay writeable and unshared
    times = np.linspace(0.0, 1.0, 5)
    mine = CoefficientGrid(times=times, delta=np.zeros(5), gamma=np.zeros(5),
                           big_gamma=np.zeros(5), delta_gamma=np.zeros(5))
    times[1] = 0.3
    assert times.flags.writeable and mine.times[1] == 0.25


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


def test_quadrature_error_carries_achieved_estimate(monkeypatch):
    halvings = []

    def record(spec, env, rq, s_max, h):
        halvings.append(h)
        return _omega_rule(spec, env, rq, s_max, h)

    monkeypatch.setattr(coefficients, "_omega_rule", record)
    spec, env = make_spec(SpectralKind.OHMIC), make_env()
    q = QuadratureConfig(rel_tol=1e-300)
    with pytest.raises(QuadratureError) as err:
        build_coefficient_grid(spec, env, 2.0, q)
    assert err.value.achieved > 0
    # the coarse probe, level 0, then at most MAX_REFINE halvings
    assert halvings == list(range(-1, coefficients.MAX_REFINE + 1))


@pytest.mark.parametrize("kind", list(SpectralKind))
def test_default_build_transforms_the_probe_and_the_accepted_rule_only(monkeypatch, kind):
    calls = []

    def record(nodes, wc, ws, width, k_ir, s):
        calls.append((len(nodes), s))
        return _kernels_on(nodes, wc, ws, width, k_ir, s)

    monkeypatch.setattr(coefficients, "_kernels_on", record)
    grid = build_coefficient_grid(make_spec(kind), make_env(), T_MAX_RESONANT, QuadratureConfig())
    (probe_panels, probe_s), (panels, s) = calls
    assert np.array_equal(s, grid.times) and np.array_equal(probe_s, grid.times[::4])
    assert probe_panels == math.ceil(panels / 2)


def test_coarse_strided_probe_is_never_weaker_than_the_halving_probe(monkeypatch):
    # the estimate a build compares (its probe against level 0 on the probe's samples) is
    # at least the former recipe's (level 0 against level 1 on every sample) above roundoff
    calls = []

    def record(*rule_and_s):
        calls.append((rule_and_s[-1], out := _kernels_on(*rule_and_s)))
        return out

    monkeypatch.setattr(coefficients, "_kernels_on", record)
    compared = 0
    for kind, omega_c, n_T, t_max, omega_max in itertools.product(
            SpectralKind, (0.1, 1.0), (0.0, 10.0), (2.0, 25.0), (None, 12.0)):
        spec, env, q = make_spec(kind, omega_c), make_env(n_T=n_T), QuadratureConfig(omega_max)
        calls.clear()
        build_coefficient_grid(spec, env, t_max, q)
        (probe_s, probe), (s, level0) = calls
        stride = round(probe_s[1] / s[1])
        assert np.array_equal(probe_s, s[::stride])
        new = coefficients._kernel_err(probe, tuple(k[::stride] for k in level0))
        level1 = _kernels_on(*_omega_rule(spec, env, q.resolve(spec, env), float(s[-1]), 1), s)
        old = coefficients._kernel_err(level0, level1)
        if old > 1e-13:
            compared += 1
            assert new >= old, (kind, omega_c, n_T, t_max, omega_max, new, old)
    # above roundoff: the saturating tails (super-Ohmic, white) at omega_c = omega0, where the
    # probe reads 7-15 times the former estimate (at most 1.3e-5); the rest are below 5e-14
    assert compared == 12


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


def test_ir_cutoff_must_be_below_omega_max():
    env, rq = make_env(), QuadratureConfig(omega_max=20.0)
    for ir in (20.0, 30.0):
        spec = SpectralDensity(SpectralKind.WHITE_NOISE, omega_c=1.0, ir_cutoff=ir)
        with pytest.raises(ConfigError, match="ir_cutoff must be below omega_max"):
            build_coefficient_grid(spec, env, 2.0, rq)
    # just below the boundary the grid builds: one panel, finite and exactly 0 at t = 0
    spec = SpectralDensity(SpectralKind.WHITE_NOISE, omega_c=1.0,
                           ir_cutoff=float(np.nextafter(20.0, 0.0)))
    grid = build_coefficient_grid(spec, env, 2.0, rq)
    assert np.all(np.isfinite(grid.delta)) and grid.delta[0] == 0.0


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
