import functools
import io
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from gaussian_paths import (
    Channel,
    CoefficientGrid,
    ConfigError,
    QuadratureConfig,
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

from conftest import NT_HIGH, T_MAX_RESONANT, make_env, make_spec


# ---------------------------------------------------------------- oracle

def brute_force_curves(spec, env, times, n_omega=20001, omega_max=50.0):
    """Independent evaluation of Delta(t), gamma(t) at the given times.

    A plain trapezoid on a uniform omega grid, no panels, no tapering; the
    omega = 0 node of the Delta integrand is its analytic limit
    (2/beta) * j(w)/w.  The s integral is exact: with k = w -/+ omega0,
    int_0^t cos(k s) ds = t sinc(k t / pi), so
    int_0^t cos(w s) cos(omega0 s) ds = (t/2) [sinc((w - w0) t/pi) + sinc((w + w0) t/pi)]
    and the sine product takes the difference.  The Ohmic gamma adds the tail
    j ~ wc^2/w beyond omega_max = W, which the grid's exact K_s holds; by partial fractions in w its
    double integral is (wc^2 / 2 w0) [pi - Si((W - w0) t) - Si((W + w0) t)
    - 2 cos(w0 t) (pi/2 - Si(W t))] (scipy sici).  Delta stays band-limited, which the grid's
    Ohmic Delta at n_T > 0 no longer is (test_ohmic_delta_matches_quad_of_the_matsubara_kernel).
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
    if spec.kind is SpectralKind.OHMIC:
        si = pytest.importorskip("scipy.special").sici
        t, w0 = t[:, 0], env.omega0
        gamma += a2 * spec.omega_c**2 / (2.0 * w0) * (
            math.pi - si((omega_max - w0) * t)[0] - si((omega_max + w0) * t)[0]
            - 2.0 * np.cos(w0 * t) * (0.5 * math.pi - si(omega_max * t)[0]))
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


def test_gauss_legendre_literals_are_leggauss_to_the_bit():
    assert coefficients.GL_ORDER == 6
    nodes, weights = np.polynomial.legendre.leggauss(6)
    assert coefficients.GL_NODES.tobytes() == nodes.tobytes()
    assert coefficients.GL_WEIGHTS.tobytes() == weights.tobytes()
    nodes, weights = np.polynomial.legendre.leggauss(4)
    assert coefficients._GL4_NODES.tobytes() == nodes.tobytes()
    assert coefficients._GL4_WEIGHTS.tobytes() == weights.tobytes()


@pytest.mark.parametrize("kind", list(SpectralKind))
def test_chirp_kernels_match_dense_sums(kind):
    # the grids' rule (level 0) and the tests' finer reference (level 1, panels half as
    # wide) on m samples, m at the edges of the 64-sample phase blocks
    spec, env = make_spec(kind), make_env()
    rq = QuadratureConfig(omega_max=20.0).resolve(spec, env)
    for m, level in itertools.product((2, 64, 65, 1201), (0, 1)):
        s = np.arange(m) * rq.s_step
        rule = _omega_rule(spec, env, rq, float(s[-1]), level)
        nodes, wc, ws, width, k_ir = rule
        assert nodes.shape == wc.shape == ws.shape == (len(nodes), coefficients.GL_ORDER)
        # every panel has the one width, white noise's first included; only it has k_ir
        np.testing.assert_allclose(np.diff(nodes, axis=0), width, rtol=1e-9)
        assert (k_ir != 0.0) == (kind is SpectralKind.WHITE_NOISE)
        Kc, Ks = _kernels_on(*rule, rq.s_step, m)
        ref_c, ref_s = dense_kernels(nodes, wc, ws, s)
        for got, ref in ((Kc, ref_c + k_ir), (Ks, ref_s)):
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref)), (m, level)


def test_chirp_arguments_are_reduced_exactly():
    # exp(i theta j^2) within a few ulps of mpmath at 30 digits (1.7e-15 at worst), at the
    # default grid's theta and at lengths up to a long window's; the plain product was off by
    # 2.2e-13 at 4,000 and 4.6e-10 at 200,000
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(20_261_020)
    for theta, count in ((1.9782e-4, 4_000), (1.9782e-4, 200_000), (1.21e-6, 648_457),
                         (0.033, 4_000), (0.7, 65)):
        c = coefficients._chirp(theta, count)
        js = np.unique(np.r_[0, 1, count - 1, rng.integers(0, count, 40)]).tolist()
        with mpmath.workdps(30):
            ref = [complex(mpmath.expj(mpmath.mpf(theta) * j * j)) for j in js]
        assert np.max(np.abs(c[js] - ref)) <= 3e-15, (theta, count)


def batched_chirp_kernels(nodes, wc, ws, width, k_ir, ds, m):
    """_kernels_on's sums with every Gauss-Legendre order in one batched chirp-z transform: a
    (GL_ORDER, transform length) buffer per weight set, a (GL_ORDER, m) phase table, and the
    orders summed by .real.sum(axis=0) / .imag.sum(axis=0)."""
    p = len(nodes)
    n = _fast_len(p + m - 1)
    c = coefficients._chirp(0.5 * width * ds, max(p, m))
    spectrum = np.fft.fft(np.concatenate([c[:m], np.zeros(n - m - p + 1), c[p - 1:0:-1]]).conj())
    o, block = nodes[0], coefficients._PHASE_BLOCK
    blocks = np.exp(1j * (block * ds) * np.outer(o, np.arange(-(-m // block))))
    offsets = np.exp(1j * ds * np.outer(o, np.arange(block)))
    post = (blocks[:, :, None] * offsets[:, None, :]).reshape(len(o), -1)[:, :m]
    post *= c[:m]

    def chirp_sums(a):
        buf = np.zeros(a.shape[:-1] + spectrum.shape, complex)
        np.multiply(a, c[:p], out=buf[..., :p])
        np.fft.fft(buf, out=buf)
        buf *= spectrum
        sums = np.fft.ifft(buf, out=buf)[..., :m]
        return np.multiply(post, sums, out=sums)

    Kc = chirp_sums(wc.T).real.sum(axis=0) + k_ir
    return Kc, None if ws is None else chirp_sums(ws.T).imag.sum(axis=0)


@pytest.mark.parametrize("n_T", [0.0, NT_HIGH])
@pytest.mark.parametrize("kind", list(SpectralKind))
def test_streamed_kernels_equal_the_batched_transform_bit_for_bit(kind, n_T):
    # one order at a time through one buffer, against all orders in one batch, with and
    # without sine sums, on m at the edges of the 64-sample phase blocks; at n_T = 0, where wc
    # is ws, the streamed sums transform one row and the batched ones both weight sets
    spec, env = make_spec(kind), make_env(n_T=n_T)
    rq = QuadratureConfig().resolve(spec, env)
    for m in (2, 64, 65, 1201):
        nodes, wc, ws, width, k_ir = _omega_rule(spec, env, rq, (m - 1) * rq.s_step, 0)
        assert (wc is ws) == (n_T == 0.0)
        for sines in (ws, None):
            got = _kernels_on(nodes, wc, sines, width, k_ir, rq.s_step, m)
            ref = batched_chirp_kernels(nodes, wc, sines, width, k_ir, rq.s_step, m)
            assert got[0].tobytes() == ref[0].tobytes(), m
            assert (got[1] is None and ref[1] is None) or got[1].tobytes() == ref[1].tobytes(), m


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
    # (t_max = 40) grids, recorded by a stand-in for the kernel sums; at n_T = 0, where the
    # Ohmic Delta still takes the cosine rule
    lengths = []

    def record(nodes, wc, ws, width, k_ir, ds, m):
        lengths.append(len(nodes) + m - 1)
        return np.zeros(m), np.zeros(m)

    monkeypatch.setattr(coefficients, "_kernels_on", record)
    for kind in SpectralKind:
        for omega_c, alpha, t_max in ((1.0, 0.1, 25.0), (0.1, 0.01, 40.0)):
            build_coefficient_grid(make_spec(kind, omega_c), make_env(n_T=0.0, alpha=alpha),
                                   t_max, QuadratureConfig())
    assert len(lengths) == 6 and min(lengths) > 1_500
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
    Kc, _ = _kernels_on(*_omega_rule(spec, env, rq, float(s[-1]), 0), rq.s_step, len(s))
    idx = np.unique(np.linspace(1, len(s) - 1, 9).astype(int))
    assert len(idx) == 9
    err = np.max(np.abs(Kc[idx] - white_kc_oracle(spec, env, rq, s[idx])))
    # the panels' edge nearest the taper's kink lies 0.9 w_ir above it: 4.3e-16 of max|K| at
    # w_ir = 1e-6, 3.0e-10 at 1e-3 (it was 3.5e-11 and 5.4e-10 with the kink inside a panel)
    bound = 2e-15 if ir_cutoff == 1e-6 else 5e-10
    assert err <= bound * np.max(np.abs(Kc))


def ohmic_gamma_residual(grid, spec, env):
    """max |gamma - closed form| on the grid, the closed form (Maniscalco et al. 2004)
    gamma(t) = alpha^2 (pi/2) wc^2 [w0 - e^{-wc t}(wc sin w0 t + w0 cos w0 t)] / (wc^2 + w0^2)."""
    t, wc, w0 = grid.times, spec.omega_c, env.omega0
    closed = (env.alpha**2 * 0.5 * math.pi * wc**2
              * (w0 - np.exp(-wc * t) * (wc * np.sin(w0 * t) + w0 * np.cos(w0 * t)))
              / (wc**2 + w0**2))
    return float(np.max(np.abs(grid.gamma - closed)))


def test_default_ohmic_grid_matches_closed_form_gamma(resonant_grids):
    # gamma is the closed form itself; the cumulative trapezoid of the exact K_s was 6.2e-8 off
    spec, env, grid = resonant_grids[SpectralKind.OHMIC]
    assert ohmic_gamma_residual(grid, spec, env) <= 1e-15


@pytest.mark.parametrize("omega_c, alpha, n_T, t_max, omega_max, bound", [
    (0.1, 0.01, 10.0, 40.0, None, 3e-11),  # 3.9e-10 band-limited, 9.0e-12 with K_s exact
    (3.0, 0.1, 1.0, 10.0, None, 1e-7),  # 3.9e-6, 5.9e-8
    (1.0, 0.1, 10.0, 25.0, 10.0, 2e-6),  # omega_max = 10 x scale: 8.8e-5, 1.56e-6
])
def test_ohmic_grid_matches_closed_form_gamma(omega_c, alpha, n_T, t_max, omega_max, bound):
    # the bounds are those of the s trapezoid over the exact K_s (the second figure of each
    # comment); gamma is now its closed form, test_ohmic_gamma_and_big_gamma_are_exact
    spec, env = make_spec(SpectralKind.OHMIC, omega_c), make_env(n_T=n_T, alpha=alpha)
    grid = build_coefficient_grid(spec, env, t_max, QuadratureConfig(omega_max))
    assert ohmic_gamma_residual(grid, spec, env) <= bound


@pytest.mark.parametrize("n_T", [0.0, 10.0])
@pytest.mark.parametrize("omega_c, halvings", [(1.0, 0), (1.0, 2), (0.1, 0), (3.0, 0)])
def test_ohmic_gamma_and_big_gamma_are_exact(n_T, omega_c, halvings):
    # gamma is the closed form, and Gamma its integral, at every temperature and s step: gamma
    # to roundoff and Gamma against mpmath quad of that gamma at 30 digits
    mpmath = pytest.importorskip("mpmath")
    spec, env = make_spec(SpectralKind.OHMIC, omega_c), make_env(n_T=n_T)
    step = QuadratureConfig().resolve(spec, env).s_step / 2**halvings
    grid = build_coefficient_grid(spec, env, 10.0, QuadratureConfig(s_step=step))
    assert ohmic_gamma_residual(grid, spec, env) <= 1e-15
    idx = np.unique(np.geomspace(1, len(grid.times) - 1, 12).astype(int))
    with mpmath.workdps(30):
        wc, w0 = mpmath.mpf(omega_c), mpmath.mpf(env.omega0)
        scale = mpmath.mpf(env.alpha) ** 2 * mpmath.pi / 2 * wc**2 / (wc**2 + w0**2)
        closed = [float(mpmath.quad(lambda u: scale * (w0 - mpmath.exp(-wc * u) * (
            wc * mpmath.sin(w0 * u) + w0 * mpmath.cos(w0 * u))), [0, mpmath.mpf(float(t))]))
            for t in grid.times[idx]]
    assert grid.big_gamma[0] == 0.0
    assert np.max(np.abs(grid.big_gamma[idx] - closed)) <= 1e-15 * max(1.0, closed[-1])


def test_ohmic_gamma_is_independent_of_omega_max():
    # K_s is the exact exponential, so at one s_step the band edge reaches only K_c (Delta)
    spec, env = make_spec(SpectralKind.OHMIC), make_env()
    step = QuadratureConfig().resolve(spec, env).s_step
    grids = [build_coefficient_grid(spec, env, T_MAX_RESONANT, QuadratureConfig(om, step))
             for om in (10.0, 50.0)]
    for name in ("gamma", "big_gamma"):
        assert getattr(grids[0], name).tobytes() == getattr(grids[1], name).tobytes(), name


@pytest.mark.parametrize("kind", list(SpectralKind))
def test_only_the_tapered_spectra_form_sine_sums(monkeypatch, kind):
    # the Ohmic build transforms its cosine weights alone, and only at n_T = 0 (at n_T > 0 its
    # Delta is the Matsubara closed form); the tapered spectra add the sine ones.  Every order
    # goes through the transform on its own: one buffer row per distinct weight set
    rows, sines = [], []

    def kernels(*rule_and_step):
        Kc, Ks = _kernels_on(*rule_and_step)
        sines.append(Ks is not None)
        return Kc, Ks

    def fft(a, **kw):
        if a.ndim == 2:  # the weights' buffer (the chirp's spectrum is one 1-D transform)
            rows.append(len(a))
        return np.fft.fft(a, **kw)

    monkeypatch.setattr(coefficients, "_kernels_on", kernels)
    monkeypatch.setattr(coefficients, "fft", fft)
    for n_T in (0.0, NT_HIGH):
        build_coefficient_grid(make_spec(kind), make_env(n_T=n_T), T_MAX_RESONANT,
                               QuadratureConfig())
    if kind is SpectralKind.OHMIC:
        assert sines == [False] and rows == [1] * coefficients.GL_ORDER
    else:  # at n_T = 0 coth is 1: the cosine and sine weights are one array, one row
        assert sines == [True, True]
        assert rows == [1] * coefficients.GL_ORDER + [2] * coefficients.GL_ORDER


def test_si_matches_scipy_sici():
    # the series below x = 4 and the auxiliary-function rationals above it, dense on
    # [0, 2000] and on both sides of the branch edge
    sici = pytest.importorskip("scipy.special").sici
    edge = [np.nextafter(4.0, 0.0), 4.0, np.nextafter(4.0, 5.0)]
    x = np.concatenate([np.linspace(0.0, 2000.0, 2_000_001), edge])
    assert np.max(np.abs(coefficients._si(x) - sici(x)[0])) <= 2e-15
    assert coefficients._si(np.zeros(1))[0] == 0.0


# ------------------------------------------------- Ohmic Delta by Matsubara poles

def matsubara_kc(spec, env, s, n_poles=4000):
    """The Ohmic K_c(s) at n_T > 0 by its Matsubara form with n_poles poles,
    (pi/2) wc^2 cot(beta wc/2) e^{-wc s} - wc^2 ln(1 - e^{-nu_1 s})
    + nu_1 wc^4 sum_k e^{-nu_k s}/(nu_k (nu_k^2 - wc^2)), nu_k = 2 pi k/beta.  The cot pole's
    A e^{-wc s} and pole m = round(wc/nu_1)'s c_m e^{-nu_m s}, which cancel near a resonance
    nu_m = wc, are summed as A e^{-nu_m s} expm1(-(wc - nu_m) s) + (A + c_m) e^{-nu_m s}, with
    A, A + c_m and wc - nu_m from the float beta and wc in 40-digit mpmath; the other poles
    directly (so not at a resonance itself)."""
    wc, beta = spec.omega_c, env.beta
    nu = 2.0 * math.pi / beta
    m, a, a_c, detuning, nu_m = resonant_pair(wc, beta)
    mu = np.arange(1, n_poles + 1) * nu
    c = nu * wc**4 / (mu * (mu**2 - wc**2))
    if m:
        c[m - 1] = 0.0
    s = np.atleast_1d(np.asarray(s, float))
    pair = (a * np.expm1(-detuning * s) + a_c) * np.exp(-nu_m * s)
    return pair - wc**2 * np.log(-np.expm1(-nu * s)) + np.exp(-np.outer(s, mu)) @ c


@functools.lru_cache
def resonant_pair(wc, beta):
    """(m, A, A + c_m, wc - nu_m, nu_m) of matsubara_kc's pair, in 40-digit mpmath."""
    mpmath = pytest.importorskip("mpmath")
    m = round(wc * beta / (2.0 * math.pi))
    with mpmath.workdps(40):
        w, nu_1 = mpmath.mpf(wc), 2 * mpmath.pi / mpmath.mpf(beta)
        a = mpmath.pi / 2 * w**2 * mpmath.cot(mpmath.mpf(beta) * w / 2)
        c_m = nu_1 * w**4 / (m * nu_1 * ((m * nu_1) ** 2 - w**2)) if m else 0
        return (m, *map(float, (a, a + c_m, w - m * nu_1, m * nu_1)))


def qawf_kc(spec, env, s):
    """K_c(s) = int_0^inf j(w) coth(beta w/2) cos(w s) dw by scipy: quad(weight='cos') on [0, W]
    and QAWF on [W, inf), W = max(10, 20 wc, 40/beta); the w = 0 node is the limit 2/beta."""
    quad = pytest.importorskip("scipy.integrate").quad
    wc, beta = spec.omega_c, env.beta

    def f(w):
        return 2.0 / beta if w == 0.0 else float(evaluate_j(spec, w)) / math.tanh(0.5 * beta * w)

    top = max(10.0, 20.0 * wc, 40.0 / beta)
    return (quad(f, 0.0, top, weight="cos", wvar=s, limit=2000, epsabs=1e-12, epsrel=1e-12)[0]
            + quad(f, top, math.inf, weight="cos", wvar=s, limlst=500, epsabs=1e-12)[0])


def matsubara_delta_quad(spec, env, t):
    """alpha^2 int_0^t K_c(s) cos(omega0 s) ds for ascending t, by scipy quad of matsubara_kc
    with 4000 poles or more: enough that those left out, whose whole integral is at most
    alpha^2 wc^4/(3 nu_1^3 N^3), move it by under 1e-13."""
    quad = pytest.importorskip("scipy.integrate").quad
    nu = 2.0 * math.pi / env.beta
    n_poles = max(4000, math.ceil((env.alpha**2 * spec.omega_c**4 / (3e-13 * nu**3)) ** (1 / 3)))

    def f(s):
        return matsubara_kc(spec, env, s, n_poles)[0] * math.cos(env.omega0 * s)

    edges = np.concatenate([[0.0], t]).tolist()
    return env.alpha**2 * np.cumsum([quad(f, lo, hi, epsabs=1e-13, epsrel=1e-13, limit=200)[0]
                                     for lo, hi in zip(edges, edges[1:])])


@pytest.mark.parametrize("omega_c", [0.1, 1.0, 3.0])
@pytest.mark.parametrize("n_T", [0.01, 0.1, 1.0, 10.0])
def test_matsubara_kernel_matches_qawf(n_T, omega_c):
    spec, env = make_spec(SpectralKind.OHMIC, omega_c), make_env(n_T=n_T)
    s = np.array([0.01, 0.1, 1.0, 5.0])
    ref = np.array([qawf_kc(spec, env, x) for x in s])
    err = np.abs(matsubara_kc(spec, env, s) - ref) / np.maximum(1.0, np.abs(ref))
    assert np.max(err) <= 1e-13, err


@pytest.mark.parametrize("n_T, omega_c, t_max", [
    *(pytest.param(n_T, omega_c, T_MAX_RESONANT, id=f"{n_T}-{omega_c}") for n_T, omega_c in
      [(10.0, 1.0), (10.0, 0.1), (1.0, 3.0), (0.1, 3.0), (0.01, 3.0), (0.01, 0.1)]),
    (0.01, 3.0, 5.0), (0.1, 10.0, 5.0)])
def test_ohmic_delta_matches_quad_of_the_matsubara_kernel(n_T, omega_c, t_max):
    # every sample from the first: the band-limited Delta missed this by 1.2e-4 near t = 0.01
    # on the default grid (n_T = 10, omega_c = 1); the closed form is within 2e-13 of the
    # reference in every case, t_max = 5 windows included
    spec, env = make_spec(SpectralKind.OHMIC, omega_c), make_env(n_T=n_T)
    grid = build_coefficient_grid(spec, env, t_max, QuadratureConfig())
    idx = np.unique(np.geomspace(1, len(grid.times) - 1, 12).astype(int))
    assert idx[0] == 1 and idx[-1] == len(grid.times) - 1
    ref = matsubara_delta_quad(spec, env, grid.times[idx])
    assert np.max(np.abs(grid.delta[idx] - ref)) <= 1e-11


@pytest.mark.parametrize("omega_c, m, n_T", [
    pytest.param(3.0, 1, None, id="3.0-1"), pytest.param(3.0, 2, None, id="3.0-2"),
    pytest.param(1.0, 1, None, id="1.0-1"),
    # beta omega_c = 4 pi - 5.7e-5 2 pi: the direct sums of the pair read 2.1e-10 here
    pytest.param(3.0, 2, 0.0154, id="3.0-2-0.0154")])
def test_ohmic_delta_is_smooth_through_a_matsubara_resonance(monkeypatch, omega_c, m, n_T):
    # beta omega_c = 2 pi m, n_T = 1/(e^{2 pi m/omega_c} - 1) at omega0 = 1: the cot pole and
    # pole m cancel.  At n_T (1 -+ e, 1, 1 + e) the second difference of Delta is roundoff while
    # the first is not; 1e-2 away, or at n_T, Delta matches matsubara_kc, whose pair is mpmath's
    monkeypatch.setattr(coefficients, "_kernels_on", None)  # the Matsubara sums throughout
    spec = make_spec(SpectralKind.OHMIC, omega_c)
    n_res = 1.0 / math.expm1(2.0 * math.pi * m / omega_c)
    assert make_env(n_T=n_res).beta * omega_c == pytest.approx(2.0 * math.pi * m, rel=1e-15, abs=0)

    def grid(n_T):
        return build_coefficient_grid(spec, make_env(n_T=n_T), T_MAX_RESONANT, QuadratureConfig())

    if n_T is None:
        below, at, above = (grid(n_res * (1.0 + e)).delta for e in (-1e-6, 0.0, 1e-6))
        assert np.max(np.abs(above + below - 2.0 * at)) <= 1e-14
        assert np.max(np.abs(above - below)) >= 1e-11
    else:
        assert make_env(n_T=n_T).beta * omega_c / (2.0 * math.pi) - m == pytest.approx(-5.7e-5,
                                                                                    rel=0.01)
    for n_T in [n_T] if n_T else (n_res * (1.0 - 1e-2), n_res * (1.0 + 1e-2)):
        env = make_env(n_T=n_T)
        near = grid(env.n_T)
        idx = np.unique(np.geomspace(1, len(near.times) - 1, 8).astype(int))
        ref = matsubara_delta_quad(spec, env, near.times[idx])
        assert np.max(np.abs(near.delta[idx] - ref)) <= 1e-11


@pytest.mark.parametrize("n_T, omega_c", [(10.0, 1.0), (1.0, 3.0), (0.1, 1.0)])
def test_ohmic_delta_pole_count_keeps_its_tail_bound(monkeypatch, n_T, omega_c):
    # the poles left out and each kept pole's cut prefix move Delta by at most
    # 2 _TAIL_TOL Delta(inf): checked against the sums at a 1000x smaller tolerance
    spec, env = make_spec(SpectralKind.OHMIC, omega_c), make_env(n_T=n_T)
    grid = build_coefficient_grid(spec, env, T_MAX_RESONANT, QuadratureConfig())
    counts = []
    monkeypatch.setattr(coefficients, "_kernels_on", None)  # the Matsubara sums, both times
    pole_transients = coefficients._pole_transients
    monkeypatch.setattr(coefficients, "_pole_transients",
                        lambda mu, *rest: counts.append(len(mu)) or pole_transients(mu, *rest))
    monkeypatch.setattr(coefficients, "_TAIL_TOL", 1e-3 * coefficients._TAIL_TOL)
    fine = build_coefficient_grid(spec, env, T_MAX_RESONANT, QuadratureConfig())
    d_inf = gamma_markov(spec, env) * (2.0 * n_T + 1.0)
    assert counts and np.max(np.abs(grid.delta - fine.delta)) <= 2e-10 * d_inf


@pytest.mark.parametrize("n_T, omega_c, transforms", [
    (0.0, 1.0, 1), (0.0, 3.0, 1),  # no Matsubara form: K_c needs exponential integrals
    (1e-6, 10.0, 1),  # poles crowded past _POLE_VALUES
    (1e-10, 3.0, 0), (1e-6, 1.0, 0), (1e-6, 0.1, 0), (0.01, 3.0, 0), (NT_HIGH, 1.0, 0)])
def test_ohmic_delta_takes_the_cosine_rule_only_without_matsubara_sums(monkeypatch, n_T,
                                                                       omega_c, transforms):
    # where the cosine rule runs, Delta is its cumulative trapezoid bit for bit
    calls = []

    def kernels(*rule_and_step):
        calls.append(1)
        return _kernels_on(*rule_and_step)

    monkeypatch.setattr(coefficients, "_kernels_on", kernels)
    spec, env = make_spec(SpectralKind.OHMIC, omega_c), make_env(n_T=n_T)
    grid = build_coefficient_grid(spec, env, T_MAX_RESONANT, QuadratureConfig())
    assert len(calls) == transforms
    if transforms:
        s, rq = grid.times, QuadratureConfig().resolve(spec, env)
        nodes, wc, _, width, k_ir = _omega_rule(spec, env, rq, float(s[-1]), 0)
        kc, _ = _kernels_on(nodes, wc, None, width, k_ir, s[-1] / (len(s) - 1), len(s))
        delta = env.alpha**2 * coefficients._cumtrapz(np.cos(env.omega0 * s) * kc, s)
        assert grid.delta.tobytes() == delta.tobytes()


@pytest.mark.parametrize("omega_c, n_T", [(3.0, 0.0154), (10.0, 0.1), (1.0, 1e-6)])
def test_ohmic_delta_route_does_not_depend_on_t_max(monkeypatch, omega_c, n_T):
    # the route is chosen from the bath and the step, so a short window sums the same poles
    # as a long one; equal to an ulp, not bit for bit
    monkeypatch.setattr(coefficients, "_kernels_on", None)  # the Matsubara sums, both windows
    spec, env = make_spec(SpectralKind.OHMIC, omega_c), make_env(n_T=n_T)
    short, long = (build_coefficient_grid(spec, env, t_max, QuadratureConfig()).delta
                   for t_max in (5.0, T_MAX_RESONANT))
    assert np.max(np.abs(short - long[:len(short)])) <= 1e-14


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
    assert g2.delta == pytest.approx(4.0 * g1.delta, rel=1e-13, abs=0)
    assert g2.gamma == pytest.approx(4.0 * g1.gamma, rel=1e-13, abs=0)


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


def test_delta_gamma_is_one_cumulative_trapezoid_below_the_block_span(resonant_grids):
    # Gamma stays far below the block span on every default grid: bit for bit the single
    # e^{-Gamma} int e^{Gamma} Delta trapezoid
    for _, _, grid in resonant_grids.values():
        assert np.max(np.abs(grid.big_gamma)) < coefficients._GAMMA_SPAN
        one = np.exp(-grid.big_gamma) * coefficients._cumtrapz(
            np.exp(grid.big_gamma) * grid.delta, grid.times)
        one[0] = 0.0
        assert np.array_equal(grid.delta_gamma, one)


def test_delta_gamma_stays_finite_once_gamma_passes_exp_overflow():
    # Gamma(t_max) = 841 > 709, where one e^{Gamma} trapezoid overflows: Delta_Gamma must
    # match the step recursion DG' = e^{-dG} DG + (h/2) (e^{-dG} Delta + Delta'), and the
    # channel must sample it
    spec, env = make_spec(SpectralKind.OHMIC), make_env(n_T=1.0, alpha=3.0)
    grid = build_coefficient_grid(spec, env, 120.0, QuadratureConfig())
    assert len(grid.times) == 19_100 and grid.big_gamma[-1] > 800.0
    decay = np.exp(-np.diff(grid.big_gamma)).tolist()
    half_h, d = (0.5 * np.diff(grid.times)).tolist(), grid.delta.tolist()
    ref = [0.0]
    for i, (e, hh) in enumerate(zip(decay, half_h)):
        ref.append(e * ref[-1] + hh * (e * d[i] + d[i + 1]))
    assert np.max(np.abs(grid.delta_gamma - ref)) <= 1e-13 * max(map(abs, ref))
    traj = simulate_trajectory(SymmetricCM(11.5, 10.0), mode=TrajectoryMode.NONMARKOVIAN,
                               t_max=120.0, n_samples=201, grid=grid, n_T=1.0)
    assert np.isfinite(traj.a).all() and traj.a[-1] == pytest.approx(1.5, rel=1e-3)


@pytest.mark.parametrize("name", ["times", "delta", "gamma", "big_gamma", "delta_gamma"])
def test_grid_rejects_non_finite_arrays(name):
    arrays = {k: np.zeros(5) for k in ("delta", "gamma", "big_gamma", "delta_gamma")}
    arrays["times"] = np.linspace(0.0, 1.0, 5)
    for bad in (math.nan, math.inf):
        arrays[name] = arrays[name].copy()
        arrays[name][-1] = bad
        with pytest.raises(ValueError, match=f"^{name} has non-finite values"):
            CoefficientGrid(**arrays, n_T=0.0)


def test_grid_rejects_inconsistent_arrays():
    def grid(**changes):
        arrays = {k: np.zeros(5) for k in ("delta", "gamma", "big_gamma", "delta_gamma")}
        arrays["times"] = np.linspace(0.0, 1.0, 5)
        return CoefficientGrid(**{**arrays, **changes}, n_T=0.0)

    for times in (np.linspace(0.5, 1.0, 5), np.array([0.0, 0.5, 0.5, 0.75, 1.0])):
        with pytest.raises(ValueError, match="^times must start at 0 and be strictly increasing"):
            grid(times=times)
    with pytest.raises(ValueError, match="^gamma length differs from times"):
        grid(gamma=np.zeros(4))
    with pytest.raises(ValueError, match=r"^delta_gamma\[0\] must be 0"):
        grid(delta_gamma=np.array([0.1, 0.0, 0.0, 0.0, 0.0]))
    # Gamma = int gamma may only fall where gamma < 0
    falling = np.array([0.0, 0.2, 0.1, 0.3, 0.4])
    with pytest.raises(ValueError, match="^big_gamma decreases on an interval where gamma >= 0"):
        grid(gamma=np.array([0.0, 0.4, 0.4, 0.4, 0.4]), big_gamma=falling)
    assert grid(gamma=np.array([0.0, 0.4, -0.4, 0.4, 0.4]), big_gamma=falling).t_max == 1.0


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
        assert np.max(np.abs(a - b)) / scale < 1e-4, name


def test_grid_interpolators_and_coverage(resonant_grids):
    _, env, grid = resonant_grids[SpectralKind.OHMIC]
    full, high_t = (Channel(mode, grid=grid)
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
    for name in ("times", "delta", "gamma", "big_gamma", "delta_gamma"):
        assert not getattr(grid, name).flags.writeable, name
    # the grid copies what it is given: the caller's arrays stay writeable and unshared
    times = np.linspace(0.0, 1.0, 5)
    mine = CoefficientGrid(times=times, delta=np.zeros(5), gamma=np.zeros(5),
                           big_gamma=np.zeros(5), delta_gamma=np.zeros(5), n_T=0.0)
    times[1] = 0.3
    assert times.flags.writeable and mine.times[1] == 0.25


# -------------------------------------------------------------- gamma_M

def test_gamma_markov_golden_rule(resonant_grids):
    # gamma_M = alpha^2 (pi/2) j(omega0): j(omega0) = 1/2 (Ohmic, super-Ohmic), 1 (white)
    weights = {SpectralKind.OHMIC: 0.5, SpectralKind.SUPER_OHMIC: 0.5,
               SpectralKind.WHITE_NOISE: 1.0}
    for kind, (spec, env, grid) in resonant_grids.items():
        gamma_m = gamma_markov(spec, env)
        assert gamma_m == pytest.approx(env.alpha**2 * 0.5 * math.pi * weights[kind], rel=1e-15,
                                        abs=0)
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
    assert bg[-1] == pytest.approx(math.log(2.0), rel=1e-15, abs=0)
    assert dg[-1] == pytest.approx(0.5, rel=1e-15, abs=0)
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
    q = QuadratureConfig(omega_max=10.0, s_step=0.01).resolve(spec, env)
    assert q.s_step == 0.01
    # NaN slips past `x <= 0` checks and inf past the step checks: both name their field
    for field in ("omega_max", "s_step"):
        for bad in (math.nan, math.inf):
            with pytest.raises(ConfigError, match=f"{field} must be finite and > 0"):
                QuadratureConfig(**{field: bad}).resolve(spec, env)


@pytest.mark.parametrize("kind", list(SpectralKind))
def test_default_build_runs_one_rule_and_one_transform(monkeypatch, kind):
    rules, transforms = [], []

    def rule(spec, env, rq, s_max, halvings):
        rules.append(halvings)
        return _omega_rule(spec, env, rq, s_max, halvings)

    def kernels(*rule_and_step):
        transforms.append(rule_and_step[-2:])
        return _kernels_on(*rule_and_step)

    monkeypatch.setattr(coefficients, "_omega_rule", rule)
    monkeypatch.setattr(coefficients, "_kernels_on", kernels)
    # the Ohmic Delta takes the rule at n_T = 0 only (its Matsubara sums at n_T > 0 run neither)
    if kind is SpectralKind.OHMIC:
        build_coefficient_grid(make_spec(kind), make_env(), T_MAX_RESONANT, QuadratureConfig())
        assert rules == transforms == []
    env = make_env(n_T=0.0 if kind is SpectralKind.OHMIC else NT_HIGH)
    grid = build_coefficient_grid(make_spec(kind), env, T_MAX_RESONANT, QuadratureConfig())
    # the transform's (ds, m) are the step and length of the grid's own s = n ds
    n = len(grid.times) - 1
    assert rules == [0] and transforms == [(grid.times[-1] / n, n + 1)]
    assert np.max(np.abs(grid.times - np.arange(n + 1) * transforms[0][0])) <= 1e-12 * grid.t_max


def build_peak(spec, env, t_max):
    """tracemalloc peak of one grid build, past what was held before it, after a first build
    has done any one-time set-up."""
    build_coefficient_grid(spec, env, t_max, QuadratureConfig())
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        build_coefficient_grid(spec, env, t_max, QuadratureConfig())
        return tracemalloc.get_traced_memory()[1] - held
    finally:
        if not tracing:
            tracemalloc.stop()


def test_default_tapered_build_holds_one_order_at_a_time():
    # tracemalloc peak of a default super-Ohmic build: 2.04 MiB with every order's chirp-z sums
    # and phases held at once, 0.95 MiB streaming one order through one buffer, 0.73 MiB on
    # 6-point panels twice as wide
    peak = build_peak(make_spec(SpectralKind.SUPER_OHMIC), make_env(), T_MAX_RESONANT)
    assert peak <= 1.2 * 2**20, peak


def test_heaviest_matsubara_build_stays_within_the_pole_cap(monkeypatch):
    # omega_c = 3 at n_T = 1e-20, where the poles crowd most of the baths the cap admits:
    # 0.71 M of its 1.05 M values, 24.9 MiB as one flat array, 6.1 MiB summed in blocks of
    # _POLE_BLOCK values
    monkeypatch.setattr(coefficients, "_kernels_on", None)  # the Matsubara sums
    spec, env = make_spec(SpectralKind.OHMIC, 3.0), make_env(n_T=1e-20)
    peak = build_peak(spec, env, T_MAX_RESONANT)
    assert peak <= 8 * 2**20, peak


@pytest.mark.parametrize("block", [7, 1000])
def test_matsubara_pole_blocks_move_delta_by_roundoff_only(monkeypatch, block):
    # n_T = 1: 138 poles, 5,326 prefix values, one block by default.  Blocks of 7 split prefixes
    # and blocks of 1,000 hold many poles, so only the order of the sums changes
    spec, env = make_spec(SpectralKind.OHMIC), make_env(n_T=1.0)
    one = build_coefficient_grid(spec, env, T_MAX_RESONANT, QuadratureConfig())
    monkeypatch.setattr(coefficients, "_POLE_BLOCK", block)
    split = build_coefficient_grid(spec, env, T_MAX_RESONANT, QuadratureConfig())
    assert np.max(np.abs(split.delta - one.delta)) <= 1e-15 * np.max(one.delta)


def test_grid_rule_matches_the_half_width_rule():
    # level 0 (the grids' rule) against level 1 (panels half as wide), relative to max|K|, to
    # roundoff on every spectrum: the UV taper's kink at omega_max/10 is a panel edge (it lay
    # inside a panel, 3.8e-6 off at omega_max = 11 x scale), the chirp's arguments are reduced
    # mod 2 pi (their plain product put 1.1e-13 on Ohmic omega_c = 3), and the width keeps a
    # quarter of coth's first pole distance (4e-11 on Ohmic omega_c = 10 at n_T = 1e-20).
    # omega_c = 10 at n_T <= 1e-6 is where the Ohmic Delta takes this rule at n_T > 0
    cases = [*itertools.product(SpectralKind, (0.1, 1.0, 3.0), (0.0, 10.0), (2.0, 25.0),
                                (None, 11.0)),
             *itertools.product([SpectralKind.OHMIC], [10.0], (1e-20, 1e-6), (2.0, 25.0),
                                (None, 11.0))]
    for kind, omega_c, n_T, t_max, omega_max in cases:
        spec, env = make_spec(kind, omega_c), make_env(n_T=n_T)
        scale = max(env.omega0, omega_c)
        rq = QuadratureConfig(omega_max and omega_max * scale).resolve(spec, env)
        s = np.arange(int(math.ceil(t_max / rq.s_step - 1e-9)) + 1) * rq.s_step
        level0, level1 = (_kernels_on(*_omega_rule(spec, env, rq, float(s[-1]), h),
                                      rq.s_step, len(s)) for h in (0, 1))
        gap = max(np.max(np.abs(a - b)) / np.max(np.abs(b)) for a, b in zip(level0, level1))
        assert gap <= 1e-13, (kind, omega_c, n_T, t_max, omega_max, gap)


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
