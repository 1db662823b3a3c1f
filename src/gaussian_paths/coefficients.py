"""Time-dependent diffusion and damping coefficients by numerical quadrature.

The two master-equation coefficients are double integrals

    Delta(t) = alpha^2 int_0^t ds int_0^inf dw j(w) coth(w*beta/2) cos(w s) cos(omega0 s)
    gamma(t) = alpha^2 int_0^t ds int_0^inf dw j(w) sin(w s) sin(omega0 s)

The frequency integral is done first (the omega0 oscillation factors out
of it), with composite Gauss-Legendre panels narrow enough to resolve
cos(w s) at the largest s requested; the remaining s integral is a
cumulative trapezoid.  On a uniform s grid the nodes of the uniform
panels, o_k + j*W, make each Gauss-Legendre order's cosine/sine sum one
Bluestein chirp-z transform (Bluestein 1970; Rabiner, Schafer & Rader
1969) on ``numpy.fft``, O((panels + N_s) log) rather than an
O(nodes * N_s) trig matrix.  A grid transforms one rule, its accuracy fixed
a priori by the width bound W <= min(omega0, omega_c)/4, pi/(4 s_max): the
rule with panels half as wide moves its kernels by at most 3.5e-14 of max|K|
on the Ohmic spectrum (4.8e-14 over omega_max = 10, 11, ..., 50 times
max(omega0, omega_c)) and by 1.1e-8 at the default omega_max and 3.8e-6 at
11 times that scale on the super-Ohmic and white-noise spectra, whose UV
taper has a kink at omega_max/10.  Each order's phase e^{i o_k s} is the
product of two small tables, one entry per 64-sample block and one per
offset within a block, so no exponential is taken per sample.  White noise
starts its panels at the infrared cutoff w_ir, where j coth(w beta/2) ~
2 j/(beta w): on the first panel cos(w s)/w = (cos(w s) - 1)/w + 1/w, the
first part smooth (w s <= pi/4 there by the width bound) and the second
independent of s, so the rule's whole error on it is the constant
k_ir = (2 j(w_ir)/beta) [log1p(W/w_ir) - sum_k wt_k/w_k], added to K_c.
The Ohmic j = w omega_c^2/(w^2 + omega_c^2) is odd in w, so its sine kernel
needs no quadrature: K_s(s) = (pi/2) omega_c^2 e^{-omega_c s} exactly for s > 0, at every
temperature, and the Ohmic build forms no sine sums.  That puts the default grid's gamma
within 6.2e-8 of its closed form, a residual set by the s step alone and independent of
omega_max.  The Ohmic K_c stays band-limited: its tail carries coth(beta w/2) and a log
singularity at s = 0 that the s trapezoid cannot sample.  On the default grid its Delta
misses the Matsubara closed form by up to 1.2e-4 near t = 2-4 s steps; added with the grid's
trapezoid, the tail moves Delta(25) by -9.0e-7 (ROADMAP item 12).  Super-Ohmic and white
noise are tapered to 0 at omega_max and stay band-limited in both kernels.
From the sampled curves the accumulated damping
Gamma(t) = int_0^t gamma and the effective diffusion
Delta_Gamma(t) = e^{-Gamma(t)} int_0^t e^{Gamma(s)} Delta(s) ds follow by
further cumulative trapezoids on the same grid, the latter in blocks over which
Gamma moves by at most ~600, so that e^{Gamma} cannot overflow.

The Markovian damping rate needs no grid: it is the t -> infinity
(golden-rule) limit of gamma(t), gamma_M = alpha^2 (pi/2) j(omega0)
(Maniscalco, Piilo, Intravaia, Petruccione & Messina, PRA 70, 032113,
2004), taken in closed form.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import IO

import numpy as np
from numpy.fft import fft, ifft

from ._csv import _write_rows
from .spectral_env import Environment, SpectralDensity, SpectralKind, evaluate_j, thermal_weight

__all__ = [
    "QuadratureConfig",
    "CoefficientGrid",
    "ConfigError",
    "build_coefficient_grid",
    "gamma_markov",
    "write_coefficients_csv",
]

GL_ORDER = 8  # Gauss-Legendre nodes per frequency panel
# leggauss(GL_ORDER) on [-1, 1], mirrored from literals: the import skips numpy.polynomial
_GL_X = (0.18343464249564978, 0.525532409916329, 0.7966664774136267, 0.9602898564975362)
_GL_W = (0.36268378337836166, 0.3137066458778869, 0.22238103445337443, 0.10122853629037706)
GL_NODES, GL_WEIGHTS = np.array([[-x for x in reversed(_GL_X)] + [*_GL_X], _GL_W[::-1] + _GL_W])
_PHASE_BLOCK = 64  # samples per entry of _phases' coarse table
_GAMMA_SPAN = 600.0  # largest move of Gamma within one Delta_Gamma block (e^709 overflows)


class ConfigError(ValueError):
    """Invalid numerical configuration."""


@dataclass(frozen=True)
class QuadratureConfig:
    """Numerical knobs for the coefficient integrals.

    ``None`` fields are resolved from the spectrum/environment scales:
    omega_max = 50 * max(omega0, omega_c) and s_step = 2*pi / (20 * omega_max),
    the coarsest step allowed.  The grid is sampled at s_step.
    """

    omega_max: float | None = None
    s_step: float | None = None

    def __post_init__(self):
        for name in ("omega_max", "s_step"):
            if (value := getattr(self, name)) is not None and not 0 < value < math.inf:
                raise ConfigError(f"{name} must be finite and > 0, got {value}")

    def resolve(self, spec: SpectralDensity, env: Environment) -> "QuadratureConfig":
        """A copy with omega_max and s_step filled in and checked."""
        scale = max(env.omega0, spec.omega_c)
        omega_max = self.omega_max if self.omega_max is not None else 50.0 * scale
        if omega_max < 10.0 * scale:
            raise ConfigError(
                f"omega_max = {omega_max} violates omega_max >= 10*max(omega0, omega_c) = {10*scale}"
            )
        s_cap = 2.0 * math.pi / (20.0 * omega_max)
        s_step = self.s_step if self.s_step is not None else s_cap
        if s_step > s_cap * (1 + 1e-12):
            raise ConfigError(
                f"s_step = {s_step} too coarse for oscillation resolution; must be <= {s_cap}"
            )
        return replace(self, omega_max=omega_max, s_step=s_step)


@dataclass(frozen=True, eq=False)
class CoefficientGrid:
    """Sampled Delta, gamma, Gamma and Delta_Gamma on a uniform time grid, kept as read-only
    float copies so that nothing derived from them can go stale, and the bath n_T they were
    built for, which a grid Channel reads; compared by identity."""

    times: np.ndarray
    delta: np.ndarray
    gamma: np.ndarray
    big_gamma: np.ndarray
    delta_gamma: np.ndarray
    n_T: float

    def __post_init__(self):
        for name in ("times", "delta", "gamma", "big_gamma", "delta_gamma"):
            object.__setattr__(self, name, value := np.array(getattr(self, name), dtype=float))
            value.flags.writeable = False
            if not np.isfinite(value).all():
                raise ValueError(f"{name} has non-finite values")
        n = len(self.times)
        if n < 2 or self.times[0] != 0.0 or np.any(np.diff(self.times) <= 0):
            raise ValueError("times must start at 0 and be strictly increasing")
        for name in ("delta", "gamma", "big_gamma", "delta_gamma"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"{name} length differs from times")
            if getattr(self, name)[0] != 0.0:
                raise ValueError(f"{name}[0] must be 0")
        # Gamma must accumulate monotonically wherever gamma >= 0
        g = self.gamma
        pos = (g[:-1] >= 0) & (g[1:] >= 0)
        slack = 1e-14 * max(1.0, float(np.max(np.abs(self.big_gamma))))
        if np.any(np.diff(self.big_gamma)[pos] < -slack):
            raise ValueError("big_gamma decreases on an interval where gamma >= 0")

    @property
    def t_max(self) -> float:
        return float(self.times[-1])

    def _interp(self, t, values: np.ndarray) -> np.ndarray:
        t = np.atleast_1d(np.asarray(t, float))
        if (t < 0).any() or (t > self.t_max * (1 + 1e-12)).any():
            raise ValueError(f"grid covers [0, {self.t_max}] but was asked for t in "
                             f"[{float(np.min(t))}, {float(np.max(t))}]")
        return np.interp(t, self.times, values)


def _cumtrapz(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    out = np.zeros_like(y)
    out[1:] = np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(x))
    return out


def _effective_diffusion(delta: np.ndarray, big_gamma: np.ndarray,
                         times: np.ndarray) -> np.ndarray:
    """Delta_Gamma(t) = e^{-Gamma(t)} int_0^t e^{Gamma(s)} Delta(s) ds by cumulative trapezoid.

    e^{Gamma} overflows once Gamma passes ~709, so the integral is taken in blocks,
    each ending at the first sample where Gamma has moved by _GAMMA_SPAN from the
    block's first sample g0: there Delta_Gamma = e^{-(Gamma - g0)} [Delta_Gamma(t0) +
    int_t0^t e^{Gamma - g0} Delta].  Every exponent stays within _GAMMA_SPAN plus one
    step, and a grid whose Gamma stays below _GAMMA_SPAN is one block, the single
    cumulative trapezoid over [0, t].
    """
    out = np.empty_like(delta)
    start, last = 0, len(times) - 1
    while start < last:
        moved = np.abs(big_gamma[start + 1:] - big_gamma[start]) >= _GAMMA_SPAN
        stop = start + 1 + int(np.argmax(moved)) if moved.any() else last
        g = big_gamma[start:stop + 1] - big_gamma[start]
        acc = _cumtrapz(np.exp(g) * delta[start:stop + 1], times[start:stop + 1])
        if start:
            acc += out[start]
        out[start:stop + 1] = np.exp(-g) * acc
        start = stop
    out[0] = 0.0
    return out


def _panel_edges(spec: SpectralDensity, env: Environment, rq: QuadratureConfig,
                 s_max: float, halvings: int) -> np.ndarray:
    """Uniform composite panel edges on [w_ir or 0, omega_max].

    Width bounded by the spectral structure scale min(omega0, omega_c)/4 and by the
    oscillation bound pi/(4*s_max), over 2**halvings (0 on grids, 1 the tests' finer
    reference); white noise starts at its infrared cutoff.
    """
    width = min(min(env.omega0, spec.omega_c) / 4.0,
                math.pi / (4.0 * max(s_max, 1e-12)))
    width /= 2.0 ** halvings
    lo = 0.0
    if spec.kind is SpectralKind.WHITE_NOISE:
        lo = spec.resolved_ir_cutoff(env.omega0)
        if lo >= rq.omega_max:
            raise ConfigError("ir_cutoff must be below omega_max")
    n = max(1, int(math.ceil((rq.omega_max - lo) / width)))
    return np.linspace(lo, rq.omega_max, n + 1)


def _omega_rule(spec: SpectralDensity, env: Environment, rq: QuadratureConfig, s_max: float,
                halvings: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, float, float]:
    """Gauss-Legendre nodes plus weighted integrand factors, shaped (panels, GL_ORDER).

    Returns (nodes, wc, ws, width, k_ir) with wc = w * j(w) * coth(w beta/2) * taper
    and ws = w * j(w) * taper, so the kernels are plain cosine/sine sums;
    nodes[j, k] = nodes[0, k] + j * width.  On the first white-noise panel
    the 2 j/(beta w) part of wc/w times cos(w s) is (cos(w s) - 1)/w, smooth
    as w s <= pi/4, plus 1/w: k_ir is the rule's s-independent error on 1/w
    (0 for the other spectra and at zero temperature).
    """
    edges = _panel_edges(spec, env, rq, s_max, halvings)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = mid[:, None] + half[:, None] * GL_NODES[None, :]
    wts = half[:, None] * GL_WEIGHTS[None, :]
    g = np.asarray(evaluate_j(spec, nodes.ravel()), float).reshape(nodes.shape)
    # saturating tails (super-Ohmic, white) decay only through oscillation:
    # linearly damp the last decade of the range to suppress truncation ringing
    if spec.kind in (SpectralKind.SUPER_OHMIC, SpectralKind.WHITE_NOISE):
        start = rq.omega_max / 10.0
        g = g * np.clip((rq.omega_max - nodes) / (rq.omega_max - start), 0.0, 1.0)
    therm = thermal_weight(env, nodes)
    width = (edges[-1] - edges[0]) / (len(edges) - 1)
    k_ir = 0.0
    if spec.kind is SpectralKind.WHITE_NOISE and math.isfinite(env.beta):
        k_ir = 2.0 * evaluate_j(spec, edges[0]) / env.beta * (
            math.log1p(width / edges[0]) - np.sum(wts[0] / nodes[0]))
    return nodes, wts * g * therm, wts * g, width, k_ir


def _fast_len(n: int) -> int:
    """Smallest 2^a 3^b 5^c 7^d 11^e >= n, a length pocketfft transforms fast.

    k divides 2310^64 = (2*3*5*7*11)^64 exactly when k has no prime
    factor above 11 (every exponent of a k < 2^64 is below 64).
    """
    k = n
    while pow(2310, 64, k):
        k += 1
    return k


def _phases(o: np.ndarray, ds: float, m: int) -> np.ndarray:
    """exp(i o_k n ds) for n < m, shaped (len(o), m): with n = _PHASE_BLOCK b + r, the
    product of a table over the ceil(m/_PHASE_BLOCK) blocks b and one over the offsets
    r, so an order costs m/_PHASE_BLOCK + _PHASE_BLOCK exponentials rather than m, none
    with an argument beyond o_k (m - 1) ds."""
    blocks = np.exp(1j * (_PHASE_BLOCK * ds) * np.outer(o, np.arange(-(-m // _PHASE_BLOCK))))
    offsets = np.exp(1j * ds * np.outer(o, np.arange(_PHASE_BLOCK)))
    return (blocks[:, :, None] * offsets[:, None, :]).reshape(len(o), -1)[:, :m]


def _chirp_sums(a: np.ndarray, c: np.ndarray, spectrum: np.ndarray,
                post: np.ndarray) -> np.ndarray:
    """post[k, n] * sum_j a[k, j] exp(i j width n ds) for n < m = post.shape[1]: as
    j n = (j^2 + n^2 - (n - j)^2) / 2, a convolution with the chirp
    c_j = exp(i width ds j^2 / 2), done by FFT (Bluestein chirp-z) in O((P + m) log).
    spectrum is the transform of the conjugate chirp's zero-padded window, and post
    carries the chirp's c_n."""
    p, m = a.shape[-1], post.shape[-1]
    # one zero-padded buffer transformed in place: allocating a fresh (rows, n)
    # array for each step costs about as much as a transform
    buf = np.zeros(a.shape[:-1] + spectrum.shape, complex)
    np.multiply(a, c[:p], out=buf[..., :p])
    fft(buf, out=buf)
    buf *= spectrum
    sums = ifft(buf, out=buf)[..., :m]
    return np.multiply(post, sums, out=sums)


def _kernels_on(nodes: np.ndarray, wc: np.ndarray, ws: np.ndarray | None, width: float,
                k_ir: float, ds: float, m: int) -> tuple[np.ndarray, np.ndarray | None]:
    """K_c(s) = sum wc cos(w s) + k_ir, K_s(s) = sum ws sin(w s) at s = n ds, n < m; K_s is
    None where ws is, and no sine sums are formed.

    Column k of nodes is o_k + j*width, so its sum is
    exp(i o_k s) * sum_j wt_jk exp(i j width s): a batched chirp-z transform
    over the orders for each weight set, in O(GL_ORDER * (panels + len(s)) log).
    The phase exp(i o_k s) comes from _phases' two small tables and is folded into
    the chirp's post-factor once per order; only Re of the cosine sums and Im of
    the sine sums is formed.  k_ir is _omega_rule's infrared constant.
    """
    p = len(nodes)
    n = _fast_len(p + m - 1)
    c = np.exp(0.5j * width * ds * np.arange(max(p, m), dtype=float) ** 2)
    spectrum = fft(np.concatenate([c[:m], np.zeros(n - m - p + 1), c[p - 1:0:-1]]).conj())
    post = _phases(nodes[0], ds, m)
    post *= c[:m]
    Kc = _chirp_sums(wc.T, c, spectrum, post).real.sum(axis=0) + k_ir
    Ks = None if ws is None else _chirp_sums(ws.T, c, spectrum, post).imag.sum(axis=0)
    return Kc, Ks


def _coefficient_curves(spec: SpectralDensity, env: Environment, s: np.ndarray, ds: float,
                        rq: QuadratureConfig) -> tuple[np.ndarray, np.ndarray]:
    """Delta(t), gamma(t) on the uniform grid s = n ds from the one panel rule (level 0), with no
    runtime probe: its width bound fixes the accuracy (module docstring for the measured gap
    to level 1, at most 3.8e-6 of max|K|, from the UV taper's kink).  The Ohmic K_s is exact,
    (pi/2) omega_c^2 e^{-omega_c s} for s > 0 and 0 at s = 0; K_c and the tapered spectra
    stay band-limited."""
    if env.alpha == 0.0:
        z = np.zeros_like(s)
        return z, z.copy()
    a2 = env.alpha**2
    nodes, wc, ws, width, k_ir = _omega_rule(spec, env, rq, float(s[-1]), 0)
    ohmic = spec.kind is SpectralKind.OHMIC
    Kc, Ks = _kernels_on(nodes, wc, None if ohmic else ws, width, k_ir, ds, len(s))
    if ohmic:  # j is odd in w, so K_s is one exponential
        Ks = np.zeros_like(s)
        Ks[1:] = 0.5 * math.pi * spec.omega_c**2 * np.exp(-spec.omega_c * s[1:])
    d = a2 * _cumtrapz(np.cos(env.omega0 * s) * Kc, s)
    g = a2 * _cumtrapz(np.sin(env.omega0 * s) * Ks, s)
    return d, g


def build_coefficient_grid(spec: SpectralDensity, env: Environment, t_max: float,
                           q: QuadratureConfig) -> CoefficientGrid:
    """Sample Delta, gamma, Gamma, Delta_Gamma on a uniform grid covering [0, t_max]."""
    if not 0 < t_max < math.inf:
        raise ValueError(f"t_max must be finite and > 0, got {t_max}")
    rq = q.resolve(spec, env)
    n = max(1, int(math.ceil(t_max / rq.s_step - 1e-9)))
    times = np.arange(n + 1) * rq.s_step
    delta, gamma = _coefficient_curves(spec, env, times, times[-1] / n, rq)
    big_gamma = _cumtrapz(gamma, times)
    delta_gamma = _effective_diffusion(delta, big_gamma, times)
    return CoefficientGrid(times=times, delta=delta, gamma=gamma,
                           big_gamma=big_gamma, delta_gamma=delta_gamma, n_T=env.n_T)


def gamma_markov(spec: SpectralDensity, env: Environment) -> float:
    """Markovian damping rate gamma_M = alpha^2 (pi/2) j(omega0), the golden-rule
    t -> infinity limit of gamma(t); 0 at zero coupling."""
    return env.alpha**2 * 0.5 * math.pi * evaluate_j(spec, env.omega0)


def write_coefficients_csv(grid: CoefficientGrid, stream: IO[str]) -> None:
    """CSV export: t,delta,gamma,big_gamma,delta_gamma per grid time.
    Values are the bytes of ``'%.17g' % v``, made in row blocks by the ``_csv`` kernel:
    digits from a Dekker product exact to 1e-14, and ``%`` itself for near ties (fraction
    within 1e-6 of 1/2), NaN, inf, subnormals and the values outside the kernel's range."""
    stream.write("t,delta,gamma,big_gamma,delta_gamma\n")
    _write_rows(stream, (grid.times, grid.delta, grid.gamma, grid.big_gamma, grid.delta_gamma))
