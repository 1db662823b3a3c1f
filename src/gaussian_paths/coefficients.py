"""Time-dependent diffusion and damping coefficients, by quadrature or in closed form.

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
O(nodes * N_s) trig matrix.  A grid transforms one rule, 6-point
Gauss-Legendre on a multiple of 10 panels, so that the super-Ohmic and
white-noise UV taper's kink at omega_max/10 is a panel edge (for white noise
0.9 w_ir above it), its accuracy fixed a priori by the width bound
W <= min(omega0, omega_c, nu_1)/4, pi/(2 s_max), nu_1 = 2 pi/beta: the rule
with panels half as wide moves its kernels by at most 5.2e-14 of max|K| on
every spectrum (6.6e-15 over omega_max = 10, 11, ..., 50 times
max(omega0, omega_c)), roundoff.  The chirp's arguments are reduced mod
2 pi before the exponential (_chirp).  Each order's phase e^{i o_k s} is the
product of two small tables, one entry per 64-sample block and one per
offset within a block, so no exponential is taken per sample.  The orders
stream through one transform buffer: a build holds one order's sums at a
time, one row of them at zero temperature, where the cosine and sine
weights are one array.  White noise starts its panels
at the infrared cutoff w_ir, where j coth(w beta/2) ~ 2 j/(beta w): below the
kink cos(w s)/w = (cos(w s) - 1)/w + 1/w, the first part smooth (w s <= pi/2
on the first panel by the width bound) and the second independent of s, so
the rule's whole error on it is the constant
k_ir = (2 j(w_ir)/beta) [ln(w_K/w_ir) - sum wt/w], w_K the edge at the kink
and the sum over the panels below it, added to K_c.
The Ohmic (Drude-Lorentz) j = w omega_c^2/(w^2 + omega_c^2) needs no quadrature.  It is odd
in w, so K_s(s) = (pi/2) omega_c^2 e^{-omega_c s} exactly for s > 0, at every temperature, and
gamma(t) and Gamma(t) are its closed forms, exact on any grid.  At n_T > 0, j coth(beta w/2)
is even, and with the Matsubara frequencies nu_k = 2 pi k/beta (Ishizaki & Tanimura, J. Phys.
Soc. Jpn. 74, 3131, 2005)

    K_c(s) = (pi/2) wc^2 cot(beta wc/2) e^{-wc s} - wc^2 ln(1 - e^{-nu_1 s})
             + (2 pi wc^4/beta) sum_k e^{-nu_k s}/(nu_k (nu_k^2 - wc^2)),

the logarithm summing the poles' 1/nu_k parts so that the rest falls as 1/k^3.  Its Delta has
no s trapezoid: every pole is integrated against cos(omega0 s) exactly, and ln(nu_1 s) as
[ln(nu_1 t) sin(omega0 t) - Si(omega0 t)]/omega0, with Si a fitted numpy rational; only the
smooth rest of the log term, ln((1 - e^{-u})/u), takes 4-point Gauss-Legendre on each step.  A
pole or the log term moves Delta only while nu t < 40 (e^{-40} < 5e-18), so each is summed on
its own prefix of samples and is a constant past it, and the pole count is fixed a priori by a
bound on the tail's share of Delta (_matsubara_delta).  On the default grid that is 10 poles,
and Delta lies within 3e-13 of scipy quad of a 4000-pole K_c; the band-limited Delta missed it
by up to 1.2e-4 near t = 2-4 s steps.  At very low n_T the poles crowd (nu_1 -> 0) and are
summed _POLE_BLOCK prefix values at a time; where their prefixes, counted without the window,
would total more than _POLE_VALUES, and at n_T = 0, whose K_c needs exponential integrals, the
Ohmic Delta keeps the band-limited cosine rule: its route depends on the bath and the step,
never on t_max.  Super-Ohmic and white noise are tapered to 0 at omega_max and stay
band-limited in both kernels.
From the sampled curves the accumulated damping
Gamma(t) = int_0^t gamma (the Ohmic one in closed form) and the effective diffusion
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

GL_ORDER = 6  # Gauss-Legendre nodes per frequency panel
# leggauss(GL_ORDER) on [-1, 1], mirrored from literals: the import skips numpy.polynomial
_GL_X = (0.2386191860831969, 0.6612093864662645, 0.9324695142031519)
_GL_W = (0.46791393457269104, 0.3607615730481387, 0.17132449237917027)
GL_NODES, GL_WEIGHTS = np.array([[-x for x in reversed(_GL_X)] + [*_GL_X], _GL_W[::-1] + _GL_W])
# leggauss(4), for the smooth part of the Ohmic log term on each s step
_GL4_X = (0.33998104358485626, 0.8611363115940526)
_GL4_W = (0.6521451548625464, 0.34785484513745357)
_GL4_NODES, _GL4_WEIGHTS = np.array([[-x for x in reversed(_GL4_X)] + [*_GL4_X],
                                     _GL4_W[::-1] + _GL4_W])
_KINK_PANELS = 10  # the UV taper's kink at omega_max/10 is an edge: panel counts are multiples
_PHASE_BLOCK = 64  # samples per entry of _phases' block table, entries of its offset table
# 2 pi = _TAU_1 + _TAU_2 + _TAU_3 to 1.7e-34 (Cody & Waite 1980): the first two carry 30 bits each,
# so k times either is exact for k < 2^23
_TAU_1, _TAU_2, _TAU_3 = 6.283185303211212, 3.9683743166540886e-09, 2.068073192717642e-18
_GAMMA_SPAN = 600.0  # largest move of Gamma within one Delta_Gamma block (e^709 overflows)
_POLE_SPAN = 40.0  # past mu s = 40 a pole's e^{-mu s} < 5e-18: it is its constant
_TAIL_TOL = 1e-10  # bound on the dropped Matsubara poles' part of Delta, relative to Delta(inf)
_POLE_VALUES = 1 << 20  # most values the Ohmic Delta's pole prefixes may total (bounds its time)
_POLE_BLOCK = 1 << 16  # most of those values summed at once (bounds its memory)

# Si(x) = int_0^x sin(u)/u du by its Maclaurin series below x = 4 (17 terms; the first left out
# is 3.3e-21 at x = 4), and above it as pi/2 - F(t) cos(x)/x - G(t) sin(x)/x^2, t = 16/x^2 in
# (0, 1], with F = x f and G = x^2 g from the auxiliary functions f, g.  F and G are degree-10
# rationals P/Q in t, fitted at 50 digits with mpmath by iteratively reweighted least squares of
# the relative error on 160 Chebyshev nodes in t: 1.6e-17 (F) and 1.3e-16 (G) relative.  Every
# coefficient is positive, so Horner's rule on t >= 0 cancels nothing.
_SI_SERIES = tuple((-1) ** k / ((2 * k + 1) * math.factorial(2 * k + 1)) for k in range(17))
_SI_FP = (1.0, 58.00352187744834, 1217.9459224939742, 12022.020559090002, 60711.34334276802,
          160213.8244567153, 216755.5864972677, 141492.40025910106, 39322.62598511919,
          3557.1323828824497, 45.96725982191466)
_SI_FQ = (1.0, 58.128521877448264, 1225.118237728708, 12169.88657111495, 62127.3270015913,
          167021.8640710132, 233367.01757473222, 161342.3192257082, 49948.66936486908,
          5675.505298834962, 146.12016356945162)
_SI_GP = (0.9999999999999999, 64.76935995528964, 1523.747009086653, 16895.64155267198,
          95984.13126885016, 284796.2010094157, 431631.98246641306, 312789.84676847083,
          94579.45752570555, 8813.190281573845, 79.51100521606537)
_SI_GQ = (1.0, 65.144359955289, 1547.7073940703967, 17446.72587530969, 101875.78664803237,
          316403.2270209856, 517535.71733443416, 426896.5261235869, 162443.83588684024,
          23931.406710483105, 902.0642455289048)


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


def _polyval(coeffs: tuple[float, ...], t: np.ndarray) -> np.ndarray:
    """sum_k coeffs[k] t^k by Horner's rule."""
    acc = np.full_like(t, coeffs[-1])
    for c in coeffs[-2::-1]:
        acc *= t
        acc += c
    return acc


def _si(x: np.ndarray) -> np.ndarray:
    """The sine integral Si(x) for x >= 0, within 1.2e-15 of scipy.special.sici on [0, 2000]."""
    out = np.empty_like(x)
    low = x < 4.0
    xl, xh = x[low], x[~low]
    out[low] = xl * _polyval(_SI_SERIES, xl * xl)
    t = 16.0 / (xh * xh)
    out[~low] = 0.5 * math.pi - (_polyval(_SI_FP, t) / _polyval(_SI_FQ, t) * np.cos(xh)
                                 + _polyval(_SI_GP, t) / _polyval(_SI_GQ, t) * np.sin(xh) / xh) / xh
    return out


def _panel_edges(spec: SpectralDensity, env: Environment, rq: QuadratureConfig,
                 s_max: float, halvings: int) -> np.ndarray:
    """Uniform composite panel edges on [w_ir or 0, omega_max].

    Width bounded by the spectral structure scale min(omega0, omega_c, nu_1)/4, nu_1 = 2 pi/beta
    the distance of coth(w beta/2)'s first pole from the real axis, and by the oscillation
    bound pi/(2*s_max), over 2**halvings (0 on grids, 1 the tests' finer reference); white
    noise starts at its infrared cutoff.  The panel count n is a multiple of _KINK_PANELS, so
    that edge n/_KINK_PANELS falls on the UV taper's kink at omega_max/_KINK_PANELS (for white
    noise 0.9 w_ir above it).
    """
    nu_1 = 2.0 * math.pi / env.beta if math.isfinite(env.beta) else math.inf  # coth's poles
    width = min(min(env.omega0, spec.omega_c, nu_1) / 4.0, math.pi / (2.0 * max(s_max, 1e-12)))
    width /= 2.0 ** halvings
    lo = 0.0
    if spec.kind is SpectralKind.WHITE_NOISE:
        lo = spec.resolved_ir_cutoff(env.omega0)
        if lo >= rq.omega_max:
            raise ConfigError("ir_cutoff must be below omega_max")
    n = _KINK_PANELS * max(1, math.ceil((rq.omega_max - lo) / (_KINK_PANELS * width)))
    return np.linspace(lo, rq.omega_max, n + 1)


def _omega_rule(spec: SpectralDensity, env: Environment, rq: QuadratureConfig, s_max: float,
                halvings: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, float, float]:
    """Gauss-Legendre nodes plus weighted integrand factors, shaped (panels, GL_ORDER).

    Returns (nodes, wc, ws, width, k_ir) with wc = w * j(w) * coth(w beta/2) * taper
    and ws = w * j(w) * taper, so the kernels are plain cosine/sine sums;
    nodes[j, k] = nodes[0, k] + j * width.  At zero temperature coth is 1 and wc is ws,
    the one array.  On the white-noise panels below the taper's kink the 2 j/(beta w) part
    of wc/w times cos(w s) is (cos(w s) - 1)/w, smooth (w s <= pi/2 on the first panel),
    plus 1/w: k_ir is the rule's s-independent error on 1/w over those panels (0 for the
    other spectra and at zero temperature).
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
        start = rq.omega_max / _KINK_PANELS
        g *= np.clip((rq.omega_max - nodes) / (rq.omega_max - start), 0.0, 1.0)
    width = (edges[-1] - edges[0]) / (len(edges) - 1)
    ws = wts * g
    if not math.isfinite(env.beta):
        return nodes, ws, ws, width, 0.0
    k_ir = 0.0
    if spec.kind is SpectralKind.WHITE_NOISE:
        below = len(nodes) // _KINK_PANELS
        k_ir = 2.0 * evaluate_j(spec, edges[0]) / env.beta * (
            math.log1p((edges[below] - edges[0]) / edges[0]) - np.sum(wts[:below] / nodes[:below]))
    return nodes, ws * thermal_weight(env, nodes), ws, width, k_ir


def _fast_len(n: int) -> int:
    """Smallest 2^a 3^b 5^c 7^d 11^e >= n, a length pocketfft transforms fast.

    k divides 2310^64 = (2*3*5*7*11)^64 exactly when k has no prime
    factor above 11 (every exponent of a k < 2^64 is below 64).
    """
    k = n
    while pow(2310, 64, k):
        k += 1
    return k


def _phases(o: float, ds: float, m: int) -> np.ndarray:
    """exp(i o n ds) for n < m: with n = _PHASE_BLOCK b + r, the product of a table over the
    ceil(m/_PHASE_BLOCK) blocks b and one over the offsets r, so an order costs
    m/_PHASE_BLOCK + _PHASE_BLOCK exponentials rather than m, none with an argument beyond
    o (m - 1) ds."""
    blocks = np.exp(1j * (_PHASE_BLOCK * ds) * (o * np.arange(-(-m // _PHASE_BLOCK))))
    offsets = np.exp(1j * ds * (o * np.arange(_PHASE_BLOCK)))
    return np.multiply.outer(blocks, offsets).ravel()[:m]


def _chirp(theta: float, count: int) -> np.ndarray:
    """exp(i theta j^2) for j < count (below 2^26), each argument reduced mod 2 pi to within an
    ulp of its reduced value: theta = hi + lo with hi short enough that hi j^2 is exact, and the
    multiple k of 2 pi comes off hi j^2 in _TAU_1, _TAU_2, _TAU_3.  The plain product is off by
    an ulp of theta j^2, ~1e-12 rad at the far end of a default chirp, which outweighed the
    rule's own error."""
    j2 = np.arange(count, dtype=float) ** 2
    unit = math.ldexp(1.0, math.frexp(theta)[1] - 53 + 2 * (count - 1).bit_length())
    hi = round(theta / unit) * unit
    arg = hi * j2
    k = np.rint(arg / (2.0 * math.pi))
    arg -= k * _TAU_1
    arg -= k * _TAU_2
    arg -= k * _TAU_3
    arg += (theta - hi) * j2
    return np.exp(1j * arg)


def _kernels_on(nodes: np.ndarray, wc: np.ndarray, ws: np.ndarray | None, width: float,
                k_ir: float, ds: float, m: int) -> tuple[np.ndarray, np.ndarray | None]:
    """K_c(s) = sum wc cos(w s) + k_ir, K_s(s) = sum ws sin(w s) at s = n ds, n < m; K_s is
    None where ws is, and no sine sums are formed; k_ir is _omega_rule's infrared constant.
    Where ws is wc (zero temperature) one row's sums give both, Re and Im.

    Column k of nodes is o_k + j*width, so its sum is exp(i o_k s) sum_j wt_jk exp(i j width s),
    and as j n = (j^2 + n^2 - (n - j)^2)/2 the j sum is a convolution with the chirp
    c_j = exp(i width ds j^2/2), done by FFT (Bluestein chirp-z) in O((panels + m) log); spectrum
    is the transform of the conjugate chirp's zero-padded window.  The orders stream through one
    buffer transformed in place (a cosine row and, with a ws of its own, a sine row); each order's
    phase row (_phases) times c_n post-multiplies its sums, whose Re and Im add up in order index.
    """
    p = len(nodes)
    n = _fast_len(p + m - 1)
    c = _chirp(0.5 * width * ds, max(p, m))
    spectrum = fft(np.concatenate([c[:m], np.zeros(n - m - p + 1), c[p - 1:0:-1]]).conj())
    weights = (wc,) if ws is None or ws is wc else (wc, ws)
    buf = np.empty((len(weights), n), complex)
    # -0.0 + x is x, signed zeros included, so the sums add as sum(axis=0) adds from order 0
    Kc, Ks = np.full(m, -0.0), None if ws is None else np.full(m, -0.0)
    for k in range(GL_ORDER):
        for row, w in zip(buf, weights):
            np.multiply(w[:, k], c[:p], out=row[:p])
        buf[:, p:] = 0.0
        fft(buf, out=buf)
        buf *= spectrum
        sums = ifft(buf, out=buf)[:, :m]
        post = _phases(nodes[0, k], ds, m)
        post *= c[:m]
        np.multiply(post, sums, out=sums)
        Kc += sums[0].real
        if Ks is not None:
            Ks += sums[-1].imag
    Kc += k_ir
    return Kc, Ks


def _ohmic_damping(spec: SpectralDensity, env: Environment,
                   s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ohmic gamma(t) and Gamma(t) = int_0^t gamma in closed form, at every temperature: from
    K_s = (pi/2) wc^2 e^{-wc s}, gamma = alpha^2 (pi/2) wc^2 [w0 - e^{-wc t}(wc sin w0 t
    + w0 cos w0 t)]/(wc^2 + w0^2) (Maniscalco et al. 2004).  Both are exactly 0 at t = 0."""
    wc, w0 = spec.omega_c, env.omega0
    r2 = wc * wc + w0 * w0
    scale = env.alpha**2 * 0.5 * math.pi * wc * wc / r2
    decay, sin, cos = np.exp(-wc * s), np.sin(w0 * s), np.cos(w0 * s)
    gamma = scale * (w0 - decay * (wc * sin + w0 * cos))
    big_gamma = scale * (w0 * s - (2.0 * wc * w0 - decay * ((wc * wc - w0 * w0) * sin
                                                            + 2.0 * wc * w0 * cos)) / r2)
    return gamma, big_gamma


def _cot_minus_inv(y: float) -> float:
    """cot y - 1/y for |y| <= pi/2, by its Maclaurin series below |y| = 0.1 (0 at y = 0)."""
    if abs(y) < 0.1:
        y2 = y * y
        return -y * (1 / 3 + y2 * (1 / 45 + y2 * (2 / 945 + y2 * (1 / 4725 + y2 * 2 / 93555))))
    return 1.0 / math.tan(y) - 1.0 / y


def _pole_prefixes(mu: np.ndarray, c: np.ndarray, w0: float, ds: float, eps: float) -> np.ndarray:
    """How many samples each pole e^{-mu_j t} is summed on, on a grid of any length: its part
    still to come is at most |c_j|/|z_j| e^{-mu_j t}, z_j = mu_j - i w0, so until that falls
    below eps (and never past mu_j t = _POLE_SPAN), plus one sample."""
    with np.errstate(divide="ignore"):  # a pole of weight 0 takes the 2 samples
        span = np.clip(np.log(np.abs(c) / np.hypot(mu, w0) / eps), 0.0, _POLE_SPAN)
    return (np.floor(span / (mu * ds)) + 2.0).astype(int)


def _pole_transients(mu: np.ndarray, c: np.ndarray, counts: np.ndarray, w0: float,
                     s: np.ndarray) -> np.ndarray:
    """sum_j c_j Re[e^{-z_j t}/z_j], z_j = mu_j - i w0: what c_j int_0^t e^{-mu_j s} cos(w0 s) ds
    still lacks of its t -> inf value c_j mu_j/|z_j|^2, at t = s[n] for n < counts[j].  The
    poles' prefixes lie end to end in one flat index range, summed _POLE_BLOCK values at a time,
    so no (poles x samples) array is formed; the result is as long as the longest prefix."""
    ends = np.cumsum(counts)
    starts, total = ends - counts, int(ends[-1])
    weight = c / (mu - 1j * w0)
    cos_part, sin_part = np.zeros(counts.max()), np.zeros(counts.max())
    for lo in range(0, total, _POLE_BLOCK):
        hi = min(lo + _POLE_BLOCK, total)
        j = np.arange(np.searchsorted(ends, lo, "right"), np.searchsorted(ends, hi, "left") + 1)
        pole = np.repeat(j, np.minimum(ends[j], hi) - np.maximum(starts[j], lo))
        n = np.arange(lo, hi) - starts[pole]
        decay = np.exp(-mu[pole] * s[n])
        for part, w in ((cos_part, weight.real), (sin_part, weight.imag)):
            block = np.bincount(n, decay * w[pole])
            part[:len(block)] += block
    t = s[:len(cos_part)]
    return np.cos(w0 * t) * cos_part - np.sin(w0 * t) * sin_part


def _log_term(nu: float, w0: float, s: np.ndarray, ds: float) -> np.ndarray:
    """-int_0^t ln(1 - e^{-nu s}) cos(w0 s) ds on the samples with nu t < _POLE_SPAN, plus one.
    ln(1 - e^{-u}) = ln u + g(u), g(u) = ln((1 - e^{-u})/u) smooth: the ln u part is
    [ln(nu t) sin(w0 t) - Si(w0 t)]/w0 exactly, g takes 4-point Gauss-Legendre on each step,
    with cos(w0 s) at its nodes by angle addition from the step's start."""
    t = s[:min(len(s), int(_POLE_SPAN / (nu * ds)) + 2)]
    h = 0.5 * ds
    offsets = h * (1.0 + _GL4_NODES)
    u = (nu * t[:-1, None]) + nu * offsets
    g = np.log(-np.expm1(-u) / u)
    cos, sin = np.cos(w0 * t), np.sin(w0 * t)
    out = np.zeros_like(t)
    out[1:] = np.cumsum(cos[:-1] * (g @ (h * _GL4_WEIGHTS * np.cos(w0 * offsets)))
                        - sin[:-1] * (g @ (h * _GL4_WEIGHTS * np.sin(w0 * offsets))))
    out[1:] += (np.log(nu * t[1:]) * sin[1:] - _si(w0 * t[1:])) / w0
    return -out


def _matsubara_delta(spec: SpectralDensity, env: Environment, s: np.ndarray,
                     ds: float) -> np.ndarray | None:
    """Ohmic Delta(t)/alpha^2 at n_T > 0 from the Matsubara form of K_c (module docstring).

    Delta(inf) = alpha^2 (pi/2) j(w0) coth(beta w0/2), coth = 2 n_T + 1, less each term's part
    still to come: the poles' exactly (_pole_transients), the log term's as L(inf) - L(t) with
    L(inf) = (pi wc^2/2 w0)(coth - 2/(beta w0)) and L(t) = wc^2 _log_term.  The poles past K move
    Delta by at most wc^4 (4/9)/(nu_1^3 K^3) for K >= 2 wc/nu_1, and K keeps that below
    tol = _TAIL_TOL Delta(inf)/alpha^2; their constant is in Delta(inf), so only their early
    rise is left out.  Each kept pole stops once its part is below tol over the number of poles,
    so the error is at most 2 tol.
    The cot pole's weight A folds into pole m = round(wc/nu_1), whose c_m cancels it where
    nu_m = wc: with delta = wc - nu_m the pair is A delta [E(wc) - E(nu_m)]/delta
    + (A + c_m) E(nu_m), E(mu) = int_0^t e^{-mu s} cos(w0 s) ds, and A delta, A + c_m and the
    divided difference are all finite there.  None where 2 K, or the poles' prefixes on a grid
    long enough to hold every one, would total more than _POLE_VALUES: the route depends on the
    bath and the step, never on the window.
    """
    wc, w0, beta = spec.omega_c, env.omega0, env.beta
    x = 0.5 * beta / math.pi  # 1/nu_1, kept apart as nu_1 overflows its powers at high n_T
    nu, a = 1.0 / x, wc * x
    coth = 2.0 * env.n_T + 1.0
    d_inf = 0.5 * math.pi * evaluate_j(spec, w0) * coth
    tol = _TAIL_TOL * d_inf
    if not tol > 0.0:  # Delta(inf) underflows (omega_c below ~1e-154 omega0)
        return None
    big_k = max(2.0 * a, (4.0 * wc**4 * x**3 / (9.0 * tol)) ** (1.0 / 3.0))
    if not 2.0 * big_k <= _POLE_VALUES:  # every pole takes 2 samples or more
        return None
    m = round(a)
    k = np.arange(1.0, math.ceil(big_k) + 1.0)
    mu = k * nu
    with np.errstate(divide="ignore"):  # c_m, if m > 0, is replaced below
        c = wc**4 * x * x / (k * (k * k - a * a))  # nu wc^4/(mu (mu^2 - wc^2))
    if m == 0:  # no Matsubara pole near wc: the cot pole is one more exponential
        mu, c = np.append(mu, wc), np.append(c, 0.5 * math.pi * wc * wc / math.tan(0.5 * beta * wc))
    else:
        y = math.pi * (a - m)  # beta delta / 2, within pi/2 of 0
        delta, u, cot_rest = wc - m * nu, (wc - m * nu) / wc, _cot_minus_inv(y)
        c[m - 1] = 0.5 * math.pi * wc * wc * (
            cot_rest - 2.0 * (3.0 - u) / (beta * wc * (1.0 - u) * (2.0 - u)))
        a_delta = math.pi * wc * wc / beta * (1.0 + y * cot_rest)
    counts = _pole_prefixes(mu, c, w0, ds, tol / len(mu))
    if counts.sum() > _POLE_VALUES:
        return None
    counts = np.minimum(counts, len(s))
    d = np.full(len(s), d_inf)
    if m > 0:
        t = s[:min(len(s), int(_POLE_SPAN / (min(wc, m * nu) * ds)) + 2)]
        z1, z2 = complex(wc, -w0), complex(m * nu, -w0)
        dt = delta * t
        phi = np.divide(-np.expm1(-dt), dt, out=np.ones_like(t), where=dt != 0.0)
        d[:len(t)] += a_delta * (np.exp(-z2 * t) * (1.0 + z2 * t * phi) / (z1 * z2)).real
    tr = _pole_transients(mu, c, counts, w0, s)
    d[:len(tr)] -= tr
    log_t = _log_term(nu, w0, s, ds)
    d[:len(log_t)] -= 0.5 * math.pi * wc * wc / w0 * (coth - 2.0 / (beta * w0)) - wc * wc * log_t
    d[0] = 0.0
    return d


def _coefficient_curves(spec: SpectralDensity, env: Environment, s: np.ndarray, ds: float,
                        rq: QuadratureConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Delta(t), gamma(t), Gamma(t) on the uniform grid s = n ds.  Ohmic gamma and Gamma are
    closed forms, and so is its Delta at n_T > 0 (_matsubara_delta).  The rest comes from the one
    panel rule (level 0), with no runtime probe: its width bound fixes the accuracy (module
    docstring for the measured gap to level 1, roundoff), and a cumulative trapezoid in s."""
    if env.alpha == 0.0:
        z = np.zeros_like(s)
        return z, z.copy(), z.copy()
    a2 = env.alpha**2
    ohmic = spec.kind is SpectralKind.OHMIC
    if ohmic:
        gamma, big_gamma = _ohmic_damping(spec, env, s)
        if env.n_T > 0.0:
            d = _matsubara_delta(spec, env, s, ds)
            if d is not None:
                return a2 * d, gamma, big_gamma
    nodes, wc, ws, width, k_ir = _omega_rule(spec, env, rq, float(s[-1]), 0)
    Kc, Ks = _kernels_on(nodes, wc, None if ohmic else ws, width, k_ir, ds, len(s))
    d = a2 * _cumtrapz(np.cos(env.omega0 * s) * Kc, s)
    if ohmic:
        return d, gamma, big_gamma
    g = a2 * _cumtrapz(np.sin(env.omega0 * s) * Ks, s)
    return d, g, _cumtrapz(g, s)


def build_coefficient_grid(spec: SpectralDensity, env: Environment, t_max: float,
                           q: QuadratureConfig) -> CoefficientGrid:
    """Sample Delta, gamma, Gamma, Delta_Gamma on a uniform grid covering [0, t_max]."""
    if not 0 < t_max < math.inf:
        raise ValueError(f"t_max must be finite and > 0, got {t_max}")
    rq = q.resolve(spec, env)
    n = max(1, int(math.ceil(t_max / rq.s_step - 1e-9)))
    times = np.arange(n + 1) * rq.s_step
    delta, gamma, big_gamma = _coefficient_curves(spec, env, times, times[-1] / n, rq)
    delta_gamma = _effective_diffusion(delta, big_gamma, times)
    return CoefficientGrid(times=times, delta=delta, gamma=gamma,
                           big_gamma=big_gamma, delta_gamma=delta_gamma, n_T=env.n_T)


def gamma_markov(spec: SpectralDensity, env: Environment) -> float:
    """Markovian damping rate gamma_M = alpha^2 (pi/2) j(omega0), the golden-rule
    t -> infinity limit of gamma(t); 0 at zero coupling."""
    return env.alpha**2 * 0.5 * math.pi * evaluate_j(spec, env.omega0)


def write_coefficients_csv(grid: CoefficientGrid, stream: IO[str]) -> None:
    """CSV export: t,delta,gamma,big_gamma,delta_gamma per grid time, as ``'%.17g' % v``
    (``_csv``)."""
    _write_rows(stream, "t,delta,gamma,big_gamma,delta_gamma",
                (grid.times, grid.delta, grid.gamma, grid.big_gamma, grid.delta_gamma))
