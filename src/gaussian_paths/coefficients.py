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
O(nodes * N_s) trig matrix.  The white-noise geometric infrared panels,
about a hundred nodes, are summed from blocked phase tables: with
n = q*b + r and b ~ sqrt(N_s), e^{i w n ds} = e^{i w q b ds} e^{i w r ds},
so each sum is one small product of two (nodes x ~sqrt(N_s)) tables.
From the sampled curves the accumulated damping
Gamma(t) = int_0^t gamma and the effective diffusion
Delta_Gamma(t) = e^{-Gamma(t)} int_0^t e^{Gamma(s)} Delta(s) ds follow by
further cumulative trapezoids on the same grid.

The Markovian damping rate needs no grid: it is the t -> infinity
(golden-rule) limit of gamma(t), gamma_M = alpha^2 (pi/2) j(omega0)
(Maniscalco, Piilo, Intravaia, Petruccione & Messina, PRA 70, 032113,
2004), taken in closed form.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import IO, Sequence

import numpy as np
from numpy.fft import fft, ifft

from .spectral_env import Environment, SpectralDensity, SpectralKind, evaluate_j, thermal_weight

__all__ = [
    "QuadratureConfig",
    "CoefficientGrid",
    "QuadratureError",
    "ConfigError",
    "build_coefficient_grid",
    "gamma_markov",
    "write_coefficients_csv",
]

GL_ORDER = 8  # Gauss-Legendre nodes per frequency panel
MAX_REFINE = 2  # panel halvings tried before QuadratureError
ABS_TOL = 1e-12  # floor of the kernel magnitude the halving error is relative to


class ConfigError(ValueError):
    """Invalid numerical configuration."""


class QuadratureError(RuntimeError):
    """Frequency quadrature failed to meet the requested tolerance.

    Carries the achieved error estimate in ``achieved``.
    """

    def __init__(self, message: str, achieved: float):
        super().__init__(f"{message} (achieved error estimate {achieved:.3e})")
        self.achieved = achieved


@dataclass(frozen=True)
class QuadratureConfig:
    """Numerical knobs for the coefficient integrals.

    ``None`` fields are resolved from the spectrum/environment scales:
    omega_max = 50 * max(omega0, omega_c) and s_step = 2*pi / (20 * omega_max),
    the coarsest step allowed.  The grid is sampled at s_step.
    """

    omega_max: float | None = None
    rel_tol: float = 1e-4
    s_step: float | None = None

    def __post_init__(self):
        for name in ("omega_max", "rel_tol", "s_step"):
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


@dataclass(frozen=True)
class CoefficientGrid:
    """Sampled Delta, gamma, Gamma and Delta_Gamma on a uniform time grid."""

    times: np.ndarray
    delta: np.ndarray
    gamma: np.ndarray
    big_gamma: np.ndarray
    delta_gamma: np.ndarray

    def __post_init__(self):
        n = len(self.times)
        for name in ("delta", "gamma", "big_gamma", "delta_gamma"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"{name} length differs from times")
        if n < 2 or self.times[0] != 0.0 or np.any(np.diff(self.times) <= 0):
            raise ValueError("times must start at 0 and be strictly increasing")
        for name in ("delta", "gamma", "big_gamma", "delta_gamma"):
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

    def covers(self, t: float) -> bool:
        return 0.0 <= t <= self.t_max * (1 + 1e-12)

    def _interp(self, t, values: np.ndarray) -> np.ndarray:
        t = np.atleast_1d(np.asarray(t, float))
        if np.any(t < 0) or np.any(t > self.t_max * (1 + 1e-12)):
            raise ValueError(
                f"grid covers [0, {self.t_max}] but was asked for t in "
                f"[{float(np.min(t))}, {float(np.max(t))}]"
            )
        return np.interp(t, self.times, values)

    def interp_big_gamma(self, t):
        return self._interp(t, self.big_gamma)

    def interp_delta_gamma(self, t):
        return self._interp(t, self.delta_gamma)

    def delta_integral(self, t):
        """int_0^t Delta(s) ds, cumulative trapezoid of the sampled Delta."""
        return self._interp(t, _cumtrapz(self.delta, self.times))


def _cumtrapz(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    out = np.zeros_like(y)
    out[1:] = np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(x))
    return out


def _panel_edges(spec: SpectralDensity, env: Environment, rq: QuadratureConfig,
                 s_max: float, halvings: int) -> tuple[np.ndarray, int]:
    """Composite panel edges on [ir_or_0, omega_max] and the count of leading geometric panels.

    Width bounded by the spectral structure scale min(omega0, omega_c)/4
    and by the oscillation bound pi/(4*s_max); the white-noise spectrum
    additionally gets geometrically refined panels above its infrared
    cutoff, where the integrand behaves like coth ~ 1/omega.
    """
    width = min(min(env.omega0, spec.omega_c) / 4.0,
                math.pi / (4.0 * max(s_max, 1e-12)))
    width /= 2.0 ** halvings
    lo = 0.0
    geo: list[float] = []
    if spec.kind is SpectralKind.WHITE_NOISE:
        lo = spec.resolved_ir_cutoff(env.omega0)
        if lo >= rq.omega_max:
            raise ConfigError("ir_cutoff must be below omega_max")
        geo = [lo]
        e = lo
        while e * 2.0 < width:
            e *= 2.0
            geo.append(e)
        lo = geo[-1]
    n = max(1, int(math.ceil((rq.omega_max - lo) / width)))
    uniform = np.linspace(lo, rq.omega_max, n + 1)
    return np.concatenate([np.asarray(geo[:-1]), uniform]), max(len(geo) - 1, 0)


def _omega_rule(spec: SpectralDensity, env: Environment, rq: QuadratureConfig, s_max: float,
                halvings: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, int, float]:
    """Gauss-Legendre nodes plus weighted integrand factors, shaped (panels, GL_ORDER).

    Returns (nodes, wc, ws, n_ir, width) with wc = w * j(w) * coth(w beta/2) * taper
    and ws = w * j(w) * taper, so the kernels are plain cosine/sine sums; the
    first n_ir panels are the non-uniform infrared ones, the rest have the
    common width, so nodes[n_ir + j, k] = nodes[n_ir, k] + j * width.
    """
    edges, n_ir = _panel_edges(spec, env, rq, s_max, halvings)
    x, w = np.polynomial.legendre.leggauss(GL_ORDER)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = mid[:, None] + half[:, None] * x[None, :]
    wts = half[:, None] * w[None, :]
    g = np.asarray(evaluate_j(spec, nodes.ravel()), float).reshape(nodes.shape)
    # saturating tails (super-Ohmic, white) decay only through oscillation:
    # linearly damp the last decade of the range to suppress truncation ringing
    if spec.kind in (SpectralKind.SUPER_OHMIC, SpectralKind.WHITE_NOISE):
        start = rq.omega_max / 10.0
        g = g * np.clip((rq.omega_max - nodes) / (rq.omega_max - start), 0.0, 1.0)
    therm = thermal_weight(env, nodes)
    width = (edges[-1] - edges[n_ir]) / (len(edges) - 1 - n_ir)
    return nodes, wts * g * therm, wts * g, n_ir, width


def _fast_len(n: int) -> int:
    """Smallest 2^a 3^b 5^c 7^d 11^e >= n, a length pocketfft transforms fast.

    k divides 2310^64 = (2*3*5*7*11)^64 exactly when k has no prime
    factor above 11 (every exponent of a k < 2^64 is below 64).
    """
    k = n
    while pow(2310, 64, k):
        k += 1
    return k


def _uniform_step(s: np.ndarray) -> float:
    """ds of a grid s = m * ds starting at 0; ValueError otherwise."""
    ds = s[-1] / max(len(s) - 1, 1)
    if s[0] != 0.0 or np.max(np.abs(s - ds * np.arange(len(s)))) > 1e-12 * abs(s[-1]):
        raise ValueError("chirp-z kernels need a uniform grid s = m * ds starting at 0")
    return ds


def _chirp_sums(a: np.ndarray, width: float, ds: float, m: int) -> np.ndarray:
    """sum_j a[..., j] exp(i j width n ds) for n < m: as j n = (j^2 + n^2 - (n - j)^2) / 2,
    a convolution with a chirp, done by FFT (Bluestein chirp-z) in O((P + m) log)."""
    p = a.shape[-1]
    n = _fast_len(p + m - 1)
    c = np.exp(0.5j * width * ds * np.arange(max(p, m), dtype=float) ** 2)
    v = np.concatenate([c[:m], np.zeros(n - m - p + 1), c[p - 1:0:-1]]).conj()
    # one zero-padded buffer transformed in place: allocating a fresh (rows, n)
    # array for each step costs about as much as a transform
    buf = np.zeros(a.shape[:-1] + (n,), complex)
    np.multiply(a, c[:p], out=buf[..., :p])
    fft(buf, out=buf)
    buf *= fft(v)
    return c[:m] * ifft(buf, out=buf)[..., :m]


def _phase_sums(w: np.ndarray, a: np.ndarray, ds: float, m: int) -> np.ndarray:
    """sum_k a[..., k] exp(i w_k n ds) for n < m, for arbitrary nodes w.

    With n = q*b + r, b = ceil(sqrt(m)), the phase splits as
    exp(i w q b ds) * exp(i w r ds), so the sums are one product of two
    (len(w), ~sqrt(m)) phase tables: O(len(w) * m) multiply-adds and
    O(len(w) * sqrt(m)) exponentials instead of len(w) * m.
    """
    b = math.isqrt(m - 1) + 1
    q = -(-m // b)
    outer = np.exp(1j * np.outer(np.arange(q) * (b * ds), w))
    inner = np.exp(1j * np.outer(w, np.arange(b) * ds))
    sums = (a[..., None, :] * outer) @ inner
    return sums.reshape(*a.shape[:-1], q * b)[..., :m]


def _kernels_on(nodes: np.ndarray, wc: np.ndarray, ws: np.ndarray, n_ir: int, width: float,
                s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """K_c(s) = sum wc cos(w s), K_s(s) = sum ws sin(w s) on a uniform grid s.

    Row k of the uniform panels is o_k + j*width, so its sum is
    exp(i o_k s) * sum_j wt_jk exp(i j width s): one batched chirp-z
    transform covers every order and both weight sets, in
    O(GL_ORDER * (panels + len(s)) log).  The n_ir infrared panels are
    summed from blocked phase tables.  Raises ValueError on a non-uniform s.
    """
    ds, m = _uniform_step(s), len(s)
    rows = np.concatenate([wc[n_ir:].T, ws[n_ir:].T])
    sums = _chirp_sums(rows, width, ds, m).reshape(2, -1, m)
    turned = (np.exp(1j * np.outer(nodes[n_ir], s)) * sums).sum(axis=1)
    if n_ir:
        turned += _phase_sums(nodes[:n_ir].ravel(),
                              np.stack([wc[:n_ir].ravel(), ws[:n_ir].ravel()]), ds, m)
    return turned[0].real, turned[1].imag


def _coefficient_curves(spec: SpectralDensity, env: Environment, s: np.ndarray,
                        rq: QuadratureConfig) -> tuple[np.ndarray, np.ndarray]:
    """Delta(t), gamma(t) on the uniform grid s, with panel-halving convergence control.

    The halving probe compares the kernels on the full s grid, which
    isolates the frequency-quadrature error from the fixed s-step.
    """
    if env.alpha == 0.0:
        z = np.zeros_like(s)
        return z, z.copy()
    a2 = env.alpha**2

    def kernels(halvings: int) -> tuple[np.ndarray, np.ndarray]:
        rule = _omega_rule(spec, env, rq, float(s[-1]), halvings)
        return _kernels_on(*rule, s)

    def kernel_err(coarse: tuple[np.ndarray, ...], fine: tuple[np.ndarray, ...]) -> float:
        return max(float(np.max(np.abs(a - b))) / max(float(np.max(np.abs(b))), ABS_TOL)
                   for a, b in zip(coarse, fine))

    Kc, Ks = kernels(0)
    for level in range(1, MAX_REFINE + 2):
        finer = kernels(level)
        err = kernel_err((Kc, Ks), finer)
        if err <= rq.rel_tol:
            break
        Kc, Ks = finer
    else:
        raise QuadratureError("frequency quadrature did not converge at max refinement", err)
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
    delta, gamma = _coefficient_curves(spec, env, times, rq)
    big_gamma = _cumtrapz(gamma, times)
    delta_gamma = np.exp(-big_gamma) * _cumtrapz(np.exp(big_gamma) * delta, times)
    delta_gamma[0] = 0.0
    return CoefficientGrid(times=times, delta=delta, gamma=gamma,
                           big_gamma=big_gamma, delta_gamma=delta_gamma)


def gamma_markov(spec: SpectralDensity, env: Environment) -> float:
    """Markovian damping rate gamma_M = alpha^2 (pi/2) j(omega0), the golden-rule
    t -> infinity limit of gamma(t); 0 at zero coupling."""
    return env.alpha**2 * 0.5 * math.pi * evaluate_j(spec, env.omega0)


_BLOCK_ROWS = 4096


def _write_rows(stream: IO[str], columns: Sequence[np.ndarray]) -> None:
    """CSV rows of %.17g values, stacked, formatted and written a fixed block of rows at a time."""
    row_fmt = ",".join(["%.17g"] * len(columns)) + "\n"
    for start in range(0, len(columns[0]), _BLOCK_ROWS):
        block = np.column_stack([c[start:start + _BLOCK_ROWS] for c in columns])
        stream.write(row_fmt * len(block) % tuple(block.ravel().tolist()))


def write_coefficients_csv(grid: CoefficientGrid, stream: IO[str]) -> None:
    """CSV export: t,delta,gamma,big_gamma,delta_gamma per grid time; values %.17g (17
    significant digits, round-trip exact), streamed in fixed row blocks."""
    stream.write("t,delta,gamma,big_gamma,delta_gamma\n")
    _write_rows(stream, (grid.times, grid.delta, grid.gamma, grid.big_gamma, grid.delta_gamma))
