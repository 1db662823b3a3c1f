import math

import numpy as np
import pytest

from gaussian_paths import (
    Environment,
    SpectralDensity,
    SpectralKind,
    evaluate_j,
    thermal_occupation,
    thermal_weight,
)
from gaussian_paths.coefficients import QuadratureConfig, _panel_edges


def test_evaluate_j_closed_forms():
    for kind, omega_c, omega, j in ((SpectralKind.OHMIC, 1.0, 1.0, 0.5),
                                    (SpectralKind.SUPER_OHMIC, 2.0, 2.0, 1.0),
                                    (SpectralKind.WHITE_NOISE, 3.0, 17.4, 3.0)):
        assert evaluate_j(SpectralDensity(kind, omega_c=omega_c), omega) == pytest.approx(
            j, rel=1e-15, abs=0)


def test_evaluate_j_at_cutoff_is_half_peak_scale():
    for kind in (SpectralKind.OHMIC, SpectralKind.SUPER_OHMIC):
        spec = SpectralDensity(kind, omega_c=1.7)
        assert evaluate_j(spec, 1.7) == pytest.approx(1.7 / 2.0, rel=1e-14, abs=0)


def test_evaluate_j_nonnegative_finite_and_continuous():
    w = np.linspace(0.0, 100.0, 20001)
    for kind in SpectralKind:
        j = evaluate_j(SpectralDensity(kind, omega_c=1.3), w)
        assert np.all(np.isfinite(j)) and np.all(j >= 0)
        # no jumps anywhere near the grid scale
        assert np.max(np.abs(np.diff(j))) < 0.01


def test_evaluate_j_rejects_negative_frequency():
    spec = SpectralDensity(SpectralKind.OHMIC, omega_c=1.0)
    with pytest.raises(ValueError):
        evaluate_j(spec, -0.1)


def test_spectral_density_validation():
    with pytest.raises(ValueError):
        SpectralDensity(SpectralKind.OHMIC, omega_c=-1.0)
    with pytest.raises(ValueError):
        SpectralDensity(SpectralKind.OHMIC, omega_c=1.0, ir_cutoff=-1e-6)


def test_spectral_kind_strings_are_coerced():
    env = Environment(omega0=1.0, alpha=0.1, n_T=1.0)
    for kind in SpectralKind:
        spec = SpectralDensity(kind.value, omega_c=1.0)
        assert spec.kind is kind
        assert evaluate_j(spec, 2.0) == evaluate_j(SpectralDensity(kind, omega_c=1.0), 2.0)
    assert evaluate_j(SpectralDensity("ohmic", omega_c=1.0), 2.0) == pytest.approx(0.4)
    # the white-noise infrared panels are laid out for the string form as well
    white = SpectralDensity("white", omega_c=1.0)
    rq = QuadratureConfig().resolve(white, env)
    assert _panel_edges(white, env, rq, 25.0, 0)[1] > 0
    with pytest.raises(ValueError):
        SpectralDensity("bogus", omega_c=1.0)


def test_spectral_inputs_reject_nan_and_zero():
    spec = SpectralDensity(SpectralKind.OHMIC, omega_c=1.0)
    env = Environment(omega0=1.0, alpha=0.1, n_T=1.0)
    for bad in ({"omega_c": math.nan}, {"omega_c": math.inf}, {"ir_cutoff": math.nan}):
        with pytest.raises(ValueError):
            SpectralDensity(**{"kind": SpectralKind.OHMIC, "omega_c": 1.0, **bad})
    for w in (math.nan, 0.0, -1.0, np.array([1.0, 0.0]), np.array([0.5, math.nan])):
        with pytest.raises(ValueError):
            thermal_weight(env, w)
    with pytest.raises(ValueError):
        evaluate_j(spec, math.nan)
    with pytest.raises(ValueError):
        evaluate_j(spec, np.array([0.0, math.nan]))
    for beta, omega in ((math.nan, 1.0), (1.0, math.nan)):
        with pytest.raises(ValueError):
            thermal_occupation(beta, omega)
    with pytest.raises(ValueError):
        Environment.from_beta(1.0, 0.1, math.nan)


def test_ir_cutoff_resolution():
    assert SpectralDensity(SpectralKind.WHITE_NOISE, 1.0).resolved_ir_cutoff(2.0) == 2e-6
    assert SpectralDensity(SpectralKind.WHITE_NOISE, 1.0, ir_cutoff=1e-3).resolved_ir_cutoff(2.0) == 1e-3


def test_thermal_weight_zero_temperature_is_one():
    env = Environment(omega0=1.0, alpha=0.1, n_T=0.0)
    assert env.beta == math.inf
    for w in (1e-6, 1.0, 250.0):
        assert thermal_weight(env, w) == 1.0


def test_thermal_weight_closed_form_coth_ln3():
    # beta*omega = 2 ln 3 gives coth(ln 3) = (3 + 1/3)/(3 - 1/3) = 5/4
    env = Environment.from_beta(omega0=1.0, alpha=0.1, beta=2.0 * math.log(3.0))
    assert env.n_T == pytest.approx(1.0 / 8.0, rel=1e-14, abs=0)
    assert thermal_weight(env, 1.0) == pytest.approx(1.25, rel=1e-14, abs=0)


def test_thermal_weight_high_temperature_series():
    env = Environment.from_beta(omega0=1.0, alpha=0.1, beta=0.01)
    # coth(x) ~ 1/x for x = beta*omega/2 = 0.005
    assert thermal_weight(env, 1.0) == pytest.approx(200.0, rel=1e-3)


def test_thermal_weight_bounds_and_monotonicity():
    env = Environment.from_beta(omega0=1.0, alpha=0.1, beta=1.0)
    w = np.logspace(-3, 2, 400)
    cw = thermal_weight(env, w)
    assert np.all(cw >= 1.0)
    # strictly decreasing until coth saturates to 1.0 in double precision
    assert np.all(np.diff(cw) <= 0)
    assert np.all(np.diff(cw[w < 15.0]) < 0)


def test_thermal_weight_rejects_zero_frequency():
    env = Environment.from_beta(omega0=1.0, alpha=0.1, beta=1.0)
    with pytest.raises(ValueError):
        thermal_weight(env, 0.0)


def test_thermal_occupation_closed_forms():
    assert thermal_occupation(math.inf, 1.0) == 0.0
    assert thermal_occupation(math.log(2.0), 1.0) == pytest.approx(1.0, rel=1e-14, abs=0)
    # small beta*omega: n ~ 1/(beta omega) - 1/2 + (beta omega)/12
    x = 1e-3
    series = 1.0 / x - 0.5 + x / 12.0
    assert thermal_occupation(x, 1.0) == pytest.approx(series, rel=1e-9)
    assert thermal_occupation(x, 1.0) == pytest.approx(999.5, rel=1e-4)


def test_thermal_occupation_underflows_to_zero_past_beta_omega_700():
    # 1/expm1(x) is below 1e-304 there; the cut returns 0 rather than a subnormal
    assert thermal_occupation(1.0, 700.0) == 1.0 / math.expm1(700.0) > 0.0
    assert thermal_occupation(1.0, 700.5) == 0.0
    assert thermal_occupation(1e3, 1.0) == 0.0


def test_thermal_occupation_validation():
    with pytest.raises(ValueError):
        thermal_occupation(1.0, 0.0)
    with pytest.raises(ValueError):
        thermal_occupation(-1.0, 1.0)


def test_coth_occupation_identity_machine_precision():
    # coth(beta*omega/2) = 2 n(beta, omega) + 1 across beta*omega in [1e-3, 1e2]
    for bw in np.logspace(-3, 2, 60):
        env = Environment.from_beta(omega0=1.0, alpha=0.1, beta=bw)
        n = thermal_occupation(bw, 1.0)
        assert thermal_weight(env, 1.0) == pytest.approx(2.0 * n + 1.0, rel=4e-16, abs=0.0)


def test_environment_consistency_and_validation():
    env = Environment(omega0=2.0, alpha=0.1, n_T=0.5)
    assert thermal_occupation(env.beta, 2.0) == pytest.approx(0.5, rel=1e-14, abs=0)
    assert Environment.from_beta(2.0, 0.1, math.inf).n_T == 0.0
    with pytest.raises(ValueError):
        Environment(omega0=0.0, alpha=0.1, n_T=1.0)
    with pytest.raises(ValueError):
        Environment(omega0=1.0, alpha=-0.1, n_T=1.0)
    with pytest.raises(ValueError):
        Environment(omega0=1.0, alpha=0.1, n_T=-1.0)
    for bad in ({"n_T": math.inf}, {"n_T": math.nan}, {"alpha": math.nan},
                {"omega0": math.inf}):
        with pytest.raises(ValueError, match="finite"):
            Environment(**{"omega0": 1.0, "alpha": 0.1, "n_T": 1.0, **bad})
    with pytest.raises(ValueError):
        Environment.from_beta(1.0, 0.1, 0.0)
