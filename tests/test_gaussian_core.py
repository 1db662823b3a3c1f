import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gaussian_paths import (
    STSParams,
    SymmetricCM,
    UnphysicalStateError,
    cm_from_mu_lambda,
    discord,
    entropic_h,
    from_sts,
    gaussian_discord,
    log_negativity,
    mean_photons,
    min_symplectic,
    path_point,
    purity,
    to_sts,
)

TWB12 = STSParams(r=1.2, nu_T=0.0)


def random_states(n=200, seed=7, r_max=2.0, nu_max=3.0):
    rng = np.random.default_rng(seed)
    return [STSParams(r=float(r), nu_T=float(nu))
            for r, nu in zip(rng.uniform(0, r_max, n), rng.uniform(0, nu_max, n))]


def sigma_matrix(cm: SymmetricCM) -> np.ndarray:
    s1 = np.array([[0.0, 1.0], [1.0, 0.0]])
    s3 = np.diag([1.0, -1.0])
    return cm.a * np.eye(4) + cm.c * np.kron(s1, s3)


# ----------------------------------------------------------- state types

def test_from_sts_closed_forms():
    vac = from_sts(STSParams(0.0, 0.0))
    assert (vac.a, vac.c) == (0.5, 0.0)
    twb = from_sts(TWB12)
    assert twb.a == pytest.approx(0.5 * math.cosh(2.4), rel=1e-15)
    assert twb.c == pytest.approx(0.5 * math.sinh(2.4), rel=1e-15)
    thermal = from_sts(STSParams(0.0, 1.0))
    assert (thermal.a, thermal.c) == (1.5, 0.0)


def test_to_sts_closed_forms_and_roundtrip():
    assert to_sts(SymmetricCM(0.5, 0.0)) == STSParams(0.0, 0.0)
    assert to_sts(SymmetricCM(1.5, 0.0)).nu_T == pytest.approx(1.0, rel=1e-14)
    for p in random_states():
        q = to_sts(from_sts(p))
        assert q.r == pytest.approx(p.r, rel=1e-12, abs=1e-12)
        assert q.nu_T == pytest.approx(p.nu_T, rel=1e-12, abs=1e-12)


def test_to_sts_rejects_negative_c_and_unphysical():
    with pytest.raises(UnphysicalStateError):
        to_sts(SymmetricCM(1.0, -0.2))
    with pytest.raises(UnphysicalStateError):
        to_sts(SymmetricCM(0.5, 0.4999))  # constructor itself rejects


def test_physicality_constructor():
    with pytest.raises(UnphysicalStateError):
        SymmetricCM(a=1.0, c=0.9)  # a^2 - c^2 = 0.19 < 1/4
    with pytest.raises(UnphysicalStateError):
        SymmetricCM(a=0.4, c=0.0)  # a below the vacuum diagonal
    with pytest.raises(UnphysicalStateError):
        SymmetricCM(a=-1.0, c=0.0)
    for a, c in ((1.0, math.nan), (math.nan, 0.0), (math.inf, 1.0), (1.0, -math.inf)):
        with pytest.raises(UnphysicalStateError):
            SymmetricCM(a=a, c=c)
    # entangled states below the separability line are perfectly physical
    cm = from_sts(TWB12)
    assert cm.a - cm.c < 0.5


def test_sts_params_validation():
    with pytest.raises(ValueError):
        STSParams(r=-0.1, nu_T=0.0)
    with pytest.raises(ValueError):
        STSParams(r=0.1, nu_T=-0.5)
    for r, nu_T in ((math.nan, 0.0), (math.inf, 0.0), (0.1, math.nan), (0.1, math.inf)):
        with pytest.raises(ValueError):
            STSParams(r=r, nu_T=nu_T)


def test_mean_photons():
    assert mean_photons(STSParams(0.0, 0.0)) == 0.0
    assert mean_photons(STSParams(0.0, 2.0)) == 2.0
    assert mean_photons(TWB12) == pytest.approx(math.sinh(1.2) ** 2, rel=1e-14)
    for p in random_states(50):
        assert mean_photons(p) == pytest.approx(from_sts(p).a - 0.5, rel=1e-12)


# --------------------------------------------------------------- measures

def test_purity_closed_forms():
    assert purity(SymmetricCM(1.0, 0.0)) == pytest.approx(0.25, rel=1e-15)
    for p in random_states(50):
        mu = purity(from_sts(p))
        assert mu == pytest.approx((2.0 * p.nu_T + 1.0) ** -2, rel=1e-11)
    assert purity(from_sts(TWB12)) == pytest.approx(1.0, abs=1e-6)


def test_purity_determinant_oracle():
    for p in random_states(60, seed=11):
        cm = from_sts(p)
        det = np.linalg.det(sigma_matrix(cm))
        assert purity(cm) == pytest.approx(1.0 / (4.0 * math.sqrt(det)), rel=1e-9)


def test_purity_independent_of_squeezing():
    for r in np.linspace(0.0, 2.5, 11):
        assert purity(from_sts(STSParams(float(r), 0.7))) == pytest.approx(
            (2 * 0.7 + 1) ** -2, rel=1e-12)


def test_min_symplectic():
    assert min_symplectic(SymmetricCM(0.5, 0.0)) == 0.5
    assert min_symplectic(SymmetricCM(1.5, 0.0)) == 1.5
    assert min_symplectic(from_sts(TWB12)) == pytest.approx(0.5 * math.exp(-2.4), rel=1e-12)
    with pytest.raises(UnphysicalStateError):
        min_symplectic(SymmetricCM(1.0, -0.1))


def test_log_negativity():
    assert log_negativity(SymmetricCM(1.5, 0.0)) == 0.0  # separable
    assert log_negativity(from_sts(TWB12)) == pytest.approx(2.4, rel=1e-12)
    # lambda = 1/4 gives E_N = ln 2
    assert log_negativity(SymmetricCM(1.25, 1.0)) == pytest.approx(math.log(2.0), rel=1e-14)


def test_entropic_h():
    assert entropic_h(0.5) == 0.0
    assert entropic_h(1.5) == pytest.approx(2.0 * math.log(2.0), rel=1e-15)
    x = 1e3
    assert entropic_h(x) == pytest.approx(math.log(x) + 1.0, rel=1e-6)
    # clamp just below the boundary, raise further out (and on NaN), on the
    # scalar and the array branch alike
    for h in (entropic_h, lambda x: entropic_h(np.array([x]))[0]):
        assert h(0.5 - 1e-12) == 0.0
        assert h(0.5 - 5e-10) == 0.0
        for bad in (0.5 - 2e-9, 0.4999, math.nan):
            with pytest.raises(UnphysicalStateError):
                h(bad)
    arr = entropic_h(np.array([0.5, 1.5]))
    assert arr[0] == 0.0 and arr[1] == pytest.approx(2 * math.log(2), rel=1e-14)
    assert type(entropic_h(1.5)) is float and type(entropic_h(np.float64(1.5))) is float


def test_entropic_h_large_argument_accuracy():
    # h(x) = ln x + 1 - 1/(24 x^2) + O(x^-4); the direct form
    # (x + 1/2) ln(x + 1/2) - (x - 1/2) ln(x - 1/2) cancels to ~1e-9 here
    for x in (1e4, 1e6, 1e8):
        expected = math.log(x) + 1.0 - 1.0 / (24.0 * x * x)
        assert entropic_h(x) == pytest.approx(expected, rel=1e-15)
        assert entropic_h(np.array([x]))[0] == pytest.approx(expected, rel=1e-15)


def test_discord_zero_without_correlations():
    for a in (0.5, 1.0, 3.7, 250.0):
        assert gaussian_discord(SymmetricCM(a, 0.0)) == 0.0
        assert discord(np.array([a]), np.array([0.0]))[0] == 0.0


def test_discord_returns_python_float():
    assert type(gaussian_discord(from_sts(TWB12))) is float
    assert type(gaussian_discord(SymmetricCM(np.float64(1.5), np.float64(0.5)))) is float


# physical states (a, c) = nu (cosh 2r, +-sinh 2r): r = 0 gives c = 0 exactly,
# nu within 1e-6 of 1/2 sits next to the purity boundary
_NU = st.one_of(st.just(0.5), st.floats(0.5, 0.5 + 1e-6), st.floats(0.5, 50.0))
_R = st.one_of(st.just(0.0), st.floats(0.0, 3.0))


@settings(max_examples=300, deadline=None)
@given(nu=_NU, r=_R, sign=st.sampled_from([1.0, -1.0]))
def test_scalar_discord_and_entropy_match_array_forms(nu, r, sign):
    a, c = nu * math.cosh(2.0 * r), sign * nu * math.sinh(2.0 * r)
    d = gaussian_discord(SymmetricCM(a, c))
    ref = discord(np.array([a]), np.array([c]))[0]
    # D = h(a) - 2 h(nu) + h(cond) cancels terms up to h(a) in size, and
    # math.log and numpy's log differ by an ulp on a few inputs
    assert d == pytest.approx(ref, rel=1e-13, abs=1e-15 * max(1.0, 4.0 * entropic_h(a)))
    for x in (a, math.sqrt(max(a * a - c * c, 0.0)), a - 2.0 * c * c / (1.0 + 2.0 * a)):
        assert entropic_h(x) == pytest.approx(entropic_h(np.array([x]))[0],
                                              rel=1e-13, abs=1e-15)


def _discord_mp(a: float, c: float) -> float:
    """D of the exact doubles (a, c) at 50 digits, with entropic_h's clamp at 1/2."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        a, c = mpmath.mpf(a), mpmath.mpf(c)
        half = mpmath.mpf(1) / 2

        def h(x):
            x = max(x, half)
            return (x + half) * mpmath.log(x + half) - (
                (x - half) * mpmath.log(x - half) if x > half else 0)

        nu = mpmath.sqrt(max(a * a - c * c, 0))
        return float(h(a) - 2 * h(nu) + h(a - 2 * c * c / (1 + 2 * a)))


def test_discord_accuracy_against_mpmath():
    # a^2 - c^2 and a - 2c^2/(1 + 2a) formed by subtraction lose up to 7e-11 here
    pytest.importorskip("mpmath")
    rng = np.random.default_rng(7)
    n = 2400
    pure = rng.random(n) < 0.25
    nu = np.where(pure, 0.5, rng.uniform(0.5, 10.5, n))
    r = rng.uniform(0.0, 3.0, n)
    a, c = nu * np.cosh(2.0 * r), nu * np.sinh(2.0 * r)
    ref = np.array([_discord_mp(x, y) for x, y in zip(a.tolist(), c.tolist())])
    scalar = np.array([gaussian_discord(SymmetricCM(x, y))
                       for x, y in zip(a.tolist(), c.tolist())])
    for err in (np.abs(scalar - ref), np.abs(discord(a, c) - ref)):
        assert np.max(err[~pure]) <= 1e-14
        # h'(x) diverges at x = 1/2, so the last-bit rounding of nu and of the
        # conditional argument next to 1/2 costs up to ~1e-14 on pure states
        assert np.max(err[pure]) <= 2e-14


def test_discord_pure_state_identity():
    # on a^2 - c^2 = 1/4 the discord reduces to h(a)
    for r in np.linspace(0.0, 2.5, 26):
        cm = from_sts(STSParams(float(r), 0.0))
        assert gaussian_discord(cm) == pytest.approx(entropic_h(cm.a), abs=1e-10)


def test_discord_nonnegative_and_positive_with_correlations():
    rng = np.random.default_rng(3)
    for _ in range(300):
        nu = rng.uniform(0.5, 4.0)
        r = rng.uniform(0.0, 2.0)
        cm = from_sts(STSParams(float(r), float(nu - 0.5)))
        assert gaussian_discord(cm) >= -1e-12
    # strictly positive once correlations are numerically resolvable
    for c in np.logspace(-6, 0, 13):
        cm = SymmetricCM(a=math.sqrt(0.25 + 4.0 * c * c) + 0.4, c=float(c))
        assert gaussian_discord(cm) > 0.0
    # tiny correlations stay within the roundoff tolerance band
    assert gaussian_discord(SymmetricCM(1.0, 1e-8)) >= -1e-12


def test_discord_saturation_value():
    # large-squeezing threshold states approach 2 ln 2 - 1
    c = 0.5 * math.sinh(2 * 8.0)
    d = gaussian_discord(SymmetricCM(0.5 + c, c))
    assert d == pytest.approx(2 * math.log(2) - 1, abs=1e-4)


def test_reparametrization_roundtrip():
    rng = np.random.default_rng(17)
    for _ in range(200):
        nu = rng.uniform(0.5, 4.0)
        r = rng.uniform(0.0, 2.0)
        cm = from_sts(STSParams(float(r), float(nu - 0.5)))
        back = cm_from_mu_lambda(purity(cm), min_symplectic(cm))
        assert back.a == pytest.approx(cm.a, rel=1e-10)
        assert back.c == pytest.approx(cm.c, rel=1e-10, abs=1e-12)
        assert gaussian_discord(back) == pytest.approx(gaussian_discord(cm), abs=1e-10)


# ------------------------------------------------------------ path points

def test_path_point_closed_forms():
    vac = path_point(SymmetricCM(0.5, 0.0), 0.0)
    assert (vac.mu, vac.lam, vac.discord) == (1.0, 0.5, 0.0)
    twb = path_point(from_sts(TWB12), 1.5)
    assert twb.mu == pytest.approx(1.0, abs=1e-6)
    assert twb.lam == pytest.approx(0.5 * math.exp(-2.4), rel=1e-12)
    assert twb.discord == pytest.approx(entropic_h(0.5 * math.cosh(2.4)), rel=1e-10)
    assert twb.t == 1.5
    thermal = path_point(SymmetricCM(1.5, 0.0), 0.0)
    assert thermal.mu == pytest.approx(1.0 / 9.0, rel=1e-14)
    assert thermal.lam == 1.5 and thermal.discord == 0.0


def test_path_point_constraint_surface():
    for p in random_states(50, seed=23):
        cm = from_sts(p)
        pp = path_point(cm, 0.0)
        assert pp.mu <= 1.0 / (4.0 * pp.lam**2) + 1e-12
        rebuilt = cm_from_mu_lambda(pp.mu, pp.lam)
        assert gaussian_discord(rebuilt) == pytest.approx(pp.discord, abs=1e-8)
