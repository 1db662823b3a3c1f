import copy
import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gaussian_paths import (
    MotionConstant,
    PathPoint,
    STSParams,
    SymmetricCM,
    UnphysicalStateError,
    cm_from_mu_lambda,
    discord,
    entropic_h,
    from_sts,
    log_negativity,
    mean_photons,
    min_symplectic,
    path_point,
    purity,
    to_sts,
)
from gaussian_paths import gaussian_core
from gaussian_paths.gaussian_core import _h, _h_array

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
    assert twb.a == pytest.approx(0.5 * math.cosh(2.4), rel=1e-15, abs=0)
    assert twb.c == pytest.approx(0.5 * math.sinh(2.4), rel=1e-15, abs=0)
    thermal = from_sts(STSParams(0.0, 1.0))
    assert (thermal.a, thermal.c) == (1.5, 0.0)


def test_from_sts_names_an_overflow_as_unphysical():
    # cosh/sinh(2r) overflow past r = 355.3; a finite product that overflows is refused as well
    for p in (STSParams(r=356.0, nu_T=0.0), STSParams(r=355.5, nu_T=3.0)):
        with pytest.raises(UnphysicalStateError, match="overflow"):
            from_sts(p)
    with pytest.raises(UnphysicalStateError, match="must be finite"):
        from_sts(STSParams(r=300.0, nu_T=1e300))
    assert math.isfinite(from_sts(STSParams(r=355.0, nu_T=0.0)).c)


def test_to_sts_closed_forms_and_roundtrip():
    assert to_sts(SymmetricCM(0.5, 0.0)) == STSParams(0.0, 0.0)
    assert to_sts(SymmetricCM(1.5, 0.0)).nu_T == pytest.approx(1.0, rel=1e-14, abs=0)
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


def test_symmetric_cm_holds_only_the_nonnegative_c_convention():
    # (a, -c) of the r0 = 1.2 vacuum is the same state up to a local phase flip (E_N = 2.4,
    # lambda = a - |c| = 0.045), but a - (-c) = 5.51 is not its lambda: the constructor
    # refuses it, so no channel samples it and no crossing, log_negativity or trajectory.csv
    # reads it (every other construction path goes through the constructor)
    cm = from_sts(TWB12)
    assert log_negativity(cm) == pytest.approx(2.4, rel=1e-12)
    assert cm.a + cm.c == pytest.approx(5.51, rel=1e-3)
    with pytest.raises(UnphysicalStateError, match="c >= 0 sign convention"):
        SymmetricCM(cm.a, -cm.c)
    assert SymmetricCM(0.5, -0.0).c == 0.0  # -0.0 is not below 0


def test_every_construction_path_checks_the_state():
    cm = SymmetricCM(a=1.0, c=0.5)
    for a, c in ((1.0, math.nan), (0.1, 0.5), (1.0, 0.9), (1.0, -0.5)):
        for build in (lambda: SymmetricCM(a, c), lambda: SymmetricCM(a=a, c=c),
                      lambda: SymmetricCM._make((a, c)), lambda: cm._replace(a=a, c=c)):
            with pytest.raises(UnphysicalStateError):
                build()
    # copy and pickle rebuild through the constructor: a record made by tuple.__new__,
    # past every check, cannot be copied or unpickled
    forged = tuple.__new__(SymmetricCM, (0.1, 0.5))
    for rebuild in (copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))):
        with pytest.raises(UnphysicalStateError):
            rebuild(forged)
        again = rebuild(cm)
        assert type(again) is SymmetricCM and again == cm
    assert cm._replace(c=0.0) == SymmetricCM(1.0, 0.0)
    assert repr(cm) == "SymmetricCM(a=1.0, c=0.5)"


def test_records_are_immutable():
    records = (SymmetricCM(1.0, 0.5), PathPoint(1.0, 0.5, 0.1, 0.0), MotionConstant(1.0))
    assert records[2].degenerate is False
    for record in records:
        for name in record._fields + ("extra",):
            with pytest.raises(AttributeError):
                setattr(record, name, 0.0)


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
    assert mean_photons(TWB12) == pytest.approx(math.sinh(1.2) ** 2, rel=1e-14, abs=0)
    for p in random_states(50):
        assert mean_photons(p) == pytest.approx(from_sts(p).a - 0.5, rel=1e-12)


# --------------------------------------------------------------- measures

def test_purity_closed_forms():
    assert purity(SymmetricCM(1.0, 0.0)) == pytest.approx(0.25, rel=1e-15, abs=0)
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
    assert log_negativity(SymmetricCM(1.25, 1.0)) == pytest.approx(math.log(2.0), rel=1e-14, abs=0)


def test_entropic_h():
    assert entropic_h(0.5) == 0.0
    assert entropic_h(1.5) == pytest.approx(2.0 * math.log(2.0), rel=1e-15, abs=0)
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
    assert arr[0] == 0.0 and arr[1] == pytest.approx(2 * math.log(2), rel=1e-14, abs=0)
    assert type(entropic_h(1.5)) is float and type(entropic_h(np.float64(1.5))) is float


def test_entropic_h_large_argument_accuracy():
    # h(x) = ln x + 1 - 1/(24 x^2) + O(x^-4); the direct form
    # (x + 1/2) ln(x + 1/2) - (x - 1/2) ln(x - 1/2) cancels to ~1e-9 here
    for x in (1e4, 1e6, 1e8):
        expected = math.log(x) + 1.0 - 1.0 / (24.0 * x * x)
        assert entropic_h(x) == pytest.approx(expected, rel=1e-15, abs=0)
        assert entropic_h(np.array([x]))[0] == pytest.approx(expected, rel=1e-15, abs=0)


def test_discord_zero_without_correlations():
    for a in (0.5, 1.0, 3.7, 250.0):
        assert discord(a, 0.0) == 0.0
        assert discord(np.array([a]), np.array([0.0]))[0] == 0.0


def test_array_discord_names_the_first_bad_offset():
    # one pass over the offsets of a, nu and the conditional argument, in that order:
    # a bad a anywhere is named before a bad nu earlier in the array
    with pytest.raises(UnphysicalStateError, match=r"got 0\.3"):
        discord(np.array([1.0, 0.3]), np.array([0.9, 0.0]))
    with pytest.raises(UnphysicalStateError, match=r"got 0\.43"):
        discord(np.array([1.0, 1.0]), np.array([0.0, 0.9]))


def test_discord_returns_python_float():
    cm = from_sts(TWB12)
    assert type(discord(cm.a, cm.c)) is float
    assert type(discord(np.float64(1.5), np.float64(0.5))) is float
    assert type(discord(np.array(1.5), np.array(0.5))) is float


# physical states (a, c) = nu (cosh 2r, +-sinh 2r): r = 0 gives c = 0 exactly,
# nu within 1e-6 of 1/2 sits next to the purity boundary, nu in [1/2 - 4e-10, 1/2) puts
# the offsets in entropic_h's clamp band, and nu >= 1e7 gives a from 1e7 to ~2e10
_NU = st.one_of(st.just(0.5), st.floats(0.5, 0.5 + 1e-6), st.floats(0.5, 50.0),
                st.floats(0.5 - 4e-10, 0.5), st.floats(1e7, 1e8))
_R = st.one_of(st.just(0.0), st.floats(0.0, 3.0))


def _discord_by_h(a: float, c: float, h=_h) -> float:
    """The discord term by term through h (_h, or one element of _h_array): the reference
    that the written-out float kernel, and the one-pass array form, equal bit for bit."""
    nu2 = (a - c) * (a + c)
    xa = a - 0.5
    if c == 0.0:
        xn = xc = xa
    else:
        xn = (nu2 - 0.25) / (math.sqrt(max(nu2, 0.0)) + 0.5)
        xc = 2.0 * (nu2 - 0.25) / (1.0 + 2.0 * a)
    return h(xa) - 2.0 * h(xn) + h(xc)


@settings(max_examples=300, deadline=None)
@given(nu=_NU, r=_R, sign=st.sampled_from([1.0, -1.0]))
def test_scalar_discord_and_entropy_match_array_forms(nu, r, sign):
    a, c = nu * math.cosh(2.0 * r), sign * nu * math.sinh(2.0 * r)
    # both forms are the h-term sum floored at 0 (roundoff negatives on near-product states)
    d = discord(a, c)
    assert d == max(_discord_by_h(a, c), 0.0)
    ref = discord(np.array([a]), np.array([c]))[0]
    assert ref == max(_discord_by_h(a, c, h=lambda x: _h_array(np.array([x]))[0]), 0.0)
    # D = h(a) - 2 h(nu) + h(cond) cancels terms up to h(a) in size, and
    # math.log and numpy's log differ by an ulp on a few inputs
    assert d == pytest.approx(ref, rel=1e-13, abs=1e-15 * max(1.0, 4.0 * entropic_h(a)))
    # path_point shares the scalar kernel: its discord is the 0-d discord bit for bit
    # (D is even in c; path_point takes c >= 0)
    assert path_point(SymmetricCM(a, abs(c)), 0.0).discord == discord(a, abs(c))
    for x in (a, math.sqrt(max(a * a - c * c, 0.0)), a - 2.0 * c * c / (1.0 + 2.0 * a)):
        assert entropic_h(x) == pytest.approx(entropic_h(np.array([x]))[0],
                                              rel=1e-13, abs=1e-15)


def test_h_array_one_pass_equals_guarded_branch():
    # all offsets > 1e-300 take the single pass; one 0 appended sends the same values
    # through the clamp-and-guard branch
    rng = np.random.default_rng(11)
    x = np.concatenate([10.0 ** rng.uniform(-299, 12, 500), [1e-299, 0.5, 1.0, 3e7]])
    fast, guarded = _h_array(x), _h_array(np.append(x, 0.0))
    assert fast.tobytes() == guarded[:len(x)].tobytes()
    assert guarded[-1] == 0.0
    grid = x.reshape(4, -1)  # the (3, n) buffer of discord is 2-d too
    assert _h_array(grid).tobytes() == fast.tobytes()


def test_h_array_guards_still_raise_and_clamp():
    for bad, shown in ((math.nan, "nan"), (-1e-3, str(0.5 - 1e-3)), (-1.0, "-0.5")):
        message = f"entropic_h requires x >= 1/2, got {shown}"
        with pytest.raises(UnphysicalStateError, match=f"^{re.escape(message)}$"):
            _h_array(np.array([1.0, 2.0, bad]))
    # the clamp band [1/2 - 1e-9, 1/2] still reads h(1/2) = 0, and x log1p(1/x) is 0
    # at offsets <= 1e-300
    assert _h_array(np.array([1.0, -1e-10, 0.0, 1e-301])).tolist()[1:] == [0.0, 0.0, 1e-301]
    assert _h_array(np.array([1.0, 1e-301]))[1] == 1e-301


def test_discord_is_never_negative_on_near_product_states():
    # c/a <= 1e-6: D ~ c^2 cancels down to roundoff, which both forms floor at 0
    rng = np.random.default_rng(1)
    nu = rng.uniform(0.5, 5.0, 20_000)
    c = nu * 10.0 ** rng.uniform(-12.0, -6.0, nu.size)
    a = np.sqrt(nu * nu + c * c)
    d = discord(a, c)
    assert d.min() >= 0.0 and (d == 0.0).any()
    assert min(discord(x, y) for x, y in zip(a.tolist(), c.tolist())) >= 0.0


def test_discord_raises_below_the_roundoff_floor(monkeypatch):
    # a pure state with offsets (1/8, 0, 0); stand-in h terms (0, low, low) sum to -low:
    # -1e-13 reads 0, and -1e-9, past the 1e-12 floor, raises, in both forms
    for low in (1e-13, 1e-9):
        monkeypatch.setattr(gaussian_core, "_h", lambda xm: 0.0 if xm else low)
        monkeypatch.setattr(gaussian_core, "_h_array", lambda x: np.where(x != 0.0, 0.0, low))
        for a, c in ((0.625, 0.375), (np.array([0.625]), np.array([0.375]))):
            if low < 1e-12:
                assert np.all(discord(a, c) == 0.0)
            else:
                with pytest.raises(UnphysicalStateError, match="^negative discord -1e-09 beyond"):
                    discord(a, c)


def _discord_by_h_arrays(a, c) -> np.ndarray:
    """The array discord from three _h_array passes, broadcast and c = 0 spelled out."""
    a, c = np.broadcast_arrays(np.asarray(a, float), np.asarray(c, float))
    nu2 = (a - c) * (a + c)
    xa = a - 0.5
    xn = np.where(c == 0.0, xa, (nu2 - 0.25) / (np.sqrt(np.maximum(nu2, 0.0)) + 0.5))
    xc = np.where(c == 0.0, xa, 2.0 * (nu2 - 0.25) / (1.0 + 2.0 * a))
    return _h_array(xa) - 2.0 * _h_array(xn) + _h_array(xc)


def test_array_discord_broadcast_and_zero_c_match_h_reference():
    a = np.linspace(0.7, 40.0, 257)
    for c in (0.3, np.array(0.3), np.where(np.arange(257) % 3 == 0, 0.0, 0.3), np.zeros(257)):
        assert discord(a, c).tobytes() == _discord_by_h_arrays(a, c).tobytes()
    # a scalar a against an array c broadcasts the other way
    c = np.array([0.0, 0.2, 0.4])
    assert discord(0.9, c).tobytes() == _discord_by_h_arrays(0.9, c).tobytes()
    assert discord(a[:, None], c[None, :]).shape == (257, 3)


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
    scalar = np.array([discord(x, y)
                       for x, y in zip(a.tolist(), c.tolist())])
    for err in (np.abs(scalar - ref), np.abs(discord(a, c) - ref)):
        assert np.max(err[~pure]) <= 1e-14
        # h'(x) diverges at x = 1/2, so the last-bit rounding of nu^2 - 1/4 costs
        # up to ~4e-15 on pure states
        assert np.max(err[pure]) <= 1e-14


def test_discord_pure_state_identity():
    # on a^2 - c^2 = 1/4 the discord reduces to h(a)
    for r in np.linspace(0.0, 2.5, 26):
        cm = from_sts(STSParams(float(r), 0.0))
        assert discord(cm.a, cm.c) == pytest.approx(entropic_h(cm.a), abs=1e-10)


def test_discord_nonnegative_and_positive_with_correlations():
    rng = np.random.default_rng(3)
    for _ in range(300):
        nu = rng.uniform(0.5, 4.0)
        r = rng.uniform(0.0, 2.0)
        cm = from_sts(STSParams(float(r), float(nu - 0.5)))
        assert discord(cm.a, cm.c) >= -1e-12
    # strictly positive once correlations are numerically resolvable
    for c in np.logspace(-6, 0, 13):
        cm = SymmetricCM(a=math.sqrt(0.25 + 4.0 * c * c) + 0.4, c=float(c))
        assert discord(cm.a, cm.c) > 0.0
    # tiny correlations stay within the roundoff tolerance band
    assert discord(1.0, 1e-8) >= -1e-12


def test_discord_saturation_value():
    # large-squeezing threshold states approach 2 ln 2 - 1
    c = 0.5 * math.sinh(2 * 8.0)
    d = discord(0.5 + c, c)
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
        assert discord(back.a, back.c) == pytest.approx(discord(cm.a, cm.c), abs=1e-10)


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
    assert thermal.mu == pytest.approx(1.0 / 9.0, rel=1e-14, abs=0)
    assert thermal.lam == 1.5 and thermal.discord == 0.0


def test_path_point_converts_numpy_and_int_members_to_floats():
    cm = from_sts(TWB12)
    for a, c in ((np.float64(cm.a), np.float64(cm.c)), (2, 1), (np.float64(3.0), 0),
                 (cm.a, np.float64(cm.c))):
        held = SymmetricCM(a, c)
        assert (type(held.a), type(held.c)) == (type(a), type(c))
        got, want = path_point(held, 0.25), path_point(SymmetricCM(float(a), float(c)), 0.25)
        assert got == want and type(got) is PathPoint
        assert [type(v) for v in got[:3]] == [float, float, float]


def test_path_point_requires_nonnegative_c():
    # (a, -c) is the same state up to a local phase flip, held in the other sign convention:
    # SymmetricCM refuses it before path_point can read a - c as its lambda
    with pytest.raises(UnphysicalStateError, match="c >= 0 sign convention"):
        path_point(SymmetricCM(1.5, -0.5), 0.0)


def test_path_point_constraint_surface():
    for p in random_states(50, seed=23):
        cm = from_sts(p)
        pp = path_point(cm, 0.0)
        assert pp.mu <= 1.0 / (4.0 * pp.lam**2) + 1e-12
        rebuilt = cm_from_mu_lambda(pp.mu, pp.lam)
        assert discord(rebuilt.a, rebuilt.c) == pytest.approx(pp.discord, abs=1e-8)


# ------------------------------------------------ the (mu, lambda) <-> (a, c) map

# canonical states from_sts(r, nu_T): r = 0 puts them on the c = 0 boundary of the map's
# domain 4 mu lambda^2 <= 1, large nu_T and r make a from 1/2 to ~1e10
_CANONICAL = st.builds(STSParams, r=_R, nu_T=st.one_of(st.just(0.0), st.floats(0.0, 50.0),
                                                         st.floats(1e6, 1e7)))


@settings(max_examples=300, deadline=None)
@given(p=_CANONICAL)
def test_mu_lambda_map_returns_a_canonical_state(p):
    cm = from_sts(p)
    back = cm_from_mu_lambda(purity(cm), min_symplectic(cm))
    # rel 1e-12 of the matrix's scale a: c = (v - lambda)/2 carries v's roundoff at that scale
    assert max(abs(back.a - cm.a), abs(back.c - cm.c)) <= 1e-12 * cm.a
    assert log_negativity(cm) == max(0.0, -math.log(2.0 * min_symplectic(cm)))


@settings(max_examples=300, deadline=None)
@given(lam=st.floats(1e-3, 1e3), excess=st.floats(1e-12, 1e6))
def test_mu_lambda_map_refuses_points_past_its_domain(lam, excess):
    # 4 mu lambda^2 > 1 makes c = (v - lambda)/2 negative
    with pytest.raises(UnphysicalStateError, match="c >= 0 sign convention"):
        cm_from_mu_lambda((1.0 + excess) / (4.0 * lam * lam), lam)


def test_mu_lambda_map_refuses_mu_0_05_at_lambda_3():
    # 4 mu lambda^2 = 1.8: (a, c) = (2.333, -0.667) has a - |c| = 1.667, not the lambda = 3
    # asked for
    with pytest.raises(UnphysicalStateError, match="c >= 0 sign convention"):
        cm_from_mu_lambda(0.05, 3.0)
