import io
import math

import numpy as np
import pytest
from scipy.interpolate import PchipInterpolator
from scipy.optimize import brentq

from gaussian_paths import (
    DegenerateInputError,
    InconclusiveThresholdError,
    MapUnphysicalError,
    STSParams,
    SymmetricCM,
    TrajectoryMode,
    build_coefficient_grid,
    constant_of_motion,
    evolve_cm,
    evolve_markovian,
    from_sts,
    path_point,
    purity,
    reachable_markovian,
    reachable_secular,
    separability_time,
    simulate_trajectory,
    write_trajectory_csv,
)
from gaussian_paths.coefficients import CoefficientGrid
from gaussian_paths.dynamics import Trajectory, _check_physical, _pchip_at

from conftest import make_env, make_spec
from gaussian_paths import SpectralKind

TWB12 = from_sts(STSParams(r=1.2, nu_T=0.0))


def markovian_traj(cm0=TWB12, gamma_m=1.0, n_T=10.0, t_max=5.0, n=2001, label="mk"):
    return simulate_trajectory(cm0, mode=TrajectoryMode.MARKOVIAN, t_max=t_max,
                               n_samples=n, gamma_m=gamma_m, n_T=n_T, label=label)


# ------------------------------------------------------------- single maps

def test_evolve_cm_identity_and_stationary():
    out = evolve_cm(TWB12, 0.0, 0.0)
    assert (out.a, out.c) == (TWB12.a, TWB12.c)
    st = evolve_cm(TWB12, 50.0, 21.0)  # deep damping at the n_T = 10 asymptote
    assert st.a == pytest.approx(10.5, rel=1e-12)
    assert st.c == pytest.approx(0.0, abs=1e-15)


def test_evolve_cm_arithmetic_against_matrix_oracle():
    bg, dg = math.log(2.0), 10.5
    out = evolve_cm(TWB12, bg, dg)
    assert out.a == pytest.approx(TWB12.a / 2 + 5.25, rel=1e-14)
    assert out.c == pytest.approx(TWB12.c / 2, rel=1e-14)
    # full 4x4 covariance-matrix evaluation of the same map
    s1 = np.array([[0.0, 1.0], [1.0, 0.0]])
    s3 = np.diag([1.0, -1.0])
    sigma0 = TWB12.a * np.eye(4) + TWB12.c * np.kron(s1, s3)
    sigma1 = math.exp(-bg) * sigma0 + 0.5 * dg * np.eye(4)
    assert out.a == pytest.approx(sigma1[0, 0], rel=1e-14)
    assert out.c == pytest.approx(sigma1[0, 2], rel=1e-14)


def test_evolve_cm_rejects_unphysical_output():
    # pure damping without diffusion shrinks the uncertainty product
    with pytest.raises(MapUnphysicalError):
        evolve_cm(TWB12, 1.0, 0.0)
    with pytest.raises(ValueError):
        evolve_cm(TWB12, -0.1, 0.0)


def test_physicality_check_flags_the_first_bad_sample():
    _check_physical(TWB12.a, TWB12.c)
    _check_physical(np.array([0.5, 2.0]), np.array([0.0, 1.5]))
    with pytest.raises(MapUnphysicalError, match="t = 2.0"):
        _check_physical(np.array([0.5, 2.0, 1.0, 0.4]), np.array([0.0, 1.5, 0.9, 0.0]),
                        np.array([0.0, 1.0, 2.0, 3.0]))
    for a, c in ((-1.0, 0.0), (math.nan, 0.0), (1.0, math.nan)):
        with pytest.raises(MapUnphysicalError):
            _check_physical(a, c)
    # the slack scales with each sample's own a^2: 1e-9 + 8 eps a^2
    big = 1e4
    _check_physical(np.array([0.5, big]), np.array([0.0, math.sqrt(big * big - 0.25)]))


def test_simulate_trajectory_rejects_unphysical_grid():
    # pure damping without diffusion shrinks the uncertainty product
    times = np.array([0.0, 1.0, 2.0])
    grid = CoefficientGrid(times=times, delta=np.zeros(3), gamma=np.array([0.0, 1.0, 1.0]),
                           big_gamma=np.array([0.0, 0.5, 1.5]), delta_gamma=np.zeros(3))
    with pytest.raises(MapUnphysicalError, match="t = "):
        simulate_trajectory(TWB12, mode=TrajectoryMode.NONMARKOVIAN, t_max=2.0,
                            n_samples=5, grid=grid, n_T=0.0)


def test_evolve_markovian_limits_and_consistency():
    assert evolve_markovian(TWB12, 0.01, 10.0, 0.0) is TWB12
    far = evolve_markovian(TWB12, 1.0, 10.0, 1e3)
    assert (far.a, far.c) == (10.5, 0.0)
    mk = markovian_traj(gamma_m=1.0, n_T=10.0, t_max=0.7, n=2)
    via_cm = evolve_cm(TWB12, mk.big_gamma[-1], mk.delta_gamma[-1])
    direct = evolve_markovian(TWB12, 1.0, 10.0, 0.7)
    assert via_cm.a == pytest.approx(direct.a, rel=1e-12)
    assert via_cm.c == pytest.approx(direct.c, rel=1e-12)


def test_evolve_markovian_semigroup_and_fixed_point():
    rng = np.random.default_rng(5)
    for _ in range(30):
        t1, t2 = rng.uniform(0.0, 2.0, 2)
        two = evolve_markovian(evolve_markovian(TWB12, 1.0, 3.0, t1), 1.0, 3.0, t2)
        one = evolve_markovian(TWB12, 1.0, 3.0, t1 + t2)
        assert two.a == pytest.approx(one.a, rel=1e-12)
        assert two.c == pytest.approx(one.c, rel=1e-12)
    stat = SymmetricCM(3.5, 0.0)
    out = evolve_markovian(stat, 1.0, 3.0, 1.234)
    assert (out.a, out.c) == (3.5, 0.0)


def test_evolve_high_t():
    # the high-temperature map is the secular map at Gamma = 0, fed int_0^t Delta
    assert evolve_cm(TWB12, 0.0, 0.0).a == TWB12.a
    lam0 = TWB12.a - TWB12.c
    out = evolve_cm(TWB12, 0.0, 2.0 * (0.5 - lam0))
    assert out.a - out.c == pytest.approx(0.5, rel=1e-13)
    assert out.c == TWB12.c


# ------------------------------------------------------------ trajectories

def test_trajectory_constant_at_zero_coupling(quad):
    grid = build_coefficient_grid(make_spec(SpectralKind.OHMIC), make_env(alpha=0.0), 5.0, quad)
    traj = simulate_trajectory(TWB12, mode=TrajectoryMode.NONMARKOVIAN, t_max=5.0,
                               n_samples=64, grid=grid, n_T=10.0)
    assert np.all(traj.a == TWB12.a) and np.all(traj.c == TWB12.c)


def test_trajectory_markovian_lambda_monotone():
    traj = markovian_traj()
    assert traj.points[0][0] == 0.0
    assert traj.points[0][1] == TWB12
    assert np.all(np.diff(traj.lam) > 0)


def test_trajectory_nonmarkovian_lambda_oscillates(offres_weak_grid):
    _, env, grid = offres_weak_grid
    traj = simulate_trajectory(TWB12, mode=TrajectoryMode.NONMARKOVIAN, t_max=40.0,
                               n_samples=4001, grid=grid, n_T=env.n_T)
    dl = np.diff(traj.lam)
    assert np.min(dl) < 0 < np.max(dl)


def test_trajectory_physicality_and_damping_law(resonant_grids):
    _, env, grid = resonant_grids[SpectralKind.OHMIC]
    n = len(grid.times)
    traj = simulate_trajectory(TWB12, mode=TrajectoryMode.NONMARKOVIAN, t_max=grid.t_max,
                               n_samples=n, grid=grid, n_T=env.n_T)
    assert np.all(traj.a**2 - traj.c**2 >= 0.25 - 1e-9)
    assert np.max(np.abs(traj.c / TWB12.c - np.exp(-grid.big_gamma))) < 1e-10


def test_trajectory_validation_errors(resonant_grids):
    _, env, grid = resonant_grids[SpectralKind.OHMIC]
    with pytest.raises(ValueError):
        simulate_trajectory(TWB12, mode=TrajectoryMode.NONMARKOVIAN, t_max=30.0,
                            n_samples=100, grid=grid, n_T=env.n_T)  # grid too short
    with pytest.raises(ValueError):
        simulate_trajectory(TWB12, mode=TrajectoryMode.MARKOVIAN, t_max=1.0,
                            n_samples=1, gamma_m=1.0, n_T=0.0)
    with pytest.raises(ValueError):
        simulate_trajectory(TWB12, mode=TrajectoryMode.NONMARKOVIAN, t_max=1.0,
                            n_samples=10, grid=None, n_T=1.0)


@pytest.mark.parametrize("name, bad", [("t_max", math.nan), ("n_T", math.nan), ("n_T", -0.4),
                                       ("gamma_m", math.nan), ("gamma_m", math.inf),
                                       ("gamma_m", -1.0)])
def test_bad_time_rate_or_temperature_is_a_named_value_error(name, bad):
    # NaN slips past `x <= 0` checks; these must not surface as a broken map
    args = {"t_max": 5.0, "gamma_m": 1.0, "n_T": 10.0, name: bad}
    with pytest.raises(ValueError, match=name):
        simulate_trajectory(TWB12, mode=TrajectoryMode.MARKOVIAN, n_samples=101, **args)
    if name != "t_max":
        with pytest.raises(ValueError, match=name):
            evolve_markovian(TWB12, args["gamma_m"], args["n_T"], 1.0)


def _random_samples(rng, n, kind):
    x = np.cumsum(rng.uniform(0.05, 2.0, n)) - 1.0
    if kind == "monotone":
        y = np.cumsum(rng.uniform(0.0, 1.0, n))
    elif kind == "flat-steps":  # zero secants and sign changes next to them
        y = rng.integers(-2, 3, n).astype(float)
    else:
        y = rng.normal(size=n) * 10.0 ** rng.integers(-6, 6)
    return x, y


@pytest.mark.parametrize("kind", ["monotone", "flat-steps", "oscillating"])
def test_pchip_piece_matches_scipy_pchip(kind):
    # every interval of 2-12 samples, so windows at both ends of the data too
    rng = np.random.default_rng(["monotone", "flat-steps", "oscillating"].index(kind))
    for _ in range(400):
        n = int(rng.integers(2, 13))
        x, y = _random_samples(rng, n, kind)
        full = PchipInterpolator(x, y)
        for lo, hi in zip(x[:-1], x[1:]):
            for t in (lo + rng.random(3) * (hi - lo)).tolist() + [float(lo), float(hi)]:
                assert _pchip_at(x, y, t) == float(full(t))


@pytest.mark.parametrize("kind", list(SpectralKind))
def test_grid_separability_time_is_the_pchip_root(resonant_grids, kind):
    _, env, grid = resonant_grids[kind]
    for r0 in (0.3, 1.2, 2.7):
        for mode in (TrajectoryMode.NONMARKOVIAN, TrajectoryMode.HIGH_TEMPERATURE):
            traj = simulate_trajectory(from_sts(STSParams(r=r0, nu_T=0.0)), mode=mode,
                                       t_max=25.0, n_samples=2001, grid=grid, n_T=env.n_T)
            t_sep = separability_time(traj)
            i = int(np.nonzero(traj.lam >= 0.5)[0][0])
            full = PchipInterpolator(traj.times, traj.lam)
            root = brentq(lambda t: float(full(t)) - 0.5, traj.times[i - 1], traj.times[i],
                          xtol=1e-300, rtol=4.0 * np.finfo(float).eps)
            assert abs(t_sep - root) <= 4.0 * np.spacing(root)
            # and exactly the first float at which the interpolant reaches 1/2
            assert float(full(t_sep)) >= 0.5 > float(full(np.nextafter(t_sep, 0.0)))


# ------------------------------------------------------- separability time

def test_separability_markovian_closed_form():
    lam0 = TWB12.a - TWB12.c
    expected = math.log((10.5 - lam0) / (10.5 - 0.5))
    t_sep = separability_time(markovian_traj(gamma_m=1.0, n_T=10.0, t_max=1.0))
    assert t_sep == pytest.approx(expected, rel=1e-12)
    # same samples pushed through the grid-mode interpolating root finder
    mk = markovian_traj(gamma_m=1.0, n_T=10.0, t_max=1.0, n=4001)
    as_grid = Trajectory(mode=TrajectoryMode.NONMARKOVIAN, initial=mk.initial,
                         times=mk.times, a=mk.a, c=mk.c, big_gamma=mk.big_gamma,
                         delta_gamma=mk.delta_gamma, n_T=mk.n_T)
    assert separability_time(as_grid) == pytest.approx(expected, rel=1e-9)


def test_separability_zero_temperature_never():
    traj = markovian_traj(gamma_m=1.0, n_T=0.0, t_max=40.0)
    assert separability_time(traj) is None
    # lambda approaches 1/2 from below, saturating to 0.5 within roundoff
    assert np.all(traj.lam <= 0.5 + 1e-12)
    assert np.all(traj.lam[:100] < 0.5)


def test_separability_already_separable():
    traj = markovian_traj(cm0=SymmetricCM(1.5, 0.0), n_T=0.5, t_max=1.0)
    assert separability_time(traj) == 0.0


def test_separability_inconclusive_is_distinct(resonant_grids):
    _, env, grid = resonant_grids[SpectralKind.OHMIC]
    short = simulate_trajectory(TWB12, mode=TrajectoryMode.NONMARKOVIAN, t_max=1.0,
                                n_samples=201, grid=grid, n_T=env.n_T)
    with pytest.raises(InconclusiveThresholdError):
        separability_time(short)
    with pytest.raises(InconclusiveThresholdError):
        separability_time(markovian_traj(gamma_m=1.0, n_T=10.0, t_max=0.01))


# ------------------------------------------------------------ reachability

def test_reachable_identity_and_growth():
    dec = reachable_markovian(TWB12, TWB12)
    assert dec.reachable and dec.gamma_m_t == 0.0 and dec.n_T is None
    mixed = from_sts(STSParams(r=0.6, nu_T=0.5))
    grown = SymmetricCM(mixed.a, mixed.c * 1.01)
    dec = reachable_markovian(mixed, grown)
    assert not dec.reachable and dec.violated == "c-growth"


def test_reachable_excluded_low_purity_target():
    # lower purity and entanglement than the source, yet Markovian-excluded:
    # the implied bath occupation comes out at n_T + 1/2 = 0.4 < 1/2
    x = 0.5
    target = SymmetricCM(TWB12.a * x + 0.4 * (1 - x), TWB12.c * x)
    assert purity(target) < purity(TWB12)
    assert target.a - target.c > TWB12.a - TWB12.c
    dec = reachable_markovian(TWB12, target)
    assert not dec.reachable and dec.violated == "negative-temperature"
    # the wider secular family does reach it (Delta_Gamma = 0.8 (1 - x) >= 0)
    sec = reachable_secular(TWB12, target)
    assert sec.reachable
    assert sec.big_gamma == pytest.approx(math.log(2.0), rel=1e-12)
    assert sec.delta_gamma == pytest.approx(0.8 * (1 - x), rel=1e-12)


def test_reachable_secular_excluded():
    # a mixed source leaves room for physical targets below the damping line
    cm0 = from_sts(STSParams(r=0.5, nu_T=2.0))
    x = 0.5
    target = SymmetricCM(1.6, cm0.c * x)  # physical, yet a1 < a0 * x
    assert target.a < cm0.a * x
    sec = reachable_secular(cm0, target)
    assert not sec.reachable and sec.violated == "negative-diffusion"


def test_reachable_roundtrip_recovery():
    rng = np.random.default_rng(42)
    for _ in range(50):
        cm0 = from_sts(STSParams(r=float(rng.uniform(0.1, 2.0)),
                                 nu_T=float(rng.uniform(0.0, 2.0))))
        gt = float(rng.uniform(0.01, 5.0))
        n_T = float(rng.uniform(0.0, 20.0))
        cm1 = evolve_markovian(cm0, 1.0, n_T, gt)
        dec = reachable_markovian(cm0, cm1)
        assert dec.reachable
        assert dec.gamma_m_t == pytest.approx(gt, rel=1e-9, abs=1e-9)
        assert dec.n_T == pytest.approx(n_T, rel=1e-9, abs=1e-9)


def test_reachable_degenerate_input():
    with pytest.raises(DegenerateInputError):
        reachable_markovian(SymmetricCM(1.0, 0.0), TWB12)
    with pytest.raises(DegenerateInputError):
        reachable_secular(SymmetricCM(1.0, 0.0), TWB12)


# -------------------------------------------------------- constant of motion

def com_inputs(cm0, n_T):
    lam0 = cm0.a - cm0.c
    mu0 = purity(cm0)
    return lam0, mu0, n_T + 0.5


def test_constant_of_motion_definition():
    lam0, mu0, lam_t = com_inputs(TWB12, 10.0)
    v0 = 1.0 / (4.0 * mu0 * lam0)
    k = (lam_t - lam0) / (v0 - lam_t)
    c = constant_of_motion(path_point(TWB12, 0.0), lam0, mu0, lam_t)
    assert not c.degenerate
    assert c.value == pytest.approx(lam0 + k * v0, rel=1e-12)


def test_constant_of_motion_markovian_drift():
    for n_T in (0.5, 10.0):
        traj = markovian_traj(n_T=n_T, t_max=5.0, n=101)
        lam0, mu0, lam_t = com_inputs(TWB12, n_T)
        vals = np.array([constant_of_motion(path_point(cm, t), lam0, mu0, lam_t).value
                         for t, cm in traj.points])
        assert np.max(np.abs(vals - vals[0])) <= 1e-8 * abs(vals[0])


def test_constant_of_motion_degenerate_flag():
    # v0 = a0 + c0 equals lambda_T: coefficient undetermined
    cm0 = SymmetricCM(1.5, 0.0)
    lam0, mu0, lam_t = com_inputs(cm0, 1.0)
    out = constant_of_motion(path_point(cm0, 0.0), lam0, mu0, lam_t)
    assert out.degenerate and out.value == 1.5


def test_constant_of_motion_array_matches_point_loop(resonant_grids):
    _, env, grid = resonant_grids[SpectralKind.OHMIC]
    traj = simulate_trajectory(TWB12, mode=TrajectoryMode.NONMARKOVIAN, t_max=25.0,
                               n_samples=2001, grid=grid, n_T=env.n_T)
    lam0, mu0, lam_t = com_inputs(TWB12, env.n_T)
    loop = np.array([constant_of_motion(path_point(cm, t), lam0, mu0, lam_t).value
                     for t, cm in traj.points])
    out = constant_of_motion(traj, lam0, mu0, lam_t)
    assert not out.degenerate
    np.testing.assert_allclose(out.value, loop, rtol=1e-15, atol=0.0)


def test_lambda_and_v_relax_identically(resonant_grids):
    # v = (4 lambda mu)^{-1} = a + c and lambda = a - c both follow
    # x(t) = x0 e^{-Gamma} + Delta_Gamma/2
    _, env, grid = resonant_grids[SpectralKind.OHMIC]
    n = len(grid.times)
    traj = simulate_trajectory(TWB12, mode=TrajectoryMode.NONMARKOVIAN, t_max=grid.t_max,
                               n_samples=n, grid=grid, n_T=env.n_T)
    mu = 1.0 / (4.0 * (traj.a**2 - traj.c**2))
    v = 1.0 / (4.0 * traj.lam * mu)
    np.testing.assert_allclose(v, traj.a + traj.c, rtol=1e-12)
    decay = np.exp(-traj.big_gamma)
    lam0, v0 = TWB12.a - TWB12.c, TWB12.a + TWB12.c
    np.testing.assert_allclose(traj.lam, lam0 * decay + traj.delta_gamma / 2, rtol=0, atol=1e-10)
    np.testing.assert_allclose(v, v0 * decay + traj.delta_gamma / 2, rtol=1e-10)


# --------------------------------------------------------------------- CSV

def test_trajectory_csv_schema():
    traj = markovian_traj(t_max=1.0, n=11)
    buf = io.StringIO()
    write_trajectory_csv(traj, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "t,a,c,mu,lambda,discord,big_gamma,delta_gamma"
    assert len(lines) == 12
    first = [float(x) for x in lines[1].split(",")]
    assert first[:3] == [0.0, TWB12.a, TWB12.c]
