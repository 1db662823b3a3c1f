import gc
import io
import math
import re
import sys
import threading
import weakref

import numpy as np
import pytest
from scipy.optimize import brentq

from gaussian_paths import (
    DegenerateInputError,
    InconclusiveThresholdError,
    MapUnphysicalError,
    STSParams,
    SymmetricCM,
    TrajectoryMode,
    UnphysicalStateError,
    build_coefficient_grid,
    cm_from_mu_lambda,
    constant_of_motion,
    dsep_from_trajectory,
    dsep_universal,
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
from gaussian_paths import dynamics
from gaussian_paths.coefficients import CoefficientGrid
from gaussian_paths.dynamics import Channel, Trajectory, _check_physical

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
    assert out.a == pytest.approx(TWB12.a / 2 + 5.25, rel=1e-14, abs=0)
    assert out.c == pytest.approx(TWB12.c / 2, rel=1e-14, abs=0)
    # full 4x4 covariance-matrix evaluation of the same map
    s1 = np.array([[0.0, 1.0], [1.0, 0.0]])
    s3 = np.diag([1.0, -1.0])
    sigma0 = TWB12.a * np.eye(4) + TWB12.c * np.kron(s1, s3)
    sigma1 = math.exp(-bg) * sigma0 + 0.5 * dg * np.eye(4)
    assert out.a == pytest.approx(sigma1[0, 0], rel=1e-14, abs=0)
    assert out.c == pytest.approx(sigma1[0, 2], rel=1e-14, abs=0)


def test_evolve_cm_rejects_unphysical_output():
    # pure damping without diffusion shrinks the uncertainty product
    with pytest.raises(MapUnphysicalError):
        evolve_cm(TWB12, 1.0, 0.0)
    with pytest.raises(ValueError):
        evolve_cm(TWB12, -0.1, 0.0)
    # Gamma = inf is the fully damped limit: the correlations are gone
    assert evolve_cm(TWB12, math.inf, 1.0) == SymmetricCM(0.5, 0.0)


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
                           big_gamma=np.array([0.0, 0.5, 1.5]), delta_gamma=np.zeros(3), n_T=0.0)
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


def test_evolve_markovian_without_damping_is_the_identity():
    # gamma_m = 0 moves nothing, also at t = inf, where exp(-0 * inf) would be NaN
    for t in (0.0, 1.0, math.inf):
        assert evolve_markovian(TWB12, 0.0, 10.0, t) is TWB12


def test_evolve_markovian_refuses_negative_time():
    for t in (-0.5, -math.inf, math.nan):
        with pytest.raises(ValueError, match="^t must be >= 0"):
            evolve_markovian(TWB12, 1.0, 10.0, t)


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
    assert out.a - out.c == pytest.approx(0.5, rel=1e-13, abs=0)
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
    with pytest.raises(ValueError, match=r"grid covers \[0, "):
        simulate_trajectory(TWB12, mode=TrajectoryMode.NONMARKOVIAN, t_max=30.0,
                            n_samples=100, grid=grid, n_T=env.n_T)  # grid too short
    with pytest.raises(ValueError):
        simulate_trajectory(TWB12, mode=TrajectoryMode.MARKOVIAN, t_max=1.0,
                            n_samples=1, gamma_m=1.0, n_T=0.0)
    with pytest.raises(ValueError):
        simulate_trajectory(TWB12, mode=TrajectoryMode.NONMARKOVIAN, t_max=1.0,
                            n_samples=10, grid=None, n_T=1.0)
    # exactly one channel per mode: a grid in Markovian mode or a rate in a grid mode
    # is not ignored
    with pytest.raises(ValueError, match="no grid"):
        simulate_trajectory(TWB12, mode=TrajectoryMode.MARKOVIAN, t_max=1.0, n_samples=10,
                            gamma_m=1.0, grid=grid, n_T=env.n_T)
    for mode in (TrajectoryMode.NONMARKOVIAN, TrajectoryMode.HIGH_TEMPERATURE):
        with pytest.raises(ValueError, match="no gamma_m"):
            simulate_trajectory(TWB12, mode=mode, t_max=1.0, n_samples=10, grid=grid,
                                gamma_m=1.0, n_T=env.n_T)


def test_a_grid_channel_reads_n_T_from_its_grid(resonant_grids):
    # the r0 = 2 vacuum on the n_T = 10 grid crosses at t = 6.09: by t_max = 0.5 that is
    # inconclusive, which an n_T = 0 channel (lambda_T = 1/2) would have read as never
    _, env, grid = resonant_grids[SpectralKind.OHMIC]
    channel = Channel(TrajectoryMode.NONMARKOVIAN, grid=grid)
    assert grid.n_T == channel.n_T == env.n_T == 10.0 and channel.lambda_T == 10.5
    vacuum = from_sts(STSParams(r=2.0, nu_T=0.0))
    with pytest.raises(InconclusiveThresholdError):
        channel.crossing(vacuum, 0.5)
    assert channel.crossing(vacuum, 25.0)[0] == pytest.approx(6.09, abs=0.005)
    for n_T in (0.0, math.nan):
        with pytest.raises(ValueError, match=f"n_T = {n_T} differs from the grid's n_T = 10.0"):
            simulate_trajectory(vacuum, mode=TrajectoryMode.NONMARKOVIAN, t_max=0.5,
                                n_samples=2, grid=grid, n_T=n_T)
    with pytest.raises(ValueError, match="reads n_T = 10.0 from its grid, got n_T = 10.0"):
        Channel(TrajectoryMode.NONMARKOVIAN, 10.0, grid=grid)
    traj = simulate_trajectory(vacuum, mode=TrajectoryMode.NONMARKOVIAN, t_max=0.5,
                               n_samples=2, grid=grid, n_T=10.0)  # an equal n_T is dropped
    assert traj.n_T == 10.0 and traj.channel.grid is grid


# --------------------------------------------------------- channel windows

def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


@pytest.mark.parametrize("mode", [TrajectoryMode.NONMARKOVIAN, TrajectoryMode.HIGH_TEMPERATURE])
def test_grid_window_is_sampled_once_and_shared_read_only(quad, mode):
    env = make_env()
    grid = build_coefficient_grid(make_spec(SpectralKind.OHMIC), env, 3.0, quad)

    def run(cm0, t_max=2.5, n=41):
        return simulate_trajectory(cm0, mode=mode, t_max=t_max, n_samples=n, grid=grid,
                                   n_T=env.n_T)

    first, second = run(TWB12), run(from_sts(STSParams(r=0.4, nu_T=0.3)))
    channel = Channel(mode, grid=grid)
    window = channel.window(2.5, 41)
    assert len(window) == 4
    for traj in (first, second):
        for got, shared in zip((traj.times, traj.big_gamma, traj.delta_gamma), window):
            assert got is shared
    for v in window:
        assert not v.flags.writeable
        with pytest.raises(ValueError):
            v[0] = 1.0
    # the knots that the crossing maps over (high-T's int_0^t Delta among them) are formed
    # once per grid and mode, read-only
    knots = channel._windows(mode, env.n_T, None, None, None)
    assert knots is channel._windows(mode, env.n_T, None, None, None)
    assert knots[0] is grid.times and not any(v.flags.writeable for v in knots)
    # bit for bit what the channel and np.exp give at the same times
    times = np.linspace(0.0, 2.5, 41)
    big_gamma, delta_gamma = channel(times)
    for got, want in zip(window, (times, big_gamma, delta_gamma, np.exp(-big_gamma))):
        assert _bits(got) == _bits(want)
    # another t_max or n_samples is another window, kept beside the first
    fewer, shorter = run(TWB12, n=17), run(TWB12, t_max=2.0)
    assert fewer.times is not first.times and shorter.times is not first.times
    assert channel.window(2.5, 17)[0] is fewer.times
    assert channel.window(2.0, 41)[0] is shorter.times
    assert run(TWB12).times is first.times
    # a float n_samples is refused as np.linspace refused it, cached window or not
    with pytest.raises(TypeError):
        run(TWB12, n=41.0)


def test_grid_window_too_short_raises_every_time_and_caps_the_windows(quad):
    env = make_env()
    grid = build_coefficient_grid(make_spec(SpectralKind.OHMIC), env, 3.0, quad)
    windows = Channel(TrajectoryMode.NONMARKOVIAN, grid=grid)._windows
    for _ in range(2):
        with pytest.raises(ValueError, match=r"grid covers \[0, "):
            simulate_trajectory(TWB12, mode=TrajectoryMode.NONMARKOVIAN, t_max=4.0,
                                n_samples=11, grid=grid, n_T=env.n_T)
    assert windows.cache_info().currsize == 0
    # the grid keeps a fixed number of windows, the least recently used evicted first
    last = 2 + dynamics.CHANNEL_WINDOWS
    trajs = {n: simulate_trajectory(TWB12, mode=TrajectoryMode.NONMARKOVIAN, t_max=1.0,
                                    n_samples=n, grid=grid, n_T=env.n_T)
             for n in range(2, last + 1)}
    assert windows.cache_info().currsize == windows.cache_info().maxsize
    assert windows.cache_info().maxsize == dynamics.CHANNEL_WINDOWS
    channel = trajs[last].channel
    assert all(channel.window(1.0, n)[0] is trajs[n].times for n in range(3, last + 1))
    assert channel.window(1.0, 2)[0] is not trajs[2].times


def test_grid_windows_shared_across_threads(quad):
    # more threads than cores, more window sizes than the grid keeps, and a short switch
    # interval: every trajectory must still read its own window, and the cache stay capped
    env = make_env()
    spec = make_spec(SpectralKind.OHMIC)
    grid, twin = (build_coefficient_grid(spec, env, 3.0, quad) for _ in range(2))
    sizes = list(range(2, 2 + 2 * dynamics.CHANNEL_WINDOWS))

    def run(g, n):
        return simulate_trajectory(TWB12, mode=TrajectoryMode.NONMARKOVIAN, t_max=2.0,
                                   n_samples=n, grid=g, n_T=env.n_T).a

    expected = {n: _bits(run(twin, n)) for n in sizes}
    errors = []

    def worker(seed):
        order = np.random.default_rng(seed).permutation(sizes * 10)
        try:
            for n in order.tolist():
                if _bits(run(grid, n)) != expected[n]:
                    errors.append(f"n_samples = {n}: wrong window")
        except Exception as exc:  # reported below with the thread's seed
            errors.append(f"{seed}: {exc!r}")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    info = Channel(TrajectoryMode.NONMARKOVIAN, grid=grid)._windows.cache_info()
    assert 0 < info.currsize <= info.maxsize == dynamics.CHANNEL_WINDOWS


def test_grid_windows_are_freed_with_the_grid(quad):
    # a grid's windows and knots live in its own cache, which holds the grid only weakly:
    # dropping the last reference to the grid frees both at once, with no cycle to collect
    env = make_env()
    grid = build_coefficient_grid(make_spec(SpectralKind.OHMIC), env, 3.0, quad)
    traj = simulate_trajectory(from_sts(STSParams(r=0.05, nu_T=0.0)), n_T=env.n_T,
                               mode=TrajectoryMode.HIGH_TEMPERATURE, t_max=2.5, n_samples=41,
                               grid=grid)
    assert separability_time(traj) is not None  # the knot window, beside the sampled one
    assert traj.channel._windows.cache_info().currsize == 2
    grids, probes = len(dynamics._GRID_WINDOWS), [weakref.ref(grid), weakref.ref(traj.times)]
    gc.disable()
    try:
        del grid, traj
        assert [probe() for probe in probes] == [None, None]
    finally:
        gc.enable()
    assert len(dynamics._GRID_WINDOWS) == grids - 1


def test_markovian_window_per_rate_temperature_and_sampling():
    low, high = markovian_traj(n_T=1.0, t_max=3.0, n=31), markovian_traj(n_T=2.0, t_max=3.0, n=31)
    assert markovian_traj(n_T=1.0, t_max=3.0, n=31).delta_gamma is low.delta_gamma
    assert not low.delta_gamma.flags.writeable and not low.times.flags.writeable
    assert high.delta_gamma is not low.delta_gamma
    assert np.all(high.delta_gamma[1:] > low.delta_gamma[1:])
    assert _bits(high.big_gamma) == _bits(low.big_gamma)
    times = np.linspace(0.0, 3.0, 31)
    for traj, n_T in ((low, 1.0), (high, 2.0)):
        big_gamma, delta_gamma = Channel(TrajectoryMode.MARKOVIAN, n_T, gamma_m=1.0)(times)
        assert _bits(traj.times) == _bits(times)
        assert _bits(traj.big_gamma) == _bits(big_gamma)
        assert _bits(traj.delta_gamma) == _bits(delta_gamma)
        assert _bits(traj.c) == _bits(TWB12.c * np.exp(-big_gamma))


def test_window_refuses_a_bad_span_or_sample_count(quad):
    # the checks a Trajectory relies on live in window(), so direct callers get them too and
    # nothing bad reaches the window cache
    grid = build_coefficient_grid(make_spec(SpectralKind.OHMIC), make_env(), 3.0, quad)
    markovian = Channel(TrajectoryMode.MARKOVIAN, 10.0, gamma_m=1.0)
    on_grid = Channel(TrajectoryMode.NONMARKOVIAN, grid=grid)
    for channel in (markovian, on_grid):
        for t_max, n, message in ((-1.0, 5, "t_max must be finite and > 0"),
                                  (math.inf, 3, "t_max must be finite and > 0"),
                                  (1.0, 1, "n_samples must be >= 2"),
                                  (1.0, 0, "n_samples must be >= 2")):
            with pytest.raises(ValueError, match=message):
                channel.window(t_max, n)
    assert on_grid._windows.cache_info().currsize == 0


def test_markovian_channel_refuses_knots_and_negative_times():
    channel = Channel(TrajectoryMode.MARKOVIAN, 10.0, gamma_m=1.0)
    with pytest.raises(ValueError, match="a Markovian channel has no knots"):
        channel()
    for t in (-1.0, math.nan, np.array([0.0, 1.0, -1e-300])):
        with pytest.raises(ValueError, match="a Markovian channel covers t >= 0"):
            channel(t)
    big_gamma, delta_gamma = channel(np.array([0.0, 1.0]))
    assert big_gamma.tolist() == [0.0, 1.0] and delta_gamma[0] == 0.0


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


@pytest.mark.parametrize("fn, args, name", [
    (evolve_cm, (TWB12, math.nan, 0.0), "big_gamma"),
    (evolve_cm, (TWB12, 0.0, math.nan), "delta_gamma"),
    (evolve_cm, (TWB12, 1.0, math.inf), "delta_gamma"),
    (constant_of_motion, (path_point(TWB12, 0.0), math.nan, 1.0, 10.5), "lambda0"),
    (constant_of_motion, (path_point(TWB12, 0.0), 0.1, math.nan, 10.5), "mu0"),
    (constant_of_motion, (path_point(TWB12, 0.0), 0.1, 1.0, math.nan), "lambda_T"),
    (constant_of_motion, (path_point(TWB12, 0.0), 0.1, 1.0, -math.inf), "lambda_T"),
    (dsep_universal, (math.nan,), "r0"),
    (dsep_universal, (math.inf,), "r0"),
    (cm_from_mu_lambda, (math.nan, 0.5), "mu"),
    (cm_from_mu_lambda, (math.inf, 0.5), "mu"),
    (cm_from_mu_lambda, (1.0, math.nan), "lam"),
    (cm_from_mu_lambda, (1.0, math.inf), "lam"),
    (cm_from_mu_lambda, (1.0, -math.inf), "lam"),
    (constant_of_motion, (path_point(TWB12, 0.0), -0.1, 1.0, 10.5), "lambda0"),
    (constant_of_motion, (path_point(TWB12, 0.0), 0.1, 0.0, 10.5), "mu0"),
], ids=lambda v: getattr(v, "__name__", None))
def test_non_finite_argument_is_a_named_value_error(fn, args, name):
    # NaN passes `x < 0` checks; -inf lambda_T read as a degenerate constant.  The motion
    # coefficient is cached per (lambda0, mu0, lambda_T): a bad triple raises on every
    # call, before and after a good call with the same other arguments
    for _ in range(2):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            fn(*args)
    if fn is constant_of_motion:
        assert not constant_of_motion(args[0], 0.1, 1.0, 10.5).degenerate
        with pytest.raises(ValueError, match=f"^{name} must be"):
            fn(*args)


def _interpolant_lam(grid, mode, cm0, t):
    """lambda(t) of the grid channel at the times t, from np.interp on the grid arrays
    and formed as the trajectory forms it."""
    if mode is TrajectoryMode.NONMARKOVIAN:
        big_gamma, delta_gamma = grid.big_gamma, grid.delta_gamma
    else:  # high-T: Gamma = 0, Delta_Gamma = int_0^t Delta on the nodes
        big_gamma = np.zeros_like(grid.times)
        delta_gamma = np.concatenate([[0.0], np.cumsum(0.5 * (grid.delta[1:] + grid.delta[:-1])
                                                       * np.diff(grid.times))])
    x = np.exp(-np.interp(t, grid.times, big_gamma))
    return (cm0.a * x + 0.5 * np.interp(t, grid.times, delta_gamma)) - cm0.c * x


@pytest.mark.parametrize("kind", list(SpectralKind))
def test_grid_separability_time_is_the_interpolant_root(resonant_grids, kind):
    # the root of the grid's own interpolant: Gamma, Delta_Gamma linear between nodes
    _, env, grid = resonant_grids[kind]
    for r0 in (0.3, 1.2, 2.7):
        cm0 = from_sts(STSParams(r=r0, nu_T=0.0))
        for mode in (TrajectoryMode.NONMARKOVIAN, TrajectoryMode.HIGH_TEMPERATURE):
            traj = simulate_trajectory(cm0, mode=mode, t_max=25.0, n_samples=2001, grid=grid,
                                       n_T=env.n_T)
            t_sep = separability_time(traj)
            # exactly the first float at which the interpolant reaches 1/2
            at, before = _interpolant_lam(grid, mode, cm0, [t_sep, np.nextafter(t_sep, 0.0)])
            assert at >= 0.5 > before
            k = int(np.searchsorted(grid.times, t_sep))
            lo_hi = grid.times[k - 1:k + 1]
            root = brentq(lambda t: float(_interpolant_lam(grid, mode, cm0, t)) - 0.5, *lo_hi,
                          xtol=1e-300, rtol=4.0 * np.finfo(float).eps)
            # lambda = (a0 x + Delta_Gamma/2) - c0 x rounds to a few ulps of a0, which
            # blurs the root by that over the slope of lambda (~5 ulps of t at r0 = 2.7)
            slope = np.diff(_interpolant_lam(grid, mode, cm0, lo_hi))[0] / np.diff(lo_hi)[0]
            assert abs(t_sep - root) <= 4.0 * (np.spacing(root) + np.spacing(cm0.a) / slope)
            assert np.all(_interpolant_lam(grid, mode, cm0, grid.times[:k]) < 0.5)


@pytest.mark.parametrize("kind", list(SpectralKind))
def test_separability_time_and_dsep_independent_of_sampling(resonant_grids, kind):
    _, env, grid = resonant_grids[kind]
    for r0 in (0.3, 1.2, 2.7):
        cm0 = from_sts(STSParams(r=r0, nu_T=0.0))
        for mode in (TrajectoryMode.NONMARKOVIAN, TrajectoryMode.HIGH_TEMPERATURE):
            found = set()
            for n in (1001, 2001, 4001):
                traj = simulate_trajectory(cm0, mode=mode, t_max=25.0, n_samples=n, grid=grid,
                                           n_T=env.n_T)
                found.add((separability_time(traj), dsep_from_trajectory(traj)))
            assert len(found) == 1


def test_crossing_brackets_the_threshold(resonant_grids):
    # bisection ends on adjacent floats with lambda < 1/2 at the lower, in the channel's
    # interpolant and the map's rounding, and at t_sep, unless t_sep is a knot, lambda >= 1/2.
    # Within a few dozen ulps the rounded lambda need not be monotone, so t_sep is a crossing,
    # not always the first float past 1/2
    rng = np.random.default_rng(20_261_021)
    seen = 0
    for _, _, grid in resonant_grids.values():
        knots = set(grid.times.tolist())
        for mode in (TrajectoryMode.NONMARKOVIAN, TrajectoryMode.HIGH_TEMPERATURE):
            channel = Channel(mode, grid=grid)

            def lam(t):
                big_gamma, delta_gamma = channel(np.array([t]))
                x = np.exp(-big_gamma)
                return float(((cm0.a * x + 0.5 * delta_gamma) - cm0.c * x)[0])

            for r in rng.uniform(0.05, 3.0, 20):
                cm0 = from_sts(STSParams(r=float(r), nu_T=float(rng.uniform(0.0, 0.5))))
                t_sep = channel.crossing(cm0, grid.t_max)[0]
                if t_sep > 0.0:
                    seen += 1
                    assert lam(math.nextafter(t_sep, 0.0)) < 0.5
                    assert t_sep in knots or lam(t_sep) >= 0.5
    assert seen >= 100


def test_grid_crossing_is_the_channels_first():
    # lambda = 0.3 + Delta_Gamma/2 passes 1/2 at node 5 only and falls back before t = 5.5.
    # A sample on node 5 (t_max = 10), samples that miss the excursion (t_max = 11), a
    # t_max between nodes (5.3) and samples that all read lambda = 0.3, the excursion over
    # by t_max (7, 8), all give the channel's first crossing, on [4, 5]
    delta_gamma = np.zeros(12)
    delta_gamma[5], delta_gamma[-2:] = 0.6, 1.0
    grid = CoefficientGrid(times=np.arange(12.0), delta=np.zeros(12), gamma=np.zeros(12),
                           big_gamma=np.zeros(12), delta_gamma=delta_gamma, n_T=1.0)
    cm0 = SymmetricCM(0.6, 0.3)  # lambda0 = 0.3
    found = set()
    for t_max, lam in ((10.0, [0.3, 0.6, 0.8]), (11.0, [0.3, 0.45, 0.8]), (5.3, [0.3, 0.51]),
                       (7.0, [0.3, 0.3]), (8.0, [0.3, 0.3, 0.3])):
        traj = simulate_trajectory(cm0, mode=TrajectoryMode.NONMARKOVIAN, t_max=t_max,
                                   n_samples=len(lam), grid=grid, n_T=1.0)
        np.testing.assert_allclose(traj.lam, lam, rtol=1e-14)
        found.add((separability_time(traj), dsep_from_trajectory(traj)))
    assert len(found) == 1
    # lambda = 0.3 + 0.3 (t - 4) on [4, 5]
    assert found.pop()[0] == pytest.approx(4.0 + 2.0 / 3.0, rel=1e-15, abs=0)
    # the first knot crossing lies in the knot interval that holds t_max (or ends at it),
    # but its root is past t_max: not reached yet, while lambda_T = 1.5 lies above 1/2
    for t_max in (4.0, 4.5, 4.6):
        traj = simulate_trajectory(cm0, mode=TrajectoryMode.NONMARKOVIAN, t_max=t_max,
                                   n_samples=2, grid=grid, n_T=1.0)
        with pytest.raises(InconclusiveThresholdError):
            separability_time(traj)


@pytest.mark.parametrize("n_T, t_sep, d_sep", [(0.01, 2.1324249198808936, 0.006474711642015796),
                                               (0.1, 1.3383370412789912, 0.006593328677592658)])
def test_white_noise_excursion_crossing_independent_of_sampling(quad, n_T, t_sep, d_sep):
    # at r0 = 0.05 white noise lifts lambda past 1/2 early; with two samples on [0, 25]
    # neither sample is past it, yet the crossing is the channel's, as with 11 or 2001
    env = make_env(n_T=n_T)
    grid = build_coefficient_grid(make_spec(SpectralKind.WHITE_NOISE), env, 25.0, quad)
    cm0 = from_sts(STSParams(r=0.05, nu_T=0.0))
    found = set()
    for n in (2, 11, 2001):
        traj = simulate_trajectory(cm0, mode=TrajectoryMode.NONMARKOVIAN, t_max=25.0,
                                   n_samples=n, grid=grid, n_T=n_T)
        found.add((separability_time(traj), dsep_from_trajectory(traj)))
    assert len(found) == 1
    assert found.pop() == pytest.approx((t_sep, d_sep), rel=1e-13, abs=0)


# ------------------------------------------------------- separability time

def test_separability_markovian_closed_form():
    lam0 = TWB12.a - TWB12.c
    n_T = 10.0
    expected = math.log((n_T + 0.5 - lam0) / (n_T + 0.5 - 0.5))
    t_sep = separability_time(markovian_traj(gamma_m=1.0, n_T=n_T, t_max=1.0))
    assert t_sep == pytest.approx(expected, rel=1e-12)
    # the grid-mode crossing on a grid that carries the Markovian Gamma and Delta_Gamma
    times = np.linspace(0.0, 1.0, 4001)
    big_gamma = times.copy()
    grid = CoefficientGrid(times=times, delta=np.zeros_like(times), gamma=np.zeros_like(times),
                           big_gamma=big_gamma,
                           delta_gamma=-np.expm1(-big_gamma) * (2.0 * n_T + 1.0), n_T=n_T)
    as_grid = simulate_trajectory(TWB12, mode=TrajectoryMode.NONMARKOVIAN, t_max=1.0,
                                  n_samples=101, grid=grid, n_T=n_T)
    # Gamma is linear, so only Delta_Gamma's chords err: they lie below the concave
    # Delta_Gamma by <= h^2/8 (2 n_T + 1), lambda by half that, and up to the crossing
    # lambda' = lambda_T - lambda >= n_T, so the crossing comes late by at most the ratio
    h = times[1]
    bound = h * h / 8.0 * (2.0 * n_T + 1.0) / (2.0 * n_T)
    assert expected - 4.0 * np.spacing(expected) <= separability_time(as_grid) <= expected + bound
    # each mode's channel is checked when built, and the mode may be given by its value
    with pytest.raises(ValueError, match="grid"):
        Channel(TrajectoryMode.NONMARKOVIAN, n_T)
    with pytest.raises(ValueError, match="gamma_m"):
        Channel("markovian", n_T)
    assert Channel("markovian", n_T, gamma_m=1.0).mode is TrajectoryMode.MARKOVIAN


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
    # the crossing is solved once per trajectory, but an inconclusive one is not stored:
    # both of its readers raise, on every call
    for traj in (short, markovian_traj(gamma_m=1.0, n_T=10.0, t_max=0.01)):
        for _ in range(2):
            for reader in (separability_time, dsep_from_trajectory):
                with pytest.raises(InconclusiveThresholdError):
                    reader(traj)


def test_crossing_refuses_a_t_max_off_the_channel(resonant_grids):
    # a grid covers [0, 25]: t_max = 100 is a ValueError, not an inconclusive threshold
    _, env, grid = resonant_grids[SpectralKind.OHMIC]
    for channel, past in ((Channel(TrajectoryMode.MARKOVIAN, env.n_T, gamma_m=1.0), math.inf),
                          (Channel(TrajectoryMode.NONMARKOVIAN, grid=grid), 100.0),
                          (Channel(TrajectoryMode.HIGH_TEMPERATURE, grid=grid), 26.0)):
        for t_max in (past, math.nan, -1.0, 0.0):
            with pytest.raises(ValueError, match="^t_max must be finite, > 0"):
                channel.crossing(TWB12, t_max)
        assert channel.crossing(TWB12, grid.t_max)[0] > 0.0


def test_high_t_crossing_at_zero_temperature_is_inconclusive_before_it_crosses(quad):
    # the frozen-c map has lambda_T = inf at every n_T: lambda rises with int_0^t Delta, so a
    # state still below 1/2 at t_max crosses later (r0 = 0.05 at n_T = 0: t ~ 12.75), not never
    grid = build_coefficient_grid(make_spec(SpectralKind.OHMIC), make_env(n_T=0.0), 15.0, quad)
    channel = Channel(TrajectoryMode.HIGH_TEMPERATURE, grid=grid)
    cm0 = from_sts(STSParams(r=0.05, nu_T=0.0))
    t_sep, big_gamma, d_sep = channel.crossing(cm0, 15.0)
    assert 12.7 < t_sep < 12.8 and big_gamma == 0.0 and d_sep == dsep_universal(0.05)
    with pytest.raises(InconclusiveThresholdError, match="stationary value inf"):
        channel.crossing(cm0, 1.0)
    # lambda_T is read-only; the other modes relax to n_T + 1/2
    assert channel.lambda_T == math.inf
    with pytest.raises(AttributeError):
        channel.lambda_T = 0.5
    assert Channel(TrajectoryMode.NONMARKOVIAN, grid=grid).lambda_T == 0.5
    assert Channel(TrajectoryMode.MARKOVIAN, 2.0, gamma_m=1.0).lambda_T == 2.5


@pytest.mark.parametrize("mode", list(TrajectoryMode))
def test_crossing_is_solved_once_in_either_order(resonant_grids, monkeypatch, mode):
    # dsep_from_trajectory before or after separability_time: the same (t_sep, D_sep), and
    # a grid trajectory bisects its crossing once
    _, env, grid = resonant_grids[SpectralKind.OHMIC]
    channel = {"gamma_m": 1.0} if mode is TrajectoryMode.MARKOVIAN else {"grid": grid}
    first, second = (simulate_trajectory(TWB12, mode=mode, t_max=25.0, n_samples=2001,
                                         n_T=env.n_T, **channel) for _ in range(2))
    solves = []
    grid_crossing = Channel._grid_crossing
    monkeypatch.setattr(Channel, "_grid_crossing",
                        lambda *args: solves.append(args) or grid_crossing(*args))
    pair = separability_time(first), dsep_from_trajectory(first)
    # the knots and their e^{-Gamma} are taken once per channel, not per trajectory
    windows = second.channel._windows
    misses = windows.cache_info().misses
    d_sep = dsep_from_trajectory(second)
    assert (separability_time(second), d_sep) == pair and pair[0] > 0.0
    assert len(solves) == (0 if mode is TrajectoryMode.MARKOVIAN else 2)
    assert windows.cache_info().misses == misses


# ------------------------------------------------------------ reachability

def test_reachable_identity_and_growth():
    dec = reachable_markovian(TWB12, TWB12)
    assert dec.reachable and dec.gamma_m_t == 0.0 and dec.n_T is None
    mixed = from_sts(STSParams(r=0.6, nu_T=0.5))
    grown = SymmetricCM(mixed.a, mixed.c * 1.01)
    dec = reachable_markovian(mixed, grown)
    assert not dec.reachable and dec.violated == "c-growth"


def test_reachable_markovian_at_unchanged_correlations_needs_unchanged_a():
    # c1 = c0 means Gamma = 0: no Markovian time has passed, so a target that keeps c but
    # moves a is out of reach, either way
    mixed = from_sts(STSParams(r=0.6, nu_T=0.5))
    for a1 in (mixed.a + 0.1, mixed.a - 0.1):
        dec = reachable_markovian(mixed, SymmetricCM(a1, mixed.c))
        assert not dec.reachable and dec.violated == "diffusion-without-damping"


def test_reachable_secular_refuses_growing_correlations():
    mixed = from_sts(STSParams(r=0.6, nu_T=0.5))
    sec = reachable_secular(mixed, SymmetricCM(mixed.a, mixed.c * 1.01))
    assert not sec.reachable and sec.violated == "c-growth"
    assert sec.big_gamma is None and sec.delta_gamma is None


@pytest.mark.parametrize("a1", [0.5, 1.0, 10.5, TWB12.a])
def test_reachable_names_a_fully_decayed_target_infinite_damping(a1):
    # c1 = 0 needs e^{-Gamma} = 0, which no finite Gamma gives: out of reach for both
    # decisions, as for the excluded-region oracle's 0 < x, yet c decayed and did not grow.
    # a1 = 10.5 is the thermal state at n_T = 10 (a1 = n_T + 1/2), the t -> inf limit
    dec = reachable_markovian(TWB12, SymmetricCM(a1, 0.0))
    assert not dec.reachable and dec.violated == "infinite-damping"
    assert dec.gamma_m_t is None and dec.n_T is None
    sec = reachable_secular(TWB12, SymmetricCM(a1, 0.0))
    assert not sec.reachable and sec.violated == "infinite-damping"
    assert sec.big_gamma is None and sec.delta_gamma is None


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


def test_reachable_markovian_is_the_excluded_region_oracle():
    # a Markovian channel reaches cm1 from cm0 exactly when the correlations decay, 0 < x =
    # c1/c0 <= 1, and a1 lies on or above the zero-temperature image a0 x + (1 - x)/2; the
    # targets are physical, scattered on both sides of both bounds (c1 >= 0, as every state)
    rng = np.random.default_rng(7)
    reached = 0
    for _ in range(20_000):
        cm0 = from_sts(STSParams(r=float(rng.uniform(0.05, 2.5)),
                                 nu_T=float(rng.uniform(0.0, 2.0))))
        u = float(rng.uniform(0.0, 1.25))
        # a1 from the physical floor to twice the floor's distance from the zero-T line
        floor, line = math.hypot(cm0.c * u, 0.5), cm0.a * u + 0.5 * (1 - u)
        cm1 = SymmetricCM(floor + abs(line - floor) * float(rng.uniform(0.0, 2.0)), cm0.c * u)
        x = cm1.c / cm0.c
        expected = 0 < x <= 1 and cm1.a >= cm0.a * x + 0.5 * (1 - x)
        assert reachable_markovian(cm0, cm1).reachable == expected, (cm0, cm1)
        reached += expected
    assert 5_000 < reached < 10_000


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


def test_constant_of_motion_high_temperature_limit(resonant_grids):
    # lambda_T = +inf is the limit k = -1 that the high-T map conserves: C = lambda - v, to
    # the bit, whatever lambda0 and mu0 are
    _, env, grid = resonant_grids[SpectralKind.OHMIC]
    traj = simulate_trajectory(TWB12, mode=TrajectoryMode.HIGH_TEMPERATURE, t_max=25.0,
                               n_samples=2001, grid=grid, n_T=env.n_T)
    lam0, mu0, _ = com_inputs(TWB12, env.n_T)
    out = constant_of_motion(traj, lam0, mu0, math.inf)
    assert not out.degenerate
    assert _bits(out.value) == _bits(traj.lam - 1.0 / (4.0 * traj.lam * traj.mu))
    point = constant_of_motion(path_point(TWB12, 0.0), 0.1, 1.0, math.inf)
    assert point.value == pytest.approx(-2.0 * TWB12.c, rel=1e-14, abs=0)


def test_constant_of_motion_array_matches_point_loop(resonant_grids):
    _, env, grid = resonant_grids[SpectralKind.OHMIC]
    traj = simulate_trajectory(TWB12, mode=TrajectoryMode.NONMARKOVIAN, t_max=25.0,
                               n_samples=2001, grid=grid, n_T=env.n_T)
    lam0, mu0, lam_t = com_inputs(TWB12, env.n_T)
    loop = np.array([constant_of_motion(path_point(cm, t), lam0, mu0, lam_t).value
                     for t, cm in traj.points])
    out = constant_of_motion(traj, lam0, mu0, lam_t)
    assert not out.degenerate
    np.testing.assert_array_equal(out.value, loop)


@pytest.mark.parametrize("bad, message", [((math.nan, 0.0), "must be finite"),
                                          ((0.1, 0.0), "uncertainty relation violated"),
                                          ((1.5, -0.5), "c >= 0 sign convention")])
def test_points_raise_the_constructor_error_at_the_first_bad_sample(bad, message):
    # points build their states unchecked: a sample the constructor would refuse (these
    # pairs) is one the map never makes, since it checks every sample
    traj = markovian_traj(n=11)
    with pytest.raises(UnphysicalStateError, match=re.escape(message)):
        SymmetricCM(*bad)
    assert [cm for _, cm in traj.points] == list(map(SymmetricCM, traj.a, traj.c))


def test_trajectory_is_made_from_its_channel_alone():
    # (channel, initial, t_max, n_samples, label) define a trajectory; its arrays are derived
    channel = Channel(TrajectoryMode.MARKOVIAN, 10.0, gamma_m=1.0)
    traj = Trajectory(channel, TWB12, 5.0, 11, "mk")
    times, big_gamma, delta_gamma, decay = channel.window(5.0, 11)
    assert traj.times is times and traj.big_gamma is big_gamma and traj.delta_gamma is delta_gamma
    assert _bits(traj.c) == _bits(TWB12.c * decay) and (traj.a[0], traj.c[0]) == TWB12
    for derived in ({"a": traj.a, "c": traj.c}, {"times": traj.times}):
        with pytest.raises(TypeError):
            Trajectory(channel, TWB12, 5.0, 11, **derived)


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
