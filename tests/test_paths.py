import io
import math

import numpy as np
import pytest

from gaussian_paths import (
    Channel,
    DynamicalPath,
    MapUnphysicalError,
    STSParams,
    SpectralKind,
    TrajectoryMode,
    build_coefficient_grid,
    compare_paths,
    d_star,
    dsep_from_trajectory,
    dsep_sweep,
    dsep_universal,
    entropic_h,
    extract_path,
    from_sts,
    separability_time,
    simulate_trajectory,
    write_path_csv,
    write_sweep_csv,
)
from gaussian_paths.dynamics import Trajectory
from gaussian_paths.gaussian_core import SymmetricCM, _threshold_discord, discord

from conftest import make_env, make_spec

TWB12 = from_sts(STSParams(r=1.2, nu_T=0.0))


def markovian_path(cm0=TWB12, gamma_m=1.0, n_T=10.0, tau_max=5.0, n=2001):
    traj = simulate_trajectory(cm0, mode=TrajectoryMode.MARKOVIAN, t_max=tau_max / gamma_m,
                               n_samples=n, gamma_m=gamma_m, n_T=n_T, label="markovian")
    return traj, extract_path(traj)


# ------------------------------------------------------------ extraction

def test_extract_path_deduplicates_constant_trajectory(quad):
    grid = build_coefficient_grid(make_spec(SpectralKind.OHMIC), make_env(alpha=0.0), 2.0, quad)
    traj = simulate_trajectory(TWB12, mode=TrajectoryMode.NONMARKOVIAN, t_max=2.0,
                               n_samples=50, grid=grid, n_T=10.0)
    path = extract_path(traj)
    assert len(path) == 1
    # the path's origin is its trajectory, held by reference
    assert path.trajectory is traj and path.trajectory.initial is TWB12
    assert path.trajectory.mode is TrajectoryMode.NONMARKOVIAN


def test_extract_path_zero_temperature_endpoint():
    traj, path = markovian_path(n_T=0.0, tau_max=40.0)
    assert abs(path.mu[-1] - 1.0) < 1e-6
    assert abs(path.lam[-1] - 0.5) < 1e-6
    assert abs(path.discord[-1]) < 1e-6


def test_extract_path_high_t_crosses_threshold_with_discord():
    _, path = markovian_path(n_T=10.0)
    i = np.searchsorted(path.lam, 0.5)
    assert 0 < i < len(path)
    assert path.discord[i] > 0.25


def test_extract_path_uncopied_branch_equals_copying_branch():
    # at gamma_m t = 0, 1, ..., 38 lambda moves at every step; on to t = 801, past the
    # underflow of e^{-Gamma}, mu, lambda and D repeat: the twin's path drops that tail
    channel = Channel(TrajectoryMode.MARKOVIAN, 1.0, gamma_m=1.0)
    traj = Trajectory(channel, TWB12, 38.0, 39)
    path = extract_path(traj)
    assert path.t is traj.times and not path.t.flags.writeable
    twin = Trajectory(channel, TWB12, 801.0, 802)
    assert twin.c[-1] == 0.0 and twin.times[:39].tobytes() == traj.times.tobytes()
    copied = extract_path(twin)
    assert copied.t is not twin.times
    for name in ("mu", "lam", "discord", "t"):
        assert getattr(copied, name).tobytes() == getattr(path, name).tobytes()
    assert path.trajectory is traj and copied.trajectory is twin


def test_extract_path_static_trajectory_is_one_point():
    # the thermal state is the Markovian fixed point: every sample repeats the first
    thermal = SymmetricCM(10.5, 0.0)
    traj = simulate_trajectory(thermal, mode=TrajectoryMode.MARKOVIAN, t_max=2.0,
                               n_samples=30, gamma_m=1.0, n_T=10.0)
    path = extract_path(traj)
    assert len(path) == 1 and (path.mu[0], path.lam[0], path.t[0]) == (1.0 / 441.0, 10.5, 0.0)


# ------------------------------------------------------------ comparison

def test_compare_path_with_itself_is_exact():
    _, path = markovian_path()
    rep = compare_paths(path, path)
    assert rep.max_deviation == 0.0
    assert rep.matched_fraction == 1.0
    assert rep.passed


def test_compare_markovian_speeds_pure_reparametrization():
    _, slow = markovian_path(gamma_m=1.0)
    _, fast = markovian_path(gamma_m=2.0, tau_max=4.0, n=1777)
    rep = compare_paths(slow, fast, tol=1e-10)
    assert rep.matched_fraction >= 0.999
    assert rep.max_deviation <= 1e-10
    assert rep.passed is True


def test_compare_rejects_mismatched_sources():
    _, p10 = markovian_path(n_T=10.0)
    _, p0 = markovian_path(n_T=0.0)
    with pytest.raises(ValueError):
        compare_paths(p10, p0)


def test_compare_refuses_initial_states_that_differ_at_all():
    # r0 values 1e-10 apart are two states: the paths' trajectories must share the initial
    # state exactly, not to a relative tolerance
    near = from_sts(STSParams(r=1.2 * (1 + 1e-10), nu_T=0.0))
    assert near != TWB12
    _, ref = markovian_path()
    _, cand = markovian_path(cm0=near)
    with pytest.raises(ValueError, match="different initial states"):
        compare_paths(ref, cand)


def test_temperature_families_diverge():
    # identical initial state, different bath occupation: genuinely different paths
    _, cold = markovian_path(n_T=0.0, tau_max=12.0)
    _, hot = markovian_path(n_T=10.0)
    hot_unlabeled = DynamicalPath(mu=hot.mu, lam=hot.lam, discord=hot.discord, t=hot.t)
    cold_unlabeled = DynamicalPath(mu=cold.mu, lam=cold.lam, discord=cold.discord, t=cold.t)
    rep = compare_paths(cold_unlabeled, hot_unlabeled)
    assert rep.max_deviation > 0.05


def test_compare_disjoint_ranges():
    lam = np.linspace(0.6, 0.9, 10)
    ref = DynamicalPath(mu=np.full(10, 0.1), lam=lam, discord=np.zeros(10), t=lam)
    cand = DynamicalPath(mu=np.full(10, 0.1), lam=lam + 1.0, discord=np.zeros(10), t=lam)
    rep = compare_paths(ref, cand)
    assert rep.matched_fraction == 0.0
    assert not rep.deviation_defined
    assert not rep.passed


def test_compare_requires_monotone_reference():
    lam = np.array([0.1, 0.3, 0.2, 0.4])
    ref = DynamicalPath(mu=np.full(4, 0.1), lam=lam, discord=np.zeros(4), t=lam)
    with pytest.raises(ValueError):
        compare_paths(ref, ref)


def test_bad_reference_raises_on_every_call():
    lam = np.array([0.1, 0.3, 0.2, 0.4])
    wavy = DynamicalPath(mu=np.full(4, 0.1), lam=lam, discord=np.zeros(4), t=lam)
    flat = DynamicalPath(mu=np.full(3, 0.1), lam=np.full(3, 0.7), discord=np.zeros(3),
                         t=np.arange(3.0))
    for ref, message in ((wavy, "monotone"), (flat, "single point")):
        for _ in range(2):
            with pytest.raises(ValueError, match=message):
                compare_paths(ref, ref)


def test_repeated_comparisons_against_one_reference_agree():
    _, ref = markovian_path()
    _, fast = markovian_path(gamma_m=2.0, tau_max=4.0, n=1777)
    _, short = markovian_path(tau_max=2.0, n=300)
    first = [compare_paths(ref, cand, tol=1e-10) for cand in (fast, short)]
    assert [compare_paths(ref, cand, tol=1e-10) for cand in (fast, short)] == first
    # the prepared reference still matches a path against itself exactly
    rep = compare_paths(ref, ref)
    assert rep.max_deviation == 0.0 and rep.matched_fraction == 1.0
    # a descending reference is prepared ascending, once
    desc = DynamicalPath(mu=ref.mu[::-1], lam=ref.lam[::-1], discord=ref.discord[::-1],
                         t=ref.t, trajectory=ref.trajectory)
    assert compare_paths(desc, fast, tol=1e-10) == first[0]


@pytest.mark.parametrize("kind", list(SpectralKind))
def test_two_sample_markovian_reference_equals_a_sampled_one(resonant_grids, kind):
    # a Markovian path is the straight segment from (lambda0, v0) to the thermal state, which
    # compare_paths interpolates exactly: its two ends, at t = 0 and Gamma = 40, compare a
    # non-Markovian path like 2,001 samples up to Gamma = 12, which span every lambda it reaches
    _, env, grid = resonant_grids[kind]
    for r0 in (0.5, 1.2, 2.5):
        cm0 = from_sts(STSParams(r=r0, nu_T=0.0))
        traj = Trajectory(Channel(TrajectoryMode.NONMARKOVIAN, grid=grid), cm0, 25.0, 2001)
        assert np.max(traj.lam) < env.n_T + 0.5
        reference, candidate = markovian(env.n_T), extract_path(traj)
        two = compare_paths(extract_path(Trajectory(reference, cm0, 40.0, 2)), candidate)
        sampled = compare_paths(extract_path(Trajectory(reference, cm0, 12.0, 2001)),
                                candidate)
        assert two.max_deviation > 0.0
        # a sampled node's v carries its own rounding, so at a matched lambda the sampled
        # reference's v may sit an ulp from the segment's, which moves D by a few 1e-15 (2.9e-15
        # on the Ohmic grid at r0 = 1.2)
        assert two.max_deviation == pytest.approx(sampled.max_deviation, rel=0.0, abs=1e-14)
        assert two.matched_fraction == pytest.approx(sampled.matched_fraction, rel=1e-13,
                                                     abs=0.0)
        # 2,001 samples up to Gamma = 40 reach the thermal end, where lambda reverses by an ulp
        # (dropped as roundoff); their coarser spacing moves v by an ulp at matched lambda too
        far = compare_paths(extract_path(Trajectory(reference, cm0, 40.0, 2001)), candidate)
        assert far.max_deviation == pytest.approx(two.max_deviation, rel=0.0, abs=1e-14)
        assert far.matched_fraction == pytest.approx(two.matched_fraction, rel=1e-13, abs=0.0)


# --------------------------------------------------- discord at threshold

def test_dsep_universal_values():
    assert dsep_universal(0.0) == 0.0
    assert 0.3843 <= dsep_universal(4.0) <= 0.3883
    assert dsep_universal(1.2) == pytest.approx(
        discord(0.5 * (1 + math.sinh(2.4)), 0.5 * math.sinh(2.4)),
        rel=1e-14)
    with pytest.raises(ValueError):
        dsep_universal(-0.5)


def test_dsep_universal_monotone_and_bounded():
    r = np.linspace(0.0, 6.0, 121)
    d = np.array([dsep_universal(float(x)) for x in r])
    assert np.all(np.diff(d) >= -1e-14)
    assert np.all(d <= d_star() + 1e-12)


def _threshold_discord_mp(c: float) -> float:
    """D(1/2 + c, c) of the exact double c by mpmath, at 400 digits or enough that
    a^2 - c^2 = 1/4 + c keeps 80 of them at any c (50 lose the cancellation at large c)."""
    mpmath = pytest.importorskip("mpmath")
    c = mpmath.mpf(c)
    with mpmath.workdps(max(400, 80 + 2 * int(mpmath.log10(c + 1)))):
        half = mpmath.mpf(1) / 2
        a = half + c

        def h(x):
            return (x + half) * mpmath.log(x + half) - (
                (x - half) * mpmath.log(x - half) if x > half else 0)

        return float(h(a) - 2 * h(mpmath.sqrt(a * a - c * c)) + h(a - 2 * c * c / (1 + 2 * a)))


def test_dsep_universal_against_mpmath_up_to_large_squeezing():
    # c = sinh(2 r0)/2 passes 2^52 near r0 = 18.7, where 1/2 + c used to drop the 1/2: r0 = 19
    # read 0.2164 and r0 >= 20 raised.  Past r0 = 355.3, where sinh(2 r0) overflows, D is d_star
    for r0 in np.r_[0.0:350.5:2.5, 1e-6, 0.01, 18.7, 19.0, 25.0, 33.5, 100.0, 255.9].tolist():
        c = 0.5 * math.sinh(2.0 * r0)
        err = abs(dsep_universal(r0) - _threshold_discord_mp(c))
        assert err <= 2.0 * np.finfo(float).eps * max(1.0, entropic_h(0.5 + c)), (r0, err)
    assert dsep_universal(19.0) == pytest.approx(d_star(), rel=2.0 * np.finfo(float).eps)
    with pytest.raises(OverflowError):
        math.sinh(2.0 * 355.5)
    for r0 in (355.5, 1e300):
        assert dsep_universal(r0) == d_star()


def test_threshold_discord_against_mpmath_dense():
    # D's two ~ln c logs are one log1p, so nothing cancels to D ~ 0.386 but O(1) terms: within
    # 5.0e-16 of mpmath here (5.7e-14 at r0 = 255.9 while they were apart)
    r0 = np.linspace(0.0, 354.0, 1181)
    c = 0.5 * np.sinh(2.0 * r0)
    err = [abs(_threshold_discord(x) - _threshold_discord_mp(x)) for x in c.tolist()]
    assert max(err) <= 1e-14, r0[int(np.argmax(err))]


def test_sweep_dsep_at_large_squeezing_against_mpmath():
    # the crossing's c* = c0 e^{-Gamma} is as large: the sweep's D_sep reads the threshold
    # discord from c* alone, where D(1/2 + c*, c*) raised and ended the sweep
    channel = Channel(TrajectoryMode.MARKOVIAN, 10.0, gamma_m=1.0)
    rows = dsep_sweep([19.0, 20.0, 25.0], channel, t_max=100.0)
    for row in rows:
        cm0 = from_sts(STSParams(r=row.r0, nu_T=0.0))
        c_sep = cm0.c * math.exp(-channel.crossing(cm0, 100.0)[1])
        assert row.d_sep == pytest.approx(_threshold_discord_mp(c_sep), rel=0.0, abs=1e-13)


def test_d_star_closed_forms():
    assert d_star() == pytest.approx(0.3862943611198906, rel=1e-15, abs=0)
    assert d_star() == pytest.approx(entropic_h(1.5) - 1.0, rel=1e-14, abs=0)
    assert abs(dsep_universal(6.0) - d_star()) <= 1e-4


def test_dsep_from_trajectory_none_at_zero_temperature():
    traj, _ = markovian_path(n_T=0.0, tau_max=40.0)
    assert dsep_from_trajectory(traj) is None


def test_dsep_from_trajectory_matches_markovian_closed_form():
    # low temperature: D_sep = D(1/2 + c(t_sep), c(t_sep)) with the closed-form c
    n_T = 0.1
    traj, _ = markovian_path(n_T=n_T, tau_max=5.0, n=4001)
    lam0 = TWB12.a - TWB12.c
    lam_t = n_T + 0.5
    t_sep = math.log((lam_t - lam0) / (lam_t - 0.5))
    c_sep = TWB12.c * math.exp(-t_sep)
    expected = discord(0.5 + c_sep, c_sep)
    assert dsep_from_trajectory(traj) == pytest.approx(expected, rel=1e-12)


def _dsep_on_segment(cm0, lam_t):
    """D(1/2 + c*, c*) where the straight segment from (lambda0, v0) to the thermal state
    (lam_t, lam_t) of the (lambda, v) plane crosses lambda = 1/2: x* = (lam_t - 1/2)/(lam_t -
    lambda0) of the way back from the thermal state, so v* = lam_t + (v0 - lam_t) x*."""
    lam0, v0 = cm0.a - cm0.c, cm0.a + cm0.c
    x = (lam_t - 0.5) / (lam_t - lam0)
    c_sep = 0.5 * (lam_t + (v0 - lam_t) * x - 0.5)
    return discord(0.5 + c_sep, c_sep)


@pytest.mark.parametrize("r0", [0.5, 1.2, 2.5])
def test_dsep_from_trajectory_is_the_segment_crossing(resonant_grids, r0):
    # Markovian: the segment to n_T + 1/2.  Non-Markovian: the segment to the effective
    # temperature the channel has reached at the crossing, n_eff + 1/2 = Delta_Gamma / (2 (1 -
    # e^{-Gamma})), since the secular map keeps lambda and v on the segment to it
    cm0 = from_sts(STSParams(r=r0, nu_T=0.0))
    for n_T in (0.1, 1.0, 10.0):
        traj = Trajectory(markovian(n_T), cm0, 5.0, 101)
        assert dsep_from_trajectory(traj) == pytest.approx(_dsep_on_segment(cm0, n_T + 0.5),
                                                           rel=0.0, abs=1e-12)
    for kind, (_, env, grid) in resonant_grids.items():
        channel = Channel(TrajectoryMode.NONMARKOVIAN, grid=grid)
        traj = Trajectory(channel, cm0, 25.0, 101)
        (big_gamma,), (delta_gamma,) = channel(separability_time(traj))
        lam_eff = delta_gamma / (-2.0 * math.expm1(-big_gamma))
        assert dsep_from_trajectory(traj) == pytest.approx(_dsep_on_segment(cm0, lam_eff),
                                                           rel=0.0, abs=1e-12), kind


def _channel_dsep(big_gamma):
    """D(1/2 + c*, c*) at c* = c0 e^{-Gamma(t_sep)} of TWB12, given Gamma(t_sep)."""
    c_sep = TWB12.c * math.exp(-big_gamma)
    return discord(0.5 + c_sep, c_sep)


@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_dsep_from_trajectory_window_equals_closed_form(where):
    # Markovian trajectories sampled so the closed-form crossing lies half-way
    # through the first, a middle or the last sample interval: D_sep is the
    # channel's c0 e^{-gamma_M t_sep} wherever the samples fall
    n, n_T = 41, 1.0
    t_sep = math.log((n_T + 0.5 - (TWB12.a - TWB12.c)) / n_T)
    t_max = {"first": 2.0 * (n - 1) * t_sep, "middle": t_sep / 0.5125,
             "last": t_sep / (1.0 - 0.5 / (n - 1))}[where]
    traj = simulate_trajectory(TWB12, mode=TrajectoryMode.MARKOVIAN, t_max=t_max,
                               n_samples=n, gamma_m=1.0, n_T=n_T)
    t_found = separability_time(traj)
    i = int(np.searchsorted(traj.times, t_found))
    assert i == {"first": 1, "middle": 21, "last": n - 1}[where]
    assert dsep_from_trajectory(traj) == pytest.approx(_channel_dsep(t_found),
                                                       rel=1e-15, abs=0.0)


def test_dsep_from_trajectory_window_on_grid_crossing(resonant_grids):
    _, env, grid = resonant_grids[SpectralKind.OHMIC]
    traj = simulate_trajectory(TWB12, mode=TrajectoryMode.NONMARKOVIAN, t_max=25.0,
                               n_samples=2001, grid=grid, n_T=env.n_T)
    t_sep = separability_time(traj)
    expected = _channel_dsep(float(np.interp(t_sep, grid.times, grid.big_gamma)))
    assert dsep_from_trajectory(traj) == pytest.approx(expected, rel=1e-15, abs=0.0)
    # high-T mode freezes c: D_sep is D(1/2 + c0, c0), the universal value, exactly
    frozen = simulate_trajectory(TWB12, mode=TrajectoryMode.HIGH_TEMPERATURE, t_max=25.0,
                                 n_samples=2001, grid=grid, n_T=env.n_T)
    assert dsep_from_trajectory(frozen) == dsep_universal(1.2)
    # the threshold form and the general discord round differently, each within 5e-16 of D
    assert dsep_universal(1.2) == pytest.approx(_channel_dsep(0.0), rel=0.0, abs=1e-15)


def test_dsep_already_separable_initial_state():
    cm0 = SymmetricCM(1.5, 0.4)
    traj = simulate_trajectory(cm0, mode=TrajectoryMode.MARKOVIAN, t_max=1.0,
                               n_samples=11, gamma_m=1.0, n_T=1.0)
    assert dsep_from_trajectory(traj) == pytest.approx(discord(cm0.a, cm0.c), rel=1e-12)


# ----------------------------------------------------------------- sweeps

def markovian(n_T: float, gamma_m: float = 1.0) -> Channel:
    return Channel(TrajectoryMode.MARKOVIAN, n_T, gamma_m=gamma_m)


def test_dsep_sweep_markovian_rows():
    rows = dsep_sweep([0.5, 1.2, 2.0], markovian(0.5), t_max=20.0, label="ohmic")
    assert [r.r0 for r in rows] == [0.5, 1.2, 2.0]
    for r in rows:
        assert r.mode == "markovian" and r.spectrum == "ohmic" and r.n_T == 0.5
        assert r.t_sep is not None and r.d_sep is not None and r.note == ""
    # markovian d_sep is invariant under the damping rate (pure reparametrization)
    rows2 = dsep_sweep([0.5, 1.2, 2.0], markovian(0.5, gamma_m=2.0), t_max=10.0)
    for r, r2 in zip(rows, rows2):
        assert r2.d_sep == pytest.approx(r.d_sep, rel=1e-10)


def test_dsep_low_temperature_family_below_universal():
    # Markovian threshold discord at small n_T sits strictly below the
    # high-temperature universal curve, approaching it as n_T grows
    for n_T in (1e-2, 1e-3):
        rows = dsep_sweep([0.5, 1.2, 2.0], markovian(n_T), t_max=400.0)
        for r in rows:
            assert r.d_sep is not None
            assert r.d_sep < dsep_universal(r.r0)
    gap_cold = dsep_universal(1.2) - dsep_sweep(
        [1.2], markovian(1e-3), t_max=400.0)[0].d_sep
    gap_warm = dsep_universal(1.2) - dsep_sweep(
        [1.2], markovian(1.0), t_max=40.0)[0].d_sep
    assert 0 < gap_warm < gap_cold


def test_dsep_gap_to_the_universal_curve_falls_as_one_over_n_T():
    # the Markovian threshold discord approaches the high-temperature curve from below, with a
    # gap g(r0)/n_T: n_T times the gap agrees at n_T = 100 and 1,000 (g = 0.0024 to 0.035)
    r0_values = [0.1, 0.5, 1.2, 2.0, 3.0]
    scaled = {}
    for n_T in (10.0, 100.0, 1000.0):
        gaps = [dsep_universal(r.r0) - r.d_sep
                for r in dsep_sweep(r0_values, markovian(n_T), t_max=50.0)]
        assert all(gap > 0.0 for gap in gaps), (n_T, gaps)
        scaled[n_T] = np.multiply(n_T, gaps)
    np.testing.assert_allclose(scaled[100.0], scaled[1000.0], rtol=1e-2, atol=0.0)


def test_dsep_sweep_marks_missing_thresholds():
    rows = dsep_sweep([0.7], markovian(0.0), t_max=20.0)
    assert rows[0].t_sep is None and rows[0].d_sep is None
    assert rows[0].note == "no-threshold"
    with pytest.raises(ValueError):
        dsep_sweep([], markovian(0.0), t_max=1.0)


def test_dsep_sweep_requires_grid_or_rate(resonant_grids):
    # no silent fallback to default numerics: the caller's channel carries the bath data,
    # and a channel without it is refused when built
    grid = resonant_grids[SpectralKind.OHMIC][2]
    with pytest.raises(ValueError, match="gamma_m"):
        Channel(TrajectoryMode.MARKOVIAN, 10.0)
    with pytest.raises(ValueError, match="gamma_m"):
        Channel(TrajectoryMode.MARKOVIAN, gamma_m=1.0, grid=grid)
    with pytest.raises(ValueError, match="grid"):
        Channel(TrajectoryMode.NONMARKOVIAN, 10.0)
    with pytest.raises(ValueError, match="grid"):
        Channel(TrajectoryMode.HIGH_TEMPERATURE, gamma_m=1.0, grid=grid)


@pytest.mark.parametrize("mode", list(TrajectoryMode))
def test_dsep_sweep_rows_are_the_channels_crossings(resonant_grids, mode):
    # a row is channel.crossing of (state, t_max) alone, bit for bit: what a trajectory of any
    # sampling reads
    _, env, grid = resonant_grids[SpectralKind.OHMIC]
    channel = (Channel(mode, env.n_T, gamma_m=1.0) if mode is TrajectoryMode.MARKOVIAN
               else Channel(mode, grid=grid))
    rows = dsep_sweep([0.0, 0.5, 1.2, 2.5], channel, t_max=25.0, nu0=0.3)
    assert rows[0].t_sep == 0.0 and rows[0].d_sep == 0.0  # separable at t = 0, uncorrelated
    for row in rows:
        assert row.d_sep is not None and row.note == ""
        cm0 = from_sts(STSParams(r=row.r0, nu_T=0.3))
        t_sep, _, d_sep = channel.crossing(cm0, 25.0)
        assert (row.t_sep, row.d_sep) == (t_sep, d_sep)
        for n in (2, 2001):
            traj = Trajectory(channel, cm0, 25.0, n)
            assert (separability_time(traj), dsep_from_trajectory(traj)) == (t_sep, d_sep)


def test_dsep_sweep_rows_are_empty_where_the_map_is_unphysical_on_the_knots(quad):
    # white noise at omega_c = 3, n_T = 0.01: the secular map is unphysical on [0, 10] though
    # not at the two samples t = 0 and 10, so no row crosses, the separable r0 = 0 included
    grid = build_coefficient_grid(make_spec(SpectralKind.WHITE_NOISE, omega_c=3.0),
                                  make_env(n_T=0.01), 10.0, quad)
    channel = Channel(TrajectoryMode.NONMARKOVIAN, grid=grid)
    rows = dsep_sweep([0.0, 0.05], channel, t_max=10.0)
    for row in rows:
        assert row.t_sep is None and row.d_sep is None
        assert row.note.startswith("MapUnphysicalError: unphysical sample at t = ")
        traj = Trajectory(channel, from_sts(STSParams(r=row.r0, nu_T=0.0)), 10.0, 2)
        with pytest.raises(MapUnphysicalError):
            separability_time(traj)


def test_dsep_sweep_continues_past_inconclusive_rows(resonant_grids):
    spec, env, grid = resonant_grids[SpectralKind.OHMIC]
    # r0 = 2.5 cannot cross within 3 time units; the sweep marks it and moves on
    rows = dsep_sweep([2.5, 0.05], Channel(TrajectoryMode.NONMARKOVIAN, grid=grid),
                      t_max=3.0)
    assert rows[0].d_sep is None and "Inconclusive" in rows[0].note
    assert rows[1].d_sep is not None and rows[1].note == ""


def test_trajectory_and_path_compare_by_identity_and_hash():
    # frozen records over numpy arrays: == is identity (value == would raise on the arrays)
    traj, path = markovian_path(n=11)
    twin, twin_path = markovian_path(n=11)
    for one, other in ((traj, twin), (path, twin_path)):
        assert one == one and one != other and hash(one) == hash(one)
        assert len({one, other, one}) == 2


# ------------------------------------------------- high-temperature mode

def test_high_t_frozen_correlations(resonant_grids):
    spec, env, grid = resonant_grids[SpectralKind.OHMIC]
    traj = simulate_trajectory(TWB12, mode=TrajectoryMode.HIGH_TEMPERATURE, t_max=6.0,
                               n_samples=1201, grid=grid, n_T=env.n_T)
    assert np.all(traj.c == TWB12.c)
    d_traj = discord(traj.a, traj.c)
    d_frozen = discord(traj.lam + TWB12.c, np.full_like(traj.a, TWB12.c))
    assert np.max(np.abs(d_traj - d_frozen)) <= 1e-10
    # lambda(t) = lambda0 + (1/2) int_0^t Delta, the integral a trapezoid on the grid's knots
    steps = 0.5 * (grid.delta[1:] + grid.delta[:-1]) * np.diff(grid.times)
    integral = np.concatenate(([0.0], np.cumsum(steps)))
    half_integral = np.interp(traj.times, grid.times, integral) / 2.0
    np.testing.assert_allclose(traj.lam, (TWB12.a - TWB12.c) + half_integral, rtol=0, atol=1e-12)


def test_high_t_path_agrees_with_full_map_early(resonant_grids):
    # short times, n_T = 10: frozen-c evolution tracks the full secular map in lambda
    spec, env, grid = resonant_grids[SpectralKind.OHMIC]
    full = simulate_trajectory(TWB12, mode=TrajectoryMode.NONMARKOVIAN, t_max=2.0,
                               n_samples=601, grid=grid, n_T=env.n_T)
    frozen = simulate_trajectory(TWB12, mode=TrajectoryMode.HIGH_TEMPERATURE, t_max=2.0,
                                 n_samples=601, grid=grid, n_T=env.n_T)
    err = np.abs(full.lam - frozen.lam) / np.maximum(full.lam, 0.04)
    assert np.max(err) < 0.01


# -------------------------------------------------------------------- CSV

def test_path_csv_roundtrip():
    _, path = markovian_path(n=101)
    buf = io.StringIO()
    write_path_csv(path, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "t,mu,lambda,discord"
    parsed = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
    np.testing.assert_array_equal(parsed[:, 2], path.lam)


def test_sweep_csv_roundtrip():
    rows = dsep_sweep([0.7], markovian(0.0), t_max=20.0, label="ohmic")
    buf = io.StringIO()
    write_sweep_csv(rows, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "r0,n_T,spectrum,mode,t_sep,d_sep"
    assert lines[1].startswith("0.69999999999999996,0,ohmic,markovian,,")
