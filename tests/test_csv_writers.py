"""The CSV writers against a per-row ``%.17g`` reference formatter, byte for byte."""
import io
import tracemalloc
from decimal import Decimal
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from gaussian_paths import (discord, extract_path, write_coefficients_csv, write_path_csv,
                            write_trajectory_csv)
from gaussian_paths._csv import _BLOCK_VALUES
from gaussian_paths.paths import _write_trajectory_and_path

# 0.1 is the value whose %.17g (0.10000000000000001) differs from repr
EDGE_VALUES = [0.0, -0.0, 5e-324, 1e300, 25.0, 0.1]


def reference_csv(header: str, columns) -> str:
    """One row at a time, one value at a time: the format the writers promise."""
    lines = [header]
    for row in zip(*columns):
        lines.append(",".join("%.17g" % v for v in row))
    return "\n".join(lines) + "\n"


def _columns(n: int, k: int, seed: int) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(n) * 10.0 ** rng.integers(-20, 20, n) for _ in range(k)]


def _edge_columns(k: int) -> list[np.ndarray]:
    return [np.array(np.roll(EDGE_VALUES, i)) for i in range(k)]


# exact ties at the 17th digit (18 significant digits, the last a 5), which %.17g rounds
# half to even; the kernel cannot tell them from near ties and leaves them to %
TIES = [1234567890123456.75, 1234567890123456.25, 140737488355328.125, 34567890123456.0625,
        1025 + 2.0**-14, 2.0**-25, 3 * 2.0**-25]


def _hard_values() -> np.ndarray:
    """Ties; 10^k and both neighbours for k past each end of the kernel's window
    [1e-98, 1e16), which holds %g's switches at 1e-5/1e-4 and 1e16/1e17 and the decades
    log10 rounds across; doubles that round up into the next decade (the double
    nearest 1e-14 lies below it); and the negatives of all of these."""
    for tie in TIES:
        digits = Decimal(tie).normalize().as_tuple().digits
        assert (len(digits), digits[-1]) == (18, 5)
    assert Decimal(1e-14) < Decimal("1e-14") and "%.17g" % 1e-14 == "1e-14"
    powers = np.array([float(f"1e{k}") for k in range(-100, 18)])
    values = np.concatenate([TIES, powers, np.nextafter(powers, np.inf),
                             np.nextafter(powers, 0.0)])
    return np.concatenate([values, -values])


# the writers read only these attributes, so stand-ins can carry any value
def _coefficients(cols):
    grid = SimpleNamespace(times=cols[0], delta=cols[1], gamma=cols[2], big_gamma=cols[3],
                           delta_gamma=cols[4])
    return write_coefficients_csv, grid, "t,delta,gamma,big_gamma,delta_gamma", cols


def _trajectory(cols):
    # a and c stay physical (a > c >= 0) so that the discord column is finite
    a = 1.0 + np.abs(cols[1]) % 7.0
    c = 0.5 * (np.abs(cols[2]) % 1.0)
    traj = SimpleNamespace(times=cols[0], a=a, c=c, mu=cols[3], lam=cols[4],
                           big_gamma=cols[5], delta_gamma=cols[6])
    expected = [cols[0], a, c, cols[3], cols[4], discord(a, c), cols[5], cols[6]]
    return (write_trajectory_csv, traj, "t,a,c,mu,lambda,discord,big_gamma,delta_gamma",
            expected)


def _path(cols):
    path = SimpleNamespace(t=cols[0], mu=cols[1], lam=cols[2], discord=cols[3])
    return write_path_csv, path, "t,mu,lambda,discord", cols


# writer: its stand-in, the columns drawn for it, the columns it writes
WRITERS = {"coefficients": (_coefficients, 5, 5), "trajectory": (_trajectory, 7, 8),
           "path": (_path, 4, 4)}


@pytest.mark.parametrize("writer", sorted(WRITERS))
@pytest.mark.parametrize("table", ["two-blocks-and-a-partial", "one-row", "edge-values",
                                   "hard-cases", "no-rows"])
def test_writer_matches_per_row_reference(writer, table):
    make, k, width = WRITERS[writer]
    if table == "two-blocks-and-a-partial":  # blocks hold _BLOCK_VALUES values, whole rows
        cols = _columns(2 * (_BLOCK_VALUES // width) + 123, k, seed=7)
    elif table == "one-row":
        cols = _columns(1, k, seed=8)
    elif table == "edge-values":
        cols = _edge_columns(k)
    elif table == "hard-cases":
        cols = [np.roll(_hard_values(), 7 * i) for i in range(k)]
    else:  # the header alone
        cols = [np.empty(0)] * k
    write, obj, header, expected = make(cols)
    buf = io.StringIO()
    write(obj, buf)
    assert buf.getvalue() == reference_csv(header, expected)


def test_edge_values_format_as_promised():
    buf = io.StringIO()
    write_path_csv(SimpleNamespace(t=np.array(EDGE_VALUES), mu=np.zeros(6), lam=np.zeros(6),
                                   discord=np.zeros(6)), buf)
    first = [line.split(",")[0] for line in buf.getvalue().splitlines()[1:]]
    assert first == ["0", "-0", "4.9406564584124654e-324", "1.0000000000000001e+300", "25",
                     "0.10000000000000001"]
    assert [float(x) for x in first] == EDGE_VALUES


@settings(max_examples=200, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(1, 40), st.just(5)),
              elements=st.one_of(st.floats(), st.floats(1e-98, 1e16), st.floats(-1e16, -1e-98))))
def test_writer_matches_per_row_reference_on_any_doubles(table):
    # any exponent, +-0, subnormals, NaN and +-inf; the window's values are drawn often
    write, obj, header, expected = _coefficients(list(table.T))
    buf = io.StringIO()
    write(obj, buf)
    assert buf.getvalue() == reference_csv(header, expected)


def test_one_pass_writes_the_trajectory_and_its_path():
    # every third sample repeats the one before, across the block edges of both tables: the
    # one pass writes what the two writers write for the trajectory and its extracted path
    write, traj, *_ = _trajectory(_columns(2 * (_BLOCK_VALUES // 8) + 123, 7, seed=11))
    for name in ("a", "c", "mu", "lam"):
        getattr(traj, name)[2::3] = getattr(traj, name)[1::3][:len(traj.a[2::3])]
    path = extract_path(traj)
    assert len(path) == len(traj.a) - len(traj.a[2::3])
    expected = []
    for writer, source in ((write, traj), (write_path_csv, path)):
        expected.append(io.StringIO())
        writer(source, expected[-1])
    written = io.StringIO(), io.StringIO()
    _write_trajectory_and_path(traj, *written)
    assert [w.getvalue() for w in written] == [e.getvalue() for e in expected]


class _Sink:
    """A stream that keeps nothing, so that a traced peak is the writer's own."""

    def write(self, text):
        return len(text)


def _peak(write, *args) -> int:
    write(*args)  # the first call builds the kernel's tables
    tracemalloc.start()
    try:
        write(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("writer", sorted(WRITERS) + ["trajectory-and-path"])
def test_writer_peaks_no_higher_than_the_widest_block(writer):
    # the reference: the trajectory writer on one block, its 8 columns x 512 rows
    write, traj, *_ = _trajectory(_columns(_BLOCK_VALUES // 8, 7, seed=9))
    budget = _peak(write, traj, _Sink())
    make, k, width = WRITERS.get(writer, WRITERS["trajectory"])
    rows = 2 * (_BLOCK_VALUES // width) + 123
    write, obj, *_ = make(_columns(rows, k, seed=10))
    if writer == "trajectory-and-path":
        peak = _peak(_write_trajectory_and_path, obj, _Sink(), _Sink())
    else:
        peak = _peak(write, obj, _Sink())
    # besides its blocks a writer holds at most two arrays over the whole table, the
    # discord column and the path's keep rule, 16 bytes a row
    assert peak <= budget + 16 * rows
