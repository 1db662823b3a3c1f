"""The CSV writers against a per-row ``%.17g`` reference formatter, byte for byte."""
import io
from types import SimpleNamespace

import numpy as np
import pytest

from gaussian_paths import discord, write_coefficients_csv, write_path_csv, write_trajectory_csv
from gaussian_paths.coefficients import _BLOCK_ROWS

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


WRITERS = {"coefficients": (_coefficients, 5), "trajectory": (_trajectory, 7),
           "path": (_path, 4)}


@pytest.mark.parametrize("writer", sorted(WRITERS))
@pytest.mark.parametrize("table", ["two-blocks-and-a-partial", "one-row", "edge-values"])
def test_writer_matches_per_row_reference(writer, table):
    make, k = WRITERS[writer]
    if table == "two-blocks-and-a-partial":
        cols = _columns(2 * _BLOCK_ROWS + 123, k, seed=7)
    elif table == "one-row":
        cols = _columns(1, k, seed=8)
    else:
        cols = _edge_columns(k)
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
