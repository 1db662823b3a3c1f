"""The CLI matrix as a pinned regression summary.

Runs ``coefficients`` once per spectrum, and ``simulate``, ``verify`` and
``dsep-sweep`` for each of the three spectra in each of the three modes,
plus ``dsep-sweep`` with ``spectrum = all`` in each mode: 33 in-process
runs at the resonant defaults (omega0 = omega_c = 1, alpha = 0.1,
n_T = 10, r0 = 1.2, t_max = 25, r0 list 0.5,1.2,2.5) that write 42
artifacts.  A compact summary of them (exit codes, CSV headers and row
counts, the first, last and strided CSV rows, so every sweep row, and
every ``verify`` report value) is compared with the pinned
``tests/data/cli_matrix.json`` at rel 1e-12.  Values at roundoff level
(verify's deviations) compare at an absolute 1e-14 instead.  Byte hashes
would tie the suite to one CPU: scalar and array ``log1p`` round
differently across SIMD paths.

After a deliberate change of output, merge a fresh summary into the pinned
one and state every moved value:

    PYTHONPATH=src python tests/test_cli_matrix.py

It keeps each pinned value within rel 1e-13 of the fresh run (a tenth of the
comparison's tolerance), so entries a change does not touch keep their bits on
any CPU while the file stays within that tenth of the commit that wrote it, and
replaces and prints every other value.
"""
from __future__ import annotations

import io
import json
import math
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from gaussian_paths.cli import main

PINNED = Path(__file__).parent / "data" / "cli_matrix.json"
SPECTRA = ("ohmic", "superohmic", "white")
MODES = ("nonmarkovian", "markovian", "hight")
BASE = {"omega0": 1, "omega_c": 1, "alpha": 0.1, "n_T": 10, "r0": 1.2, "t_max": 25}
R0_LIST = "0.5,1.2,2.5"
STRIDED_ROWS = 16  # about this many rows kept between the first and the last
REL_TOL, ABS_FLOOR = 1e-12, 1e-14
MERGE_REL_TOL = 1e-13  # a pinned value further than this from a fresh run is rewritten


def _runs():
    """(name, command, spectrum, mode) of every run of the matrix."""
    for spectrum in SPECTRA:
        yield f"coefficients-{spectrum}", "coefficients", spectrum, "nonmarkovian"
    for command in ("simulate", "verify", "dsep-sweep"):
        for spectrum in SPECTRA:
            for mode in MODES:
                yield f"{command}-{spectrum}-{mode}", command, spectrum, mode
    for mode in MODES:
        yield f"dsep-sweep-all-{mode}", "dsep-sweep", "all", mode


def run_matrix(root: Path) -> dict[str, int]:
    """Run every command of the matrix in this process, each into root/<name>; exit codes."""
    root.mkdir(parents=True, exist_ok=True)
    exits = {}
    for name, command, spectrum, mode in _runs():
        cfg = root / f"{name}.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in
                               {**BASE, "spectrum": spectrum, "mode": mode}.items()))
        argv = [command, "--config", str(cfg), "--out", str(root / name)]
        if command == "dsep-sweep":
            argv += ["--r0-list", R0_LIST]
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            exits[name] = main(argv)
    return exits


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _csv_summary(path: Path) -> dict:
    header, *lines = path.read_text().splitlines()
    n = len(lines)
    keep = sorted(set(range(0, n, max(1, n // STRIDED_ROWS))) | {n - 1}) if n else []
    return {"header": header, "rows": n,
            "sample": [[i, [_cell(v) for v in lines[i].split(",")]] for i in keep]}


def summarize(root: Path, exits: dict[str, int]) -> dict:
    """The pinned summary of a matrix run into root."""
    out = {}
    for name, code in exits.items():
        files = {}
        for path in sorted((root / name).glob("*")):
            files[path.name] = (json.loads(path.read_text()) if path.suffix == ".json"
                                else _csv_summary(path))
        out[name] = {"exit": code, "files": files}
    return out


def _differences(got, want, where: str = "", rel_tol: float = REL_TOL) -> list[str]:
    if isinstance(want, dict) and isinstance(got, dict):
        if set(got) != set(want):
            return [f"{where}: keys {sorted(got)} != {sorted(want)}"]
        return [d for k in want for d in _differences(got[k], want[k], f"{where}/{k}", rel_tol)]
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [f"{where}: {len(got)} items != {len(want)}"]
        return [d for i, (g, w) in enumerate(zip(got, want))
                for d in _differences(g, w, f"{where}[{i}]", rel_tol)]
    if (isinstance(want, float) and isinstance(got, float)
            and math.isclose(got, want, rel_tol=rel_tol, abs_tol=ABS_FLOOR)):
        return []
    return [] if got == want else [f"{where}: {got!r} != {want!r}"]


def _merged(got, want, where: str, moved: list[str]):
    """got, keeping each leaf of want within MERGE_REL_TOL of it; the paths of the others (and
    of any subtree whose keys or length changed) are appended to moved."""
    if isinstance(want, dict) and isinstance(got, dict) and set(got) == set(want):
        return {k: _merged(got[k], want[k], f"{where}/{k}", moved) for k in want}
    if isinstance(want, list) and isinstance(got, list) and len(got) == len(want):
        return [_merged(g, w, f"{where}[{i}]", moved) for i, (g, w) in enumerate(zip(got, want))]
    if _differences(got, want, where, MERGE_REL_TOL):
        moved.append(where)
        return got
    return want


def test_cli_matrix_matches_the_pinned_summary(tmp_path):
    exits = run_matrix(tmp_path)
    assert sum(len(list((tmp_path / name).glob("*"))) for name in exits) == 42
    diffs = _differences(summarize(tmp_path, exits), json.loads(PINNED.read_text()))
    assert not diffs, "\n".join(diffs[:20])


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        summary = summarize(Path(tmp), run_matrix(Path(tmp)))
    moved: list[str] = []
    summary = _merged(summary, json.loads(PINNED.read_text()) if PINNED.exists() else None,
                      "", moved)
    PINNED.parent.mkdir(exist_ok=True)
    PINNED.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    sys.stdout.write("".join(f"{path}\n" for path in moved)
                     + f"replaced {len(moved)} values in {PINNED}\n")
