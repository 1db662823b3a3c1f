import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import gaussian_paths
from gaussian_paths import (
    SymmetricCM,
    TrajectoryMode,
    UnphysicalStateError,
    simulate_trajectory,
)
from gaussian_paths.cli import (
    _common_checks,
    main,
    parse_config,
    run_coefficients,
    run_dsep,
    run_simulate,
    run_verify,
)
from gaussian_paths.coefficients import ConfigError

MINIMAL = """
# minimal run configuration
spectrum = ohmic
omega0 = 1
omega_c = 1
alpha = 0.1
n_T = 10
r0 = 1.2
nu0 = 0
t_max = 100
mode = markovian
"""


def test_parse_minimal_config_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.spectrum == "ohmic" and cfg.mode == "markovian"
    assert cfg.t_max == 100.0 and cfg.nu0 == 0.0
    assert cfg.n_samples == 2001 and cfg.j_prefactor == 1.0
    assert cfg.ir_cutoff is None and cfg.s_step is None
    assert cfg.out_dir == "out"


def test_parse_config_rejects_bad_values():
    with pytest.raises(ConfigError, match="n_samples"):
        parse_config(MINIMAL + "n_samples = 1\n")
    # MINIMAL is a Markovian config, which builds no grid: the numerics are checked anyway
    with pytest.raises(ConfigError, match="rel_tol"):
        parse_config(MINIMAL + "rel_tol = -1\n")
    with pytest.raises(ConfigError, match="omega_c"):
        parse_config(MINIMAL.replace("omega_c = 1", "omega_c = -2"))
    # the grid step is s_step alone, and abs_tol is a constant: neither is a key
    for line in ("wibble = 3", "t_step = 0.01", "abs_tol = 1e-12"):
        with pytest.raises(ConfigError, match=f"unknown config key: '{line.split()[0]}'"):
            parse_config(MINIMAL + line + "\n")
    with pytest.raises(ConfigError, match="'n_T' given twice: lines 7 and 8"):
        parse_config(MINIMAL.replace("n_T = 10", "n_T = 1\nn_T = 10"))
    with pytest.raises(ConfigError, match="missing"):
        parse_config("spectrum = ohmic\n")
    with pytest.raises(ConfigError, match="mode"):
        parse_config(MINIMAL.replace("mode = markovian", "mode = sideways"))
    with pytest.raises(ConfigError, match="number"):
        parse_config(MINIMAL.replace("alpha = 0.1", "alpha = fast"))
    with pytest.raises(ConfigError, match="key = value"):
        parse_config(MINIMAL + "how now brown cow\n")


@pytest.mark.parametrize("line", ["n_T = 10", "r0 = 1.2", "alpha = 0.1", "t_max = 100"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_parse_config_rejects_non_finite_values(line, value):
    key = line.split(" = ")[0]
    with pytest.raises(ConfigError, match=f"{key} must be finite"):
        parse_config(MINIMAL.replace(line, f"{key} = {value}"))


def test_run_simulate_flat_at_zero_coupling(tmp_path):
    cfg = parse_config(MINIMAL.replace("alpha = 0.1", "alpha = 0")
                              .replace("mode = markovian", "mode = nonmarkovian")
                              .replace("t_max = 100", "t_max = 5"))
    cfg.n_samples = 41
    files = run_simulate(cfg, tmp_path)
    rows = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert len(rows) == 42
    cols = np.array([[float(x) for x in r.split(",")] for r in rows[1:]])
    assert np.all(cols[:, 1] == cols[0, 1])  # a frozen
    assert np.all(cols[:, 2] == cols[0, 2])  # c frozen
    # a constant trajectory collapses to a single path point
    assert len((tmp_path / "path.csv").read_text().splitlines()) == 2
    assert {f.name for f in files} == {"trajectory.csv", "path.csv"}


def test_run_coefficients_reproducible_bytes(tmp_path):
    cfg = parse_config(MINIMAL.replace("t_max = 100", "t_max = 3"))
    a = run_coefficients(cfg, tmp_path / "a")[0].read_bytes()
    b = run_coefficients(cfg, tmp_path / "b")[0].read_bytes()
    assert a == b
    header = a.decode().splitlines()[0]
    assert header == "t,delta,gamma,big_gamma,delta_gamma"


def test_main_coefficients_writes_identical_bytes(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(MINIMAL.replace("t_max = 100", "t_max = 3"))
    for out in ("a", "b"):
        assert main(["coefficients", "--config", str(cfg_file),
                     "--out", str(tmp_path / out)]) == 0
    a = (tmp_path / "a" / "coefficients.csv").read_bytes()
    assert a == (tmp_path / "b" / "coefficients.csv").read_bytes()
    assert len(a.splitlines()) > 2


@pytest.mark.parametrize("mode", ["markovian", "nonmarkovian", "hight"])
def test_run_verify_uncorrelated_initial_state(tmp_path, mode):
    # r0 = 0 gives c0 = 0 and a constant of motion C = 0: both checks turn absolute
    cfg = parse_config(MINIMAL.replace("r0 = 1.2", "r0 = 0")
                              .replace("mode = markovian", f"mode = {mode}")
                              .replace("t_max = 100", "t_max = 6"))
    cfg.n_samples = 301
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        report_file, ok = run_verify(cfg, tmp_path)
    report = json.loads(report_file.read_text())
    assert ok, report
    assert all(math.isfinite(c["value"]) for c in report["checks"])
    by_name = {c["name"]: c["value"] for c in report["checks"]}
    assert by_name["damping-law-relative-deviation"] == 0.0
    assert by_name["constant-of-motion-relative-drift"] <= 1e-12


def test_run_dsep_all_spectra(tmp_path):
    cfg = parse_config(MINIMAL.replace("spectrum = ohmic", "spectrum = all")
                              .replace("mode = markovian", "mode = nonmarkovian")
                              .replace("t_max = 100", "t_max = 12"))
    cfg.n_samples = 1201
    out = run_dsep(cfg, [0.5, 1.0], tmp_path)[0]
    lines = out.read_text().splitlines()
    assert lines[0] == "r0,n_T,spectrum,mode,t_sep,d_sep"
    assert len(lines) == 7  # 3 spectra x 2 squeezings
    spectra = [ln.split(",")[2] for ln in lines[1:]]
    assert spectra == ["ohmic", "ohmic", "superohmic", "superohmic", "white", "white"]


def test_spectrum_all_rejected_outside_sweep(tmp_path):
    cfg = parse_config(MINIMAL.replace("spectrum = ohmic", "spectrum = all"))
    with pytest.raises(ConfigError):
        run_simulate(cfg, tmp_path)


def test_run_verify_markovian_report(tmp_path):
    cfg = parse_config(MINIMAL)
    cfg.n_samples = 101
    report_file, ok = run_verify(cfg, tmp_path)
    report = json.loads(report_file.read_text())
    assert ok and report["passed"]
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["constant-of-motion-relative-drift"]["value"] <= 1e-8
    assert by_name["physicality-violations"]["value"] == 0
    assert by_name["markovian-reparametrization-deviation"]["value"] <= 1e-10
    assert by_name["semigroup-composition"]["passed"]


def test_run_verify_grid_modes(tmp_path):
    cfg = parse_config(MINIMAL.replace("mode = markovian", "mode = nonmarkovian")
                              .replace("t_max = 100", "t_max = 12"))
    cfg.n_samples = 1201
    report_file, ok = run_verify(cfg, tmp_path / "nm")
    report = json.loads(report_file.read_text())
    assert ok, report
    names = {c["name"] for c in report["checks"]}
    assert "universality-max-deviation" in names
    assert "universality-matched-fraction" in names
    cfg_ht = parse_config(MINIMAL.replace("mode = markovian", "mode = hight")
                                 .replace("t_max = 100", "t_max = 6"))
    cfg_ht.n_samples = 601
    report_file, ok = run_verify(cfg_ht, tmp_path / "ht")
    report = json.loads(report_file.read_text())
    assert ok, report
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["hight-frozen-correlation-identity"]["value"] <= 1e-10


def test_main_entrypoint_and_exit_codes(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(MINIMAL.replace("alpha = 0.1", "alpha = 0")
                               .replace("t_max = 100", "t_max = 2")
                               .replace("mode = markovian", "mode = nonmarkovian")
                        + "n_samples = 11\n")
    rc = main(["simulate", "--config", str(cfg_file), "--out", str(tmp_path / "o")])
    assert rc == 0
    assert (tmp_path / "o" / "trajectory.csv").exists()
    out = capsys.readouterr().out
    assert "trajectory.csv" in out
    # mode override from the command line
    rc = main(["simulate", "--config", str(cfg_file), "--out", str(tmp_path / "o2"),
               "--mode", "hight"])
    assert rc == 0
    # unknown key: nonzero exit, error on stderr with provenance
    bad = tmp_path / "bad.cfg"
    bad.write_text(MINIMAL + "bogus_key = 1\n")
    rc = main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o3")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "bogus_key" in err and "ConfigError" in err


def test_main_white_noise_markovian_commands(tmp_path, capsys):
    # gamma_M is the closed-form golden rule, so Markovian runs work for white noise too
    cfg_file = tmp_path / "white.cfg"
    cfg_file.write_text(MINIMAL.replace("spectrum = ohmic", "spectrum = white"))
    for cmd, extra in (("simulate", []), ("verify", []),
                       ("dsep-sweep", ["--r0-list", "0.5,1.2"])):
        assert main([cmd, "--config", str(cfg_file), "--out", str(tmp_path / cmd)] + extra) == 0
    out = capsys.readouterr().out
    assert "verify: PASS" in out
    assert json.loads((tmp_path / "verify" / "verify.json").read_text())["passed"]
    for name in ("trajectory.csv", "path.csv"):
        assert len((tmp_path / "simulate" / name).read_text().splitlines()) > 2
    rows = (tmp_path / "dsep-sweep" / "dsep_sweep.csv").read_text().splitlines()
    assert len(rows) == 3 and all(",white,markovian," in row for row in rows[1:])


def test_main_dsep_requires_r0_list(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(MINIMAL)
    rc = main(["dsep-sweep", "--config", str(cfg_file), "--out", str(tmp_path),
               "--r0-list", "zebra"])
    assert rc == 2
    assert "r0-list" in capsys.readouterr().err


def test_common_checks_keep_the_per_sample_guards():
    # the c >= 0 convention that path_point's min_symplectic enforced per sample
    traj = simulate_trajectory(SymmetricCM(1.5, -0.5), mode=TrajectoryMode.MARKOVIAN,
                               t_max=1.0, n_samples=11, gamma_m=1.0, n_T=1.0)
    with pytest.raises(UnphysicalStateError, match="c >= 0"):
        _common_checks(traj, [], drift_tol=1e-8)


def test_cli_import_leaves_out_scipy():
    src = str(Path(gaussian_paths.__file__).resolve().parents[1])
    code = ("import sys, gaussian_paths.cli; "
            "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True, timeout=120)
    assert out.stdout.strip() == "[]"
