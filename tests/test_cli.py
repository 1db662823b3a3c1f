import csv
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
from gaussian_paths.cli import (
    _build_parser,
    _trajectory_for,
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
    assert cfg.n_samples == 2001
    assert cfg.ir_cutoff is None and cfg.s_step is None
    assert cfg.out_dir == "out"


def test_parse_config_rejects_bad_values():
    with pytest.raises(ConfigError, match="n_samples"):
        parse_config(MINIMAL + "n_samples = 1\n")
    # MINIMAL is a Markovian config, which builds no grid: the numerics are checked anyway
    with pytest.raises(ConfigError, match="omega_max must be finite and > 0"):
        parse_config(MINIMAL + "omega_max = -1\n")
    # the panel rule's accuracy is fixed a priori: no tolerance is a key
    with pytest.raises(ConfigError, match="unknown config key: 'rel_tol'"):
        parse_config(MINIMAL + "rel_tol = -1\n")
    with pytest.raises(ConfigError, match="omega_c"):
        parse_config(MINIMAL.replace("omega_c = 1", "omega_c = -2"))
    # the grid step is s_step alone, abs_tol is a constant, and a spectral prefactor p is
    # the coupling alpha sqrt(p): none is a key
    for line in ("wibble = 3", "t_step = 0.01", "abs_tol = 1e-12", "j_prefactor = 2"):
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


@pytest.mark.parametrize("old, new, message", [
    ("spectrum = ohmic", "spectrum = drumhead", "spectrum must be one of"),
    ("n_T = 10", "n_T = -1", "n_T must be finite and >= 0"),
    ("r0 = 1.2", "r0 = -0.5", "r0 and nu0 must be >= 0"),
    ("nu0 = 0", "nu0 = -1", "r0 and nu0 must be >= 0"),
    ("omega0 = 1", "omega0 = 0", "omega0 must be finite and > 0"),
    ("alpha = 0.1", "alpha = -0.1", "alpha must be finite and >= 0"),
    ("t_max = 100", "t_max = 0", "t_max must be > 0"),
])
def test_parse_config_rejects_out_of_range_fields(old, new, message):
    with pytest.raises(ConfigError, match=f"^{message}"):
        parse_config(MINIMAL.replace(old, new))


@pytest.mark.parametrize("ir_cutoff", ["-1", "0"])
@pytest.mark.parametrize("spectrum", ["ohmic", "white", "all"])
def test_parse_config_rejects_bad_ir_cutoff(spectrum, ir_cutoff):
    # a config error at parse time, not a ValueError from the first command to build a spectrum
    text = MINIMAL.replace("spectrum = ohmic", f"spectrum = {spectrum}")
    with pytest.raises(ConfigError, match="^ir_cutoff must be > 0"):
        parse_config(text + f"ir_cutoff = {ir_cutoff}\n")


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
    # no physicality count: the channel raises MapUnphysicalError at an unphysical sample
    assert list(by_name) == ["damping-law-relative-deviation",
                             "constant-of-motion-relative-drift", "semigroup-composition",
                             "markovian-reparametrization-deviation"]
    assert by_name["markovian-reparametrization-deviation"]["value"] <= 1e-10
    assert by_name["semigroup-composition"]["passed"]


@pytest.mark.parametrize("r0", [0.0, 1e-8, 1e-6, 1.2])
def test_run_verify_markovian_constant_of_motion_at_small_squeezing(tmp_path, r0):
    # the Markovian map conserves C exactly, but C ~ c0 is formed with rounding at the scale
    # of a: relative to |C(0)| alone the drift read 1.7e-7 at r0 = 1e-8, so it is absolute
    # below |C| = 1
    cfg = parse_config(MINIMAL.replace("r0 = 1.2", f"r0 = {r0}"))
    report_file, ok = run_verify(cfg, tmp_path)
    report = json.loads(report_file.read_text())
    assert ok, report
    drift = {c["name"]: c for c in report["checks"]}["constant-of-motion-relative-drift"]
    assert drift["value"] <= 1e-12 and drift["tolerance"] == 1e-8


@pytest.mark.parametrize("mode", ["nonmarkovian", "markovian"])
def test_run_verify_flags_a_degenerate_constant_of_motion(tmp_path, mode):
    # r0 = ln(21)/2 at n_T = 10 puts v0 = a0 + c0 = e^{2 r0}/2 at lambda_T = 10.5, where the
    # coefficient k of C = lambda + k v is undetermined: verify reports it and passes
    cfg = parse_config(MINIMAL.replace("r0 = 1.2", f"r0 = {0.5 * math.log(21.0)!r}")
                              .replace("mode = markovian", f"mode = {mode}")
                              .replace("t_max = 100", "t_max = 25"))
    report_file, ok = run_verify(cfg, tmp_path)
    report = json.loads(report_file.read_text())
    assert ok, report
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["constant-of-motion-degenerate"]["passed"]
    assert "constant-of-motion-relative-drift" not in by_name


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


def test_run_verify_universality_reference_reaches_the_thermal_state(tmp_path):
    # strong white noise drives lambda past lambda_T = n_T + 1/2: the Markovian reference
    # reaches lambda_T itself, so exactly the overshoot goes unmatched, and verify fails
    cfg = parse_config(MINIMAL.replace("spectrum = ohmic", "spectrum = white")
                              .replace("alpha = 0.1", "alpha = 0.3")
                              .replace("mode = markovian", "mode = nonmarkovian"))
    report_file, ok = run_verify(cfg, tmp_path)
    by_name = {c["name"]: c for c in json.loads(report_file.read_text())["checks"]}
    lam = _trajectory_for(cfg).lam
    assert lam.max() > cfg.n_T + 0.5 and lam.min() == lam[0]
    overlap = (cfg.n_T + 0.5 - lam[0]) / (lam.max() - lam[0])
    assert by_name["universality-matched-fraction"]["value"] == pytest.approx(overlap, rel=1e-14,
                                                                             abs=0)
    assert not ok and not by_name["universality-matched-fraction"]["passed"]


@pytest.mark.parametrize("r0", [1.2, 1e-6])
@pytest.mark.parametrize("spectrum", ["ohmic", "superohmic", "white"])
def test_run_verify_high_temperature_constant_of_motion(tmp_path, spectrum, r0):
    # the frozen-c map conserves C's lambda_T -> inf limit, lambda - v = -2c, to roundoff;
    # at r0 = 1e-6 that roundoff (scale a ~ 10) exceeds 1e-10 of |C| = 2 c0: absolute there
    cfg = parse_config(MINIMAL.replace("spectrum = ohmic", f"spectrum = {spectrum}")
                              .replace("mode = markovian", "mode = hight")
                              .replace("t_max = 100", "t_max = 25")
                              .replace("r0 = 1.2", f"r0 = {r0}"))
    report_file, ok = run_verify(cfg, tmp_path)
    report = json.loads(report_file.read_text())
    assert ok, report
    drift = {c["name"]: c for c in report["checks"]}["constant-of-motion-relative-drift"]
    assert drift["value"] <= 1e-10 and drift["tolerance"] == 1e-10


def test_main_rejects_ir_cutoff_at_omega_max(tmp_path, capsys):
    cfg_file = tmp_path / "white.cfg"
    cfg_file.write_text(MINIMAL.replace("spectrum = ohmic", "spectrum = white")
                               .replace("mode = markovian", "mode = nonmarkovian")
                        + "omega_max = 20\nir_cutoff = 20\n")
    rc = main(["coefficients", "--config", str(cfg_file), "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "ConfigError" in err and "ir_cutoff must be below omega_max" in err
    assert not (tmp_path / "o" / "coefficients.csv").exists()


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


def test_main_bad_arguments_exit_2_on_every_call_to_the_shared_parser(tmp_path, capsys):
    # the parser is built once per process; argparse errors still exit 2 each time
    assert _build_parser() is _build_parser()
    for argv in (["simulate", "--bogus"], ["simulate", "--bogus"], ["no-such-command"],
                 ["dsep-sweep", "--config", str(tmp_path / "x.cfg")]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "usage: gaussian-paths" in capsys.readouterr().err


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


@pytest.mark.parametrize("cmd, extra", [("simulate", []), ("verify", []),
                                        ("dsep-sweep", ["--r0-list", "0.5,1.2"])])
def test_main_markovian_at_zero_coupling_is_a_config_error(tmp_path, capsys, cmd, extra):
    # alpha = 0 is the decoupled limit, where gamma_M = 0 leaves the Markovian map undefined:
    # refused when the config is read, also when a --mode override asks for it
    decoupled = MINIMAL.replace("alpha = 0.1", "alpha = 0")
    with pytest.raises(ConfigError, match="markovian mode needs alpha > 0"):
        parse_config(decoupled)
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(decoupled.replace("mode = markovian", "mode = nonmarkovian")
                                 .replace("t_max = 100", "t_max = 2") + "n_samples = 11\n")
    argv = [cmd, "--config", str(cfg_file)] + extra
    assert main(argv + ["--out", str(tmp_path / "grid")]) == 0
    capsys.readouterr()
    assert main(argv + ["--out", str(tmp_path / "mk"), "--mode", "markovian"]) == 2
    err = capsys.readouterr().err
    assert "coefficients.ConfigError" in err and "alpha > 0" in err
    assert not (tmp_path / "mk").exists()


def test_main_dsep_requires_r0_list(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(MINIMAL)
    rc = main(["dsep-sweep", "--config", str(cfg_file), "--out", str(tmp_path),
               "--r0-list", "zebra"])
    assert rc == 2
    assert "r0-list" in capsys.readouterr().err


def test_main_dsep_rejects_an_empty_r0_list(tmp_path, capsys):
    # separators alone leave no number: refused before any channel is built
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(MINIMAL)
    rc = main(["dsep-sweep", "--config", str(cfg_file), "--out", str(tmp_path / "out"),
               "--r0-list", ","])
    assert rc == 2
    assert "--r0-list is empty" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_long_markovian_simulate_writes_no_negative_discord(tmp_path):
    # n_T = 0.1, Gamma(t_max) ~ 40: the state relaxes to a near-product thermal state, whose
    # discord cancels to roundoff; trajectory.csv reads it as discord does, 0 and not -1e-16
    cfg = parse_config(MINIMAL.replace("n_T = 10", "n_T = 0.1").replace("t_max = 100",
                                                                        "t_max = 5100"))
    run_simulate(cfg, tmp_path)
    for name in ("trajectory.csv", "path.csv"):
        with (tmp_path / name).open() as fh:
            column = [float(row["discord"]) for row in csv.DictReader(fh)]
        assert min(column) >= 0.0 and column.count(0.0) > 100, name


def test_cli_import_leaves_out_scipy():
    # nor numpy.polynomial, whose leggauss the Gauss-Legendre literals replace.  scipy is
    # installed with the test extra but stays a test-only reference: importing it, or
    # numpy.polynomial for 16 Gauss-Legendre constants, costs milliseconds of every cold start.
    # The default Ohmic grid is built first, so that no lazy import at call time (a sine
    # integral from scipy.special, say) slips past
    src = str(Path(gaussian_paths.__file__).resolve().parents[1])
    code = ("import sys, gaussian_paths.cli; from gaussian_paths import *; "
            "build_coefficient_grid(SpectralDensity('ohmic', 1.0), Environment(1.0, 0.1, 10.0), "
            "25.0, QuadratureConfig()); print([m for m in sys.modules if m == 'scipy' "
            "or m.startswith(('scipy.', 'numpy.polynomial'))])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


# ------------------------------------------------ console-script runs, in process

def _config(tmp_path, name, **changes):
    fields = {"spectrum": "ohmic", "omega0": 1, "omega_c": 1, "alpha": 0.1, "n_T": 10,
              "r0": 1.2, "t_max": 25, "mode": "nonmarkovian", **changes}
    path = tmp_path / f"{name}.cfg"
    path.write_text("".join(f"{key} = {value}\n" for key, value in fields.items()))
    return path


def _run(tmp_path, cmd, name, *extra, **changes):
    """main([cmd, ...]) on a config of _config's fields and changes; its output directory."""
    out = tmp_path / name
    assert main([cmd, "--config", str(_config(tmp_path, name, **changes)), "--out", str(out),
                 *extra]) == 0, name
    return out


def _sweep_rows(out):
    with (out / "dsep_sweep.csv").open() as fh:
        return list(csv.DictReader(fh))


def _verify_markovian_ohmic(tmp_path):
    _run(tmp_path, "verify", "verify", t_max=100, mode="markovian")


def _verify_markovian_at_tiny_squeezing(tmp_path):
    _run(tmp_path, "verify", "tiny", r0=1e-8, mode="markovian")


def _verify_high_temperature_white_noise(tmp_path):
    _run(tmp_path, "verify", "hight", spectrum="white", mode="hight")


def _dsep_crossing_on_the_grid(tmp_path):
    rows = _sweep_rows(_run(tmp_path, "dsep-sweep", "dsep", "--r0-list", "0.5,1.2,2.5"))
    assert len(rows) == 3 and all(r["d_sep"] for r in rows), rows


def _dsep_high_t_and_markovian_on_the_universal_curve(tmp_path):
    # high-T d_sep is the universal curve exactly, Markovian d_sep within 0.01 of it
    for mode, tol in (("hight", 0.0), ("markovian", 0.01)):
        rows = _sweep_rows(_run(tmp_path, "dsep-sweep", f"dsep-{mode}", "--r0-list",
                                "0.5,1.2,2.5", mode=mode))
        assert len(rows) == 3 and all(r["d_sep"] for r in rows), (mode, rows)
        for r in rows:
            err = abs(float(r["d_sep"]) - gaussian_paths.dsep_universal(float(r["r0"])))
            assert err <= tol, (mode, r["r0"], err)


def _dsep_crossing_independent_of_n_samples(tmp_path):
    # white noise: r0 = 0.05 crosses early at omega_c = 1, n_T = 0.1; at omega_c = 3,
    # n_T = 0.01 the map is unphysical on the channel's knots of [0, 10]
    outs = {}
    for n in (2, 2001):
        outs["excursion", n] = _run(tmp_path, "dsep-sweep", f"excursion{n}", "--r0-list",
                                    "0.05,1.2", spectrum="white", n_T=0.1, r0=0.05, n_samples=n)
        outs["unphysical", n] = _run(tmp_path, "dsep-sweep", f"unphysical{n}", "--r0-list",
                                     "0,0.05", spectrum="white", omega_c=3, n_T=0.01, r0=0.05,
                                     t_max=10, n_samples=n)
    for case in ("excursion", "unphysical"):
        csvs = [(outs[case, n] / "dsep_sweep.csv").read_bytes() for n in (2, 2001)]
        assert csvs[0] == csvs[1], case
    excursion, unphysical = _sweep_rows(outs["excursion", 2]), _sweep_rows(outs["unphysical", 2])
    rows = [r for r in excursion if float(r["r0"]) == 0.05]
    assert len(rows) == 1 and rows[0]["d_sep"], excursion
    assert len(unphysical) == 2 and not any(r["d_sep"] for r in unphysical), unphysical


def _largest_coefficient_grids_and_one_simulate(tmp_path):
    # the benchmark's off-resonant grid (6,368 samples) for every spectrum
    offres = {"omega_c": 0.1, "alpha": 0.01, "t_max": 40}
    expected = {}
    for spectrum in ("ohmic", "superohmic", "white"):
        out = _run(tmp_path, "coefficients", f"offres-{spectrum}", spectrum=spectrum, **offres)
        expected[out / "coefficients.csv"] = 6368
    expected[_run(tmp_path, "simulate", "offres-sim", **offres) / "trajectory.csv"] = 2001
    for path, rows in expected.items():
        assert len(path.read_text().splitlines()) - 1 == rows, path  # less the header


@pytest.mark.parametrize("step", [
    _verify_markovian_ohmic, _verify_markovian_at_tiny_squeezing,
    _verify_high_temperature_white_noise, _dsep_crossing_on_the_grid,
    _dsep_high_t_and_markovian_on_the_universal_curve, _dsep_crossing_independent_of_n_samples,
    _largest_coefficient_grids_and_one_simulate,
], ids=lambda step: step.__name__.lstrip("_"))
def test_console_script_run(tmp_path, step):
    step(tmp_path)


def test_module_entry_point_runs_verify(tmp_path):
    # the installed console script is main; `python -m gaussian_paths.cli` reaches it too
    src = str(Path(gaussian_paths.__file__).resolve().parents[1])
    cfg = _config(tmp_path, "verify", t_max=100, mode="markovian")
    out = subprocess.run([sys.executable, "-m", "gaussian_paths.cli", "verify", "--config",
                          str(cfg), "--out", str(tmp_path / "verify")], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert out.returncode == 0, out.stderr
    assert "verify: PASS" in out.stdout
    assert json.loads((tmp_path / "verify" / "verify.json").read_text())["passed"] is True
