"""End-to-end command line behavior on small, fast scenarios."""

import json

import numpy as np
import pytest

from qfluid.cli import (EXIT_CHECK_FAILED, EXIT_OK, EXIT_USAGE, EXIT_VACUUM,
                        cmd_compare, cmd_run, cmd_scan, cmd_verify, main)
from qfluid.output import _write_csv

QUICK_RUN = """\
[scenario]
name = hillstart

[grid]
n = 64
length = 1.0

[terms]
thermo = false
external = true

[initial]
kind = cosine

[external]
kind = cosine
v0 = 2.0

[solver]
dt = 5e-4
t_end = 0.05
snapshot_stride = 20
"""

# same dynamics run long enough that the potential hill empties completely
DRAIN = QUICK_RUN.replace("name = hillstart", "name = drain").replace(
    "t_end = 0.05", "t_end = 2.0").replace(
    "snapshot_stride = 20", "snapshot_stride = 200")

COMPARE = """\
[scenario]
name = minifree

[grid]
n = 64
length = 1.0

[physics]
hbar = 0.3

[terms]
thermo = false
quantum = true

[initial]
kind = gaussian
width = 0.13

[solver]
dt = 2e-4
t_end = 0.02
snapshot_stride = 25

[oracle]
nonlinearity = false
"""


def scenario_file(tmp_path, text, name="scn.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------------- run

def test_run_writes_contracted_outputs(tmp_path, capsys):
    path = scenario_file(tmp_path, QUICK_RUN)
    out = tmp_path / "out"
    assert cmd_run(path, str(out)) == EXIT_OK
    assert "hillstart: ok" in capsys.readouterr().out

    snaps = sorted((out / "snapshots").glob("*.csv"))
    assert [s.name for s in snaps] == [f"{j:04d}.csv" for j in range(6)]
    header = snaps[0].read_text().splitlines()[0]
    assert header == "x,rho,phi,v,U_Q,V_e"
    data = np.loadtxt(snaps[0], delimiter=",", skiprows=1)
    assert data.shape == (64, 6)
    assert np.allclose(data[:, 1], 1.0)  # uniform initial density
    assert np.all(data[:, 4] == 0.0)     # quantum term off

    diag = (out / "diagnostics.csv").read_text().splitlines()
    assert diag[0] == ("t,mass,energy,bernoulli_residual,"
                       "lagrangian_minus_pressure,min_density")
    assert len(diag) == 1 + 6

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["scenario"]["grid"]["n"] == 64
    assert manifest["scenario"]["solver"]["density_floor"] == 1e-12
    assert manifest["scenario"]["physics"]["a2_mode"] == "de_broglie"
    assert manifest["scenario"]["initial"] == {
        "kind": "cosine", "base": 1.0, "amplitude": 0.0, "mode": 1,
        "phase": 0.0, "phi_amplitude": 0.0, "phi_mode": 1, "phi_phase": 0.0}
    assert manifest["scenario"]["external"] == {"kind": "cosine", "v0": 2.0}
    assert manifest["derived"]["dx"] == pytest.approx(1.0 / 64)
    assert manifest["derived"]["n_steps"] == 100
    assert "version" in manifest
    assert manifest["wall_time_seconds"] > 0
    assert not (out / "error.json").exists()


def test_run_is_bit_identical_between_invocations(tmp_path):
    path = scenario_file(tmp_path, QUICK_RUN)
    a, b = tmp_path / "a", tmp_path / "b"
    assert cmd_run(path, str(a)) == EXIT_OK
    assert cmd_run(path, str(b)) == EXIT_OK
    for rel in [f"snapshots/{j:04d}.csv" for j in range(6)] + ["diagnostics.csv"]:
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel
    ma = json.loads((a / "manifest.json").read_text())
    mb = json.loads((b / "manifest.json").read_text())
    ma.pop("wall_time_seconds")
    mb.pop("wall_time_seconds")
    assert ma == mb


def test_write_csv_matches_per_value_format(tmp_path):
    columns = ([0.0, np.nan, -0.0, 1e-300, 1.0 / 3.0],
               [1e300, -1.5, np.nan, -np.pi, -1e-300])
    path = tmp_path / "t.csv"
    _write_csv(path, "a,b", columns)
    rows = np.column_stack(columns)
    want = "a,b\n" + "".join(",".join("%.17g" % v for v in row) + "\n"
                             for row in rows)
    assert path.read_bytes() == want.encode("utf-8")


def test_run_vacuum_exit_code_and_partial_outputs(tmp_path, capsys):
    path = scenario_file(tmp_path, DRAIN)
    out = tmp_path / "out"
    assert cmd_run(path, str(out)) == EXIT_VACUUM
    err = json.loads((out / "error.json").read_text())
    assert err["status"] == "vacuum"
    assert "density floor" in err["message"]
    assert err["last_time"] < 2.0
    # partial snapshots and diagnostics still on disk
    assert len(list((out / "snapshots").glob("*.csv"))) >= 1
    assert (out / "diagnostics.csv").exists()
    assert "vacuum" in capsys.readouterr().out


def test_run_bad_inputs_exit_usage(tmp_path, capsys):
    assert cmd_run(str(tmp_path / "missing.ini"), str(tmp_path / "o")) == EXIT_USAGE
    bad = scenario_file(tmp_path, QUICK_RUN + "\n[solver2]\n", "bad.ini")
    assert cmd_run(bad, str(tmp_path / "o2")) == EXIT_USAGE
    typo = scenario_file(tmp_path,
                         QUICK_RUN.replace("dt = 5e-4", "dtt = 5e-4"),
                         "typo.ini")
    assert cmd_run(typo, str(tmp_path / "o3")) == EXIT_USAGE
    assert "error:" in capsys.readouterr().err


# ------------------------------------------------------------------- verify

def test_verify_identities_passes(capsys):
    assert cmd_verify("identities") == EXIT_OK
    out = capsys.readouterr().out
    assert out.count("[PASS]") == 2
    assert "2/2 checks passed" in out


def test_verify_unknown_suite(capsys):
    assert cmd_verify("everything") == EXIT_USAGE
    assert "unknown suite" in capsys.readouterr().err


# ------------------------------------------------------------------ compare

def test_compare_writes_report(tmp_path, capsys):
    path = scenario_file(tmp_path, COMPARE)
    out = tmp_path / "cmp"
    assert cmd_compare(path, str(out)) == EXIT_OK
    assert "max_l2_density" in capsys.readouterr().out
    lines = (out / "compare.csv").read_text().splitlines()
    assert lines[0] == "t,l2_density_error,phase_error"
    data = np.loadtxt(out / "compare.csv", delimiter=",", skiprows=1)
    assert data.shape == (5, 3)
    assert data[:, 1].max() < 1e-3  # the two solvers track each other


def test_compare_rejects_misaligned_oracle(tmp_path, capsys):
    skew_end = COMPARE.replace("nonlinearity = false",
                               "nonlinearity = false\nt_end = 0.04")
    path = scenario_file(tmp_path, skew_end, "skew1.ini")
    assert cmd_compare(path, str(tmp_path / "c1")) == EXIT_USAGE
    assert "t_end differs" in capsys.readouterr().err

    skew_dt = COMPARE.replace("nonlinearity = false",
                              "nonlinearity = false\ndt = 1e-4")
    path = scenario_file(tmp_path, skew_dt, "skew2.ini")
    assert cmd_compare(path, str(tmp_path / "c2")) == EXIT_USAGE
    assert "snapshot_stride" in capsys.readouterr().err


def test_compare_propagates_solver_abort(tmp_path):
    path = scenario_file(tmp_path, DRAIN)
    out = tmp_path / "cmp"
    assert cmd_compare(path, str(out)) == EXIT_VACUUM
    assert json.loads((out / "error.json").read_text())["status"] == "vacuum"
    assert not (out / "compare.csv").exists()


# --------------------------------------------------------------------- scan

def test_scan_writes_table_and_files(tmp_path, capsys):
    out = tmp_path / "scan"
    rc = cmd_scan(str(out), family="gaussian", n=64, widths="0.02,0.04",
                  orders="1,2")
    assert rc == EXIT_OK
    text = capsys.readouterr().out
    assert "a_over_L" in text
    assert "fitted exponent" in text
    lines = (out / "scan.csv").read_text().splitlines()
    assert lines[0] == "a_over_L,err_n1,err_n2"
    assert len(lines) == 3
    assert (out / "scan.svg").exists()


def test_scan_rejects_bad_orders(capsys):
    assert cmd_scan(None, orders="0,1") == EXIT_USAGE
    assert "orders must be >= 1" in capsys.readouterr().err


# --------------------------------------------------------------------- main

def test_main_routes_subcommands(tmp_path, capsys):
    path = scenario_file(tmp_path, QUICK_RUN)
    assert main(["run", path, "--out", str(tmp_path / "o")]) == EXIT_OK
    assert main(["run", path, "-o", str(tmp_path / "short")]) == EXIT_OK
    assert (tmp_path / "short" / "manifest.json").is_file()
    cpath = scenario_file(tmp_path, COMPARE, "cmp.ini")
    assert main(["compare", cpath, "-o", str(tmp_path / "cmp")]) == EXIT_OK
    assert (tmp_path / "cmp" / "compare.csv").is_file()
    assert main(["scan", "--n", "64", "--widths", "0.04,0.08",
                 "--orders", "1", "-o", str(tmp_path / "scan")]) == EXIT_OK
    assert (tmp_path / "scan" / "scan.csv").is_file()
    assert main(["verify", "identities"]) == EXIT_OK
    capsys.readouterr()


def test_main_rejects_bad_usage(capsys):
    with pytest.raises(SystemExit):
        main([])
    with pytest.raises(SystemExit):
        main(["verify", "everything"])  # not an argparse choice
    capsys.readouterr()
