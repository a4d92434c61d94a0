"""End-to-end command line behavior on small, fast scenarios."""

import dataclasses
import errno
import json
import os
import signal
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest

from qfluid import Grid, cli, output, presets, scenario, serialize
from qfluid.cli import (EXIT_CHECK_FAILED, EXIT_OK, EXIT_USAGE, EXIT_VACUUM,
                        cmd_compare, cmd_run, cmd_scan, cmd_verify, main)
from qfluid.kernels import truncation_sweep
from qfluid.madelung import quantum_potential, run, velocity
from qfluid.output import _write_csv, write_compare, write_run
from qfluid.schrodinger import compare, run_oracle, to_wavefunction
from qfluid.verify import RunCache

DEMO_SCENARIOS = Path(__file__).resolve().parents[1] / "demos" / "scenarios"

QUICK_RUN = """\
[scenario]
name = hillstart

[grid]
n = 64
length = 1.0

[terms]
thermo = false

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
"""


# Bohm's fluid poured into the cosine well: the density nearly vanishes
# near t = 0.25 (the wave oracle's minimum falls to 2.4e-3), and the
# log-density run, unresolved there, ends in vacuum at t = 0.316
BOHM_DRAIN = """\
[scenario]
name = bohm_drain

[grid]
n = 128
length = 1.0

[physics]
hbar = 0.2

[terms]
thermo = false
quantum = true

[initial]
kind = cosine

[external]
kind = cosine
v0 = 2.0

[solver]
dt = 1e-4
t_end = 0.5
snapshot_stride = 100
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
    assert manifest["scenario"]["physics"]["a2"] is None
    assert manifest["scenario"]["initial"] == {
        "kind": "cosine", "base": 1.0, "amplitude": 0.0, "mode": 1,
        "phase": 0.0, "phi_amplitude": 0.0, "phi_mode": 1, "phi_phase": 0.0}
    assert manifest["scenario"]["external"] == {"kind": "cosine", "v0": 2.0}
    assert manifest["derived"]["dx"] == pytest.approx(1.0 / 64)
    assert manifest["derived"]["n_steps"] == 100
    assert "version" in manifest
    assert manifest["wall_time_seconds"] > 0
    assert not (out / "error.json").exists()


def test_run_plot_adds_one_svg_per_snapshot(tmp_path):
    path = scenario_file(tmp_path, QUICK_RUN)
    plain, plotted = tmp_path / "plain", tmp_path / "plotted"
    assert main(["run", path, "-o", str(plain)]) == EXIT_OK
    assert main(["run", path, "-o", str(plotted), "--plot"]) == EXIT_OK
    assert not list((plain / "snapshots").glob("*.svg"))
    csvs = sorted(p.name for p in (plotted / "snapshots").glob("*.csv"))
    svgs = sorted(p.name for p in (plotted / "snapshots").glob("*.svg"))
    assert len(csvs) == 6
    assert svgs == [name.replace(".csv", ".svg") for name in csvs]
    for rel in [f"snapshots/{name}" for name in csvs] + ["diagnostics.csv"]:
        assert (plotted / rel).read_bytes() == (plain / rel).read_bytes()


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


# a gaussian two widths from the harmonic seam: the build warns about it
SEAM = QUICK_RUN.replace("name = hillstart", "name = seam").replace(
    "kind = cosine\n\n[external]", "kind = gaussian\nwidth = 0.05\n"
    "center = 0.1\npedestal = 0.01\n\n[external]").replace(
    "kind = cosine\nv0 = 2.0", "kind = harmonic\nomega = 1.0")


def test_run_emits_the_seam_warning_once(tmp_path):
    path = scenario_file(tmp_path, SEAM)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", UserWarning)
        assert cmd_run(path, str(tmp_path / "out")) == EXIT_OK
    assert sum("seam" in str(w.message) for w in caught) == 1


def test_compare_refines_the_equilibrium_once(tmp_path, monkeypatch):
    calls = []
    refine = scenario.refine_equilibrium
    monkeypatch.setattr(scenario, "refine_equilibrium",
                        lambda *a: calls.append(1) or refine(*a))
    scn = presets.trap()
    short = dataclasses.replace(
        scn, solver=dataclasses.replace(scn.solver, t_end=2.5e-3,
                                        snapshot_stride=25),
        oracle=dataclasses.replace(scn.oracle, t_end=2.5e-3,
                                   snapshot_stride=50))
    path = scenario_file(tmp_path, serialize(short))
    assert cmd_compare(path, str(tmp_path / "cmp")) == EXIT_OK
    assert len(calls) == 1


def test_run_bad_inputs_exit_usage(tmp_path, capsys):
    assert cmd_run(str(tmp_path / "missing.ini"), str(tmp_path / "o")) == EXIT_USAGE
    bad = scenario_file(tmp_path, QUICK_RUN + "\n[solver2]\n", "bad.ini")
    assert cmd_run(bad, str(tmp_path / "o2")) == EXIT_USAGE
    typo = scenario_file(tmp_path,
                         QUICK_RUN.replace("dt = 5e-4", "dtt = 5e-4"),
                         "typo.ini")
    assert cmd_run(typo, str(tmp_path / "o3")) == EXIT_USAGE
    assert "error:" in capsys.readouterr().err
    partial = scenario_file(tmp_path,
                            QUICK_RUN.replace("t_end = 0.05", "t_end = 0.0501"),
                            "partial.ini")
    assert cmd_run(partial, str(tmp_path / "o4")) == EXIT_USAGE
    assert "line 19: t_end=0.0501 is not an integer number of steps" \
        in capsys.readouterr().err
    # the kernel's moments serve a series closure only
    unread = scenario_file(
        tmp_path, QUICK_RUN + "\n[kernel]\nfamily = delta\n", "unread.ini")
    assert cmd_run(unread, str(tmp_path / "o5")) == EXIT_USAGE
    assert "line 24: [kernel] family 'delta' is not read" \
        in capsys.readouterr().err


# each fails at parse or build with exit 2, on the line of its last key
@pytest.mark.parametrize("after, added", [
    ("snapshot_stride = 25", "\n[external]\nkind = harmonic\nomega = 1e200"),
    ("width = 0.13", "pedestal = nan"),
    ("hbar = 0.3", "a2 = -0.01"),
], ids=["huge-omega", "nan-pedestal", "negative-a2"])
def test_run_names_the_line_of_a_bad_value(after, added, tmp_path, capsys):
    text = COMPARE.replace(after, f"{after}\n{added}")
    path = scenario_file(tmp_path, text)
    assert main(["run", path, "-o", str(tmp_path / "o")]) == EXIT_USAGE
    line = text.splitlines().index(added.splitlines()[-1]) + 1
    assert capsys.readouterr().err.startswith(f"error: line {line}: ")
    assert not (tmp_path / "o").exists()


# a series cut after c_4 = -10.5 whose multiplier is negative on most modes
ILL_POSED = """\
[grid]
n = 64
length = 1.0

[physics]
hbar = 0.1

[terms]
quantum = true
quantum_order = 2

[initial]
kind = cosine
amplitude = 0.1

[kernel]
family = difference_of_gaussians
width = 0.03

[solver]
dt = 1e-4
t_end = 2e-3
"""


def test_run_refuses_an_ill_posed_series(tmp_path, capsys):
    path = scenario_file(tmp_path, ILL_POSED)
    assert main(["run", path, "-o", str(tmp_path / "o")]) == EXIT_USAGE
    line = ILL_POSED.splitlines().index("family = difference_of_gaussians")
    assert f"line {line + 1}: the gradient series cut after c_4 is ill-posed" \
        in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


# the same series with a gaussian kernel (c_4 = +3) is well-posed, but its
# top mode bounds the step at 2.73e-4, below Bohm's 1.22e-3
STIFF_SERIES = ILL_POSED.replace("difference_of_gaussians", "gaussian")


def test_run_holds_a_series_to_its_step_bound(tmp_path, capsys):
    text = STIFF_SERIES.replace("dt = 1e-4\nt_end = 2e-3",
                                "dt = 3e-4\nt_end = 3e-3")
    path = scenario_file(tmp_path, text)
    assert main(["run", path, "-o", str(tmp_path / "o")]) == EXIT_USAGE
    line = text.splitlines().index("dt = 3e-4")
    assert (f"line {line + 1}: dt=0.0003 violates the series stability bound"
            in capsys.readouterr().err)
    ok = scenario_file(tmp_path, STIFF_SERIES.replace(
        "dt = 1e-4\nt_end = 2e-3", "dt = 2.5e-4\nt_end = 2.5e-3"), "ok.ini")
    assert main(["run", ok, "-o", str(tmp_path / "ok")]) == EXIT_OK
    manifest = json.loads((tmp_path / "ok" / "manifest.json").read_text())
    assert manifest["derived"]["stability_dt_bound"] == pytest.approx(
        2.73e-4, rel=1e-3)


def stacked_run(n_snapshots, make=presets.traveling):
    """A preset recording ``n_snapshots`` states, one per step."""
    setup = scenario.build(make())
    scn = dataclasses.replace(setup.scn, solver=dataclasses.replace(
        setup.scn.solver, t_end=(n_snapshots - 1) * setup.scn.solver.dt,
        snapshot_stride=1))
    traj = run(setup.state, scn.solver, setup.flags, setup.params, setup.vext)
    assert len(traj.snapshots) == n_snapshots
    return dataclasses.replace(setup, scn=scn), traj


def write_stacked(setup, traj, out):
    write_run(out, setup, traj, 0.0)


@pytest.mark.parametrize("make", [presets.traveling, presets.trap])
def test_snapshot_csvs_equal_a_per_snapshot_reference(make, tmp_path,
                                                      monkeypatch):
    # 70 snapshots: this process writes the first 35, a forked child the
    # last 35
    setup, traj = stacked_run(70, make)
    scn, flags, p, vext = setup.scn, setup.flags, setup.params, setup.vext
    out = tmp_path / "out"
    write_stacked(setup, traj, out)
    grid = scn.grid
    varr = vext.field(grid).values
    ref = tmp_path / "ref.csv"
    for idx, s in enumerate(traj.snapshots):
        _write_csv(ref, "x,rho,phi,v,U_Q,V_e",
                   (grid.x, np.exp(s.lam.values), s.phi.values,
                    velocity(s).values, quantum_potential(s, flags, p).values,
                    varr))
        got = (out / "snapshots" / f"{idx:04d}.csv").read_bytes()
        assert got == ref.read_bytes(), idx
    # where os.fork does not exist, this process writes both stacks
    monkeypatch.delattr(os, "fork")
    write_stacked(setup, traj, tmp_path / "inline")
    files = sorted(f.relative_to(out) for f in out.rglob("*") if f.is_file())
    assert len(files) == 70 + 2
    for rel in files:
        assert (tmp_path / "inline" / rel).read_bytes() == \
            (out / rel).read_bytes(), rel


def failing_snapshots(monkeypatch, indices, error):
    """Make ``_write_csv`` raise ``error`` for the snapshots ``indices``."""
    def write(path, *args):
        name = os.path.basename(path)
        if name[:4].isdigit() and int(name[:4]) in indices:
            raise error
        real(path, *args)

    real = output._write_csv
    monkeypatch.setattr(output, "_write_csv", write)


def test_run_raises_what_the_writers_child_raised(tmp_path, monkeypatch,
                                                  capsys):
    # snapshots 35 to 69 are the forked child's share
    setup, traj = stacked_run(70)
    full = OSError(errno.ENOSPC, "No space left on device")
    failing_snapshots(monkeypatch, range(64, 70), full)
    with pytest.raises(OSError, match="No space left on device"):
        write_stacked(setup, traj, tmp_path / "w")
    assert (tmp_path / "w" / "manifest.json").is_file()
    path = scenario_file(tmp_path, serialize(setup.scn))
    assert cmd_run(path, str(tmp_path / "o")) == EXIT_USAGE
    assert capsys.readouterr().err == \
        "error: [Errno 28] No space left on device\n"


def test_run_reaps_the_writer_when_its_own_share_is_interrupted(
        tmp_path, monkeypatch):
    # the autouse fixture fails the test if the writer's child is left
    setup, traj = stacked_run(70)
    failing_snapshots(monkeypatch, range(64), KeyboardInterrupt())
    with pytest.raises(KeyboardInterrupt):
        write_stacked(setup, traj, tmp_path / "w")


def test_run_of_one_stack_forks_nothing(tmp_path, monkeypatch):
    setup, traj = stacked_run(64)
    monkeypatch.setattr(os, "fork",
                        lambda: pytest.fail("one stack forked a child"))
    write_stacked(setup, traj, tmp_path / "w")
    assert len(list((tmp_path / "w" / "snapshots").glob("*.csv"))) == 64


@pytest.mark.parametrize("command", ["run", "compare", "scan"])
def test_unwritable_out_exits_usage(command, tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("a regular file\n")
    scn = scenario_file(tmp_path, COMPARE)
    argv = [command] + ([] if command == "scan" else [scn]) + ["-o", str(taken)]
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(taken) in err
    assert taken.read_text() == "a regular file\n"


# ------------------------------------------------------------------- verify

def test_verify_identities_passes(capsys):
    assert cmd_verify("identities") == EXIT_OK
    out = capsys.readouterr().out
    assert out.count("[PASS]") == 2
    assert "2/2 checks passed" in out


def test_verify_unknown_suite(capsys):
    assert cmd_verify("everything") == EXIT_USAGE
    assert "unknown suite" in capsys.readouterr().err


def test_verify_refuses_a_negative_seed_before_any_run(capsys, monkeypatch):
    def no_run(scn):
        raise AssertionError(f"preset {scn.name} ran before the seed was read")

    monkeypatch.setattr(RunCache, "_integrate", staticmethod(no_run))
    assert cmd_verify("conservation", seed=-1) == EXIT_USAGE
    assert "seed must be >= 0, got -1" in capsys.readouterr().err


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


def test_compare_rejects_misaligned_oracle(tmp_path, capsys, monkeypatch):
    skew_end = COMPARE + "\n[oracle]\nt_end = 0.04\n"
    path = scenario_file(tmp_path, skew_end, "skew1.ini")
    assert cmd_compare(path, str(tmp_path / "c1")) == EXIT_USAGE
    assert "t_end differs" in capsys.readouterr().err

    skew_dt = COMPARE + "\n[oracle]\ndt = 1e-4\n"
    path = scenario_file(tmp_path, skew_dt, "skew2.ini")
    assert cmd_compare(path, str(tmp_path / "c2")) == EXIT_USAGE
    assert "snapshot_stride" in capsys.readouterr().err

    # the snapshots align, but the oracle's dt does not divide t_end: it is
    # refused before the oracle forks or the fluid runs
    def no_fork():
        raise AssertionError("compare forked before refusing its oracle")

    monkeypatch.setattr(os, "fork", no_fork)
    skew_steps = (COMPARE.replace("stride = 25", "stride = 30")
                  + "\n[oracle]\ndt = 1.5e-3\nsnapshot_stride = 4\n")
    path = scenario_file(tmp_path, skew_steps, "skew3.ini")
    assert cmd_compare(path, str(tmp_path / "c3")) == EXIT_USAGE
    assert capsys.readouterr().err.startswith(
        "error: [oracle] t_end=0.02 is not an integer number of steps")


def test_compare_propagates_solver_abort(tmp_path):
    path = scenario_file(tmp_path, BOHM_DRAIN)
    out = tmp_path / "cmp"
    assert cmd_compare(path, str(out)) == EXIT_VACUUM
    assert json.loads((out / "error.json").read_text())["status"] == "vacuum"
    assert not (out / "compare.csv").exists()


@pytest.mark.parametrize("text, line", [
    (COMPARE.replace("quantum = true", "quantum = false"), "quantum = false"),
    (STIFF_SERIES.replace("dt = 1e-4\nt_end = 2e-3",
                          "dt = 2.5e-4\nt_end = 2.5e-3"), "quantum_order = 2"),
], ids=["classical", "series"])
def test_compare_refuses_a_closure_its_oracle_does_not_model(
        text, line, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "beside", None)  # refused before any fork
    out = tmp_path / "cmp"
    assert main(["compare", scenario_file(tmp_path, text), "-o", str(out)]) \
        == EXIT_USAGE
    assert capsys.readouterr().err.startswith(f"error: [terms] {line}: ")
    assert not out.exists()


@pytest.mark.parametrize("name, t_end, stride", [("trap", 0.0125, 125),
                                                 ("free", 0.0123, 41)])
def test_compare_report_equals_the_two_runs_in_process(name, t_end, stride,
                                                       tmp_path):
    # the demo physics, cut short: the oracle runs in a forked child, and
    # its report must keep the bits of the two runs made one after the other
    scn = scenario.parse_scenario(
        (DEMO_SCENARIOS / f"{name}.ini").read_text())
    oracle = scn.oracle
    if oracle.t_end is not None:
        oracle = dataclasses.replace(
            oracle, t_end=t_end,
            snapshot_stride=round(stride * scn.solver.dt / oracle.dt))
    short = dataclasses.replace(
        scn, solver=dataclasses.replace(scn.solver, t_end=t_end,
                                        snapshot_stride=stride),
        oracle=oracle)
    path = scenario_file(tmp_path, serialize(short))
    assert cmd_compare(path, str(tmp_path / "forked")) == EXIT_OK

    setup = scenario.load(serialize(short))
    traj = run(setup.state, setup.scn.solver, setup.flags, setup.params,
               setup.vext)
    wtraj = run_oracle(to_wavefunction(setup.state, setup.params),
                       setup.oracle, setup.params, setup.vext)
    write_compare(tmp_path / "inline", compare(traj, wtraj, setup.params))
    got = (tmp_path / "forked" / "compare.csv").read_bytes()
    assert len(got.splitlines()) > 3
    assert got == (tmp_path / "inline" / "compare.csv").read_bytes()


def test_compare_reports_the_oracle_rotation_bound(tmp_path, capsys):
    # the fluid run is fine; the oracle's coarser step turns the phase by
    # 1.67 rad under the cosine hill, which the child reports
    hill = COMPARE + ("\n[external]\nkind = cosine\nv0 = 100.0\n"
                      "\n[oracle]\ndt = 5e-3\nsnapshot_stride = 1\n")
    path = scenario_file(tmp_path, hill)
    assert cmd_compare(path, str(tmp_path / "cmp")) == EXIT_USAGE
    assert capsys.readouterr().err == (
        "error: potential phase rotation 1.67 rad per step exceeds 0.5;"
        " reduce dt\n")
    assert not (tmp_path / "cmp" / "compare.csv").exists()


def test_compare_reaps_the_oracle_when_the_fluid_run_raises(tmp_path,
                                                           monkeypatch):
    # the autouse fixture fails the test if the oracle's child is left
    def interrupted(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "run", interrupted)
    with pytest.raises(KeyboardInterrupt):
        cmd_compare(scenario_file(tmp_path, COMPARE), str(tmp_path / "cmp"))


def test_compare_surfaces_a_killed_oracle(tmp_path, monkeypatch):
    def killed(*args):
        os.kill(os.getpid(), signal.SIGKILL)

    def late(signum, frame):
        raise TimeoutError("compare still waits for its oracle")

    monkeypatch.setattr(cli, "run_oracle", killed)
    path = scenario_file(tmp_path, COMPARE)
    previous = signal.signal(signal.SIGALRM, late)
    signal.alarm(60)
    try:
        with pytest.raises(ChildProcessError, match="SIGKILL"):
            cmd_compare(path, str(tmp_path / "cmp"))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert not (tmp_path / "cmp" / "compare.csv").exists()


# --------------------------------------------------------------------- scan

def test_scan_writes_table_and_files(tmp_path, capsys):
    out = tmp_path / "scan"
    rc = cmd_scan(str(out), family="gaussian", n=64, widths="0.02,0.04",
                  orders="1,2")
    assert rc == EXIT_OK
    text = capsys.readouterr().out
    assert "a_over_L" in text
    assert "fitted exponent" in text
    sweep = truncation_sweep(Grid(n=64, length=1.0), [0.02, 0.04], [1, 2],
                             "gaussian")
    want = "a_over_L,err_n1,err_n2\n" + "".join(
        "%.17g" % frac + "".join(",%.17g" % e for e in errs) + "\n"
        for frac, errs in zip([0.02, 0.04], sweep))
    assert (out / "scan.csv").read_bytes() == want.encode("utf-8")
    assert (out / "scan.svg").exists()


def test_scan_rejects_bad_orders(capsys):
    assert cmd_scan(None, orders="0,1") == EXIT_USAGE
    assert "orders must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("forced", [False, True], ids=["too-big", "no-memory"])
def test_a_grid_too_large_to_allocate_is_refused_on_its_n_line(
        forced, tmp_path, monkeypatch, capsys):
    # numpy refuses n = 2^60 before it allocates anything; a MemoryError,
    # which a smaller n raises only where the system will not grant it, is
    # forced here
    if forced:
        def no_memory(n, length):
            raise MemoryError(f"no room for n = {n}")
        monkeypatch.setattr("qfluid.grid._shared_tables", no_memory)
    big = f"n = {2**60}"
    text = (DEMO_SCENARIOS / "traveling.ini").read_text().replace(
        "n = 256", big)
    path = tmp_path / "big.ini"
    path.write_text(text)
    assert cmd_run(str(path), str(tmp_path / "out")) == EXIT_USAGE
    line = text.splitlines().index(big) + 1
    assert capsys.readouterr().err.startswith(f"error: line {line}: ")
    assert cmd_scan(None, n=2**60) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("width", ["-0.1", "0", "nan", "inf"])
def test_scan_refuses_a_width_that_is_not_finite_and_positive(width, capsys):
    # the value named is the a/L given, not the kernel width built from it
    rc = cmd_scan(None, widths=f"0.02,{width}")
    assert rc == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"must be finite and > 0, got {width}\n" in err


@pytest.mark.filterwarnings("error")
def test_scan_fits_no_exponent_without_two_distinct_widths(tmp_path, capsys):
    out = tmp_path / "scan"
    rc = cmd_scan(str(out), family="gaussian", n=64, widths="0.02,0.02",
                  orders="1")
    assert rc == EXIT_OK
    assert "fitted exponent" not in capsys.readouterr().out
    assert (out / "scan.csv").is_file()
    assert not (out / "scan.svg").exists()


# ---------------------------------------------------------- reused outputs

SCAN = ["scan", "--n", "64", "--orders", "1", "--widths"]


# each case writes twice into one directory; the second command's writer
# removes the file of its own naming that the first left and it did not
@pytest.mark.parametrize("first, second, code, stale", [
    (["run", "drain"], ["run", "quick"], EXIT_OK, "error.json"),
    (["run", "quick"], ["run", "fewer"], EXIT_OK, "snapshots/0005.csv"),
    (["run", "quick", "--plot"], ["run", "quick"], EXIT_OK,
     "snapshots/0000.svg"),
    (["compare", "cmp"], ["compare", "bohm_drain"], EXIT_VACUUM,
     "compare.csv"),
    (["compare", "bohm_drain"], ["compare", "cmp"], EXIT_OK, "error.json"),
    (SCAN + ["0.02,0.04"], SCAN + ["0.02,0.02"], EXIT_OK, "scan.svg"),
], ids=["run-error", "run-snapshots", "run-svgs", "compare-report",
        "compare-error", "scan-plot"])
def test_a_reused_out_dir_keeps_no_stale_file(first, second, code, stale,
                                              tmp_path, capsys):
    files = {"quick": QUICK_RUN, "drain": DRAIN, "cmp": COMPARE,
             "bohm_drain": BOHM_DRAIN,
             "fewer": QUICK_RUN.replace("stride = 20", "stride = 50")}
    out = tmp_path / "out"
    argv = [[scenario_file(tmp_path, files[a], f"{a}.ini") if a in files
             else a for a in cmd] + ["-o", str(out)] for cmd in (first, second)]
    main(argv[0])
    assert (out / stale).is_file()
    others = [out / "notes.txt", out / "snapshots" / "notes.txt"]
    for other in others:
        other.parent.mkdir(exist_ok=True)
        other.write_text("kept\n")
    assert main(argv[1]) == code
    assert not (out / stale).exists()
    assert all(other.read_text() == "kept\n" for other in others)
    capsys.readouterr()


def test_the_commands_import_numpy_alone(tmp_path):
    # numpy is the one declared dependency: the commands run with every
    # import of scipy failing
    path = scenario_file(tmp_path, COMPARE)
    commands = [["run", path, "-o", str(tmp_path / "run")],
                ["compare", path, "-o", str(tmp_path / "cmp")],
                ["verify", "identities"]]
    script = textwrap.dedent(f"""\
        import sys
        sys.modules["scipy"] = None
        from qfluid.cli import main
        for argv in {commands!r}:
            assert main(argv) == 0, argv
        """)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr


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
