"""Run artifacts: snapshot CSVs, diagnostics, manifest, compare report.

All numeric text uses 17 significant digits so every 64-bit value
round-trips exactly; reruns of the same manifest must produce
byte-identical CSVs.

:func:`write_run` writes a run's snapshot files from two processes: a
forked child (:func:`~qfluid.fork.beside`) writes the later half
of the snapshots while the caller writes the earlier half and the run's
other files. The layout and every byte stay those of one process writing
them in order.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re

import numpy as np

from .fork import beside
from .madelung import (CHUNK, Trajectory, _fields, _stack, stability_bound,
                       whole_steps)
from .scenario import Setup
from .schrodinger import CompareResult
from .svgplot import line_plot
from .version import __version__

__all__ = [
    "write_run",
    "write_compare",
    "write_error",
    "manifest_dict",
]


def _csv_format(columns, n_rows: int) -> str:
    """The rows of a CSV as one format: a column given as an array is
    written into it once, here; a None column leaves a ``%.17g`` slot in
    every row for :func:`_write_csv` to fill."""
    cells = [("%.17g",) * n_rows if c is None
             else ["%.17g" % v for v in c.tolist()] for c in columns]
    return "".join(",".join(row) + "\n" for row in zip(*cells))


def _write_csv(path, header: str, columns, fmt: str | None = None) -> None:
    """Header plus one ``%.17g`` row per sample, formatted in one pass.
    ``fmt`` is a :func:`_csv_format` whose slots ``columns`` fill."""
    rows = np.column_stack(columns)
    if fmt is None:
        fmt = (",".join(["%.17g"] * rows.shape[1]) + "\n") * len(rows)
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(header + "\n")
        f.write(fmt % tuple(rows.ravel().tolist()))


def _remove_stale(directory, pattern: str, written=()) -> None:
    """Remove the files in ``directory`` that an earlier run left under a
    name ``pattern`` matches and this one did not write (``written``)."""
    for name in os.listdir(directory):
        if re.fullmatch(pattern, name) and name not in written:
            os.remove(os.path.join(directory, name))


def manifest_dict(setup: Setup, wall_time: float | None = None) -> dict:
    """Every resolved parameter, stated explicitly."""
    scn, p, flags = setup.scn, setup.params, setup.flags
    grid = scn.grid
    derived: dict[str, object] = {
        "dx": grid.dx,
        "a2": p.a2,
        "quantum_coefficient": p.quantum_coefficient,
        "n_steps": whole_steps(scn.solver.t_end, scn.solver.dt),
    }
    try:
        derived["hbar_eff"] = p.hbar_eff
    except ValueError:
        derived["hbar_eff"] = None
    if flags.quantum:
        derived["stability_dt_bound"] = stability_bound(grid, p, flags)
    if flags.moments is not None:
        derived["kernel_a2"] = flags.moments.a2
        derived["kernel_moments"] = list(flags.moments.c)
    out = {
        "scenario": dataclasses.asdict(scn),
        "derived": derived,
        "version": __version__,
    }
    if wall_time is not None:
        out["wall_time_seconds"] = wall_time
    return out


def write_run(out_dir, setup: Setup, traj: Trajectory, wall_time: float,
              plot: bool = False) -> None:
    """Write snapshots/, diagnostics.csv, manifest.json and, with
    ``plot``, one SVG per snapshot, for the run of ``setup`` that gave
    ``traj``, and error.json if it aborted; such files that an earlier
    run left and this one did not write are removed.

    With more than ``CHUNK`` snapshots, a forked child
    (:func:`~qfluid.fork.beside`) writes the snapshots from the
    middle one on while this process writes those before it and the run's
    other files; each side goes in stacks of ``CHUNK``. An error of either
    is raised here, after the child has been reaped.
    """
    scn, p, flags = setup.scn, setup.params, setup.flags
    grid = scn.grid
    snap_dir = os.path.join(out_dir, "snapshots")
    os.makedirs(snap_dir, exist_ok=True)

    varr = setup.vext.field(grid).values
    # x and V_e, and U_Q = 0 with quantum off, are formatted once per run
    fmt = _csv_format((grid.x, None, None, None,
                       None if flags.quantum else np.zeros(grid.n), varr),
                      grid.n)
    snaps = traj.snapshots
    _remove_stale(out_dir, r"error\.json")
    _remove_stale(snap_dir, r"\d{4,}\.(csv|svg)",
                  {f"{j:04d}.{ext}" for j in range(len(snaps))
                   for ext in (("csv", "svg") if plot else ("csv",))})

    def write_stacks(start: int, stop: int) -> None:
        for j0 in range(start, stop, CHUNK):
            part = snaps[j0:min(j0 + CHUNK, stop)]
            real = _stack(part)
            v, uq = _fields(grid, real, flags, p)
            rho = np.exp(real[0])
            phi = real[1]
            for j, s in enumerate(part):
                base = os.path.join(snap_dir, f"{j0 + j:04d}")
                cols = (rho[j], phi[j], v[j]) + ((uq[j],) if flags.quantum
                                                 else ())
                _write_csv(base + ".csv", "x,rho,phi,v,U_Q,V_e", cols, fmt)
                if plot:
                    line_plot(base + ".svg", grid.x,
                              [("rho", rho[j]), ("v", v[j])],
                              title=f"{scn.name}  t = {s.t:.6g}", xlabel="x")

    count = len(snaps)
    middle = (count + 1) // 2 if count > CHUNK else count
    child, cancel = (beside(lambda: write_stacks(middle, count))
                     if middle < count else (lambda: None, lambda: None))
    try:
        write_stacks(0, middle)
        # each column of diagnostics.csv is named for its record field
        cols = ("t", "mass", "energy", "bernoulli_residual",
                "lagrangian_minus_pressure", "min_density")
        _write_csv(os.path.join(out_dir, "diagnostics.csv"), ",".join(cols),
                   [[getattr(r, c) for r in traj.records] for c in cols])

        manifest = manifest_dict(setup, wall_time)
        with open(os.path.join(out_dir, "manifest.json"), "w",
                  encoding="utf-8", newline="\n") as f:
            json.dump(manifest, f, indent=2, sort_keys=True)
            f.write("\n")

        if traj.status != "ok":
            write_error(out_dir, traj)
        child()
    finally:
        cancel()


def write_error(out_dir, traj: Trajectory) -> None:
    record = {
        "status": traj.status,
        "message": traj.message,
        "last_time": float(traj.snapshots[-1].t) if traj.snapshots else None,
    }
    with open(os.path.join(out_dir, "error.json"), "w",
              encoding="utf-8", newline="\n") as f:
        json.dump(record, f, indent=2, sort_keys=True)
        f.write("\n")


def write_compare(out_dir, result: CompareResult) -> None:
    """Write compare.csv, removing an error.json an abort left."""
    os.makedirs(out_dir, exist_ok=True)
    _write_csv(os.path.join(out_dir, "compare.csv"),
               "t,l2_density_error,phase_error",
               (result.times, result.density_error, result.phase_error))
    _remove_stale(out_dir, r"error\.json")
