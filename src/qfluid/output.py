"""Run artifacts: snapshot CSVs, diagnostics, manifest, compare report.

All numeric text uses 17 significant digits so every 64-bit value
round-trips exactly; reruns of the same manifest must produce
byte-identical CSVs.
"""

from __future__ import annotations

import dataclasses
import json
import os

import numpy as np

from .grid import Grid
from .madelung import (TermFlags, Trajectory, quantum_potential,
                       stability_bound, velocity, whole_steps)
from .params import ExternalPotential, PhysParams
from .scenario import Scenario
from .schrodinger import CompareResult
from .svgplot import line_plot
from .version import __version__

__all__ = [
    "write_run",
    "write_compare",
    "write_error",
    "manifest_dict",
]


def _write_csv(path, header: str, columns) -> None:
    """Header plus one ``%.17g`` row per sample, formatted in one pass."""
    rows = np.column_stack(columns)
    row_fmt = ",".join(["%.17g"] * rows.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(header + "\n")
        f.write((row_fmt * len(rows)) % tuple(rows.ravel().tolist()))


def manifest_dict(scn: Scenario, grid: Grid, p: PhysParams, flags: TermFlags,
                  wall_time: float | None = None) -> dict:
    """Every resolved parameter, stated explicitly."""
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
        derived["stability_dt_bound"] = stability_bound(grid, p)
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


def write_run(out_dir, scn: Scenario, grid: Grid, p: PhysParams,
              flags: TermFlags, vext: ExternalPotential, traj: Trajectory,
              wall_time: float) -> None:
    """Write snapshots/, diagnostics.csv, manifest.json (and plots)."""
    os.makedirs(out_dir, exist_ok=True)
    snap_dir = os.path.join(out_dir, "snapshots")
    os.makedirs(snap_dir, exist_ok=True)

    varr = vext.field(grid).values if flags.external else np.zeros(grid.n)
    for idx, s in enumerate(traj.snapshots):
        phi = s.phi.values
        rho = np.exp(s.lam.values)
        v = velocity(s).values
        uq = quantum_potential(s, flags, p).values
        base = os.path.join(snap_dir, f"{idx:04d}")
        _write_csv(base + ".csv", "x,rho,phi,v,U_Q,V_e",
                   (grid.x, rho, phi, v, uq, varr))
        if scn.output.plot:
            line_plot(base + ".svg", grid.x,
                      [("rho", rho), ("v", v)],
                      title=f"{scn.name}  t = {s.t:.6g}", xlabel="x")

    recs = traj.records
    _write_csv(
        os.path.join(out_dir, "diagnostics.csv"),
        "t,mass,energy,bernoulli_residual,lagrangian_minus_pressure,min_density",
        (
            [r.t for r in recs],
            [r.mass for r in recs],
            [r.energy for r in recs],
            [r.bernoulli_residual for r in recs],
            [r.lagrangian_minus_pressure for r in recs],
            [r.min_density for r in recs],
        ),
    )

    manifest = manifest_dict(scn, grid, p, flags, wall_time)
    with open(os.path.join(out_dir, "manifest.json"), "w",
              encoding="utf-8", newline="\n") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")

    if traj.status != "ok":
        write_error(out_dir, traj)


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
    os.makedirs(out_dir, exist_ok=True)
    _write_csv(os.path.join(out_dir, "compare.csv"),
               "t,l2_density_error,phase_error",
               (result.times, result.density_error, result.phase_error))
