"""Command line entry points: run, verify, compare, scan.

Exit codes: 0 success, 1 a verification criterion failed, 2 usage or
configuration error, 3 the solver hit vacuum, 4 the solver blew up.
Aborted runs still write their partial outputs plus error.json.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
import time

import numpy as np

from .grid import Field, Grid
from .kernels import make_kernel, moments, nonlocal_energy, series_energy
from .madelung import run
from .output import write_compare, write_error, write_run
from .params import PhysParams
from .scenario import (OutputSpec, Scenario, build_external, build_flags,
                       build_initial_state, build_oracle_config, build_params,
                       parse_scenario)
from .schrodinger import compare, run_oracle, to_wavefunction
from .svgplot import line_plot
from .verify import SUITE_NAMES, format_line, run_suite

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_VACUUM = 3
EXIT_BLOWUP = 4

_STATUS_CODES = {"ok": EXIT_OK, "vacuum": EXIT_VACUUM, "blowup": EXIT_BLOWUP}


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _load_and_build(path: str):
    """Parse a scenario file; build its params, flags, potential, state.

    Tabulated inputs resolve against the file's own directory.
    """
    with open(path, "r", encoding="utf-8") as f:
        text = f.read()
    base = os.path.dirname(os.path.abspath(path))
    scn = parse_scenario(text, base_dir=base)
    params = build_params(scn)
    flags = build_flags(scn, scn.grid, base)
    vext = build_external(scn, base)
    state = build_initial_state(scn, scn.grid, params, vext, base)
    return scn, params, flags, vext, state


def _default_out(scn: Scenario, kind: str) -> str:
    return os.path.join("qfluid_runs", f"{scn.name}_{kind}")


def cmd_run(scenario_path: str, out_dir: str | None = None,
            plot: bool = False) -> int:
    try:
        scn, params, flags, vext, state = _load_and_build(scenario_path)
    except (OSError, ValueError) as e:
        return _fail(str(e))
    if plot and not scn.output.plot:
        scn = dataclasses.replace(scn, output=OutputSpec(plot=True))

    out = out_dir or _default_out(scn, "run")
    t0 = time.perf_counter()
    try:
        traj = run(state, scn.solver, flags, params, vext)
    except ValueError as e:
        return _fail(str(e))
    wall = time.perf_counter() - t0
    write_run(out, scn, scn.grid, params, flags, vext, traj, wall)
    n_snap = len(traj.snapshots)
    print(f"{scn.name}: {traj.status}, {n_snap} snapshots, "
          f"{wall:.2f} s -> {out}")
    if traj.status != "ok":
        print(f"  {traj.message}", file=sys.stderr)
    return _STATUS_CODES[traj.status]


def cmd_verify(suite: str, seed: int = 0) -> int:
    try:
        results = run_suite(suite, seed=seed)
    except ValueError as e:
        return _fail(str(e))
    for r in results:
        print(format_line(r))
        if r.details:
            print(f"       {r.details}")
    passed = sum(r.passed for r in results)
    print(f"{passed}/{len(results)} checks passed")
    return EXIT_OK if passed == len(results) else EXIT_CHECK_FAILED


def cmd_compare(scenario_path: str, out_dir: str | None = None) -> int:
    try:
        scn, params, flags, vext, state = _load_and_build(scenario_path)
        ocfg = build_oracle_config(scn)
    except (OSError, ValueError) as e:
        return _fail(str(e))
    cfg = scn.solver
    if abs(ocfg.t_end - cfg.t_end) > 1e-12 * max(cfg.t_end, 1.0):
        return _fail("oracle t_end differs from solver t_end; the "
                     "trajectories cannot be compared snapshot by snapshot")
    if abs(ocfg.dt * ocfg.snapshot_stride - cfg.dt * cfg.snapshot_stride) \
            > 1e-12 * cfg.dt * cfg.snapshot_stride:
        return _fail("oracle dt * snapshot_stride differs from the solver's; "
                     "snapshots would sit at different times")

    out = out_dir or _default_out(scn, "compare")
    try:
        traj = run(state, cfg, flags, params, vext)
    except ValueError as e:
        return _fail(str(e))
    if traj.status != "ok":
        os.makedirs(out, exist_ok=True)
        write_error(out, traj)
        print(f"{scn.name}: solver aborted: {traj.message}", file=sys.stderr)
        return _STATUS_CODES[traj.status]
    try:
        wtraj = run_oracle(to_wavefunction(state, params), ocfg, params, vext)
        result = compare(traj, wtraj, params)
    except ValueError as e:
        return _fail(str(e))
    write_compare(out, result)
    print(f"{scn.name}: max_l2_density={result.max_density_error:.3e} "
          f"max_phase={result.max_phase_error:.3e} rad -> {out}")
    return EXIT_OK


def cmd_scan(out_dir: str | None = None, family: str = "difference_of_gaussians",
             n: int = 256, widths: str = "0.02,0.04,0.08",
             orders: str = "1,2") -> int:
    """Truncation sweep: series error against kernel width, per order."""
    try:
        fracs = [float(w) for w in widths.split(",") if w]
        order_list = [int(o) for o in orders.split(",") if o]
        if not fracs or not order_list:
            raise ValueError("need at least one width and one order")
        if min(order_list) < 1:
            raise ValueError("orders must be >= 1")
        grid = Grid(n=n, length=1.0)
    except ValueError as e:
        return _fail(str(e))
    p = PhysParams()
    rho = Field(grid, np.exp(0.4 * np.cos(2 * np.pi * grid.x / grid.length)),
                _fresh=True)
    max_order = max(order_list)
    table_rows = []
    try:
        for frac in fracs:
            a_target = frac * grid.length
            width = (a_target / math.sqrt(2.0)
                     if family == "difference_of_gaussians" else a_target)
            kern = make_kernel(family, grid, width=width)
            tab = moments(kern, max_n=max_order)
            a = math.sqrt(abs(tab.a2))
            exact = nonlocal_energy(rho, kern, p).values
            errs = []
            for order in order_list:
                ser = series_energy(rho, tab, a, order, p).values
                errs.append(float(np.abs(exact - ser).max()))
            table_rows.append((frac, errs))
    except ValueError as e:
        return _fail(str(e))

    header = "a_over_L" + "".join(f",err_n{o}" for o in order_list)
    print(header.replace(",", "  "))
    for frac, errs in table_rows:
        print(f"{frac:<8.4g}" + "".join(f"  {e:.6e}" for e in errs))
    for idx, order in enumerate(order_list):
        if len(table_rows) >= 2:
            la = np.log([r[0] for r in table_rows])
            le = np.log([max(r[1][idx], 1e-300) for r in table_rows])
            slope = float(np.polyfit(la, le, 1)[0])
            print(f"fitted exponent, series n<={order}: {slope:.3f}")
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, "scan.csv")
        with open(path, "w", encoding="utf-8", newline="\n") as f:
            f.write(header + "\n")
            for frac, errs in table_rows:
                f.write("%.17g" % frac
                        + "".join(",%.17g" % e for e in errs) + "\n")
        if len(table_rows) >= 2:
            la = np.log10([r[0] for r in table_rows])
            series = [(f"n<={o}",
                       np.log10([max(r[1][i], 1e-300) for r in table_rows]))
                      for i, o in enumerate(order_list)]
            line_plot(os.path.join(out_dir, "scan.svg"), la, series,
                      title="series truncation error",
                      xlabel="log10 a/L", ylabel="log10 max error")
        print(f"wrote {path}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qfluid",
        description="Pseudospectral quantum-fluid laboratory on a ring.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="integrate a scenario file")
    p_run.add_argument("scenario")
    p_run.add_argument("-o", "--out", default=None, help="output directory")
    p_run.add_argument("--plot", action="store_true",
                       help="also write snapshot SVG plots")

    p_ver = sub.add_parser("verify", help="run an acceptance suite")
    p_ver.add_argument("suite", choices=SUITE_NAMES)
    p_ver.add_argument("--seed", type=int, default=0,
                       help="seed for randomized test densities")

    p_cmp = sub.add_parser("compare",
                           help="run solver and wave oracle, report errors")
    p_cmp.add_argument("scenario")
    p_cmp.add_argument("-o", "--out", default=None)

    p_scan = sub.add_parser("scan", help="kernel truncation-order sweep")
    p_scan.add_argument("-o", "--out", default=None)
    p_scan.add_argument("--family", default="difference_of_gaussians",
                        choices=("gaussian", "difference_of_gaussians"))
    p_scan.add_argument("--n", type=int, default=256)
    p_scan.add_argument("--widths", default="0.02,0.04,0.08",
                        help="comma-separated kernel lengths a/L")
    p_scan.add_argument("--orders", default="1,2",
                        help="comma-separated series orders")

    args = parser.parse_args(argv)
    if args.command == "run":
        return cmd_run(args.scenario, args.out, plot=args.plot)
    if args.command == "verify":
        return cmd_verify(args.suite, seed=args.seed)
    if args.command == "compare":
        return cmd_compare(args.scenario, args.out)
    return cmd_scan(args.out, family=args.family, n=args.n,
                    widths=args.widths, orders=args.orders)


if __name__ == "__main__":
    sys.exit(main())
