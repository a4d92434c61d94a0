"""Command line entry points: run, verify, compare, scan.

Exit codes: 0 success, 1 a verification criterion failed, 2 usage or
configuration error (an unreadable scenario file or an unwritable output
directory included), 3 the solver hit vacuum, 4 the solver blew up.
Aborted runs still write their partial outputs plus error.json. Each
command removes the files of its own naming that an earlier one left in
its output directory and it did not write. ``compare`` refuses a
classical run and a series closure: its oracle models Bohm's alone.

``compare`` runs the wave oracle in a forked child process beside the
fluid run (:func:`~qfluid.fork.beside`), so its wall time is about
that of the slower of the two and its CPU time is split over two
processes. A fluid abort wins over an oracle error, and every exit path
reaps the child, killing it first unless it has finished. ``run`` splits
the writing of its snapshot files over two processes the same way
(:func:`~qfluid.output.write_run`), and ``verify`` the integration of a
suite's preset runs (:meth:`~qfluid.verify.RunCache.fill`).
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import time

import numpy as np

from .fork import beside
from .grid import Grid
from .kernels import truncation_sweep
from .madelung import run, whole_steps
from .output import (_remove_stale, _write_csv, write_compare, write_error,
                     write_run)
from .scenario import Scenario, Setup, load
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


def _os_errors_exit_usage(cmd):
    """Report an OSError of ``cmd`` (an unreadable scenario file, an
    unwritable output directory) as ``error: ...`` and exit 2. A
    ChildProcessError, a forked child that died, still raises."""
    @functools.wraps(cmd)
    def checked(*args, **kwargs) -> int:
        try:
            return cmd(*args, **kwargs)
        except ChildProcessError:
            raise
        except OSError as e:
            return _fail(str(e))
    return checked


def _load(path: str) -> Setup:
    """Parse and build a scenario file; tabulated inputs resolve against
    the file's own directory."""
    with open(path, "r", encoding="utf-8") as f:
        text = f.read()
    return load(text, base_dir=os.path.dirname(os.path.abspath(path)))


def _default_out(scn: Scenario, kind: str) -> str:
    return os.path.join("qfluid_runs", f"{scn.name}_{kind}")


@_os_errors_exit_usage
def cmd_run(scenario_path: str, out_dir: str | None = None,
            plot: bool = False) -> int:
    try:
        setup = _load(scenario_path)
    except ValueError as e:
        return _fail(str(e))
    scn = setup.scn
    out = out_dir or _default_out(scn, "run")
    t0 = time.perf_counter()
    traj = run(setup.state, scn.solver, setup.flags, setup.params, setup.vext)
    wall = time.perf_counter() - t0
    write_run(out, setup, traj, wall, plot=plot)
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


@_os_errors_exit_usage
def cmd_compare(scenario_path: str, out_dir: str | None = None) -> int:
    try:
        setup = _load(scenario_path)
    except ValueError as e:
        return _fail(str(e))
    scn, params, vext, ocfg = setup.scn, setup.params, setup.vext, setup.oracle
    cfg, terms = scn.solver, scn.terms
    if not terms.quantum or terms.quantum_order >= 2:
        line = (f"quantum_order = {terms.quantum_order}" if terms.quantum
                else "quantum = false")
        return _fail(f"[terms] {line}: the wave oracle models Bohm's closure "
                     "alone, so it cannot referee this run")
    if abs(ocfg.t_end - cfg.t_end) > 1e-12 * max(cfg.t_end, 1.0):
        return _fail("oracle t_end differs from solver t_end; the "
                     "trajectories cannot be compared snapshot by snapshot")
    if abs(ocfg.dt * ocfg.snapshot_stride - cfg.dt * cfg.snapshot_stride) \
            > 1e-12 * cfg.dt * cfg.snapshot_stride:
        return _fail("oracle dt * snapshot_stride differs from the solver's; "
                     "snapshots would sit at different times")
    try:
        whole_steps(ocfg.t_end, ocfg.dt)
    except ValueError as e:
        return _fail(f"[oracle] {e}")

    out = out_dir or _default_out(scn, "compare")
    oracle, cancel = beside(
        lambda: run_oracle(to_wavefunction(setup.state, params), ocfg,
                           params, vext))
    try:
        traj = run(setup.state, cfg, setup.flags, params, vext)
        if traj.status != "ok":
            os.makedirs(out, exist_ok=True)
            write_error(out, traj)
            _remove_stale(out, r"compare\.csv")
            print(f"{scn.name}: solver aborted: {traj.message}",
                  file=sys.stderr)
            return _STATUS_CODES[traj.status]
        try:
            result = compare(traj, oracle(), params)
        except ValueError as e:
            return _fail(str(e))
    finally:
        cancel()
    write_compare(out, result)
    print(f"{scn.name}: max_l2_density={result.max_density_error:.3e} "
          f"max_phase={result.max_phase_error:.3e} rad -> {out}")
    return EXIT_OK


@_os_errors_exit_usage
def cmd_scan(out_dir: str | None = None, family: str = "difference_of_gaussians",
             n: int = 256, widths: str = "0.02,0.04,0.08",
             orders: str = "1,2") -> int:
    """Truncation sweep: series error against kernel width, per order."""
    try:
        given = [w for w in widths.split(",") if w]
        fracs = [float(w) for w in given]
        order_list = [int(o) for o in orders.split(",") if o]
        if not fracs or not order_list:
            raise ValueError("need at least one width and one order")
        for w, frac in zip(given, fracs):
            if not 0.0 < frac < math.inf:
                raise ValueError(f"widths a/L must be finite and > 0, got {w}")
        if min(order_list) < 1:
            raise ValueError("orders must be >= 1")
        sweep = truncation_sweep(Grid(n=n, length=1.0), fracs, order_list,
                                 family)
    except (ValueError, MemoryError) as e:
        return _fail(str(e))
    header = "a_over_L" + "".join(f",err_n{o}" for o in order_list)
    print(header.replace(",", "  "))
    for frac, errs in zip(fracs, sweep):
        print(f"{frac:<8.4g}" + "".join(f"  {e:.6e}" for e in errs))
    # error per order across widths, floored so the logs stay finite
    cols = [[max(e, 1e-300) for e in col] for col in zip(*sweep)]
    # a slope needs two distinct widths
    fit = len(set(fracs)) >= 2
    if fit:
        for order, col in zip(order_list, cols):
            slope = float(np.polyfit(np.log(fracs), np.log(col), 1)[0])
            print(f"fitted exponent, series n<={order}: {slope:.3f}")
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        _remove_stale(out_dir, r"scan\.svg")
        path = os.path.join(out_dir, "scan.csv")
        _write_csv(path, header, (fracs, *zip(*sweep)))
        if fit:
            series = [(f"n<={o}", np.log10(col))
                      for o, col in zip(order_list, cols)]
            line_plot(os.path.join(out_dir, "scan.svg"), np.log10(fracs),
                      series, title="series truncation error",
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
