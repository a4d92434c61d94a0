"""The four benchmark workloads: seeded inputs, one operation, its checks.

Every workload drives qfluid through its documented entry points only:
``qfluid.cli.main(argv)`` for the user command, and names in
``qfluid.__all__`` for set-up and for reading results back. The seed
changes the inputs, never the amount of work.

trap_compare   ``qfluid compare`` on the shipped trap physics at n=256:
               5000 Bohm-closure RK4 steps against 10000 oracle steps.
               The step loop dominates, and at n=256 a step is mostly
               per-call overhead, not transforms.
wide_grid      the same physics at n=8192 for 200 steps at 0.9 of the
               quantum stability bound. Transforms dominate, and the
               equilibrium refinement makes set-up non-trivial.
dense_record   ``qfluid run`` on a classical traveling wave at n=256 that
               records every step (1201 snapshots, about 23 MB of CSV),
               then ``action`` over the trajectory read back from the
               snapshots. Output dominates.
verify_suites  ``qfluid verify`` for the identities, truncation, action
               and covariant suites; the only workload that reaches
               verify, covariant, kernels and potentials. The oracle and
               conservation suites are left out for length.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import math
import os
import random
import re
import time
from types import SimpleNamespace

import numpy as np

import qfluid
from qfluid.cli import main as qfluid_main

WORKLOADS = ("trap_compare", "wide_grid", "dense_record", "verify_suites")

VERIFY_SUITES = ("identities", "truncation", "action", "covariant")
# Recorded PASS/FAIL expectation per suite; every check of these passes.
VERIFY_EXPECTED = {
    "identities": {"C1": True, "C2": True},
    "truncation": {"C3": True, "C4": True},
    "action": {"C8": True, "C9": True},
    "covariant": {"C10a": True, "C10b": True, "C10c": True},
}
# Presets the action suite integrates; verify_suites times their set-up.
VERIFY_PRESETS = ("equilibrium", "traveling", "traveling_action")

DENSITY_L2_BOUND = 1e-3   # C5a
MASS_DRIFT_BOUND = 1e-9   # C6
ENERGY_DRIFT_BOUND = 1e-6  # C6

WIDE_N = 8192
WIDE_STEPS = 200
DENSE_T_END = 1.2

_VERIFY_LINE = re.compile(r"^\[(PASS|FAIL)\]\s+(\S+)")


def scenario_texts(workload: str, seed: int) -> dict[str, str]:
    """Scenario files of a workload, by name, generated from the seed."""
    rng = random.Random(f"{workload}:{seed}")
    if workload in ("trap_compare", "wide_grid"):
        scn = qfluid.presets.trap()
        ini = scn.initial
        scn = dataclasses.replace(scn, initial=dataclasses.replace(
            ini, amplitude=ini.amplitude * (1.0 + 0.04 * rng.uniform(-1, 1)),
            center=ini.center + 0.02 * rng.uniform(-1, 1)))
        if workload == "wide_grid":
            scn = _widen(scn)
        return {"scenario": qfluid.serialize(scn)}
    if workload == "dense_record":
        scn = qfluid.presets.traveling_action()
        ini = scn.initial
        scn = dataclasses.replace(
            scn, name="dense_record",
            initial=dataclasses.replace(
                ini,
                amplitude=ini.amplitude * (1.0 + 0.04 * rng.uniform(-1, 1)),
                phase=rng.uniform(0.0, 2.0 * math.pi)),
            solver=dataclasses.replace(scn.solver, t_end=DENSE_T_END))
        return {"scenario": qfluid.serialize(scn)}
    if workload == "verify_suites":
        return {name: qfluid.serialize(getattr(qfluid.presets, name)())
                for name in VERIFY_PRESETS}
    raise ValueError(f"unknown workload {workload!r}")


def _widen(scn):
    """Trap physics at n=WIDE_N, WIDE_STEPS steps near the stability bound."""
    scn = dataclasses.replace(scn, name="wide_grid",
                              grid=dataclasses.replace(scn.grid, n=WIDE_N))
    grid = qfluid.build_grid(scn)
    params = qfluid.build_params(scn)
    dt = 0.9 * 0.5 * grid.dx ** 2 * params.m / params.hbar_eff
    t_end = WIDE_STEPS * dt
    stride = WIDE_STEPS // 2
    return dataclasses.replace(
        scn,
        solver=dataclasses.replace(scn.solver, dt=dt, t_end=t_end,
                                   snapshot_stride=stride),
        oracle=dataclasses.replace(scn.oracle, dt=0.5 * dt, t_end=t_end,
                                   snapshot_stride=2 * stride))


# ---------------------------------------------------------------------------
# set-up


def setup(text: str, base_dir: str, tracer=None) -> SimpleNamespace:
    """Parse a scenario and build grid, params, flags, potential and state.

    Returns the built objects and the time of each phase. With a tracer,
    ``build_initial_state`` runs inside a span so the right-hand-side
    calls of the equilibrium refinement are counted.
    """
    t0 = time.perf_counter()
    scn = qfluid.parse_scenario(text, base_dir=base_dir)
    t1 = time.perf_counter()
    grid = qfluid.build_grid(scn)
    params = qfluid.build_params(scn)
    flags = qfluid.build_flags(scn, grid, base_dir)
    vext = qfluid.build_external(scn, base_dir)
    t2 = time.perf_counter()
    with _span(tracer, "scenario.build_initial_state", "scenario"):
        state = qfluid.build_initial_state(scn, grid, params, vext, base_dir)
    t3 = time.perf_counter()
    return SimpleNamespace(scn=scn, grid=grid, params=params, flags=flags,
                           vext=vext, state=state, parse_s=t1 - t0,
                           build_initial_s=t3 - t2, total_s=t3 - t0)


# ---------------------------------------------------------------------------
# operations


class Workload:
    """One workload at one seed: its inputs on disk and its operation.

    ``op(out_dir, tracer)`` runs the user command once and returns a dict
    with ``wall`` and ``cpu`` (seconds of the command alone, checks
    excluded), ``problems`` (empty when every check passed),
    ``bytes_written`` and ``files_written``.
    """

    def __init__(self, name: str, seed: int, work_dir: str):
        self.name = name
        self.seed = seed
        self.work_dir = work_dir
        self.texts = scenario_texts(name, seed)
        self.paths = {}
        for key, text in self.texts.items():
            path = os.path.join(work_dir, f"{key}.ini")
            with open(path, "w", encoding="utf-8") as f:
                f.write(text)
            self.paths[key] = path
        self.reference = None  # dense_record: first rep's digests and action
        self.built = None

    def setup(self, tracer=None) -> list[SimpleNamespace]:
        """Set up every scenario of the workload; keeps the first built."""
        built = [setup(text, self.work_dir, tracer)
                 for text in self.texts.values()]
        self.built = built[0]
        return built

    def op(self, out_dir: str, tracer=None) -> dict:
        if self.name == "verify_suites":
            res = self._verify(tracer)
        elif self.name == "dense_record":
            res = self._dense(out_dir, tracer)
        else:
            res = _timed(["compare", self.paths["scenario"], "--out", out_dir],
                         tracer)
            res["problems"] += check_compare(out_dir)
        res.update(_tree_size(out_dir))
        return res

    def _verify(self, tracer) -> dict:
        total = {"wall": 0.0, "cpu": 0.0, "problems": []}
        for suite in VERIFY_SUITES:
            res = _timed(["verify", suite, "--seed", str(self.seed)], tracer,
                         f"verify.{suite}", "verify")
            total["wall"] += res["wall"]
            total["cpu"] += res["cpu"]
            total["problems"] += [
                f"{suite}: {p}"
                for p in res["problems"] + check_verify(suite, res["stdout"])]
        return total

    def _dense(self, out_dir, tracer) -> dict:
        res = _timed(["run", self.paths["scenario"], "--out", out_dir], tracer)
        if res["problems"]:
            return res
        built = self.built
        problems, digests, traj = check_run(
            out_dir, built.grid,
            self.reference and self.reference["digests"])
        with _span(tracer, "madelung.action", "madelung"):
            c0, t0 = time.process_time(), time.perf_counter()
            value = qfluid.action(traj, built.flags, built.params, built.vext)
            res["wall"] += time.perf_counter() - t0
            res["cpu"] += time.process_time() - c0
        if not math.isfinite(value):
            problems.append(f"action is not finite: {value}")
        if self.reference is None:
            self.reference = {"digests": digests, "action": value}
        elif value != self.reference["action"]:
            problems.append(f"action {value!r} differs from the first rep's "
                            f"{self.reference['action']!r}")
        res["problems"] += problems
        return res


def _span(tracer, name: str, layer: str):
    return tracer.span(name, layer) if tracer else contextlib.nullcontext()


def _timed(argv: list[str], tracer=None, name: str = "cli.main",
           layer: str = "cli") -> dict:
    """Run one CLI command in this process; time it and keep its stdout."""
    buf = io.StringIO()
    with _span(tracer, name, layer), contextlib.redirect_stdout(buf):
        c0, t0 = time.process_time(), time.perf_counter()
        code = qfluid_main(argv)
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
    problems = [] if code == 0 else [f"exit code {code}"]
    return {"wall": wall, "cpu": cpu, "problems": problems,
            "stdout": buf.getvalue()}


def _tree_size(path: str) -> dict:
    nbytes = nfiles = 0
    for dirpath, _, files in os.walk(path):
        for f in files:
            nbytes += os.path.getsize(os.path.join(dirpath, f))
            nfiles += 1
    return {"bytes_written": nbytes, "files_written": nfiles}


# ---------------------------------------------------------------------------
# correctness checks; each returns a list of problems, empty when all hold


def _read_csv(path: str) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def check_compare(out_dir: str) -> list[str]:
    """C5a: the density L2 error against the oracle stays below 1e-3."""
    path = os.path.join(out_dir, "compare.csv")
    try:
        data = _read_csv(path)
    except (OSError, ValueError) as e:
        return [f"compare.csv unreadable: {e}"]
    if data.shape[0] < 2:
        return [f"compare.csv holds {data.shape[0]} rows"]
    worst = float(np.max(data[:, 1]))
    if not worst < DENSITY_L2_BOUND:
        return [f"density L2 {worst:.3e} >= {DENSITY_L2_BOUND:g}"]
    return []


def check_verify(suite: str, stdout: str) -> list[str]:
    """Every check's PASS/FAIL matches the recorded expectation."""
    seen = {}
    for line in stdout.splitlines():
        m = _VERIFY_LINE.match(line)
        if m:
            seen[m.group(2)] = m.group(1) == "PASS"
    expected = VERIFY_EXPECTED[suite]
    if seen == expected:
        return []
    return [f"checks {seen} differ from expected {expected}"]


def check_run(out_dir: str, grid, first_digests=None):
    """C6 drifts in diagnostics.csv, and C12 against the first rep's digests.

    Returns the problems, the sha256 of every CSV, and the trajectory read
    back from the snapshots (log of the written density, times from
    diagnostics.csv). Files are read one at a time, so the check adds
    little to the process's peak memory.
    """
    problems = []
    digests = {}

    def read(rel):
        with open(os.path.join(out_dir, rel), "rb") as f:
            blob = f.read()
        digests[rel] = hashlib.sha256(blob).hexdigest()
        return io.BytesIO(blob)

    diag = np.loadtxt(read("diagnostics.csv"), delimiter=",", skiprows=1,
                      ndmin=2)
    mass, energy = diag[:, 1], diag[:, 2]
    dm = float(np.max(np.abs(mass - mass[0])) / abs(mass[0]))
    de = float(np.max(np.abs(energy - energy[0])) / abs(energy[0]))
    if not dm < MASS_DRIFT_BOUND:
        problems.append(f"mass drift {dm:.3e} >= {MASS_DRIFT_BOUND:g}")
    if not de < ENERGY_DRIFT_BOUND:
        problems.append(f"energy drift {de:.3e} >= {ENERGY_DRIFT_BOUND:g}")

    names = sorted(os.listdir(os.path.join(out_dir, "snapshots")))
    if len(names) != diag.shape[0]:
        problems.append(f"{len(names)} snapshots but {diag.shape[0]} "
                        "diagnostics rows")
    snaps = []
    for name, t in zip(names, diag[:, 0]):
        cols = np.loadtxt(read(os.path.join("snapshots", name)),
                          delimiter=",", skiprows=1, usecols=(1, 2))
        snaps.append(qfluid.State(float(t),
                                  qfluid.Field(grid, np.log(cols[:, 0])),
                                  qfluid.Field(grid, cols[:, 1])))
    if first_digests is not None:
        changed = sorted(rel for rel in set(digests) | set(first_digests)
                         if digests.get(rel) != first_digests.get(rel))
        if changed:
            problems.append(f"{len(changed)} files differ from the first rep "
                            f"with this seed, first {changed[0]}")
    return problems, digests, qfluid.Trajectory(snapshots=snaps, records=[])
