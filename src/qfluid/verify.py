"""Acceptance checks behind the ``verify`` command.

Every check states a measurable criterion and reports the measured value;
the full list doubles as the package's numerical contract. Checks come in
named suites:

    identities    pointwise operator identities (C1, C2)
    truncation    kernel series truncation and convolution routes (C3, C4)
    oracle        wavefunction cross-validation and solver order (C5a,
                  C5b, C11)
    conservation  invariants, fixed points, reproducibility (C6, C7, C12)
    action        on-shell Lagrangian and stationarity (C8, C9)
    covariant     finite-signal-speed forms (C10a, C10b, C10c)
    all           everything above

One table states each check once, in order, with its suite and the
presets it reads; the check list, ``SUITES`` and ``READS`` derive from it.
Checks run one after another. Scenario runs are shared through a cache,
so a suite never integrates the same preset twice. Before its first
check, a suite integrates the presets its checks read (``READS``) in two
lanes, one in a forked child (:meth:`RunCache.fill`), so their wall time
is about that of the heavier lane. Randomized inputs draw from per-check
seeded generators: results are reproducible for a given --seed,
whichever suite the check runs in and whether or not a lane forks.
"""

from __future__ import annotations

import contextlib
import filecmp
import functools
import io
import math
import os
import tempfile
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from . import presets
from .covariant import DensityHistory, dalembert_uq, retarded_energy
from .fork import beside
from .grid import Field, Grid, derivative
from .kernels import make_kernel, nonlocal_energy, truncation_sweep
from .madelung import (SolverConfig, State, Trajectory, action, run,
                       whole_steps)
from .params import PhysParams
from .potentials import (bohm_identity_residual, bohm_potential,
                         euler_lagrange_oracle)
from .scenario import Scenario, Setup, build, serialize
from .schrodinger import compare, run_oracle, to_wavefunction

__all__ = ["CheckResult", "RunCache", "SUITES", "SUITE_NAMES", "READS",
           "run_suite", "format_line", "direct_convolution"]


@dataclass
class CheckResult:
    cid: str
    name: str
    passed: bool
    value: str
    criterion: str
    details: str | None = None


def format_line(r: CheckResult) -> str:
    tag = "PASS" if r.passed else "FAIL"
    return f"[{tag}] {r.cid:<4s} {r.name:<24s} {r.value} (criterion {r.criterion})"


# ---------------------------------------------------------------------------
# shared scenario runs


class RunCache:
    """Builds and integrates presets, once per name per verify call.

    :meth:`fill` integrates several ahead, in two lanes: a forked child
    (:func:`~qfluid.fork.beside`) runs one while the caller runs the
    other. :meth:`get` fills a preset it does not hold, as one lane. A
    preset that fails is held as its error, which :meth:`get` raises.
    """

    def __init__(self):
        self._runs: dict[str, tuple[Setup, Trajectory] | Exception] = {}

    def get(self, name: str) -> tuple[Setup, Trajectory]:
        if name not in self._runs:
            self.fill([name])
        held = self._runs[name]
        if isinstance(held, Exception):
            raise held
        return held

    def fill(self, names) -> None:
        """Integrate the presets ``names`` not yet held, in two lanes.

        Largest step count first, each preset goes to the lane with fewer
        steps so far; ties keep the order of ``names``. The child takes
        the lane holding the largest, the caller the other, then waits.
        With one preset or none there is nothing to overlap, and nothing
        forks. The child is reaped on every path.
        """
        scns = presets.suite()
        steps = {n: whole_steps(scns[n].solver.t_end, scns[n].solver.dt)
                 for n in names if n not in self._runs}
        lanes, loads = ([], []), [0, 0]
        for name in sorted(steps, key=lambda n: -steps[n]):
            j = loads.index(min(loads))
            lanes[j].append(name)
            loads[j] += steps[name]
        heavy, light = lanes
        work = functools.partial(self._lane, heavy, scns)
        child, cancel = beside(work) if light else (work, lambda: None)
        try:
            self._runs.update(self._lane(light, scns))
            self._runs.update(child())
        finally:
            cancel()

    def _lane(self, names, scns) -> dict:
        """Each preset of ``names`` integrated, or the error that stopped
        it: a failed preset fails the checks that read it, not the lane."""
        held = {}
        for name in names:
            try:
                held[name] = self._integrate(scns[name])
            except Exception as e:
                held[name] = e
        return held

    @staticmethod
    def _integrate(scn: Scenario) -> tuple[Setup, Trajectory]:
        setup = build(scn)
        traj = run(setup.state, scn.solver, setup.flags, setup.params,
                   setup.vext)
        if traj.status != "ok":
            raise RuntimeError(
                f"preset {scn.name!r} aborted: {traj.status}: {traj.message}")
        return setup, traj


def direct_convolution(f: np.ndarray, g: np.ndarray, dx: float) -> np.ndarray:
    """Periodic convolution as an explicit O(n^2) double sum.

    Kept free of any transform so it is a genuinely independent route
    against the spectral implementation.
    """
    n = len(f)
    out = np.zeros(n)
    for i in range(n):
        acc = 0.0
        for j in range(n):
            acc += f[j] * g[(i - j) % n]
        out[i] = acc * dx
    return out


# ---------------------------------------------------------------------------
# individual checks


def _random_log_density(grid: Grid, rng, modes: int = 10,
                        span: float = 0.8) -> Field:
    lam = np.zeros(grid.n)
    for m in range(1, modes + 1):
        amp = rng.normal(0.0, 1.0 / m)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        lam += amp * np.cos(2.0 * np.pi * m * grid.x / grid.length + phase)
    lam *= span / max(np.abs(lam).max(), 1e-30)
    return Field(grid, np.exp(lam), _fresh=True)


def check_bohm_identity(ctx) -> CheckResult:
    grid = Grid(n=256, length=1.0)
    p = PhysParams()
    worst = 0.0
    for _ in range(20):
        rho = _random_log_density(grid, ctx.rng)
        worst = max(worst, bohm_identity_residual(rho, p))
    return CheckResult("C1", "bohm-identity", worst < 1e-8,
                       f"max_rel_residual={worst:.3e}", "< 1e-8")


def check_euler_lagrange(ctx) -> CheckResult:
    grid = Grid(n=64, length=1.0)
    p = PhysParams(a2_explicit=0.04)
    x = grid.x
    rho = Field(grid, 1.0 + 0.3 * np.cos(2 * np.pi * x)
                + 0.15 * np.sin(4 * np.pi * x)
                + 0.1 * np.cos(6 * np.pi * x + 0.5), _fresh=True)
    a = math.sqrt(p.a2)
    numeric = euler_lagrange_oracle(rho, a, p).values
    closed = bohm_potential(rho, p, "gradient_form").values
    rel = float(np.abs(numeric - closed).max() / np.abs(closed).max())
    return CheckResult("C2", "euler-lagrange", rel < 1e-4,
                       f"max_rel_error={rel:.3e}", "< 1e-4")


def check_truncation(ctx) -> CheckResult:
    """``qfluid scan`` at its defaults."""
    fracs = (0.02, 0.04, 0.08)
    rows = truncation_sweep(Grid(n=256, length=1.0), fracs, (1, 2))
    errs1 = [r[0] for r in rows]
    err2_small = rows[0][1]
    slope = float(np.polyfit(np.log(fracs), np.log(errs1), 1)[0])
    improved = err2_small < errs1[0]
    ok = abs(slope - 4.0) <= 0.3 and improved
    return CheckResult(
        "C3", "truncation-order", ok,
        f"slope={slope:.3f} err_n2/err_n1={err2_small / errs1[0]:.3e}",
        "slope 4 +- 0.3 and strict n=2 gain",
        details=("errors n=1 at a/L in (0.02, 0.04, 0.08): "
                 + ", ".join(f"{e:.3e}" for e in errs1)))


def check_convolution(ctx) -> CheckResult:
    grid = Grid(n=64, length=1.0)
    p = PhysParams()
    rho = _random_log_density(grid, ctx.rng, modes=6)
    kern = make_kernel("difference_of_gaussians", grid, width=0.05)
    spectral = nonlocal_energy(rho, kern, p).values
    lam = np.log(rho.values)
    direct = (p.kT / p.m) * direct_convolution(lam, kern.values, grid.dx)
    rel = float(np.abs(spectral - direct).max() / np.abs(direct).max())
    return CheckResult("C4", "convolution-direct", rel < 1e-10,
                       f"max_rel_diff={rel:.3e}", "< 1e-10")


def _oracle_for(setup: Setup) -> object:
    wave0 = to_wavefunction(setup.state, setup.params)
    return run_oracle(wave0, setup.oracle, setup.params, setup.vext)


def check_trap_equivalence(ctx) -> CheckResult:
    setup, traj = ctx.cache.get("trap")
    res = compare(traj, _oracle_for(setup), setup.params)
    worst = res.max_density_error
    return CheckResult("C5a", "trap-vs-oracle", worst < 1e-3,
                       f"max_l2_density={worst:.3e}", "< 1e-3",
                       details=f"max_phase={res.max_phase_error:.3e} rad")


def _packet_width(state: State, center: float, lo: float, hi: float) -> float:
    """Packet width by least-squares fit of rho to a periodized gaussian.

    The model is the image sum ``sum_j exp(-(x-c-jL)^2/(2 s^2))`` with the
    amplitude solved linearly and the width by golden-section search on
    [lo, hi]. Fitting the density directly makes the estimate
    density-weighted: spectral ripple in near-empty regions and the
    box-seam tails carry almost no weight. Pointwise estimators do worse
    here: the log-curvature at the center is polluted by interference
    fringes once the wrapped tails overlap, and a raw second moment picks
    up percent-level bias from the folded tails once s nears L/6.
    """
    grid = state.grid
    rho = np.exp(state.lam.values)
    x = grid.x
    length = grid.length

    def sq_resid(s: float) -> float:
        w = np.zeros(grid.n)
        for j in range(-4, 5):
            w += np.exp(-0.5 * ((x - center - j * length) / s) ** 2)
        amp = float(rho @ w) / float(w @ w)
        r = rho - amp * w
        return float(r @ r)

    invphi = 0.5 * (math.sqrt(5.0) - 1.0)
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = sq_resid(c), sq_resid(d)
    while b - a > 1e-12:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = sq_resid(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = sq_resid(d)
    return 0.5 * (a + b)


def check_free_packet(ctx) -> CheckResult:
    setup, traj = ctx.cache.get("free")
    res = compare(traj, _oracle_for(setup), setup.params)
    dens = res.max_density_error

    sigma0 = setup.scn.initial.width
    center = setup.scn.initial.center
    if center is None:
        center = 0.5 * setup.scn.grid.length
    h = setup.params.hbar_eff
    m = setup.params.m
    lo, hi = 0.5 * sigma0, 4.0 * sigma0
    worst_law = 0.0
    for s in traj.snapshots:
        law = sigma0 * math.sqrt(1.0 + (h * s.t / (2.0 * m * sigma0**2)) ** 2)
        fitted = _packet_width(s, center, lo, hi)
        worst_law = max(worst_law, abs(fitted / law - 1.0))
    growth = _packet_width(traj.snapshots[-1], center, lo, hi) / sigma0
    ok = dens < 1e-3 and worst_law < 1e-3 and growth >= 2.0
    return CheckResult(
        "C5b", "free-packet", ok,
        f"max_l2_density={dens:.3e} width_dev={worst_law:.3e}",
        "both < 1e-3, width doubled",
        details=(f"final width / initial = {growth:.4f}; the width law "
                 "assumes an infinite line, and no box admits it to 1e-3 "
                 "here: packets narrow enough to keep the wrapped tails "
                 "from interfering at this level are torn apart by the "
                 "seam gradient instability before the width doubles (see "
                 "the presets module notes)"))


def check_conservation(ctx) -> CheckResult:
    worst_mass = worst_energy = 0.0
    lines = []
    for name in presets.suite():
        _, traj = ctx.cache.get(name)
        masses = np.array([r.mass for r in traj.records])
        energies = np.array([r.energy for r in traj.records])
        dm = float(np.abs(masses - masses[0]).max() / abs(masses[0]))
        de = float(np.abs(energies - energies[0]).max() / abs(energies[0]))
        worst_mass = max(worst_mass, dm)
        worst_energy = max(worst_energy, de)
        lines.append(f"{name}: mass {dm:.2e}, energy {de:.2e}")
    ok = worst_mass < 1e-9 and worst_energy < 1e-6
    return CheckResult("C6", "conservation", ok,
                       f"mass_drift={worst_mass:.3e} "
                       f"energy_drift={worst_energy:.3e}",
                       "mass < 1e-9, energy < 1e-6",
                       details="; ".join(lines))


def check_equilibrium_fixed_point(ctx) -> CheckResult:
    _, traj = ctx.cache.get("equilibrium")
    rho0 = np.exp(traj.snapshots[0].lam.values)
    drift = 0.0
    for s in traj.snapshots[1:]:
        rho = np.exp(s.lam.values)
        drift = max(drift, float(np.abs(rho - rho0).max()))
    drift /= float(rho0.max())
    bern = max(r.bernoulli_residual for r in traj.records)
    ok = drift < 1e-8 and bern < 1e-8
    return CheckResult("C7", "equilibrium-fixed-point", ok,
                       f"linf_drift={drift:.3e} bernoulli={bern:.3e}",
                       "both < 1e-8")


def check_onshell(ctx) -> CheckResult:
    _, eq = ctx.cache.get("equilibrium")
    _, tr = ctx.cache.get("traveling")
    worst_eq = max(r.lagrangian_minus_pressure for r in eq.records)
    worst_tr = max(r.lagrangian_minus_pressure for r in tr.records)
    ok = worst_eq < 1e-6 and worst_tr < 1e-4
    return CheckResult("C8", "onshell-lagrangian", ok,
                       f"equilibrium={worst_eq:.3e} traveling={worst_tr:.3e}",
                       "< 1e-6 and < 1e-4")


def check_action_stationarity(ctx) -> CheckResult:
    setup, traj = ctx.cache.get("traveling_action")
    grid = setup.scn.grid
    base = action(traj, setup.flags, setup.params, setup.vext)
    x = grid.x
    g_lam = np.cos(4 * np.pi * x / grid.length + 0.2)
    g_phi = np.sin(2 * np.pi * x / grid.length + 0.7)
    t0, t1 = traj.snapshots[0].t, traj.snapshots[-1].t

    def perturbed(eps: float) -> float:
        snaps = []
        for s in traj.snapshots:
            w = math.sin(math.pi * (s.t - t0) / (t1 - t0))
            snaps.append(State(
                s.t,
                Field(grid, s.lam.values + eps * w * g_lam, _fresh=True),
                Field(grid, s.phi.values + eps * w * g_phi, _fresh=True)))
        pert = Trajectory(snapshots=snaps, records=[])
        return action(pert, setup.flags, setup.params, setup.vext)

    d1 = abs(perturbed(1e-3) - base)
    d2 = abs(perturbed(1e-2) - base)
    slope = math.log10(d2 / d1)
    ok = abs(slope - 2.0) <= 0.2
    return CheckResult("C9", "action-stationarity", ok,
                       f"slope={slope:.3f}", "2 +- 0.2",
                       details=f"dA(1e-3)={d1:.3e} dA(1e-2)={d2:.3e}")


def check_covariant_static(ctx) -> CheckResult:
    grid = Grid(n=128, length=1.0)
    p = PhysParams()
    lam = Field(grid, 0.3 * np.cos(2 * np.pi * grid.x)
                + 0.1 * np.sin(4 * np.pi * grid.x), _fresh=True)
    hist = DensityHistory(grid, capacity=5)
    for j in range(5):
        hist.push(j * 0.01, lam)
    wave_form = dalembert_uq(hist, p).values
    rho = Field(grid, np.exp(lam.values), _fresh=True)
    static = bohm_potential(rho, p, "sqrt_form").values
    rel = float(np.abs(wave_form - static).max() / np.abs(static).max())
    return CheckResult("C10a", "covariant-static", rel <= 1e-12,
                       f"max_rel_diff={rel:.3e}", "<= 1e-12")


def _separable_history(grid: Grid, amp: float, omega: float, t_mid: float,
                       dt_h: float, k: int = 5) -> DensityHistory:
    hist = DensityHistory(grid, capacity=k)
    prof = np.cos(2 * np.pi * grid.x / grid.length)
    for j in range(k):
        t = t_mid + (j - (k - 1) // 2) * dt_h
        hist.push(t, Field(grid, amp * prof * math.cos(omega * t),
                           _fresh=True))
    return hist


def check_covariant_contraction(ctx) -> CheckResult:
    grid = Grid(n=128, length=1.0)
    p = PhysParams()
    amp, omega, t_mid = 0.3, 2 * np.pi, 0.3
    prof = np.cos(2 * np.pi * grid.x / grid.length)
    lam_mid = amp * prof * math.cos(omega * t_mid)
    lam_t = -amp * omega * prof * math.sin(omega * t_mid)
    lam_tt = -amp * omega**2 * prof * math.cos(omega * t_mid)
    r_mid = Field(grid, np.exp(0.5 * lam_mid), _fresh=True)
    lap = derivative(r_mid, 2).values
    dtt_exact = 0.5 * lam_tt + 0.25 * lam_t**2        # (d2R/dt2)/R
    exact = p.quantum_coefficient * (dtt_exact / p.c**2
                                     - lap / r_mid.values)

    def err(dt_h: float) -> float:
        hist = _separable_history(grid, amp, omega, t_mid, dt_h)
        return float(np.abs(dalembert_uq(hist, p).values - exact).max())

    e1, e2 = err(0.02), err(0.01)
    ratio = e1 / e2
    ok = 3.2 <= ratio <= 4.8
    return CheckResult("C10b", "covariant-contraction", ok,
                       f"ratio={ratio:.3f}", "4 +- 20%",
                       details=f"err(0.02)={e1:.3e} err(0.01)={e2:.3e}")


def check_retarded_rate(ctx) -> CheckResult:
    grid = Grid(n=128, length=1.0)
    kern = make_kernel("difference_of_gaussians", grid, width=0.04)
    amp, omega = 0.1, 2 * np.pi
    t_new = 0.125
    k_hist = 801
    dt_h = t_new / (k_hist - 1)
    prof = np.cos(2 * np.pi * grid.x / grid.length)
    hist = DensityHistory(grid, capacity=k_hist)
    for j in range(k_hist):
        t = j * dt_h
        hist.push(t, Field(grid, amp * prof * math.cos(omega * t),
                           _fresh=True))
    rho_new = Field(grid, np.exp(hist.lams[-1]), _fresh=True)
    errs = []
    cs = (4.0, 40.0, 400.0)
    for c in cs:
        p = PhysParams(c=c)
        instant = nonlocal_energy(rho_new, kern, p).values
        ret = retarded_energy(hist, kern, p).values
        errs.append(float(np.abs(ret - instant).max()))
    r1 = errs[0] / errs[1]
    r2 = errs[1] / errs[2]
    ok = r1 >= 10.0 and r2 >= 10.0
    return CheckResult("C10c", "retarded-rate", ok,
                       f"ratios={r1:.1f},{r2:.1f} per 10x c", ">= 10",
                       details=("errors at c in (4, 40, 400): "
                                + ", ".join(f"{e:.3e}" for e in errs)))


def check_rk4_order(ctx) -> CheckResult:
    setup = build(presets.trap())
    t_end = 0.02

    def final_lam(dt: float) -> np.ndarray:
        steps = int(round(t_end / dt))
        cfg = SolverConfig(dt=dt, t_end=t_end, snapshot_stride=steps)
        traj = run(setup.state, cfg, setup.flags, setup.params, setup.vext)
        if traj.status != "ok":
            raise RuntimeError(f"rk4-order run aborted: {traj.message}")
        return traj.snapshots[-1].lam.values

    ref = final_lam(1.25e-6)
    dts = (4e-5, 2e-5, 1e-5)
    errs = [float(np.linalg.norm(final_lam(dt) - ref) / np.linalg.norm(ref))
            for dt in dts]
    slopes = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    slope = sum(slopes) / len(slopes)
    ok = abs(slope - 4.0) <= 0.4
    return CheckResult("C11", "rk4-order", ok, f"slope={slope:.3f}",
                       "4 +- 0.4",
                       details=(f"errors at dt in {dts}: "
                                + ", ".join(f"{e:.3e}" for e in errs)))


def check_reproducibility(ctx) -> CheckResult:
    """Two ``qfluid run`` calls of one preset write the same CSV bytes. The
    runs' progress lines stay out of the check's output."""
    from .cli import cmd_run

    scn = presets.traveling_action()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "scenario.ini")
        with open(path, "w", encoding="utf-8") as f:
            f.write(serialize(scn))
        outs = (os.path.join(tmp, "a"), os.path.join(tmp, "b"))
        for out in outs:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cmd_run(path, out)
            if code != 0:
                raise RuntimeError(f"reproducibility run exited {code}")
        names = ["diagnostics.csv"] + sorted(
            os.path.join("snapshots", f)
            for f in os.listdir(os.path.join(outs[0], "snapshots"))
            if f.endswith(".csv"))
        same = filecmp.cmpfiles(*outs, names, shallow=False)[0]
    identical = len(same) == len(names)
    return CheckResult("C12", "reproducibility", identical,
                       f"files_identical={identical} ({len(names)} compared)",
                       "bit-identical CSVs")


# ---------------------------------------------------------------------------
# suites

# Every check once, in the order that seeds it, with its suite and the
# presets it reads from the run cache.
_TABLE = (
    (check_bohm_identity, "identities", ()),
    (check_euler_lagrange, "identities", ()),
    (check_truncation, "truncation", ()),
    (check_convolution, "truncation", ()),
    (check_trap_equivalence, "oracle", ("trap",)),
    (check_free_packet, "oracle", ("free",)),
    (check_conservation, "conservation", tuple(presets.suite())),
    (check_equilibrium_fixed_point, "conservation", ("equilibrium",)),
    (check_onshell, "action", ("equilibrium", "traveling")),
    (check_action_stationarity, "action", ("traveling_action",)),
    (check_covariant_static, "covariant", ()),
    (check_covariant_contraction, "covariant", ()),
    (check_retarded_rate, "covariant", ()),
    (check_rk4_order, "oracle", ()),
    (check_reproducibility, "conservation", ()),
)

_CHECKS = [fn for fn, _, _ in _TABLE]
SUITES: dict[str, tuple] = {
    name: tuple(fn for fn, suite, _ in _TABLE if suite == name)
    for name in dict.fromkeys(suite for _, suite, _ in _TABLE)}
SUITES["all"] = tuple(_CHECKS)
SUITE_NAMES = tuple(SUITES)
READS: dict[object, tuple[str, ...]] = {
    fn: reads for fn, _, reads in _TABLE if reads}


def run_suite(suite: str, seed: int = 0) -> list[CheckResult]:
    """Run one suite; results come back in declaration order. The presets
    its checks read are integrated first (:meth:`RunCache.fill`)."""
    if suite not in SUITES:
        raise ValueError(
            f"unknown suite {suite!r}; known: {', '.join(SUITE_NAMES)}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    cache = RunCache()
    cache.fill(name for fn in SUITES[suite] for name in READS.get(fn, ()))
    results = []
    for fn in SUITES[suite]:
        ctx = SimpleNamespace(
            cache=cache, rng=np.random.default_rng([seed, _CHECKS.index(fn)]))
        try:
            results.append(fn(ctx))
        except Exception as e:  # a crashed check is a failed check
            results.append(CheckResult("C?", fn.__name__, False,
                                       f"error: {e}", "check must complete"))
    return results
