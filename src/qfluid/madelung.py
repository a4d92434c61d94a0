"""Hydrodynamic evolution in log-density / velocity-potential variables.

State is the pair ``(lam, phi)`` with ``lam = ln rho`` and velocity
``v = -grad phi``. The equations of motion are

    d lam / dt = grad phi . grad lam + lap phi          (continuity)
    d phi / dt = (grad phi)^2 / 2 + H_th + U_Q + V_e    (Bernoulli)

where each right-hand term is switched by :class:`TermFlags`. Working in
``lam`` keeps the density positive by construction and makes the enthalpy
``(kT/m)(lam + 1)`` linear in the state. Quadratic products in the right
hand side are dealiased with the 2/3 rule (default on).

Between RK4 stages and steps the state is the stacked half spectrum
``(lam^, phi^)`` of the real FFT. One spectral kernel gives both
tendencies from it in two batched transforms through the grid's operator
layer: back of the masked gradients, forward of the quadratic products;
the linear, thermal, quantum and external terms are added per mode. A run
reads the state back once per step, so an RK4 step takes nine transforms.
:func:`rhs`, :func:`quantum_potential` and :func:`diagnostics` read the
same kernel as ``irfft(kernel(rfft(lam, phi)))``, four transforms.

Time stepping is classical RK4. A run terminates early, with a partial
trajectory and an error status, if the density floor is crossed (vacuum)
or the state stops being finite (blowup). For quantum runs the time step
must respect ``dt <= 0.5 dx^2 m / hbar_eff``, the usual explicit spectral
bound for the free dispersion branch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .grid import Field, Grid, derivative
from .kernels import MomentTable, _series_multiplier
from .params import ExternalPotential, PhysParams

__all__ = [
    "State",
    "TermFlags",
    "SolverConfig",
    "DiagnosticRecord",
    "Trajectory",
    "SolverAbort",
    "velocity",
    "quantum_potential",
    "rhs",
    "step",
    "run",
    "diagnostics",
    "action",
]


@dataclass(frozen=True)
class State:
    """Instantaneous fluid state ``(t, lam, phi)`` on one grid."""

    t: float
    lam: Field
    phi: Field

    def __post_init__(self) -> None:
        if self.lam.grid != self.phi.grid:
            raise ValueError("lam and phi live on different grids")

    @property
    def grid(self) -> Grid:
        return self.lam.grid

    def density(self) -> Field:
        return Field(self.grid, np.exp(self.lam.values), _fresh=True)


@dataclass(frozen=True)
class TermFlags:
    """Which Bernoulli terms participate in the dynamics.

    ``quantum_order`` selects the quantum closure: 1 is the closed-form
    Bohm potential, >= 2 adds gradient-series corrections and then needs a
    :class:`MomentTable` (``moments``) reaching ``c_{2 quantum_order}``.
    """

    thermo: bool = True
    quantum: bool = False
    external: bool = False
    quantum_order: int = 1
    moments: MomentTable | None = None

    def __post_init__(self) -> None:
        if self.quantum_order < 1:
            raise ValueError(f"quantum_order must be >= 1, got {self.quantum_order}")
        if self.quantum and self.quantum_order >= 2:
            if self.moments is None:
                raise ValueError(
                    "quantum_order >= 2 needs kernel moments (TermFlags.moments)"
                )
            if self.quantum_order >= len(self.moments.c):
                raise ValueError(
                    f"moment table holds c_0..c_{2 * (len(self.moments.c) - 1)}, "
                    f"need c_{2 * self.quantum_order}"
                )


@dataclass(frozen=True)
class SolverConfig:
    dt: float
    t_end: float
    snapshot_stride: int = 1
    dealias: bool = True
    density_floor: float = 1e-12

    def __post_init__(self) -> None:
        if not self.dt > 0:
            raise ValueError(f"dt must be > 0, got {self.dt}")
        if self.t_end < 0:
            raise ValueError(f"t_end must be >= 0, got {self.t_end}")
        if self.snapshot_stride < 1:
            raise ValueError(f"snapshot_stride must be >= 1, got {self.snapshot_stride}")
        if not 0.0 < self.density_floor < 1.0:
            raise ValueError(f"density_floor must be in (0, 1), got {self.density_floor}")


@dataclass(frozen=True)
class DiagnosticRecord:
    """Per-snapshot scalars. ``lagrangian_minus_pressure`` is NaN whenever
    the quantum term is active (the on-shell identity it checks is the
    classical one)."""

    t: float
    mass: float
    energy: float
    momentum: float
    bernoulli_residual: float
    lagrangian_minus_pressure: float
    min_density: float


@dataclass
class Trajectory:
    snapshots: list[State]
    records: list[DiagnosticRecord]
    status: str = "ok"
    message: str | None = None

    @property
    def times(self) -> np.ndarray:
        return np.array([s.t for s in self.snapshots])


class SolverAbort(RuntimeError):
    """Raised by :func:`step` on vacuum or blowup; :func:`run` converts it
    into a trajectory status."""

    def __init__(self, kind: str, message: str, t: float):
        super().__init__(message)
        self.kind = kind
        self.t = t


# ---------------------------------------------------------------------------
# right-hand side on the half spectrum

def _tendency_hat(hat, grid, flags: TermFlags, p: PhysParams, vhat, dealias_on):
    """Spectra of ``(d lam/dt, d phi/dt)`` from the stacked ``(lam^, phi^)``.

    Two transforms: back of the masked gradients, forward of the products.
    The quantum closure is spectral. Bohm (order 1) is
    ``-(qc/2) [lap lam + (grad lam)^2 / 2]``; the gradient series
    (order >= 2) is ``(kT/m) [M lam + (M rho) / rho]`` for the series
    multiplier ``M``, whose second part needs real rho, so lam goes back
    as a third row and ``M rho`` costs two transforms more. ``vhat`` is
    the spectrum of the external potential, or None to leave it out.
    """
    mask = grid.half_mask if dealias_on else 1.0
    theta = p.kT / p.m
    lam_hat, phi_hat = hat
    series = flags.quantum and flags.quantum_order >= 2
    grads = grid.half_ik * mask * hat
    real = grid.irfft(np.concatenate((grads, hat[:1])) if series else grads)
    dlam, dphi = real[0], real[1]
    products = [dphi * dlam, dphi * dphi]
    if series:
        mult = _series_multiplier(grid, p.a2, flags.moments.c, 1,
                                  flags.quantum_order)
        rho = np.exp(real[2])
        products.append(theta * grid.apply(mult, rho) / rho)
    elif flags.quantum:
        products.append(dlam * dlam)
    prod_hat = grid.rfft(np.array(products))
    quad = mask * prod_hat

    dlam_hat = quad[0] - grid.half_k2 * phi_hat
    dphi_hat = 0.5 * quad[1]
    if series:
        dphi_hat = dphi_hat + theta * mult * lam_hat + prod_hat[2]
    elif flags.quantum:
        qc = p.quantum_coefficient
        dphi_hat = dphi_hat - 0.5 * qc * (0.5 * quad[2] - grid.half_k2 * lam_hat)
    if flags.thermo:
        # the enthalpy (kT/m)(lam + 1); its constant sits on mode 0
        dphi_hat = dphi_hat + theta * lam_hat
        dphi_hat[0] += grid.n * theta
    if vhat is not None:
        dphi_hat = dphi_hat + vhat
    return np.array((dlam_hat, dphi_hat))


def _rhs_arrays(lam, phi, grid, flags: TermFlags, p: PhysParams, vext, dealias_on):
    """``irfft(tendency(rfft(lam, phi)))``, with ``vext`` added after."""
    dlam_dt, dphi_dt = grid.irfft(_tendency_hat(
        grid.rfft(np.array((lam, phi))), grid, flags, p, None, dealias_on))
    if flags.external:
        dphi_dt = dphi_dt + vext
    return dlam_dt, dphi_dt


def velocity(s: State) -> Field:
    """``v = -grad phi``."""
    return Field(s.grid, -derivative(s.phi, 1).values, _fresh=True)


def quantum_potential(s: State, flags: TermFlags, p: PhysParams) -> Field:
    """The quantum-potential field the active flags produce (zeros if off).

    It is the Bernoulli tendency of the state at rest with only the quantum
    term on and dealiasing off.
    """
    if not flags.quantum:
        return Field.constant(s.grid, 0.0)
    only = replace(flags, thermo=False, external=False)
    _, uq = _rhs_arrays(s.lam.values, np.zeros(s.grid.n), s.grid, only, p,
                        None, False)
    return Field(s.grid, uq, _fresh=True)


def rhs(s: State, flags: TermFlags, p: PhysParams, vext: ExternalPotential,
        dealias: bool = True) -> tuple[Field, Field]:
    """Time derivatives ``(d lam/dt, d phi/dt)`` of the current state."""
    varr = vext.field(s.grid).values if flags.external else None
    dl, dp = _rhs_arrays(s.lam.values, s.phi.values, s.grid, flags, p, varr, dealias)
    return Field(s.grid, dl, _fresh=True), Field(s.grid, dp, _fresh=True)


def _check_state(lam, phi, grid, floor, t):
    if not (np.all(np.isfinite(lam)) and np.all(np.isfinite(phi))):
        raise SolverAbort("blowup", f"state stopped being finite at t={t:.6g}", t)
    rho = np.exp(lam)
    mean = float(rho.mean())
    mn = float(rho.min())
    if mn <= floor * mean:
        j = int(np.argmin(rho))
        raise SolverAbort(
            "vacuum",
            f"density floor crossed at t={t:.6g}: rho={mn:.3e} "
            f"({mn / mean:.3e} of mean) at node {j} (x={grid.x[j]:.6g})",
            t,
        )


def _step_hat(hat, dt, grid, flags, p, vhat, dealias_on):
    """One RK4 step of the stacked half spectrum ``(lam^, phi^)``."""
    def f(h):
        return _tendency_hat(h, grid, flags, p, vhat, dealias_on)
    k1 = f(hat)
    k2 = f(hat + 0.5 * dt * k1)
    k3 = f(hat + 0.5 * dt * k2)
    k4 = f(hat + dt * k3)
    return hat + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _vhat(grid: Grid, flags: TermFlags, vext: ExternalPotential):
    return grid.rfft(vext.field(grid).values) if flags.external else None


def step(s: State, cfg: SolverConfig, flags: TermFlags, p: PhysParams,
         vext: ExternalPotential) -> State:
    """One RK4 step. Raises :class:`SolverAbort` on vacuum or blowup."""
    grid = s.grid
    hat = grid.rfft(np.array((s.lam.values, s.phi.values)))
    lam, phi = grid.irfft(_step_hat(hat, cfg.dt, grid, flags, p,
                                    _vhat(grid, flags, vext), cfg.dealias))
    t_new = s.t + cfg.dt
    _check_state(lam, phi, grid, cfg.density_floor, t_new)
    return State(t_new, Field(grid, lam, _fresh=True),
                 Field(grid, phi, _fresh=True))


def stability_bound(grid: Grid, p: PhysParams) -> float:
    """Largest admissible quantum time step, ``0.5 dx^2 m / hbar_eff``."""
    return 0.5 * grid.dx**2 * p.m / p.hbar_eff


def run(initial: State, cfg: SolverConfig, flags: TermFlags, p: PhysParams,
        vext: ExternalPotential) -> Trajectory:
    """Integrate to ``t_end``, recording every ``snapshot_stride``-th state.

    ``t_end = 0`` yields a single-snapshot trajectory of the initial state.
    On vacuum or blowup the partial trajectory is returned with the
    corresponding status instead of raising.
    """
    grid = initial.grid
    if flags.quantum:
        bound = stability_bound(grid, p)
        if cfg.dt > bound * (1.0 + 1e-12):
            raise ValueError(
                f"dt={cfg.dt:g} violates the quantum stability bound "
                f"0.5 dx^2 m / hbar_eff = {bound:g}"
            )
    n_steps = int(round(cfg.t_end / cfg.dt)) if cfg.t_end > 0 else 0
    if cfg.t_end > 0 and abs(n_steps * cfg.dt - cfg.t_end) > 1e-9 * cfg.t_end:
        raise ValueError(
            f"t_end={cfg.t_end!r} is not an integer number of steps of dt={cfg.dt!r}"
        )

    lam = initial.lam.values
    phi = initial.phi.values
    t0 = initial.t
    _check_state(lam, phi, grid, cfg.density_floor, t0)
    # the state lives on the half spectrum; one inverse per step reads it
    hat = grid.rfft(np.array((lam, phi)))
    vhat = _vhat(grid, flags, vext)

    traj = Trajectory(snapshots=[], records=[])

    def record(t, larr, parr):
        s = State(t, Field(grid, larr.copy(), _fresh=True),
                  Field(grid, parr.copy(), _fresh=True))
        traj.snapshots.append(s)
        traj.records.append(diagnostics(s, flags, p, vext))

    record(t0, lam, phi)
    try:
        for i in range(1, n_steps + 1):
            hat = _step_hat(hat, cfg.dt, grid, flags, p, vhat, cfg.dealias)
            lam, phi = grid.irfft(hat)
            t = t0 + i * cfg.dt
            _check_state(lam, phi, grid, cfg.density_floor, t)
            if i % cfg.snapshot_stride == 0 or i == n_steps:
                record(t, lam, phi)
    except SolverAbort as abort:
        traj.status = abort.kind
        traj.message = str(abort)
    return traj


# ---------------------------------------------------------------------------
# diagnostics and the action

def _energy_density(lam, phi, grid, flags: TermFlags, p: PhysParams, vext):
    """Pointwise energy per unit volume for the active terms, with rho and v.

    The quantum part uses the sign-definite form
    ``(kT/m) a^2 rho (grad lam)^2 / 2`` whose density derivative is U_Q.
    On shell the Lagrangian density is ``rho dphi/dt`` minus this.
    """
    rho = np.exp(lam)
    grads = grid.apply(grid.half_ik,
                       np.stack((phi, lam)) if flags.quantum else phi[None])
    v = -grads[0]
    dens = 0.5 * rho * v * v
    if flags.thermo:
        dens = dens + rho * (p.kT / p.m) * lam
    if flags.external:
        dens = dens + rho * vext
    if flags.quantum:
        dens = dens + 0.25 * p.quantum_coefficient * rho * grads[1]**2
    return dens, rho, v


def diagnostics(s: State, flags: TermFlags, p: PhysParams,
                vext: ExternalPotential) -> DiagnosticRecord:
    grid = s.grid
    varr = vext.field(grid).values if flags.external else np.zeros(grid.n)
    lam = s.lam.values
    phi = s.phi.values
    dens, rho, v = _energy_density(lam, phi, grid, flags, p, varr)
    dx = grid.dx
    mass = float(np.sum(rho) * dx)
    energy = float(np.sum(dens) * dx)
    momentum = float(np.sum(rho * v) * dx)

    bern = 0.5 * v * v
    if flags.thermo:
        # U_th + p/rho telescopes to the enthalpy (kT/m)(lam + 1)
        bern = bern + (p.kT / p.m) * (lam + 1.0)
    if flags.external:
        bern = bern + varr
    if flags.quantum:
        bern = bern + quantum_potential(s, flags, p).values
    mean_mag = float(np.mean(np.abs(bern)))
    spread = float(np.std(bern))
    bern_res = spread / mean_mag if mean_mag > 0 else spread

    if flags.quantum:
        lmp = math.nan
    else:
        _, dp = _rhs_arrays(lam, phi, grid, flags, p,
                            varr if flags.external else None, True)
        lag = rho * dp - dens
        pr = (p.kT / p.m) * rho
        pmax = np.abs(pr).max()
        lmp = float(np.abs(lag - pr).max() / pmax) if pmax > 0 else math.nan

    return DiagnosticRecord(
        t=s.t,
        mass=mass,
        energy=energy,
        momentum=momentum,
        bernoulli_residual=bern_res,
        lagrangian_minus_pressure=lmp,
        min_density=float(rho.min()),
    )


def action(traj: Trajectory, flags: TermFlags, p: PhysParams,
           vext: ExternalPotential) -> float:
    """Space-time action of a recorded trajectory.

    Trapezoid rule in time over the snapshots; the Lagrangian density is
    the on-shell substitution ``v = -grad phi``,

        L = rho dphi/dt - rho (grad phi)^2 / 2 - rho (U_th + V_e) + L_Q,

    with ``dphi/dt`` from centered differences (one-sided second order at
    the ends). Snapshots must be uniformly spaced and at least three.
    """
    snaps = traj.snapshots
    if len(snaps) < 3:
        raise ValueError("action needs at least three snapshots")
    times = traj.times
    dts = np.diff(times)
    dt = float(dts[0])
    if np.abs(dts - dt).max() > 1e-9 * dt:
        raise ValueError("action needs uniformly spaced snapshots")
    grid = snaps[0].grid
    varr = vext.field(grid).values if flags.external else np.zeros(grid.n)

    phis = np.stack([s.phi.values for s in snaps])
    lams = np.stack([s.lam.values for s in snaps])
    m = len(snaps)
    dphi_dt = np.empty_like(phis)
    dphi_dt[1:-1] = (phis[2:] - phis[:-2]) / (2.0 * dt)
    dphi_dt[0] = (-3.0 * phis[0] + 4.0 * phis[1] - phis[2]) / (2.0 * dt)
    dphi_dt[-1] = (3.0 * phis[-1] - 4.0 * phis[-2] + phis[-3]) / (2.0 * dt)

    total = 0.0
    for j in range(m):
        dens, rho, _ = _energy_density(lams[j], phis[j], grid, flags, p, varr)
        lag = rho * dphi_dt[j] - dens
        w = 0.5 if j in (0, m - 1) else 1.0
        total += w * float(np.sum(lag) * grid.dx)
    return total * dt
