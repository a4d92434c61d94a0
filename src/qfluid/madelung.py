"""Hydrodynamic evolution in log-density / velocity-potential variables.

State is the pair ``(lam, phi)`` with ``lam = ln rho`` and velocity
``v = -grad phi``. The equations of motion are

    d lam / dt = grad phi . grad lam + lap phi          (continuity)
    d phi / dt = (grad phi)^2 / 2 + H_th + U_Q + V_e    (Bernoulli)

where each right-hand term is switched by :class:`TermFlags`. Working in
``lam`` keeps the density positive by construction and makes the enthalpy
``(kT/m)(lam + 1)`` linear in the state. Quadratic products in the right
hand side are dealiased with the 2/3 rule (default on).

The right-hand side takes four batched real transforms through the grid's
operator layer: forward of ``(lam, phi)``, back of their masked gradients,
forward of the quadratic products, back of the two tendencies. The quantum
closure is written once, in spectral form, and :func:`quantum_potential`
and :func:`diagnostics` read it off the same right-hand side.

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
# right-hand side on raw arrays

def _rhs_arrays(lam, phi, grid, flags: TermFlags, p: PhysParams, vext, dealias_on):
    mask = grid.half_mask if dealias_on else 1.0
    bohm = flags.quantum and flags.quantum_order == 1
    hats = grid.rfft(np.stack((lam, phi)))
    lam_hat, phi_hat = hats
    dlam, dphi = grid.irfft(grid.half_ik * mask * hats)
    products = [dphi * dlam, dphi * dphi] + ([dlam * dlam] if bohm else [])
    prod_hat = mask * grid.rfft(np.stack(products))

    dlam_hat = prod_hat[0] - grid.half_k2 * phi_hat
    dphi_hat = 0.5 * prod_hat[1]
    rest = 0.0
    if flags.quantum:
        uq_hat, rest = _quantum_term(lam, lam_hat, prod_hat[-1], grid, flags, p)
        dphi_hat = dphi_hat + uq_hat
    dlam_dt, dphi_dt = grid.irfft(np.stack((dlam_hat, dphi_hat)))

    dphi_dt = dphi_dt + rest
    if flags.thermo:
        dphi_dt = dphi_dt + (p.kT / p.m) * (lam + 1.0)
    if flags.external:
        dphi_dt = dphi_dt + vext
    return dlam_dt, dphi_dt


def _quantum_term(lam, lam_hat, grad2_hat, grid, flags: TermFlags, p: PhysParams):
    """The quantum closure as the spectrum of U_Q plus a real-space rest.

    The Bohm closure (order 1) is wholly spectral,
    ``-(qc/2) [lap lam + (grad lam)^2 / 2]``, with ``grad2_hat`` the
    spectrum of ``(grad lam)^2``. The gradient series (order >= 2) is
    ``(kT/m) [M lam + (M rho) / rho]`` for the series multiplier ``M``;
    its second part is the rest.
    """
    if flags.quantum_order == 1:
        qc = p.quantum_coefficient
        return -0.5 * qc * (0.5 * grad2_hat - grid.half_k2 * lam_hat), 0.0
    theta = p.kT / p.m
    mult = _series_multiplier(grid, p.a2, flags.moments.c, 1,
                              flags.quantum_order)
    rho = np.exp(lam)
    return theta * mult * lam_hat, theta * grid.apply(mult, rho) / rho


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


def _step_arrays(lam, phi, dt, grid, flags, p, vext, dealias_on):
    k1l, k1p = _rhs_arrays(lam, phi, grid, flags, p, vext, dealias_on)
    k2l, k2p = _rhs_arrays(lam + 0.5 * dt * k1l, phi + 0.5 * dt * k1p,
                           grid, flags, p, vext, dealias_on)
    k3l, k3p = _rhs_arrays(lam + 0.5 * dt * k2l, phi + 0.5 * dt * k2p,
                           grid, flags, p, vext, dealias_on)
    k4l, k4p = _rhs_arrays(lam + dt * k3l, phi + dt * k3p,
                           grid, flags, p, vext, dealias_on)
    new_lam = lam + (dt / 6.0) * (k1l + 2.0 * k2l + 2.0 * k3l + k4l)
    new_phi = phi + (dt / 6.0) * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
    return new_lam, new_phi


def step(s: State, cfg: SolverConfig, flags: TermFlags, p: PhysParams,
         vext: ExternalPotential) -> State:
    """One RK4 step. Raises :class:`SolverAbort` on vacuum or blowup."""
    varr = vext.field(s.grid).values if flags.external else None
    lam, phi = _step_arrays(s.lam.values, s.phi.values, cfg.dt, s.grid,
                            flags, p, varr, cfg.dealias)
    t_new = s.t + cfg.dt
    _check_state(lam, phi, s.grid, cfg.density_floor, t_new)
    return State(t_new, Field(s.grid, lam, _fresh=True),
                 Field(s.grid, phi, _fresh=True))


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
    varr = vext.field(grid).values if flags.external else None
    n_steps = int(round(cfg.t_end / cfg.dt)) if cfg.t_end > 0 else 0
    if cfg.t_end > 0 and abs(n_steps * cfg.dt - cfg.t_end) > 1e-9 * cfg.t_end:
        raise ValueError(
            f"t_end={cfg.t_end!r} is not an integer number of steps of dt={cfg.dt!r}"
        )

    lam = initial.lam.values.copy()
    phi = initial.phi.values.copy()
    t0 = initial.t
    _check_state(lam, phi, grid, cfg.density_floor, t0)

    traj = Trajectory(snapshots=[], records=[])

    def record(t, larr, parr):
        s = State(t, Field(grid, larr.copy(), _fresh=True),
                  Field(grid, parr.copy(), _fresh=True))
        traj.snapshots.append(s)
        traj.records.append(diagnostics(s, flags, p, vext))

    record(t0, lam, phi)
    try:
        for i in range(1, n_steps + 1):
            lam, phi = _step_arrays(lam, phi, cfg.dt, grid, flags, p, varr,
                                    cfg.dealias)
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
