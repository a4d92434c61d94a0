"""Split-step wavefunction oracle for the hydrodynamic solver.

The fluid equations in ``(lam, phi)`` are equivalent to a wave equation
for ``psi = exp(lam/2) exp(-i m phi / hbar_eff)``:

    i hbar_eff dpsi/dt = [ -(hbar_eff^2 / 2m) lap + m V_e
                           + kT (ln |psi|^2 + 1) ] psi .

``V_e`` is the run's external :data:`~qfluid.params.Potential`, sampled
once per run, the one the fluid run reads.
The logarithmic term is the enthalpy seen per particle; switching it off
(``nonlinearity = False``) gives the plain linear Schrodinger equation and
matches hydrodynamic runs whose thermo term is off. The constant "+1" is
kept so the oracle phase stays comparable to phi without regauging.

Integration is Strang splitting: half a potential phase rotation, a full
spectral kinetic step, half a potential rotation with the updated density.
Both sub-steps are exact, so the map is unitary and second order in dt.
The closing half rotation of one step and the opening half of the next
see the same ``|psi|^2``, so between snapshots they merge into one full
rotation: one potential and one phase factor per step, with half rotations
only at the start and at each snapshot. :func:`oracle_step` is this loop
run for one step. The loop writes into work arrays it owns, in the
operand order of the fresh-array expressions it replaces (``psi * rot``,
``kin * spectrum``): numpy's complex multiply fuses with FMA and is not
bitwise commutative, so the order keeps the bits.
"""

from __future__ import annotations

import numpy as np

from .grid import Field, Grid
from .madelung import State, Trajectory, check_timing, whole_steps
from .params import PhysParams, Potential

__all__ = [
    "WaveState",
    "OracleConfig",
    "WaveTrajectory",
    "to_wavefunction",
    "from_wavefunction",
    "oracle_step",
    "run_oracle",
    "waves_from_states",
    "compare",
    "CompareResult",
]

from dataclasses import dataclass


@dataclass(frozen=True, eq=False)
class WaveState:
    """A wavefunction at time ``t``: ``psi`` holds its complex samples on
    ``grid``, as a read-only copy of the array given, which must match the
    grid and be finite."""

    t: float
    grid: Grid
    psi: np.ndarray

    def __post_init__(self) -> None:
        psi = np.array(self.psi, dtype=complex)
        if psi.shape != (self.grid.n,):
            raise ValueError(f"wavefunction shape {psi.shape} does not "
                             f"match grid n={self.grid.n}")
        if not np.all(np.isfinite(psi)):
            raise ValueError("wavefunction samples must be finite")
        psi.flags.writeable = False
        object.__setattr__(self, "psi", psi)

    def density(self) -> Field:
        return Field(self.grid, np.abs(self.psi) ** 2)


@dataclass(frozen=True)
class OracleConfig:
    """The oracle's step, span and snapshot stride, and whether its log
    nonlinearity is on. Its splitting is always Strang's."""

    dt: float
    t_end: float
    snapshot_stride: int = 1
    nonlinearity: bool = True

    __post_init__ = check_timing


@dataclass
class WaveTrajectory:
    snapshots: list[WaveState]

    @property
    def times(self) -> np.ndarray:
        return np.array([s.t for s in self.snapshots])


def to_wavefunction(s: State, p: PhysParams) -> WaveState:
    """Map ``(lam, phi)`` to ``psi = exp(lam/2) exp(-i m phi / hbar_eff)``."""
    amp = np.exp(0.5 * s.lam.values)
    phase = -p.m * s.phi.values / p.hbar_eff
    return WaveState(s.t, s.grid, amp * np.exp(1j * phase))


def from_wavefunction(w: WaveState, p: PhysParams) -> State:
    """Invert the Madelung map.

    ``lam = ln |psi|^2`` and ``phi = -(hbar_eff/m) arg(psi)`` with the
    phase unwrapped along the box and the constant fixed by a zero-mean
    convention. Raises if the modulus dips below 1e-6 of its maximum
    (phase numerically undefined) or if the unwrapped phase winds around
    the box (no single-valued phi exists).
    """
    psi = w.psi
    amp = np.abs(psi)
    if amp.min() <= 1e-6 * amp.max():
        raise ValueError(
            "phase undefined: |psi| dips below 1e-6 of its maximum"
        )
    theta = np.unwrap(np.angle(psi))
    closure = np.angle(psi[0]) - theta[-1]
    winding = round((theta[-1] + _principal(closure) - theta[0]) / (2.0 * np.pi))
    if winding != 0:
        raise ValueError(
            f"phase winds {winding} times around the box; no single-valued "
            "velocity potential exists"
        )
    phi = -(p.hbar_eff / p.m) * theta
    phi = phi - phi.mean()
    lam = 2.0 * np.log(amp)
    return State(w.t, Field(w.grid, lam), Field(w.grid, phi))


def _principal(angle: float) -> float:
    """Fold an angle to (-pi, pi]."""
    return float(np.angle(np.exp(1j * angle)))


def _potential(psi, base, p: PhysParams, nonlinearity: bool, out):
    """``m V_e + kT (ln |psi|^2 + 1)`` over the terms on, into ``out``;
    ``base`` is ``0.0 + m V_e``."""
    if not nonlinearity:
        return base
    np.square(np.abs(psi, out=out), out=out)
    np.log(np.maximum(out, 1e-300, out=out), out=out)
    out += 1.0
    np.multiply(p.kT, out, out=out)
    return np.add(base, out, out=out)


def oracle_step(w: WaveState, cfg: OracleConfig, p: PhysParams,
                vext: Potential) -> WaveState:
    """One Strang step: half a potential rotation, the kinetic step, half a
    rotation with the updated density."""
    psi = _advance(w.psi, 1, w.grid, cfg, p, vext, lambda i, psi: None)
    return WaveState(w.t + cfg.dt, w.grid, psi)


def _check_rotation(v, v_max: float, cfg: OracleConfig, p: PhysParams):
    """ValueError if the potential ``v`` reaches ``v_max``, where a step
    turns the phase by half a radian."""
    peak = float(np.abs(v).max())
    if peak >= v_max:
        raise ValueError(
            f"potential phase rotation {cfg.dt * peak / p.hbar_eff:.3g} rad"
            " per step exceeds 0.5; reduce dt"
        )


def _advance(psi, n_steps: int, grid: Grid, cfg: OracleConfig, p: PhysParams,
             vext: Potential, record) -> np.ndarray:
    """Take ``n_steps`` Strang steps from ``psi`` and return the last
    state, calling ``record(i, psi)`` after every stride-th step and the
    last. Between snapshots the adjacent half rotations merge.

    The steps write into work arrays this call owns; a recorded state is a
    fresh array, which ``record`` keeps.
    """
    base = 0.0 + p.m * vext.field(grid).values
    kin = np.exp(-0.5j * p.hbar_eff * grid.k**2 * cfg.dt / p.m)
    full = -1j * cfg.dt / p.hbar_eff
    half = 0.5 * full
    v_max = 0.5 * p.hbar_eff / cfg.dt
    row = np.empty(grid.n)
    rot = np.empty(grid.n, dtype=complex)
    wave = np.empty(grid.n, dtype=complex)
    spec = np.empty(grid.n, dtype=complex)
    v = _potential(psi, base, p, cfg.nonlinearity, row)
    _check_rotation(v, v_max, cfg, p)
    np.exp(np.multiply(half, v, out=rot), out=rot)
    for i in range(1, n_steps + 1):
        grid.fft(np.multiply(psi, rot, out=wave), out=spec)
        psi = grid.ifft(np.multiply(kin, spec, out=spec), out=wave)
        snap = i % cfg.snapshot_stride == 0 or i == n_steps
        v = _potential(psi, base, p, cfg.nonlinearity, row)
        if i < n_steps:
            _check_rotation(v, v_max, cfg, p)
        np.exp(np.multiply(half if snap else full, v, out=rot), out=rot)
        if snap:
            psi = psi * rot
            record(i, psi)
    return psi


def run_oracle(initial: WaveState, cfg: OracleConfig, p: PhysParams,
               vext: Potential) -> WaveTrajectory:
    """Integrate the wave equation, recording every stride-th snapshot."""
    grid = initial.grid
    n_steps = whole_steps(cfg.t_end, cfg.dt)
    t0 = initial.t
    traj = WaveTrajectory(snapshots=[])

    def record(i, arr):
        traj.snapshots.append(WaveState(t0 + i * cfg.dt, grid, arr))

    record(0, initial.psi)
    if n_steps:
        _advance(initial.psi, n_steps, grid, cfg, p, vext, record)
    return traj


def waves_from_states(traj: Trajectory, p: PhysParams) -> WaveTrajectory:
    """Convert a hydrodynamic trajectory through the Madelung map."""
    return WaveTrajectory([to_wavefunction(s, p) for s in traj.snapshots])


@dataclass
class CompareResult:
    times: np.ndarray
    density_error: np.ndarray
    phase_error: np.ndarray

    @property
    def max_density_error(self) -> float:
        return float(self.density_error.max())

    @property
    def max_phase_error(self) -> float:
        return float(self.phase_error.max())


def compare(hydro: Trajectory, wave: WaveTrajectory, p: PhysParams) -> CompareResult:
    """Snapshot-by-snapshot discrepancy between the two solvers.

    Density: relative L2 error of rho against |psi|^2. Phase: the pointwise
    angle of ``psi_oracle conj(psi_hydro)`` with the density-weighted
    best-fit constant removed, reported as a density-weighted RMS (in
    radians). Comparing phases in wavefunction space sidesteps phase
    extraction in near-empty regions.
    """
    if len(hydro.snapshots) != len(wave.snapshots):
        raise ValueError("trajectories hold different numbers of snapshots")
    ta, tb = hydro.times, wave.times
    if len(ta) and np.abs(ta - tb).max() > 1e-9 * max(1.0, np.abs(tb).max()):
        raise ValueError("trajectories are sampled at different times")
    dens_err = np.empty(len(ta))
    phase_err = np.empty(len(ta))
    for j, (s, w) in enumerate(zip(hydro.snapshots, wave.snapshots)):
        if s.grid != w.grid:
            raise ValueError("trajectories live on different grids")
        rho_h = np.exp(s.lam.values)
        rho_o = np.abs(w.psi) ** 2
        dens_err[j] = np.linalg.norm(rho_h - rho_o) / np.linalg.norm(rho_o)
        psi_h = to_wavefunction(s, p).psi
        cross = w.psi * np.conj(psi_h)
        # density-weighted circular mean and residual spread
        mean_angle = np.angle(np.sum(cross * rho_o))
        delta = np.angle(cross * np.exp(-1j * mean_angle))
        wsum = rho_o.sum()
        phase_err[j] = float(np.sqrt(np.sum(rho_o * delta**2) / wsum))
    return CompareResult(times=ta.copy(), density_error=dens_err,
                         phase_error=phase_err)
