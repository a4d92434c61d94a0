"""Finite-propagation-speed forms of the quantum potential.

Two objects live here. ``dalembert_uq`` replaces the Laplacian acting on
sqrt(rho) with the wave operator

    box = (1/c^2) d^2/dt^2 - lap ,

so U_Q = 2 (kT/m) a^2 box sqrt(rho) / sqrt(rho); for static histories it
reduces exactly to the instantaneous sqrt-form potential. ``retarded_energy``
evaluates the non-local kernel energy with each pair interaction read off
at the emission time t - |x - x'| / c, interpolated from a stored density
history. Both need a short ring buffer of recent log-density snapshots,
provided by ``DensityHistory``.

Time derivatives are centered second order, so histories must be sampled
on a uniform time step.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import Field, Grid
from .kernels import Kernel
from .params import PhysParams

__all__ = [
    "DensityHistory",
    "dalembert_uq",
    "retarded_energy",
]


@dataclass
class DensityHistory:
    """Ring buffer of log-density snapshots on a shared uniform time step.

    Snapshots are held oldest first. ``push`` appends and drops the oldest
    once ``capacity`` is reached. At least 5 slots are required so the
    retarded lookback spans more than the centered-stencil neighborhood.
    """

    grid: Grid
    capacity: int
    times: list[float] = field(default_factory=list)
    lams: list[np.ndarray] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.capacity < 5:
            raise ValueError(f"capacity must be >= 5, got {self.capacity}")
        if len(self.times) != len(self.lams):
            raise ValueError("times and lams must have equal length")

    def __len__(self) -> int:
        return len(self.times)

    @property
    def dt(self) -> float:
        if len(self.times) < 2:
            raise ValueError("history holds fewer than two snapshots")
        return self.times[1] - self.times[0]

    def push(self, t: float, lam: Field) -> None:
        if lam.grid != self.grid:
            raise ValueError("snapshot grid differs from history grid")
        if self.times:
            dt = t - self.times[-1]
            if not dt > 0:
                raise ValueError(f"snapshot times must increase, got step {dt}")
            if len(self.times) >= 2:
                dt0 = self.times[1] - self.times[0]
                if abs(dt - dt0) > 1e-9 * dt0:
                    raise ValueError(
                        f"non-uniform history step: {dt} after {dt0}"
                    )
        self.times.append(float(t))
        self.lams.append(lam.values.copy())
        if len(self.times) > self.capacity:
            self.times.pop(0)
            self.lams.pop(0)

    @classmethod
    def from_trajectory(cls, traj, capacity: int | None = None) -> "DensityHistory":
        """Build from the last ``capacity`` snapshots of a trajectory."""
        snaps = traj.snapshots
        if not snaps:
            raise ValueError("trajectory holds no snapshots")
        if capacity is None:
            capacity = max(5, len(snaps))
        h = cls(grid=snaps[0].grid, capacity=capacity)
        for s in snaps[-capacity:]:
            h.push(s.t, s.lam)
        return h


def _require(history: DensityHistory, n: int, what: str) -> None:
    if len(history) < n:
        raise ValueError(
            f"{what} needs at least {n} snapshots, history holds {len(history)}"
        )


def dalembert_uq(history: DensityHistory, p: PhysParams) -> Field:
    """Wave-operator quantum potential at the middle of the history.

    Evaluated at the snapshot nearest the center (clamped one in from the
    ends so the centered time stencil fits). A history of identical
    snapshots reproduces the instantaneous sqrt-form potential exactly.
    """
    _require(history, 3, "dalembert_uq")
    grid = history.grid
    dt = history.dt
    ic = min(max((len(history) - 1) // 2, 1), len(history) - 2)
    r_prev = np.exp(0.5 * history.lams[ic - 1])
    r_mid = np.exp(0.5 * history.lams[ic])
    r_next = np.exp(0.5 * history.lams[ic + 1])
    dtt = (r_next - 2.0 * r_mid + r_prev) / dt**2
    lap = grid.apply(-grid.half_k2, r_mid)
    box = dtt / p.c**2 - lap
    qc = p.quantum_coefficient
    return Field(grid, qc * box / r_mid, _fresh=True)


def retarded_energy(history: DensityHistory, kernel: Kernel, p: PhysParams) -> Field:
    """Kernel energy with pairwise light-cone retardation.

    Returns (kT/m) int u(x - x') lam(x', t - |x - x'|/c) dx' on the grid,
    evaluated at the newest stored time. Separations are periodic minimal
    distances; past values come from linear interpolation in the stored
    history, which must reach back at least L / (2c).
    """
    _require(history, 2, "retarded_energy")
    if kernel.grid != history.grid:
        raise ValueError("kernel grid differs from history grid")
    grid = history.grid
    dt = history.dt
    n = grid.n
    span = (len(history) - 1) * dt
    horizon = 0.5 * grid.length / p.c
    if span < horizon - 1e-12 * max(horizon, 1.0):
        raise ValueError(
            f"history spans {span:.6g} but retardation needs {horizon:.6g}; "
            "store more snapshots or raise c"
        )
    t_new = history.times[-1]
    stack = np.stack(history.lams)          # (K, n), oldest first
    x = grid.x
    sep = np.abs(x[:, None] - x[None, :])
    sep = np.minimum(sep, grid.length - sep)
    t_ret = t_new - sep / p.c               # (n, n)
    # fractional index into the uniform time stack
    s = (t_ret - history.times[0]) / dt
    s = np.clip(s, 0.0, len(history) - 1.0)
    i0 = np.floor(s).astype(int)
    i0 = np.minimum(i0, len(history) - 2)
    frac = s - i0
    cols = np.arange(n)[None, :]
    lam_ret = (1.0 - frac) * stack[i0, cols] + frac * stack[i0 + 1, cols]
    idx = (np.arange(n)[None, :] - np.arange(n)[:, None]) % n
    weights = kernel.values[idx]            # u(x_i - x_j) by periodicity
    conv = np.sum(weights * lam_ret, axis=1) * grid.dx
    return Field(grid, (p.kT / p.m) * conv, _fresh=True)
