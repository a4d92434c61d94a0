"""Physical parameters and external potentials.

Units follow the hydrodynamic convention used throughout the package:
``phi`` is a velocity potential (velocity is -grad phi), so every potential
term in the Bernoulli equation is an energy per unit mass. The external
potential ``V_e`` is therefore specified per unit mass as well; the
wavefunction oracle multiplies it by ``m`` where a per-particle energy is
required.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import Field, Grid

__all__ = ["PhysParams", "ExternalPotential"]

@dataclass(frozen=True)
class PhysParams:
    """Fluid constants and the kernel length that sets the quantum term.

    ``a2_explicit`` states the squared kernel length ``a^2`` (a kernel's
    second moment gives it); ``None`` means the thermal de Broglie length:

    * ``a2_explicit = None``: ``a^2 = hbar^2 / (4 m kT)``. Requires
      ``kT > 0``. The quantum coefficient ``2 (kT/m) a^2`` is then exactly
      ``hbar^2 / (2 m^2)``, independent of temperature.
    * ``a2_explicit`` a number: ``a^2`` is taken at face value; it may be
      negative (for example a plain Gaussian kernel gives ``-s^2``), in
      which case no real effective Planck constant exists and quantum
      evolution is rejected.
    """

    hbar: float = 1.0
    m: float = 1.0
    kT: float = 1.0
    a2_explicit: float | None = None
    c: float = 1.0

    def __post_init__(self) -> None:
        if not self.hbar > 0:
            raise ValueError(f"hbar must be > 0, got {self.hbar}")
        if not self.m > 0:
            raise ValueError(f"mass must be > 0, got {self.m}")
        if self.kT < 0:
            raise ValueError(f"kT must be >= 0, got {self.kT}")
        if not self.c > 0:
            raise ValueError(f"signal speed c must be > 0, got {self.c}")
        if self.a2_explicit is None and not self.kT > 0:
            raise ValueError(
                "kT > 0 is needed for the de Broglie kernel length"
                " a = hbar / sqrt(4 m kT), which diverges at zero"
                " temperature; or state an explicit a2"
            )

    @property
    def a2(self) -> float:
        """Squared kernel length: ``a2_explicit``, else the de Broglie one."""
        if self.a2_explicit is None:
            return self.hbar**2 / (4.0 * self.m * self.kT)
        return float(self.a2_explicit)

    @property
    def quantum_coefficient(self) -> float:
        """Coefficient of the quantum potential, ``2 (kT/m) a^2``.

        Evaluated as ``hbar^2 / (2 m^2)`` for the de Broglie length so the
        exact temperature cancellation survives floating point.
        """
        if self.a2_explicit is None:
            return self.hbar**2 / (2.0 * self.m**2)
        return 2.0 * (self.kT / self.m) * float(self.a2_explicit)

    @property
    def hbar_eff(self) -> float:
        """Effective Planck constant of the equivalent wave equation.

        ``hbar`` itself for the de Broglie length, else
        ``2 m sqrt((kT/m) a^2)``.
        """
        if self.a2_explicit is None:
            return self.hbar
        val = (self.kT / self.m) * float(self.a2_explicit)
        if not val > 0:
            raise ValueError(
                "no real effective Planck constant: an explicit a2 needs"
                f" (kT/m) * a2 > 0, got {val}"
            )
        return 2.0 * self.m * math.sqrt(val)


def _csv_columns(path, what: str, name: str):
    """The columns ``(x, name)`` of a two-column CSV under one header line;
    ValueError, naming the path, unless it has exactly two."""
    data = np.loadtxt(path, delimiter=",", comments="#", skiprows=1, ndmin=2)
    if data.shape[1] != 2:
        raise ValueError(
            f"{what} CSV {path} must have exactly two columns (x, {name})")
    return data[:, 0], data[:, 1]


_EXTERNAL_KINDS = ("zero", "harmonic", "cosine", "tabulated")


@dataclass(frozen=True, eq=False)
class ExternalPotential:
    """External potential per unit mass on the periodic box.

    Kinds
    -----
    zero
        Identically zero.
    harmonic
        ``0.5 omega^2 (x - L/2)^2`` about the box center, evaluated on the
        periodic coordinate. The parabola has a corner at the box seam, so
        scenarios must keep the fluid essentially empty there.
    cosine
        ``v0 cos(2 pi x / L)``.
    tabulated
        Linear interpolation of a sampled table over ``[0, L]``; the first
        and last samples must agree (periodic continuity).
    """

    kind: str = "zero"
    omega: float = 0.0
    v0: float = 0.0
    table_x: np.ndarray | None = field(default=None, repr=False)
    table_v: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.kind not in _EXTERNAL_KINDS:
            raise ValueError(
                f"external potential kind must be one of {_EXTERNAL_KINDS}, got {self.kind!r}"
            )
        if self.kind == "harmonic" and not self.omega > 0:
            raise ValueError(f"harmonic potential needs omega > 0, got {self.omega}")
        if self.kind == "tabulated":
            if self.table_x is None or self.table_v is None:
                raise ValueError("tabulated potential needs table_x and table_v")
            tx = np.asarray(self.table_x, dtype=float)
            tv = np.asarray(self.table_v, dtype=float)
            if tx.ndim != 1 or tx.shape != tv.shape or tx.size < 2:
                raise ValueError("potential table must be two matching 1d columns")
            if np.any(np.diff(tx) <= 0):
                raise ValueError("potential table abscissae must increase")
            scale = max(1.0, float(np.abs(tv).max()))
            if abs(float(tv[0] - tv[-1])) > 1e-12 * scale:
                raise ValueError(
                    "tabulated potential is not periodic: first and last samples differ"
                )

    @classmethod
    def zero(cls) -> "ExternalPotential":
        return cls(kind="zero")

    @classmethod
    def harmonic(cls, omega: float) -> "ExternalPotential":
        return cls(kind="harmonic", omega=float(omega))

    @classmethod
    def cosine(cls, v0: float) -> "ExternalPotential":
        return cls(kind="cosine", v0=float(v0))

    @classmethod
    def tabulated(cls, xs, vs) -> "ExternalPotential":
        return cls(
            kind="tabulated",
            table_x=np.array(xs, dtype=float),
            table_v=np.array(vs, dtype=float),
        )

    @classmethod
    def from_csv(cls, path) -> "ExternalPotential":
        return cls.tabulated(*_csv_columns(path, "potential", "V"))

    def field(self, grid: Grid) -> Field:
        """Sample the potential on the grid."""
        if self.kind == "zero":
            return Field.constant(grid, 0.0)
        if self.kind == "harmonic":
            d = grid.x - 0.5 * grid.length
            return Field(grid, 0.5 * self.omega**2 * d**2, _fresh=True)
        if self.kind == "cosine":
            vals = self.v0 * np.cos(2.0 * np.pi * grid.x / grid.length)
            return Field(grid, vals, _fresh=True)
        tx = np.asarray(self.table_x, dtype=float)
        tv = np.asarray(self.table_v, dtype=float)
        span = tx[-1] - tx[0]
        pos = tx[0] + np.mod(grid.x - tx[0], span)
        return Field(grid, np.interp(pos, tx, tv), _fresh=True)
