"""Physical parameters and external potentials.

Units follow the hydrodynamic convention used throughout the package:
``phi`` is a velocity potential (velocity is -grad phi), so every potential
term in the Bernoulli equation is an energy per unit mass. The external
potential ``V_e`` is therefore specified per unit mass as well; the
wavefunction oracle multiplies it by ``m`` where a per-particle energy is
required.

Each kind of external potential (:data:`Potential`) is one class that
checks its own values, names itself in ``kind`` and samples itself with
``field(grid)``; a scenario's ``[external]`` section parses into one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import Field, Grid

__all__ = ["PhysParams", "ExternalZero", "ExternalHarmonic", "ExternalCosine",
           "ExternalTable", "Potential"]

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


@dataclass(frozen=True)
class ExternalZero:
    """No external potential."""

    kind: str = field(default="zero", init=False)

    def field(self, grid: Grid) -> Field:
        return Field.constant(grid, 0.0)


@dataclass(frozen=True)
class ExternalHarmonic:
    """``0.5 omega^2 (x - L/2)^2`` about the box center, evaluated on the
    periodic coordinate. The parabola has a corner at the box seam, so
    scenarios must keep the fluid essentially empty there."""

    kind: str = field(default="harmonic", init=False)
    omega: float

    def __post_init__(self) -> None:
        if not self.omega > 0:
            raise ValueError(
                f"harmonic potential needs omega > 0, got {self.omega}")
        if not math.isfinite(self.omega * self.omega):
            raise ValueError(f"harmonic potential needs a finite omega^2, "
                             f"got omega = {self.omega}")

    def field(self, grid: Grid) -> Field:
        d = grid.x - 0.5 * grid.length
        return Field(grid, 0.5 * self.omega**2 * d**2, _fresh=True)


@dataclass(frozen=True)
class ExternalCosine:
    """``v0 cos(2 pi x / L)``."""

    kind: str = field(default="cosine", init=False)
    v0: float

    def field(self, grid: Grid) -> Field:
        vals = self.v0 * np.cos(2.0 * np.pi * grid.x / grid.length)
        return Field(grid, vals, _fresh=True)


class ExternalTable:
    """Linear interpolation of a sampled potential ``(xs, vs)``, read
    periodically over the table's span; the first and last samples must
    agree (periodic continuity). Hashed by identity, as its arrays are."""

    kind = "tabulated"

    def __init__(self, xs, vs):
        tx, tv = np.array(xs, dtype=float), np.array(vs, dtype=float)
        if tx.ndim != 1 or tx.shape != tv.shape or tx.size < 2:
            raise ValueError("potential table must be two matching 1d columns")
        if np.any(np.diff(tx) <= 0):
            raise ValueError("potential table abscissae must increase")
        scale = max(1.0, float(np.abs(tv).max()))
        if abs(float(tv[0] - tv[-1])) > 1e-12 * scale:
            raise ValueError("tabulated potential is not periodic: first "
                             "and last samples differ")
        self.x, self.v = tx, tv

    @classmethod
    def from_csv(cls, path) -> "ExternalTable":
        return cls(*_csv_columns(path, "potential", "V"))

    def field(self, grid: Grid) -> Field:
        span = self.x[-1] - self.x[0]
        pos = self.x[0] + np.mod(grid.x - self.x[0], span)
        return Field(grid, np.interp(pos, self.x, self.v), _fresh=True)


Potential = ExternalZero | ExternalHarmonic | ExternalCosine | ExternalTable
