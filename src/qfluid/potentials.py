"""Thermodynamic, quantum, and variational potentials.

The homentropic ideal-fluid closure used everywhere here is

    U_th = (kT/m) ln rho        internal energy per unit mass
    H_th = (kT/m) (ln rho + 1)  enthalpy, H = d(rho U)/d rho
    p    = (kT/m) rho           pressure, p/rho = H - U

The leading non-local correction is the quantum (Bohm) potential. With
``lam = ln rho`` it has two algebraically identical closed forms,

    U_Q = -(kT/m) a^2 [lap lam + (grad lam)^2 / 2]
        = -2 (kT/m) a^2 lap(sqrt rho) / sqrt rho,

related through ``lap sqrt(rho)/sqrt(rho) = lap(lam)/2 + (grad lam)^2/4``.
Both are provided; their mutual residual is a cheap discretization check.
They are the first term of the gradient series whose whole sum, the
solver's closure, is :func:`qfluid.madelung.quantum_potential`; here
they stay as its closed-form referee.
"""

from __future__ import annotations

import numpy as np

from .grid import Field, derivative
from .kernels import _check_positive_density
from .params import PhysParams

__all__ = [
    "internal_energy",
    "enthalpy",
    "pressure",
    "log_density",
    "bohm_potential",
    "bohm_potential_log",
    "bohm_identity_residual",
    "quantum_lagrangian_energy",
    "euler_lagrange_oracle",
]

_FORMS = ("gradient_form", "sqrt_form")


def internal_energy(rho: Field, p: PhysParams) -> Field:
    """``(kT/m) ln rho``."""
    _check_positive_density(rho)
    return Field(rho.grid, (p.kT / p.m) * np.log(rho.values), _fresh=True)


def enthalpy(rho: Field, p: PhysParams) -> Field:
    """``(kT/m) (ln rho + 1)``."""
    _check_positive_density(rho)
    return Field(rho.grid, (p.kT / p.m) * (np.log(rho.values) + 1.0), _fresh=True)


def pressure(rho: Field, p: PhysParams) -> Field:
    """Ideal isothermal pressure ``(kT/m) rho``."""
    _check_positive_density(rho)
    return Field(rho.grid, (p.kT / p.m) * rho.values, _fresh=True)


def bohm_potential(rho: Field, p: PhysParams, form: str = "gradient_form") -> Field:
    """Quantum potential in either closed form.

    The coefficient is ``2 (kT/m) a^2``; for the de Broglie length it is
    ``hbar^2 / (2 m^2)`` exactly, so the result does not depend on kT.
    The sqrt form takes ``sqrt(rho)`` from the density itself, without a
    round trip through ``ln rho``.
    """
    _check_positive_density(rho)
    if form == "sqrt_form":
        return _sqrt_form(np.sqrt(rho.values), rho.grid, p)
    return bohm_potential_log(log_density(rho), p, form)


def log_density(rho: Field) -> Field:
    """``ln rho`` as a field (no positivity re-check)."""
    return Field(rho.grid, np.log(rho.values), _fresh=True)


def bohm_potential_log(lam: Field, p: PhysParams, form: str = "gradient_form") -> Field:
    """Quantum potential evaluated from ``lam = ln rho``."""
    if form not in _FORMS:
        raise ValueError(f"form must be one of {_FORMS}, got {form!r}")
    if form == "sqrt_form":
        return _sqrt_form(np.exp(0.5 * lam.values), lam.grid, p)
    d1 = derivative(lam, 1).values
    d2 = derivative(lam, 2).values
    vals = -0.5 * p.quantum_coefficient * (d2 + 0.5 * d1**2)
    return Field(lam.grid, vals, _fresh=True)


def _sqrt_form(root: np.ndarray, grid, p: PhysParams) -> Field:
    """``-qc lap(root) / root`` for ``root = sqrt(rho)``."""
    lap = derivative(Field(grid, root, _fresh=True), 2).values
    return Field(grid, -p.quantum_coefficient * lap / root, _fresh=True)


def bohm_identity_residual(rho: Field, p: PhysParams) -> float:
    """Max relative residual between the two quantum-potential forms.

    A constant density makes both forms vanish; the 0/0 is resolved to 0 by
    convention.
    """
    _check_positive_density(rho)
    lam = np.log(rho.values)
    if np.ptp(lam) <= 1e-14 * (1.0 + np.abs(lam).max()):
        return 0.0
    lf = Field(rho.grid, lam, _fresh=True)
    ga = bohm_potential_log(lf, p, "gradient_form").values
    sa = bohm_potential_log(lf, p, "sqrt_form").values
    denom = np.abs(sa).max()
    if denom == 0.0:
        return 0.0
    return float(np.abs(ga - sa).max() / denom)


def quantum_lagrangian_energy(rho: Field, a: float, p: PhysParams) -> float:
    """``int L_Q dx`` with ``L_Q = -(kT/m) a^2 (grad rho)^2 / (2 rho)``."""
    drho = derivative(rho, 1).values
    dens = -0.5 * (p.kT / p.m) * float(a) ** 2 * drho**2 / rho.values
    return float(np.sum(dens) * rho.grid.dx)


def euler_lagrange_oracle(rho: Field, a: float, p: PhysParams,
                          delta: float = 1e-6) -> Field:
    """Brute-force variational check of the quantum potential.

    Bumps the density one node at a time (symmetrically, relative bump size
    ``delta``) and differences ``int L_Q dx``. The potential enters the
    Bernoulli equation as minus the functional derivative of the quantum
    Lagrangian, so the negated derivative is returned; it should match
    ``bohm_potential(..., "gradient_form")`` with the same ``a``.

    O(n^2) work; intended for small grids.
    """
    if not (1e-8 <= delta <= 1e-4):
        raise ValueError(f"delta must lie in [1e-8, 1e-4], got {delta}")
    _check_positive_density(rho)
    g = rho.grid
    h = delta * float(np.abs(rho.values).max())
    dE = np.empty(g.n)
    base = rho.values
    for i in range(g.n):
        plus = base.copy()
        plus[i] += h
        e_plus = quantum_lagrangian_energy(Field(g, plus, _fresh=True), a, p)
        minus = base.copy()
        minus[i] -= h
        e_minus = quantum_lagrangian_energy(Field(g, minus, _fresh=True), a, p)
        dE[i] = (e_plus - e_minus) / (2.0 * h * g.dx)
    return Field(g, -dE, _fresh=True)
