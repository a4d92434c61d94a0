"""The built-in scenario suite.

Five runs, each exercising one capability:

equilibrium      cosine trap, Boltzmann density, zero velocity. An exact
                 fixed point of the discrete system; drift is pure roundoff.
traveling        5% acoustic cosine perturbation on a uniform background,
                 classical terms only, one sound crossing. Stays far from
                 wave steepening (steepening time ~ 20 crossings).
traveling_action traveling with every step recorded, short horizon; dense
                 snapshots feed the action quadrature.
trap             quantum + thermal gaussian in a harmonic trap over one
                 trap period, cross-checked against the wave oracle. The
                 initial state is the refined equilibrium profile (an
                 exact discrete fixed point) with a 5% core bump to make
                 the densities actually move. kT is chosen so the
                 equilibrium width is 0.18: the seam density then sits at
                 2% of the peak, and the log-density gradient at the seam
                 stays small enough that the advective (kT/m)^(1/2) |grad
                 lam| / 2 growth channel cannot amplify roundoff into
                 visible noise within a period. Narrower wells look
                 quieter at first but the seam channel e-folds like
                 pi L / (2 sigma) per period, independent of hbar and
                 omega, and overwhelms any time step by sigma ~ 0.12.
free             quantum-only packet spreading freely until its width
                 doubles, against the linear oracle and the analytic
                 width law. Width 0.13 is the same seam compromise from
                 the other side: narrow enough that the periodic images
                 overlap weakly, wide enough that the seam log-gradient
                 k-scaled growth (rate ~ hbar k |grad lam| / 2m at the
                 dealiasing edge) starts slowly. It does not stay below
                 one e-fold: the run survives only because RK4 at its
                 step, 0.94 of the quantum bound, damps the top retained
                 modes, so it is not converged in dt (at dt/2 the seam
                 density crosses the floor at t = 0.216).
                 On a ring the analytic infinite-line width law is only
                 approximate; the self-interference of the wrapped tails
                 shifts the fitted width at the few-percent level once
                 the packet has spread into its images. kT only sets the
                 kernel length; the thermal term is off and the
                 dispersion scale is kT-independent. No pedestal: one
                 seeds interference nulls where the spreading tail meets
                 it, and the log-density picture cannot cross a null.

Time steps sit under the quantum stability bound (0.5 dx^2 m / hbar_eff:
trap 1.53e-4, free 6.36e-5) and the snapshot strides of hydro and oracle
land on identical sample times.
"""

from __future__ import annotations

import dataclasses
import math

from .grid import Grid
from .madelung import SolverConfig
from .scenario import (ExternalCosine, ExternalHarmonic, ExternalZero,
                       InitialCosine, InitialEquilibrium, InitialGaussian,
                       OracleSpec, PhysSpec, Scenario, TermSpec)

__all__ = ["equilibrium", "traveling", "traveling_action", "trap", "free",
           "suite"]


def equilibrium() -> Scenario:
    return Scenario(
        name="equilibrium",
        grid=Grid(n=128, length=1.0),
        physics=PhysSpec(hbar=1.0, mass=1.0, kT=1.0, a2=None, c=1.0),
        terms=TermSpec(thermo=True, quantum=False, quantum_order=1),
        initial=InitialEquilibrium(mean_density=1.0, amplitude=0.0,
                                   width=None, center=None),
        external=ExternalCosine(v0=0.3),
        kernel=None,
        solver=SolverConfig(dt=2e-3, t_end=10.0, snapshot_stride=250),
        oracle=OracleSpec(),
    )


def traveling() -> Scenario:
    return Scenario(
        name="traveling",
        grid=Grid(n=256, length=1.0),
        physics=PhysSpec(),
        terms=TermSpec(thermo=True, quantum=False),
        initial=InitialCosine(base=1.0, amplitude=0.05, mode=1, phase=0.0,
                              phi_amplitude=0.0, phi_mode=1, phi_phase=0.0),
        external=ExternalZero(),
        kernel=None,
        solver=SolverConfig(dt=5e-4, t_end=1.0, snapshot_stride=20),
        oracle=OracleSpec(),
    )


def traveling_action() -> Scenario:
    return dataclasses.replace(
        traveling(), name="traveling_action",
        solver=SolverConfig(dt=1e-3, t_end=0.4, snapshot_stride=1))


def trap() -> Scenario:
    hbar = 0.05
    omega = 8.0 * math.pi
    sigma = 0.18
    # stationary-width condition for the quantum thermal gaussian
    kT = omega**2 * sigma**2 - (hbar**2 / 2.0) / (2.0 * sigma**2)
    return Scenario(
        name="trap",
        grid=Grid(n=256, length=1.0),
        physics=PhysSpec(hbar=hbar, mass=1.0, kT=kT, a2=None, c=1.0),
        terms=TermSpec(thermo=True, quantum=True, quantum_order=1),
        initial=InitialEquilibrium(mean_density=1.0, amplitude=0.05,
                                   width=sigma, center=0.5),
        external=ExternalHarmonic(omega=omega),
        kernel=None,
        solver=SolverConfig(dt=5e-5, t_end=0.25, snapshot_stride=1250),
        oracle=OracleSpec(dt=2.5e-5, t_end=0.25, snapshot_stride=2500),
    )


def free() -> Scenario:
    return Scenario(
        name="free",
        grid=Grid(n=256, length=1.0),
        physics=PhysSpec(hbar=0.12, mass=1.0, kT=1.0, a2=None, c=1.0),
        terms=TermSpec(thermo=False, quantum=True, quantum_order=1),
        initial=InitialGaussian(center=0.5, width=0.13, amplitude=1.0,
                                boost=0.0, pedestal=0.0),
        external=ExternalZero(),
        kernel=None,
        solver=SolverConfig(dt=6e-5, t_end=0.492, snapshot_stride=2050),
        oracle=OracleSpec(),
    )


def suite() -> dict[str, Scenario]:
    """All presets, keyed by name, in run order."""
    fns = (equilibrium, traveling, traveling_action, trap, free)
    return {f.__name__: f() for f in fns}
