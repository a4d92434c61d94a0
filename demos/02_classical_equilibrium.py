"""A thermal fluid resting in a trap, and the numbers that prove it.

The `equilibrium` preset puts an isothermal fluid in a harmonic well
with the Boltzmann profile rho ~ exp(-m V / kT). That profile makes the
Bernoulli head (kT/m)(lam + 1) + V spatially flat, so nothing has any
reason to move. We run it for a while and watch the diagnostics agree.
"""

import dataclasses

import numpy as np

from qfluid import build, presets
from qfluid.madelung import run, velocity

scn = presets.equilibrium()
# the stock preset runs to t = 10; a fifth of that already makes the point
scn = dataclasses.replace(
    scn, solver=dataclasses.replace(scn.solver, t_end=2.0))

setup = build(scn)
grid, params, vext = scn.grid, setup.params, setup.vext

theta = params.kT / params.m
rho0 = np.exp(setup.state.lam.values)
boltz = np.exp(-vext.field(grid).values / theta)
boltz *= rho0.mean() / boltz.mean()
print("initial profile vs exp(-m V / kT), max rel diff: %.3e"
      % np.abs(rho0 / boltz - 1.0).max())
print()

traj = run(setup.state, scn.solver, setup.flags, params, vext)

print("   t      mass            energy         bernoulli    max |v|")
for s, r in zip(traj.snapshots, traj.records):
    vmax = np.abs(velocity(s).values).max()
    print("%6.2f  %.12f  %.12f  %9.3e  %9.3e"
          % (r.t, r.mass, r.energy, r.bernoulli_residual, vmax))

masses = np.array([r.mass for r in traj.records])
print()
print("mass drift over the run: %.3e (relative)"
      % (np.abs(masses - masses[0]).max() / masses[0]))
print("the flat Bernoulli column is the equilibrium condition; the")
print("velocity stays at spectral roundoff because nothing drives it")
