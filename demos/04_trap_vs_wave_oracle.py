# Cross-check: the fluid solver against the split-step wave oracle.
#
# A quantum fluid in a harmonic trap, nudged off equilibrium by a small
# density bump, sloshes. The same initial condition, mapped to a
# wavefunction and evolved by an independent split-step integrator of
# the nonlinear wave equation, must slosh identically. The two codes
# share nothing past the grid module, so agreement at 1e-6 is a real
# statement about both.

import dataclasses

from qfluid import build, presets
from qfluid.madelung import run
from qfluid.schrodinger import compare, run_oracle, to_wavefunction

scn = presets.trap()
# one slosh period is plenty for a demo; keep the snapshot times of the
# two runs aligned (oracle takes two half steps per solver step)
scn = dataclasses.replace(
    scn,
    solver=dataclasses.replace(scn.solver, t_end=0.05, snapshot_stride=250),
    oracle=dataclasses.replace(scn.oracle, t_end=0.05, snapshot_stride=500))

setup = build(scn)
params = setup.params

print("trap run: n = %d, hbar = %g, kT = %.4f, %d fluid steps"
      % (scn.grid.n, params.hbar, params.kT,
         round(scn.solver.t_end / scn.solver.dt)))

traj = run(setup.state, scn.solver, setup.flags, params, setup.vext)
wtraj = run_oracle(to_wavefunction(setup.state, params), setup.oracle, params,
                   setup.vext)
res = compare(traj, wtraj, params)

print()
print("    t     L2 density error   phase error")
for t, de, pe in zip(res.times, res.density_error, res.phase_error):
    print("  %5.3f      %.3e       %.3e" % (t, de, pe))
print()
print("worst density error %.3e, worst phase error %.3e"
      % (res.max_density_error, res.max_phase_error))
