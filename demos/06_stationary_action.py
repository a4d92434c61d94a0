# The equations of motion are where the action stops changing.
#
# Instead of trusting the algebra that turned the Lagrangian into the
# update rule, test it numerically: integrate a traveling disturbance,
# evaluate the action of the recorded trajectory, then evaluate it again
# on deliberately wrong trajectories nearby. A path that solves the
# equations is a stationary point, so the action difference must scale
# as epsilon^2, not epsilon.

import math

import numpy as np

from qfluid import Field, State, Trajectory, build, presets
from qfluid.madelung import action, run

scn = presets.traveling_action()
setup = build(scn)
grid, params, flags, vext = scn.grid, setup.params, setup.flags, setup.vext

traj = run(setup.state, scn.solver, flags, params, vext)
base = action(traj, flags, params, vext)
print("trajectory of %d snapshots, action S = %.12f"
      % (len(traj.snapshots), base))
print()

# an arbitrary smooth detour, pinned to zero at both endpoints in time
x = grid.x
bump_lam = np.cos(4 * np.pi * x / grid.length + 0.2)
bump_phi = np.sin(2 * np.pi * x / grid.length + 0.7)
t0, t1 = traj.snapshots[0].t, traj.snapshots[-1].t


def detoured(eps):
    snaps = []
    for s in traj.snapshots:
        window = math.sin(math.pi * (s.t - t0) / (t1 - t0))
        snaps.append(State(s.t,
                           Field(grid, s.lam.values + eps * window * bump_lam),
                           Field(grid, s.phi.values + eps * window * bump_phi)))
    return action(Trajectory(snapshots=snaps, records=[]), flags, params, vext)


print("  epsilon     |S(eps) - S|")
diffs = []
for eps in [1e-3, 2e-3, 4e-3, 8e-3]:
    d = abs(detoured(eps) - base)
    diffs.append(d)
    print("  %7.0e    %.6e" % (eps, d))

slopes = [math.log2(b / a) for a, b in zip(diffs, diffs[1:])]
print()
print("doubling epsilon multiplies the difference by 2^p with p =",
      ", ".join("%.3f" % s for s in slopes))
print("p = 2 means the linear response is gone: the recorded path is a")
print("stationary point of the action, as the update rule promised")
