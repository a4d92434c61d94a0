# Scenario files, and what a run that dies looks like.
#
# The scenarios/ directory next to this script holds the five stock
# presets (written by serialize(), so they parse back verbatim) plus
# evacuation.ini, a run designed to drain a potential hill dry. This
# script runs the evacuation in-process; from a shell the equivalent is
#
#   qfluid run demos/scenarios/evacuation.ini -o out/
#
# which exits 3 and writes error.json next to the partial snapshots.

import os

import numpy as np

from qfluid import load, parse_scenario, presets, serialize
from qfluid.madelung import run

here = os.path.dirname(os.path.abspath(__file__))

# every preset file on disk round-trips through the parser unchanged
for name, scn in presets.suite().items():
    with open(os.path.join(here, "scenarios", name + ".ini")) as f:
        on_disk = parse_scenario(f.read())
    assert on_disk == scn and serialize(on_disk) == serialize(scn)
print("scenarios/: all five preset files parse back to their presets")
print()

# load() parses, validates and hands back what validation built
with open(os.path.join(here, "scenarios", "evacuation.ini")) as f:
    setup = load(f.read())
scn = setup.scn

print("running '%s' (asked for t_end = %g) ..." % (scn.name, scn.solver.t_end))
traj = run(setup.state, scn.solver, setup.flags, setup.params, setup.vext)

print("status:  %s" % traj.status)
print("message: %s" % traj.message)
print()
print("    t     min density at snapshot")
for s, r in zip(traj.snapshots, traj.records):
    print("  %5.2f    %.3e" % (r.t, r.min_density))
print()
print("%d snapshots survive out of the %d requested; the trajectory is"
      % (len(traj.snapshots), round(scn.solver.t_end / scn.solver.dt
                                    / scn.solver.snapshot_stride) + 1))
print("truncated, not discarded, so the approach to vacuum is on record")
