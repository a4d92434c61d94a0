"""Properties of the Madelung map and the dynamics on random smooth states.

``from_wavefunction`` inverts ``to_wavefunction`` on every winding-free
state, up to the zero-mean convention for phi. A short run conserves mass
to 1e-12. Mass, a sum of ``exp(lam)``, is not linear in the RK4 state, so
RK4 keeps it only to its truncation error: at half the quantum step bound
(n = 32, hbar = 0.05) 50 steps drift by 1.5e-10. The runs here step at
most a tenth of that bound, where the error sits at roundoff.

The state check's one fast test passes a state only where its tests one
by one pass it too, so every abort keeps its kind, time and message.
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from qfluid.grid import Field, Grid  # noqa: E402
from qfluid.madelung import (SolverAbort, SolverConfig, State,  # noqa: E402
                             TermFlags, _state_check, run, stability_bound)
from qfluid.params import ExternalCosine, ExternalZero, PhysParams  # noqa: E402
from qfluid.schrodinger import from_wavefunction, to_wavefunction  # noqa: E402


def floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def modes(draw, grid, amplitude, n_modes):
    """A sum of the box's first ``n_modes`` cosines, random amplitudes and
    phases."""
    out = np.zeros(grid.n)
    for k in range(1, n_modes + 1):
        a = draw(floats(-amplitude, amplitude))
        shift = draw(floats(0.0, 2.0 * np.pi))
        out += a * np.cos(2.0 * np.pi * k * grid.x / grid.length + shift)
    return out


@settings(derandomize=True, deadline=None, max_examples=100, database=None)
@given(data=st.data(), n=st.sampled_from([64, 128]),
       length=floats(0.5, 2.0), hbar=floats(0.05, 1.0), m=floats(0.5, 2.0))
def test_from_wavefunction_inverts_to_wavefunction(data, n, length, hbar, m):
    grid = Grid(n=n, length=length)
    lam = data.draw(modes(grid, 2.0, 3))
    # phase steps between samples stay below pi: 5 (1 + 2 + 3) 2 pi / 64
    phase = data.draw(modes(grid, 5.0, 3))
    p = PhysParams(hbar=hbar, m=m, kT=1.0)
    phi = -(p.hbar_eff / m) * phase
    s = State(0.25, Field(grid, lam), Field(grid, phi))
    back = from_wavefunction(to_wavefunction(s, p), p)
    assert back.t == s.t
    assert np.abs(back.lam.values - lam).max() <= 1e-13
    atol = 1e-12 * (p.hbar_eff / m) * (1.0 + np.abs(phase).max())
    assert np.abs(back.phi.values - (phi - phi.mean())).max() <= atol


@settings(derandomize=True, deadline=None, max_examples=60, database=None)
@given(data=st.data(), n=st.sampled_from([32, 64]),
       thermo=st.booleans(), quantum=st.booleans(),
       hbar=floats(0.05, 0.3), kT=floats(0.5, 2.0),
       v0=st.none() | floats(-1.0, 1.0), frac=floats(0.01, 0.1))
def test_short_runs_conserve_mass(data, n, thermo, quantum, hbar, kT, v0,
                                  frac):
    grid = Grid(n=n, length=1.0)
    lam = data.draw(modes(grid, 0.2, 2))
    # velocity amplitudes below 0.1 per mode
    phi = sum(data.draw(floats(-0.1, 0.1)) / (2.0 * np.pi * k)
              * np.sin(2.0 * np.pi * k * grid.x + data.draw(floats(0.0, 6.3)))
              for k in (1, 2))
    p = PhysParams(hbar=hbar, m=1.0, kT=kT)
    flags = TermFlags(thermo=thermo, quantum=quantum)
    # no v0 draws the zero potential
    vext = ExternalZero() if v0 is None else ExternalCosine(v0)
    dt = frac * stability_bound(grid, p, TermFlags(quantum=True))
    s = State(0.0, Field(grid, lam), Field(grid, phi))
    traj = run(s, SolverConfig(dt=dt, t_end=20 * dt, snapshot_stride=20),
               flags, p, vext)
    assert traj.status == "ok"
    first, last = traj.records[0].mass, traj.records[-1].mass
    assert abs(last - first) <= 1e-12 * first


def _tests_one_by_one(rows, grid, floor, t):
    """``(kind, message)`` of the abort the state check's tests, taken one
    by one, word for ``rows`` ``(lam, phi)``; None if they all pass."""
    lam, x = rows[0], grid.x
    if not np.isfinite(rows).all():
        return "blowup", f"state stopped being finite at t={t:.6g}"
    if lam.max() > math.log(np.finfo(float).max) - math.log(2 * grid.n):
        j = int(np.argmax(lam))
        return "blowup", (f"density overflows at t={t:.6g}: lam={lam[j]:.6g}"
                          f" at node {j} (x={x[j]:.6g})")
    rho = np.exp(lam)
    mean, mn = float(rho.mean()), float(rho.min())
    if mn <= floor * mean:
        # every density underflows to 0 below lam = -745: share 0 / 0
        share = mn / mean if mean > 0 else math.nan
        j = int(np.argmin(rho))
        return "vacuum", (f"density floor crossed at t={t:.6g}: rho={mn:.3e}"
                          f" ({share:.3e} of mean) at node {j}"
                          f" (x={x[j]:.6g})")
    return None


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(data=st.data(), n=st.sampled_from([8, 64, 256]),
       floor=st.sampled_from([1e-12, 1e-3, 0.5, 1e-300]),
       t=floats(0.0, 10.0), seed=st.integers(0, 2**32 - 1))
def test_state_check_aborts_where_its_tests_one_by_one_do(data, n, floor, t,
                                                          seed):
    grid = Grid(n=n, length=1.0)
    rng = np.random.default_rng(seed)
    gap = -math.log(floor)
    top = math.log(np.finfo(float).max) - math.log(2 * n)
    # lam's spread within 1e-6 of -ln floor, about the vacuum edge (1/n
    # above it when one node is low and the rest high) and one drawn
    spreads = gap + np.array([-1e-6, -1e-8, 1e-8, 1e-6, 0.5 / n, 1.0 / n,
                              2.0 / n, data.draw(floats(-gap, gap))])
    # its minimum at a plain density, a subnormal one or none (below
    # -745), or its maximum about the overflow guard
    low = data.draw(floats(-30.0, 30.0) | floats(-746.0, -736.0)
                    | st.just(-760.0))
    high = data.draw(st.none() | floats(-1.0, 1.0))
    shape = np.ones(n) if data.draw(st.booleans()) else rng.uniform(size=n)
    shape[rng.permutation(n)[:2]] = 0.0, 1.0
    # phi plain, or finite and summing past the float maximum
    phi = (rng.standard_normal(n) if data.draw(st.booleans())
           else rng.uniform(0.5e308, 1e308, n))
    # no entry, or one NaN or infinity at an end or a drawn node
    node = data.draw(st.integers(0, n - 1))
    specials = [None] + [(row, j, value) for row in (0, 1)
                         for j in (0, node, n - 1)
                         for value in (math.nan, math.inf, -math.inf)]
    for spread in spreads:
        base = low if high is None else top - spread + high
        for special in specials:
            rows = np.array((base + spread * shape, phi))
            if special is not None:
                rows[special[:2]] = special[2]
            want = _tests_one_by_one(rows, grid, floor, t)
            check = _state_check(rows, grid, floor)
            with np.errstate(over="ignore", invalid="ignore"):
                if want is None:
                    check(t)
                    continue
                with pytest.raises(SolverAbort) as info:
                    check(t)
            assert (info.value.kind, str(info.value), info.value.t) == (
                *want, t)
