"""Wavefunction oracle: the Madelung map, splitting steps, and compare."""

import dataclasses
import math

import numpy as np
import pytest

from qfluid import presets, schrodinger
from qfluid.grid import Field, Grid
from qfluid.madelung import SolverConfig, State, Trajectory
from qfluid.params import ExternalCosine, ExternalZero, PhysParams
from qfluid.scenario import (build_external, build_initial_state,
                             build_oracle_config, build_params)
from qfluid.schrodinger import (OracleConfig, WaveState, compare,
                                from_wavefunction, oracle_step, run_oracle,
                                to_wavefunction, waves_from_states)


@pytest.fixture
def grid():
    return Grid(n=64, length=2.0)


@pytest.fixture
def p():
    return PhysParams(hbar=0.5, m=1.0, kT=1.0)


ZERO = ExternalZero()


def smooth_state(grid, t=0.0):
    w = 2.0 * np.pi / grid.length
    lam = 0.3 * np.cos(w * grid.x)
    phi = 0.2 * np.sin(w * grid.x)
    phi = phi - phi.mean()
    return State(t, Field(grid, lam), Field(grid, phi))


# ------------------------------------------------------------- Madelung map

def test_wave_state_validation():
    g = Grid(n=16, length=1.0)
    samples = np.exp(1j * g.x)
    w = WaveState(0.0, g, samples)
    assert w.psi.dtype == complex and not w.psi.flags.writeable
    samples[0] = 0.0  # the state holds its own copy
    assert w.psi[0] == 1.0
    with pytest.raises(ValueError, match="shape"):
        WaveState(0.0, g, np.ones(8, dtype=complex))
    with pytest.raises(ValueError, match="finite"):
        WaveState(0.0, g, np.full(16, np.nan + 0j))


def test_wavefunction_round_trip(grid, p):
    s = smooth_state(grid)
    back = from_wavefunction(to_wavefunction(s, p), p)
    assert np.abs(back.lam.values - s.lam.values).max() < 1e-12
    assert np.abs(back.phi.values - s.phi.values).max() < 1e-12


def test_wavefunction_density_matches(grid, p):
    s = smooth_state(grid)
    w = to_wavefunction(s, p)
    assert np.abs(w.density().values - np.exp(s.lam.values)).max() < 1e-12


def test_from_wavefunction_rejects_winding(grid, p):
    psi = np.exp(1j * 2.0 * np.pi * grid.x / grid.length)
    with pytest.raises(ValueError, match="winds"):
        from_wavefunction(WaveState(0.0, grid, psi), p)


def test_from_wavefunction_rejects_near_nodes(grid, p):
    amp = np.full(grid.n, 1.0)
    amp[5] = 1e-8
    with pytest.raises(ValueError, match="phase undefined"):
        from_wavefunction(WaveState(0.0, grid, amp + 0j), p)


# ----------------------------------------------------------------- stepping

def test_free_evolution_is_exact_per_mode(grid, p):
    # V = 0, no nonlinearity: the kinetic factor is the whole propagator,
    # so any dt reproduces the analytic phase exactly
    k1 = 2.0 * np.pi / grid.length
    k2 = 3.0 * k1
    psi0 = np.exp(1j * k1 * grid.x) + 0.5 * np.exp(1j * k2 * grid.x)
    cfg = OracleConfig(dt=0.05, t_end=0.4, nonlinearity=False)
    traj = run_oracle(WaveState(0.0, grid, psi0), cfg, p, ZERO)
    t = 0.4
    h = p.hbar_eff
    want = (np.exp(1j * (k1 * grid.x - h * k1**2 / (2 * p.m) * t))
            + 0.5 * np.exp(1j * (k2 * grid.x - h * k2**2 / (2 * p.m) * t)))
    got = traj.snapshots[-1].psi
    assert np.abs(got - want).max() < 1e-12


def test_oracle_conserves_norm(grid, p):
    s = smooth_state(grid)
    w0 = to_wavefunction(s, p)
    cfg = OracleConfig(dt=1e-3, t_end=0.05, snapshot_stride=10)
    traj = run_oracle(w0, cfg, p, ZERO)
    norms = np.array([np.sum(np.abs(w.psi) ** 2) * grid.dx
                      for w in traj.snapshots])
    assert np.abs(norms - norms[0]).max() < 1e-12 * norms[0]


def test_oracle_step_advances_time(grid, p):
    w = to_wavefunction(smooth_state(grid), p)
    out = oracle_step(w, OracleConfig(dt=0.01, t_end=1.0), p, ZERO)
    assert out.t == pytest.approx(0.01)


def test_rotation_bound_rejects_big_dt(grid, p):
    w = to_wavefunction(smooth_state(grid), p)
    pot = ExternalCosine(50.0)
    with pytest.raises(ValueError, match="rotation"):
        oracle_step(w, OracleConfig(dt=0.1, t_end=1.0), p, pot)


def test_oracle_config_validation():
    # the solver's config states the same timing rule, word for word
    for config in (OracleConfig, SolverConfig):
        with pytest.raises(ValueError, match=r"^dt must be > 0, got 0\.0$"):
            config(dt=0.0, t_end=1.0)
        # an infinite step would be zero steps of a run that reports ok
        with pytest.raises(ValueError, match=r"^dt must be finite, got inf$"):
            config(dt=math.inf, t_end=1.0)
        with pytest.raises(ValueError,
                           match=r"^t_end must be >= 0, got -1\.0$"):
            config(dt=0.1, t_end=-1.0)
        with pytest.raises(ValueError,
                           match="^snapshot_stride must be >= 1, got 0$"):
            config(dt=0.1, t_end=1.0, snapshot_stride=0)


def test_run_oracle_rejects_non_divisible_t_end(grid, p):
    w = to_wavefunction(smooth_state(grid), p)
    with pytest.raises(ValueError, match="integer number of steps"):
        run_oracle(w, OracleConfig(dt=0.3, t_end=1.0), p, ZERO)


def test_strang_beats_lie_by_one_order(grid, p):
    # linear problem with an external potential: the splitting error is
    # the only error, and Strang's is second order
    pot = ExternalCosine(0.5)
    w0 = to_wavefunction(smooth_state(grid), p)
    cfg_ref = OracleConfig(dt=1e-5, t_end=0.08, nonlinearity=False)
    ref = run_oracle(w0, cfg_ref, p, pot).snapshots[-1].psi

    def err(dt):
        cfg = OracleConfig(dt=dt, t_end=0.08, nonlinearity=False)
        out = run_oracle(w0, cfg, p, pot).snapshots[-1].psi
        return np.abs(out - ref).max()

    assert 3.3 < err(8e-3) / err(4e-3) < 4.7


def _oracle_setup(make, n_steps, stride, nonlinearity=None):
    """A preset's oracle over ``n_steps``; ``nonlinearity`` overrides the
    one its thermo term sets."""
    scn = make()
    p = build_params(scn)
    vext = build_external(scn)
    state = build_initial_state(scn, scn.grid, p, vext)
    cfg = build_oracle_config(scn)
    cfg = dataclasses.replace(
        cfg, t_end=n_steps * cfg.dt, snapshot_stride=stride,
        nonlinearity=cfg.nonlinearity if nonlinearity is None
        else nonlinearity)
    return to_wavefunction(state, p), cfg, p, vext


# the presets' own nonlinearity is trap-True and free-False
@pytest.mark.parametrize("nonlinearity", [True, False])
@pytest.mark.parametrize("make", [presets.trap, presets.free])
def test_run_oracle_matches_a_loop_of_oracle_step(make, nonlinearity):
    # trap: a harmonic potential; free: no potential
    w, cfg, p, vext = _oracle_setup(make, 24, 5, nonlinearity)
    traj = run_oracle(w, cfg, p, vext)
    want = [w]
    for i in range(1, 25):
        w = oracle_step(w, cfg, p, vext)
        if i % 5 == 0 or i == 24:
            want.append(w)
    assert len(traj.snapshots) == len(want)
    for got, ref in zip(traj.snapshots, want):
        assert got.t == pytest.approx(ref.t, abs=1e-15)
        scale = np.abs(ref.psi).max()
        assert np.abs(got.psi - ref.psi).max() <= 1e-12 * scale


@pytest.mark.parametrize("nonlinearity", [True, False])
@pytest.mark.parametrize("make", [presets.trap, presets.free])
def test_run_oracle_matches_the_merged_loop_on_fresh_arrays(make,
                                                            nonlinearity):
    # the run's steps write into work arrays; the loop here allocates every
    # intermediate, in the same operations and operand order
    w, cfg, p, vext = _oracle_setup(make, 24, 5, nonlinearity)
    grid = w.grid
    varr = vext.field(grid).values if vext.kind != "zero" else None

    def potential(psi):
        v = 0.0
        if varr is not None:
            v = v + p.m * varr
        if cfg.nonlinearity:
            v = v + p.kT * (np.log(np.maximum(np.abs(psi) ** 2, 1e-300))
                            + 1.0)
        return v

    kin = np.exp(-0.5j * p.hbar_eff * grid.k**2 * cfg.dt / p.m)
    full = -1j * cfg.dt / p.hbar_eff
    half = 0.5 * full
    psi = w.psi
    rot = np.exp(half * potential(psi))
    want = [psi]
    for i in range(1, 25):
        psi = grid.ifft(kin * grid.fft(psi * rot))
        snap = i % 5 == 0 or i == 24
        rot = np.exp((half if snap else full) * potential(psi))
        if snap:
            psi = psi * rot
            want.append(psi)
    got = [s.psi for s in run_oracle(w, cfg, p, vext).snapshots]
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


def test_strang_run_takes_one_potential_per_step(monkeypatch):
    w, cfg, p, vext = _oracle_setup(presets.trap, 24, 5)
    calls = []
    potential = schrodinger._potential

    def counted(*args):
        calls.append(1)
        return potential(*args)

    monkeypatch.setattr(schrodinger, "_potential", counted)
    traj = run_oracle(w, cfg, p, vext)
    assert len(calls) <= 24 + len(traj.snapshots)


def test_strang_step_takes_two_transforms(monkeypatch):
    calls = []
    for name in ("fft", "ifft"):
        def counted(grid, values, out=None, fn=getattr(Grid, name)):
            calls.append(1)
            return fn(grid, values, out=out)
        monkeypatch.setattr(Grid, name, counted)
    for n_steps in (10, 20):
        w, cfg, p, vext = _oracle_setup(presets.trap, n_steps, n_steps)
        calls.clear()
        run_oracle(w, cfg, p, vext)
        assert len(calls) == 2 * n_steps


# ------------------------------------------------------------------ compare

def test_compare_of_identical_trajectories_is_zero(grid, p):
    snaps = [smooth_state(grid, t=0.1 * j) for j in range(4)]
    hydro = Trajectory(snapshots=snaps, records=[])
    wave = waves_from_states(hydro, p)
    res = compare(hydro, wave, p)
    assert res.max_density_error < 1e-14
    assert res.max_phase_error < 1e-12
    assert np.allclose(res.times, [0.0, 0.1, 0.2, 0.3])


def test_compare_sees_density_difference(grid, p):
    s = smooth_state(grid)
    hydro = Trajectory(snapshots=[s], records=[])
    bumped = State(s.t, Field(grid, s.lam.values + 0.01), s.phi)
    wave = waves_from_states(Trajectory(snapshots=[bumped], records=[]), p)
    res = compare(hydro, wave, p)
    # uniform 1% log-density offset: relative L2 error is |1 - e^{-0.01}|
    assert res.max_density_error == pytest.approx(1.0 - np.exp(-0.01), rel=1e-10)
    # a constant density shift carries no phase information
    assert res.max_phase_error < 1e-12


def test_compare_validates_alignment(grid, p):
    s0, s1 = smooth_state(grid, 0.0), smooth_state(grid, 0.1)
    hydro = Trajectory(snapshots=[s0, s1], records=[])
    wave_short = waves_from_states(Trajectory(snapshots=[s0], records=[]), p)
    with pytest.raises(ValueError, match="numbers of snapshots"):
        compare(hydro, wave_short, p)
    shifted = Trajectory(snapshots=[s0, smooth_state(grid, 0.2)], records=[])
    wave = waves_from_states(shifted, p)
    with pytest.raises(ValueError, match="different times"):
        compare(hydro, wave, p)
