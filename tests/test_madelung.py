"""Equations of motion, the RK4 driver, diagnostics, and the action."""

import dataclasses
import functools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from qfluid import madelung, presets
from qfluid.grid import Field, Grid
from qfluid.kernels import MomentTable, make_kernel, moments
from qfluid.madelung import (DiagnosticRecord, SolverAbort, SolverConfig,
                             State, TermFlags, Trajectory, action,
                             diagnostics, quantum_potential, rhs, run,
                             stability_bound, step, velocity)
from qfluid.params import (ExternalCosine, ExternalHarmonic, ExternalZero,
                           PhysParams)
from qfluid.potentials import bohm_potential
from qfluid.scenario import (build_external, build_flags, build_grid,
                             build_initial_state, build_params,
                             build_solver_config, parse_scenario)


def make_state(grid, lam, phi, t=0.0):
    return State(t, Field(grid, lam), Field(grid, phi))


@pytest.fixture
def grid():
    return Grid(n=64, length=1.0)


ZERO = ExternalZero()


# ------------------------------------------------------------- construction

def test_state_rejects_mixed_grids():
    a = Grid(n=16, length=1.0)
    b = Grid(n=16, length=2.0)
    with pytest.raises(ValueError, match="different grids"):
        State(0.0, Field(a, np.zeros(16)), Field(b, np.zeros(16)))


def test_term_flags_validation():
    with pytest.raises(ValueError, match="quantum_order"):
        TermFlags(quantum_order=0)
    with pytest.raises(ValueError, match="moments"):
        TermFlags(quantum=True, quantum_order=2)
    short = MomentTable(a2=0.01, c=(1.0, 1.0))
    with pytest.raises(ValueError, match="c_4"):
        TermFlags(quantum=True, quantum_order=2, moments=short)
    with pytest.raises(ValueError, match="c_2 must be 1"):
        TermFlags(quantum=True, quantum_order=2,
                  moments=MomentTable(a2=0.01, c=(1.0, 2.0, 3.0)))
    # fine once the table reaches c_4
    TermFlags(quantum=True, quantum_order=2,
              moments=MomentTable(a2=0.01, c=(1.0, 1.0, 3.0)))


def test_solver_config_validation():
    with pytest.raises(ValueError, match="dt"):
        SolverConfig(dt=0.0, t_end=1.0)
    with pytest.raises(ValueError, match="t_end"):
        SolverConfig(dt=0.1, t_end=-1.0)
    with pytest.raises(ValueError, match="stride"):
        SolverConfig(dt=0.1, t_end=1.0, snapshot_stride=0)
    with pytest.raises(ValueError, match="floor"):
        SolverConfig(dt=0.1, t_end=1.0, density_floor=2.0)


# ------------------------------------------------------------ right-hand side

def test_rhs_uniform_state_is_pure_enthalpy(grid):
    p = PhysParams(hbar=1.0, m=0.5, kT=2.0)
    s = make_state(grid, np.full(grid.n, math.log(2.0)), np.zeros(grid.n))
    dlam, dphi = rhs(s, TermFlags(thermo=True), p, ZERO)
    assert np.abs(dlam.values).max() == 0.0
    want = (2.0 / 0.5) * (math.log(2.0) + 1.0)
    assert np.abs(dphi.values - want).max() < 1e-13


def test_rhs_advection_matches_analytic(grid):
    # lam = eps cos(w x), phi = b cos(w x), all physics switched off
    eps, b = 0.05, 0.3
    w = 2.0 * np.pi / grid.length
    x = grid.x
    s = make_state(grid, eps * np.cos(w * x), b * np.cos(w * x))
    p = PhysParams()
    dlam, dphi = rhs(s, TermFlags(thermo=False), p, ZERO, dealias=False)
    sin = np.sin(w * x)
    want_lam = b * eps * w**2 * sin**2 - b * w**2 * np.cos(w * x)
    want_phi = 0.5 * b**2 * w**2 * sin**2
    # spectral roundoff on terms of magnitude w^2 ~ 40
    assert np.abs(dlam.values - want_lam).max() < 1e-11
    assert np.abs(dphi.values - want_phi).max() < 1e-11


def test_rhs_external_term_adds_potential(grid):
    p = PhysParams()
    pot = ExternalCosine(0.4)
    s = make_state(grid, np.zeros(grid.n), np.zeros(grid.n))
    _, off = rhs(s, TermFlags(thermo=False), p, ExternalZero())
    _, on = rhs(s, TermFlags(thermo=False), p, pot)
    diff = on.values - off.values
    assert np.abs(diff - pot.field(grid).values).max() < 1e-14


def test_rhs_quantum_term_matches_closed_form(grid):
    p = PhysParams(hbar=0.4, m=1.0, kT=1.0)
    lam = 0.2 * np.cos(2.0 * np.pi * grid.x / grid.length)
    s = make_state(grid, lam, np.zeros(grid.n))
    _, dphi = rhs(s, TermFlags(thermo=False, quantum=True), p, ZERO,
                  dealias=False)
    rho = Field(grid, np.exp(lam))
    want = bohm_potential(rho, p, "gradient_form").values
    assert np.abs(dphi.values - want).max() < 1e-12


def test_velocity_is_minus_grad_phi(grid):
    b = 0.3
    w = 2.0 * np.pi / grid.length
    s = make_state(grid, np.zeros(grid.n), b * np.cos(w * grid.x))
    v = velocity(s).values
    assert np.abs(v - b * w * np.sin(w * grid.x)).max() < 1e-12


def test_quantum_potential_wrapper(grid):
    p = PhysParams(hbar=0.4, m=1.0, kT=1.0)
    lam = 0.2 * np.cos(2.0 * np.pi * grid.x / grid.length)
    s = make_state(grid, lam, np.zeros(grid.n))
    off = quantum_potential(s, TermFlags(quantum=False), p)
    assert np.all(off.values == 0.0)
    on = quantum_potential(s, TermFlags(quantum=True), p)
    want = bohm_potential(Field(grid, np.exp(lam)), p, "gradient_form").values
    assert np.abs(on.values - want).max() < 1e-12


# ------------------------------------------------------------------- driver

def test_run_records_stride_and_final(grid):
    p = PhysParams(kT=1.0)
    s = make_state(grid, np.zeros(grid.n), np.zeros(grid.n))
    cfg = SolverConfig(dt=0.01, t_end=0.1, snapshot_stride=3)
    traj = run(s, cfg, TermFlags(thermo=True), p, ZERO)
    assert traj.status == "ok"
    # steps 0, 3, 6, 9 and the forced final step 10
    assert np.allclose(traj.times, [0.0, 0.03, 0.06, 0.09, 0.10])


def test_run_t_end_zero_gives_single_snapshot(grid):
    p = PhysParams()
    s = make_state(grid, np.zeros(grid.n), np.zeros(grid.n))
    traj = run(s, SolverConfig(dt=0.01, t_end=0.0), TermFlags(), p, ZERO)
    assert len(traj.snapshots) == 1
    assert traj.records[0].mass == pytest.approx(grid.length)


def test_run_rejects_non_divisible_t_end(grid):
    p = PhysParams()
    s = make_state(grid, np.zeros(grid.n), np.zeros(grid.n))
    with pytest.raises(ValueError, match="integer number of steps"):
        run(s, SolverConfig(dt=0.3, t_end=1.0), TermFlags(), p, ZERO)


def test_run_enforces_quantum_stability_bound(grid):
    p = PhysParams(hbar=1.0, m=1.0, kT=1.0)
    bound = stability_bound(grid, p, TermFlags(quantum=True))
    assert bound == pytest.approx(0.5 * grid.dx**2)
    s = make_state(grid, np.zeros(grid.n), np.zeros(grid.n))
    cfg = SolverConfig(dt=2.0 * bound, t_end=20.0 * bound)
    with pytest.raises(ValueError, match="stability bound"):
        run(s, cfg, TermFlags(quantum=True), p, ZERO)


def test_uniform_thermal_state_phase_advances_exactly(grid):
    # lam = 0 everywhere: dphi/dt = kT/m is constant, RK4 integrates it exactly
    p = PhysParams(hbar=1.0, m=2.0, kT=3.0)
    s = make_state(grid, np.zeros(grid.n), np.zeros(grid.n))
    traj = run(s, SolverConfig(dt=0.01, t_end=0.1), TermFlags(thermo=True), p, ZERO)
    final = traj.snapshots[-1]
    assert np.abs(final.lam.values).max() < 1e-14
    assert np.abs(final.phi.values - 0.1 * 1.5).max() < 1e-13


def test_step_advances_time(grid):
    p = PhysParams()
    s = make_state(grid, np.zeros(grid.n), np.zeros(grid.n))
    out = step(s, SolverConfig(dt=0.02, t_end=1.0), TermFlags(), p, ZERO)
    assert out.t == pytest.approx(0.02)


def test_vacuum_initial_state_raises(grid):
    p = PhysParams()
    lam = np.full(grid.n, 0.0)
    lam[0] = -80.0  # rho ~ 1e-35, far below floor * mean
    s = make_state(grid, lam, np.zeros(grid.n))
    with pytest.raises(SolverAbort) as info:
        run(s, SolverConfig(dt=0.01, t_end=0.1), TermFlags(thermo=False), p, ZERO)
    assert info.value.kind == "vacuum"
    assert "density floor" in str(info.value)


def test_vacuum_mid_run_returns_partial_trajectory(grid):
    # pure advection with a draining node: lap phi < 0 at x = 0 empties it
    p = PhysParams()
    w = 2.0 * np.pi / grid.length
    lam = np.full(grid.n, 0.0)
    lam -= 24.0 * 0.5 * (1.0 + np.cos(w * grid.x))  # deep dip at the origin
    phi = 0.2 * np.cos(w * grid.x)
    s = make_state(grid, lam, phi)
    cfg = SolverConfig(dt=2e-4, t_end=2.0, snapshot_stride=100)
    traj = run(s, cfg, TermFlags(thermo=False), p, ZERO)
    assert traj.status == "vacuum"
    assert "density floor" in traj.message
    assert len(traj.snapshots) >= 1
    assert traj.snapshots[-1].t < 2.0


def test_blowup_mid_run_returns_partial_trajectory(grid):
    p = PhysParams()
    phi = 1e160 * np.cos(2.0 * np.pi * grid.x / grid.length)
    s = make_state(grid, np.zeros(grid.n), phi)
    traj = run(s, SolverConfig(dt=1.0, t_end=3.0), TermFlags(thermo=False), p, ZERO)
    assert traj.status == "blowup"
    assert "finite" in traj.message


def test_overflowing_density_is_a_blowup(grid):
    # exp(800) overflows: no numpy warning, and not a vacuum
    lam = np.zeros(grid.n)
    lam[3] = 800.0
    s = make_state(grid, lam, np.zeros(grid.n))
    with pytest.raises(SolverAbort) as info:
        run(s, SolverConfig(dt=0.01, t_end=0.1), TermFlags(thermo=False),
            PhysParams(), ZERO)
    assert info.value.kind == "blowup"
    assert "density overflows" in str(info.value)
    assert "node 3" in str(info.value)


def test_a_state_whose_densities_all_underflow_is_a_vacuum(grid):
    # the mean density is 0 as well: the abort words its share as nan
    with pytest.raises(madelung.SolverAbort) as info:
        run(make_state(grid, np.full(grid.n, -800.0), np.zeros(grid.n)),
            SolverConfig(t_end=0.0), TermFlags(), PhysParams(), ZERO)
    assert info.value.kind == "vacuum"
    assert "rho=0.000e+00 (nan of mean) at node 0" in str(info.value)


def test_finite_rows_summing_past_the_float_maximum_do_not_abort(grid):
    # the one test's sum overflows and the tests one by one pass the state;
    # the initial check keeps that sum's warning to itself (the transforms
    # of so large a state warn on their own)
    phi = np.zeros(grid.n)
    phi[[5, 9]] = 1e308
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        traj = run(make_state(grid, np.zeros(grid.n), phi),
                   SolverConfig(t_end=0.0), TermFlags(thermo=False),
                   PhysParams(), ZERO)
    assert traj.status == "ok"
    assert np.array_equal(traj.snapshots[0].phi.values, phi)
    assert not [w for w in caught if "in reduce" in str(w.message)]


SERIES = """\
[scenario]
name = series
[grid]
n = 64
length = 1.0
[physics]
hbar = 0.1
[terms]
quantum = true
quantum_order = 2
[initial]
kind = cosine
amplitude = 0.1
[kernel]
family = gaussian
width = 0.03
[solver]
dt = 1e-5
t_end = 1e-3
"""


def _series():
    # a gaussian's moments are all positive, so its series is well-posed
    return parse_scenario(SERIES)


def _setup(scn, n_steps, stride):
    grid = build_grid(scn)
    params = build_params(scn)
    vext = build_external(scn)
    state = build_initial_state(scn, grid, params, vext)
    cfg = dataclasses.replace(build_solver_config(scn),
                              t_end=n_steps * scn.solver.dt,
                              snapshot_stride=stride)
    return state, cfg, build_flags(scn, grid), params, vext


@pytest.mark.parametrize("make", [presets.trap, presets.free, presets.traveling,
                                  presets.equilibrium, _series])
def test_run_matches_rk4_over_public_rhs(make):
    # the spectral-state driver against RK4 written here on real fields
    state, cfg, flags, p, vext = _setup(make(), 20, 20)
    traj = run(state, cfg, flags, p, vext)
    assert traj.status == "ok"

    def f(lam, phi):
        s = make_state(grid, lam, phi)
        dl, dp = rhs(s, flags, p, vext, cfg.dealias)
        return dl.values, dp.values

    grid, dt = state.grid, cfg.dt
    lam, phi = state.lam.values, state.phi.values
    for _ in range(20):
        k1 = f(lam, phi)
        k2 = f(lam + 0.5 * dt * k1[0], phi + 0.5 * dt * k1[1])
        k3 = f(lam + 0.5 * dt * k2[0], phi + 0.5 * dt * k2[1])
        k4 = f(lam + dt * k3[0], phi + dt * k3[1])
        lam = lam + (dt / 6.0) * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
        phi = phi + (dt / 6.0) * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
    final = traj.snapshots[-1]
    for got, want in ((final.lam.values, lam), (final.phi.values, phi)):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def _fresh_tendency(op, hat):
    """The operator's tendency as fresh-array expressions, in the operand
    order it keeps: numpy's complex multiply is not bitwise commutative."""
    grads = op.grad * hat
    real = op.grid.irfft(grads if op.remainder is None
                         else np.concatenate((grads, hat[:1])))
    dlam, dphi = real[0], real[1]
    prods = [dlam * dphi, dphi * dphi]
    if op.bohm:
        prods[1] = prods[1] - op.bohm * dlam * dlam
    if op.remainder is not None:
        rho = np.exp(real[2])
        prods.append(op.grid.apply(op.remainder, rho) / rho)
    spectra = op.grid.rfft(np.array(prods))
    out = op.masks * spectra[:2] + op.linear * hat[::-1]
    out[1] += op.force
    if op.remainder is not None:
        out[1] += spectra[2]
    return out


def _stage(op, lam, phi):
    """One stage of a stepper started from one state's samples: the
    operator's tendency of that state, as :func:`rhs` reads it."""
    return op.stepper(lam, phi, 0.0)[1]()


@pytest.mark.parametrize("make", [presets.traveling, presets.equilibrium,
                                  presets.trap, _series])
def test_rk4_combines_its_stages_in_the_textbook_order(make):
    # traveling has no force row, equilibrium a cosine force, trap Bohm and
    # a harmonic force, and the series the rho route. Three steps of one
    # stepper, each the bits of hat + dt/6 (k1 + 2 (k2 + k3) + k4) on fresh
    # arrays, with k1 read from the inverse the step before left
    state, cfg, flags, p, vext = _setup(make(), 1, 1)
    grid, dt = state.grid, cfg.dt
    for dealias in (True, False):
        cfg = dataclasses.replace(cfg, dealias=dealias)
        op = madelung.Tendency(grid, flags, p, dealias, vext)
        advance, _, rows, hat = op.stepper(state.lam.values,
                                           state.phi.values, dt)
        want = grid.rfft(np.array((state.lam.values, state.phi.values)))
        assert np.array_equal(hat, want)
        for _ in range(3):
            k1 = _fresh_tendency(op, want)
            k2 = _fresh_tendency(op, want + 0.5 * dt * k1)
            k3 = _fresh_tendency(op, want + 0.5 * dt * k2)
            k4 = _fresh_tendency(op, want + dt * k3)
            want = want + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
            advance()
            assert np.array_equal(hat, want)
            assert np.array_equal(rows, grid.irfft(want))
        # a run's first snapshot is its initial state, bit for bit (the
        # series stepper's lam row holds its round trip), and step() is a
        # one-step run's last stored state
        one = step(state, cfg, flags, p, vext)
        first, last = run(state, cfg, flags, p, vext).snapshots
        assert first.t == state.t
        assert np.array_equal(first.lam.values, state.lam.values)
        assert np.array_equal(first.phi.values, state.phi.values)
        assert one.t == last.t
        assert np.array_equal(one.lam.values, last.lam.values)
        assert np.array_equal(one.phi.values, last.phi.values)


class _FFTCount:
    """Counts the grid's real transforms, the package's only ones, and the
    rows each direction carries."""

    def __init__(self, monkeypatch):
        self.calls = 0
        self.rows = {"rfft": 0, "irfft": 0}
        for name in self.rows:
            monkeypatch.setattr(Grid, name,
                                self._wrap(name, getattr(Grid, name)))

    def _wrap(self, name, fn):
        def counted(grid, values, *args, **kwargs):
            self.calls += 1
            self.rows[name] += math.prod(np.shape(values)[:-1])
            return fn(grid, values, *args, **kwargs)
        return counted


def _bernoulli_cases():
    grid = Grid(n=64, length=1.0)
    gauss = moments(make_kernel("gaussian", grid, width=0.03), max_n=3)
    series = {f"series{o}": (TermFlags(thermo=True, quantum=True,
                                       quantum_order=o, moments=gauss),
                             PhysParams(hbar=0.1), ZERO) for o in (2, 3)}
    return {
        "thermal": (TermFlags(thermo=True), PhysParams(kT=2.0), ZERO),
        "bohm": (TermFlags(thermo=False, quantum=True), PhysParams(hbar=0.1),
                 ZERO),
        "thermal_bohm_harmonic": (TermFlags(thermo=True, quantum=True),
                                  PhysParams(hbar=0.1),
                                  ExternalHarmonic(20.0)),
        **series,
    }


_BERNOULLI = _bernoulli_cases()


def _bernoulli_states(grid):
    """Samples of five smooth random states, ``(lam, phi)`` stacks."""
    rng = np.random.default_rng(7)
    x = 2 * np.pi * grid.x
    modes = np.arange(1, 5)[:, None]
    lam = np.log(1.0 + 0.1 * rng.standard_normal((5, 4))
                 @ np.cos(modes * x + rng.uniform(0, 6, (4, 1))))
    phi = 0.2 * rng.standard_normal((5, 4)) @ np.sin(modes * x)
    return lam, phi


def _bernoulli_reads(op):
    """``(stack, stage, one)``: the Bernoulli row of each of the five
    states, phi given and then zero, read in a stack, by a stage started
    from its samples and alone. Both sides take the state's spectra with
    the transform a stepper takes of its samples."""
    grid = op.grid
    lam, phi = _bernoulli_states(grid)
    for given in (phi, None):
        rows = np.zeros_like(phi) if given is None else given
        lam_hat, phi_hat = np.array([grid.rfft(np.array(pair)) for pair in
                                     zip(lam, rows)]).transpose(1, 0, 2).copy()
        stack = op.bernoulli(lam_hat, None if given is None else phi_hat)
        assert stack.shape == lam_hat.shape
        for j in range(len(lam)):
            yield (stack[j], _stage(op, lam[j], rows[j])[1],
                   op.bernoulli(lam_hat[j],
                                None if given is None else phi_hat[j]))


@pytest.mark.parametrize("dealias", [True, False], ids=["masked", "unmasked"])
@pytest.mark.parametrize("case", list(_BERNOULLI))
def test_bernoulli_read_is_row_one_of_the_full_operator(case, dealias):
    # a full stage stays the referee: the Bernoulli row alone must give
    # its row 1 to the bit, on one state and on a stack, phi zero or not
    flags, p, vext = _BERNOULLI[case]
    op = madelung.Tendency(Grid(n=64, length=1.0), flags, p, dealias, vext)
    for stack, stage, one in _bernoulli_reads(op):
        assert np.array_equal(stack, stage)
        assert np.array_equal(one, stage)


@pytest.mark.parametrize("dealias", [True, False], ids=["masked", "unmasked"])
@pytest.mark.parametrize("case", [c for c in _BERNOULLI if c != "thermal"])
def test_the_closure_products_have_one_home(case, dealias, monkeypatch):
    # a rule that doubles Bohm's term, built by Tendency.products alone,
    # moves a stage and the Bernoulli read alike: they still agree to the
    # bit, and each differs from its unpatched value (the thermal case has
    # no Bohm term to double)
    flags, p, vext = _BERNOULLI[case]
    op = madelung.Tendency(Grid(n=64, length=1.0), flags, p, dealias, vext)
    before = list(_bernoulli_reads(op))
    build = madelung.Tendency.products

    def doubled(self, *rows):
        bohm, self.bohm = self.bohm, 2.0 * self.bohm
        try:
            return build(self, *rows)
        finally:
            self.bohm = bohm

    monkeypatch.setattr(madelung.Tendency, "products", doubled)
    for (stack, stage, one), old in zip(_bernoulli_reads(op), before,
                                        strict=True):
        assert np.array_equal(stack, stage)
        assert np.array_equal(one, stage)
        assert not np.array_equal(stage, old[1])
        assert not np.array_equal(stack, old[0])


def test_bohm_refinement_sweep_transforms_two_rows_each_way(monkeypatch):
    # a sweep is lam's forward, the Bernoulli row's inverse of grad lam and
    # forward of the product row, and the update's inverse; the potential's
    # spectrum is taken once before the sweeps
    scn = presets.trap()
    grid = build_grid(scn)
    params, vext = build_params(scn), build_external(scn)
    flags = build_flags(scn, grid)
    assert flags.quantum and not flags.series
    counter = _FFTCount(monkeypatch)
    build_initial_state(scn, grid, params, vext, flags=flags)
    sweeps, rest = divmod(counter.calls - 1, 4)
    assert sweeps > 1 and rest == 0
    assert counter.rows == {"rfft": 1 + 2 * sweeps, "irfft": 2 * sweeps}


@pytest.mark.parametrize("make", [presets.trap, presets.traveling, _series])
def test_rk4_step_takes_eight_transforms(make, monkeypatch):
    # k1's inverse reads the state back: 1 + 3 * 2 + 1; the series adds a
    # forward and an inverse of rho per stage
    per_step = 16 if make is _series else 8
    counter = _FFTCount(monkeypatch)
    for dealias in (True, False):
        calls = []
        for n_steps in (10, 20):
            # stride = step count: both runs record the same two states
            state, cfg, flags, p, vext = _setup(make(), n_steps, n_steps)
            cfg = dataclasses.replace(cfg, dealias=dealias)
            counter.calls = 0
            assert run(state, cfg, flags, p, vext).status == "ok"
            calls.append(counter.calls)
        assert calls[1] - calls[0] == per_step * 10


def test_series_first_term_is_bohm():
    state, cfg, flags, p, vext = _setup(presets.trap(), 1, 1)
    cut = dataclasses.replace(flags, quantum_order=2,
                              moments=MomentTable(a2=0.01, c=(1.0, 1.0, 0.0)))
    for got, want in zip(rhs(state, cut, p, vext), rhs(state, flags, p, vext)):
        scale = max(np.abs(want.values).max(), 1.0)
        assert np.abs(got.values - want.values).max() <= 1e-12 * scale


def test_series_energy_is_conserved():
    # the remainder's rho (R lam) term belongs to the energy: without it
    # this run drifts by 3.9e-5
    state, cfg, flags, p, vext = _setup(_series(), 2000, 2000)
    traj = run(state, cfg, flags, p, vext)
    assert traj.status == "ok"
    first, last = traj.records[0].energy, traj.records[-1].energy
    assert abs(last - first) < 1e-9 * abs(first)


def test_ill_posed_series_is_refused():
    # the difference of gaussians has c_4 = -10.5: with thermo on L < 0
    # above a^2 k^2 = 1.78, and this grid reaches 101
    state, cfg, flags, p, vext = _setup(_series(), 1, 1)
    dog = moments(make_kernel("difference_of_gaussians", state.grid,
                              width=0.03), max_n=2)
    with pytest.raises(madelung.IllPosedSeries, match="ill-posed"):
        run(state, cfg, dataclasses.replace(flags, moments=dog), p, vext)


def _dog_series(a2k2_max, thermo):
    # order 2 on the difference of gaussians (c_4 = -10.5) at n = 64, with
    # hbar set so that the top mode reaches a^2 k^2 = a2k2_max
    grid = Grid(n=64, length=1.0)
    dog = moments(make_kernel("difference_of_gaussians", grid, width=0.03),
                  max_n=2)
    p = PhysParams(hbar=math.sqrt(4.0 * a2k2_max / grid.half_k2.max()))
    flags = TermFlags(thermo=thermo, quantum=True, quantum_order=2,
                      moments=dog)
    return grid, p, flags


def test_series_guard_is_the_exact_rule():
    # M(1.5) = -0.23 < 0, but with thermo on L = (kT/m)(1 + 2M) = 0.53
    grid, p, flags = _dog_series(1.5, thermo=True)
    bound = stability_bound(grid, p, flags)
    steps = round(0.5 / (0.45 * bound))
    state = make_state(grid, np.log(1.0 + 0.1 * np.cos(2 * np.pi * grid.x)),
                       np.zeros(grid.n))
    final = []
    for m in (1, 2):
        cfg = SolverConfig(dt=0.5 / (m * steps), t_end=0.5,
                           snapshot_stride=m * steps)
        traj = run(state, cfg, flags, p, ZERO)
        assert traj.status == "ok"
        first, last = traj.records[0].energy, traj.records[-1].energy
        assert abs(last - first) < 1e-8 * abs(first)
        final.append(traj.snapshots[-1].lam.values)
    assert np.abs(final[0] - final[1]).max() < 1e-7
    # L = 2 (kT/m) M with thermo off, and 1 + 2M < 0 above 1.78
    for a2k2, thermo in ((1.5, False), (1.85, True)):
        with pytest.raises(madelung.IllPosedSeries, match="is ill-posed"):
            stability_bound(*_dog_series(a2k2, thermo))


def test_step_reuses_its_operator(monkeypatch):
    built = []
    init = madelung.Tendency.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)

    state, cfg, flags, p, vext = _setup(presets.trap(), 1, 1)
    # equal potentials share a cache key: an earlier test may hold this one
    madelung._reader.cache_clear()
    monkeypatch.setattr(madelung.Tendency, "__init__", counted)
    one = step(state, cfg, flags, p, vext)
    two = step(state, cfg, flags, p, vext)
    assert len(built) == 1
    assert np.array_equal(one.lam.values, two.lam.values)


@pytest.mark.parametrize("make", [presets.trap, presets.equilibrium])
def test_rhs_is_the_tendency_a_run_integrates(make):
    # V_e rides in the operator's forcing row, as a run steps it, not in a
    # real-space sum of rhs's own
    state, cfg, flags, p, vext = _setup(make(), 1, 1)
    assert vext.kind != "zero"
    grid = state.grid
    op = madelung.Tendency(grid, flags, p, cfg.dealias, vext)
    want = grid.irfft(_stage(op, state.lam.values, state.phi.values))
    got = rhs(state, flags, p, vext, cfg.dealias)
    for field, row in zip(got, want):
        assert np.array_equal(field.values, row)


def test_rhs_takes_four_transforms(monkeypatch):
    state, cfg, flags, p, vext = _setup(presets.trap(), 1, 1)
    # the first call may build the cached operator, V_e's transform included
    rhs(state, flags, p, vext)
    counter = _FFTCount(monkeypatch)
    rhs(state, flags, p, vext)
    assert counter.calls == 4


def test_run_builds_its_tendency_once(monkeypatch):
    built = []
    init = madelung.Tendency.__init__

    def counted(self, grid, flags, p, dealias, vext=None):
        built.append(vext)
        init(self, grid, flags, p, dealias, vext)

    monkeypatch.setattr(madelung.Tendency, "__init__", counted)
    for n_steps in (10, 20):
        state, cfg, flags, p, vext = _setup(presets.trap(), n_steps, 5)
        built.clear()
        assert run(state, cfg, flags, p, vext).status == "ok"
        # the records read V_e in real space; only the run's own operator
        # carries it
        assert sum(v is vext for v in built) == 1


@pytest.mark.parametrize("make", [presets.trap, presets.traveling])
def test_diagnostics_take_four_transforms(make, monkeypatch):
    state, cfg, flags, p, vext = _setup(make(), 1, 1)
    counter = _FFTCount(monkeypatch)
    diagnostics(state, flags, p, vext)
    assert counter.calls <= 4


# -------------------------------------------------------------- diagnostics

def test_classical_equilibrium_diagnostics(grid):
    # Boltzmann density in a cosine potential: constant Bernoulli head,
    # zero total energy (thermal and external parts cancel exactly)
    p = PhysParams(hbar=1.0, m=1.0, kT=2.0)
    pot = ExternalCosine(0.8)
    theta = p.kT / p.m
    varr = pot.field(grid).values
    lam = -varr / theta
    shift = np.log(np.mean(np.exp(lam)))
    lam -= shift  # unit mean density
    s = make_state(grid, lam, np.zeros(grid.n))
    flags = TermFlags(thermo=True)
    rec = diagnostics(s, flags, p, pot)
    assert isinstance(rec, DiagnosticRecord)
    assert rec.mass == pytest.approx(grid.length, rel=1e-13)
    assert rec.momentum == pytest.approx(0.0, abs=1e-13)
    assert rec.bernoulli_residual < 1e-13
    assert rec.lagrangian_minus_pressure < 1e-11
    # theta lam + V is the constant -theta * shift, so the energy is just
    # that constant times the mass
    assert rec.energy == pytest.approx(-theta * shift * rec.mass, rel=1e-12)
    assert rec.min_density == pytest.approx(float(np.exp(lam).min()))


def test_quantum_diagnostics_mark_lagrangian_nan(grid):
    p = PhysParams(hbar=0.4, m=1.0, kT=1.0)
    lam = 0.1 * np.cos(2.0 * np.pi * grid.x / grid.length)
    s = make_state(grid, lam, np.zeros(grid.n))
    rec = diagnostics(s, TermFlags(thermo=True, quantum=True), p, ZERO)
    assert math.isnan(rec.lagrangian_minus_pressure)


def test_mass_conserved_in_nonlinear_run(grid):
    p = PhysParams(kT=1.5)
    w = 2.0 * np.pi / grid.length
    s = make_state(grid, 0.2 * np.cos(w * grid.x), 0.1 * np.sin(w * grid.x))
    traj = run(s, SolverConfig(dt=1e-3, t_end=0.2, snapshot_stride=20),
               TermFlags(thermo=True), p, ZERO)
    assert traj.status == "ok"
    masses = np.array([r.mass for r in traj.records])
    assert np.abs(masses - masses[0]).max() < 1e-11 * masses[0]


# ------------------------------------------------------------------- action

def test_action_needs_three_uniform_snapshots(grid):
    p = PhysParams()
    mk = lambda t: make_state(grid, np.zeros(grid.n), np.zeros(grid.n), t)
    short = Trajectory(snapshots=[mk(0.0), mk(0.1)], records=[])
    with pytest.raises(ValueError, match="three snapshots"):
        action(short, TermFlags(), p, ZERO)
    skew = Trajectory(snapshots=[mk(0.0), mk(0.1), mk(0.35)], records=[])
    with pytest.raises(ValueError, match="uniformly spaced"):
        action(skew, TermFlags(), p, ZERO)
    # equal times would divide by zero, NaN ones pass every comparison, and
    # decreasing ones turn the spacing tolerance negative
    for times in ((0.1, 0.1, 0.1), (0.0, math.nan, 0.2), (0.2, 0.1, 0.0)):
        bad = Trajectory(snapshots=[mk(t) for t in times], records=[])
        with pytest.raises(ValueError, match="finite, strictly increasing"):
            action(bad, TermFlags(), p, ZERO)


def test_action_equals_pressure_integral_at_equilibrium(grid):
    # uniform thermal state: on shell the Lagrangian density equals the
    # pressure, so the action is kT/m * L * T
    p = PhysParams(hbar=1.0, m=2.0, kT=3.0)
    s = make_state(grid, np.zeros(grid.n), np.zeros(grid.n))
    traj = run(s, SolverConfig(dt=0.01, t_end=0.1), TermFlags(thermo=True), p, ZERO)
    got = action(traj, TermFlags(thermo=True), p, ZERO)
    want = (p.kT / p.m) * grid.length * 0.1
    assert got == pytest.approx(want, rel=1e-12)


# ------------------------------------------------------- stacked passes

def _as_row(rec):
    return np.array(dataclasses.astuple(rec))


@pytest.mark.parametrize("make,dealias", [
    pytest.param(presets.traveling, True, id="traveling"),
    pytest.param(presets.trap, True, id="trap"),
    pytest.param(_series, True, id="_series"),
    pytest.param(presets.trap, False, id="trap-unmasked")])
def test_stacked_records_equal_per_state_diagnostics(make, dealias):
    # 70 stored states: one full stack of CHUNK and a partial one; a run's
    # records read the tendency masked as the run steps it
    state, cfg, flags, p, vext = _setup(make(), 69, 1)
    cfg = dataclasses.replace(cfg, dealias=dealias)
    traj = run(state, cfg, flags, p, vext)
    assert traj.status == "ok"
    assert len(traj.records) == len(traj.snapshots) == 70 > madelung.CHUNK
    for s, rec in zip(traj.snapshots, traj.records):
        assert np.array_equal(_as_row(rec),
                              _as_row(diagnostics(s, flags, p, vext, dealias)),
                              equal_nan=True)


def _action_per_snapshot(traj, flags, p, vext):
    """The action as a loop over snapshots, one transform pair each."""
    snaps = traj.snapshots
    grid, m = snaps[0].grid, len(snaps)
    dt = snaps[1].t - snaps[0].t
    varr = vext.field(grid).values
    phis = np.stack([s.phi.values for s in snaps])
    dphi_dt = np.empty_like(phis)
    dphi_dt[1:-1] = (phis[2:] - phis[:-2]) / (2.0 * dt)
    dphi_dt[0] = (-3.0 * phis[0] + 4.0 * phis[1] - phis[2]) / (2.0 * dt)
    dphi_dt[-1] = (3.0 * phis[-1] - 4.0 * phis[-2] + phis[-3]) / (2.0 * dt)
    total = 0.0
    for j, s in enumerate(snaps):
        lam_hat, phi_hat = grid.rfft(np.stack((s.lam.values, s.phi.values)))
        rows = grid.irfft(np.array(
            madelung._energy_rows(grid, lam_hat, phi_hat, flags, p)))
        dens, rho, _ = madelung._energy_density(s.lam.values, rows, flags,
                                                p, varr)
        lag = rho * dphi_dt[j] - dens
        w = 0.5 if j in (0, m - 1) else 1.0
        total += w * float(np.sum(lag) * grid.dx)
    return total * dt


@functools.cache
def _recorded(make):
    """A run of ``make`` storing every step, through 2 CHUNK + 1 snapshots."""
    state, cfg, flags, p, vext = _setup(make(), 2 * madelung.CHUNK, 1)
    traj = run(state, cfg, flags, p, vext)
    assert traj.status == "ok"
    return traj, flags, p, vext


_C = madelung.CHUNK
# the stacks' edges: one short stack, one whole, a last stack of one or two
# rows, and two whole stacks plus one row, which keeps the closure's own id
_COUNTS = {"3": 3, "CHUNK-1": _C - 1, "CHUNK": _C, "CHUNK+1": _C + 1,
           "CHUNK+2": _C + 2, None: 2 * _C + 1}


@pytest.mark.parametrize("make,count", [
    pytest.param(make, count, id=name if edge is None else f"{name}-{edge}")
    for make, name in ((presets.traveling, "traveling"), (presets.trap, "trap"),
                       (_series, "_series"))
    for edge, count in _COUNTS.items()])
def test_chunked_action_equals_per_snapshot_sum(make, count):
    traj, flags, p, vext = _recorded(make)
    traj = Trajectory(snapshots=traj.snapshots[:count], records=[])
    assert action(traj, flags, p, vext) == \
        _action_per_snapshot(traj, flags, p, vext)


def test_action_memory_is_bounded_by_a_stack():
    # numpy reports its buffers to tracemalloc: the traced peak of the
    # action is the memory it holds beyond its input
    scn = presets.traveling_action()
    state, cfg, flags, p, vext = _setup(scn, 1200, 1)
    assert state.grid.n == 256
    traj = run(state, cfg, flags, p, vext)
    assert traj.status == "ok" and len(traj.snapshots) == 1201
    short = Trajectory(snapshots=traj.snapshots[:3 * _C + 1], records=[])

    def peak(t):
        action(t, flags, p, vext)  # the operator and grid tables, cached
        tracemalloc.start()
        try:
            action(t, flags, p, vext)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    samples = sum(s.lam.values.nbytes + s.phi.values.nbytes
                  for s in traj.snapshots)
    long = peak(traj)
    assert long <= 1.1 * peak(short)
    assert long < 0.5 * samples


def test_run_aborting_mid_stack_keeps_a_record_per_snapshot(grid):
    # the draining node of test_vacuum_mid_run_returns_partial_trajectory,
    # stored at every step
    p = PhysParams()
    w = 2.0 * np.pi / grid.length
    lam = -24.0 * 0.5 * (1.0 + np.cos(w * grid.x))
    s = make_state(grid, lam, 0.2 * np.cos(w * grid.x))
    flags = TermFlags(thermo=False)
    traj = run(s, SolverConfig(dt=2e-4, t_end=2.0), flags, p, ZERO)
    assert traj.status == "vacuum"
    assert len(traj.snapshots) > madelung.CHUNK
    assert len(traj.snapshots) % madelung.CHUNK != 0
    assert len(traj.records) == len(traj.snapshots)
    for snap, rec in zip(traj.snapshots, traj.records):
        assert rec == diagnostics(snap, flags, p, ZERO)


def test_series_step_bound():
    # n = 64, hbar 0.1, gaussian width 0.03, order 2: the top mode turns at
    # k sqrt(theta + qc k^2 / 2 + 2 R), far above Bohm's 0.5 dx^2 m / hbar
    state, cfg, flags, p, vext = _setup(_series(), 10, 10)
    cut = dataclasses.replace(flags, quantum_order=1, moments=None)
    bohm = stability_bound(state.grid, p, cut)
    assert bohm == 0.5 * state.grid.dx**2 * p.m / p.hbar_eff
    series = stability_bound(state.grid, p, flags)
    assert series == pytest.approx(2.73e-4, rel=1e-3)
    assert series < bohm
    with pytest.raises(ValueError, match="series stability bound"):
        run(state, dataclasses.replace(cfg, dt=3e-4, t_end=3e-3), flags, p,
            vext)
    ok = dataclasses.replace(cfg, dt=2.5e-4, t_end=2.5e-3)
    assert run(state, ok, flags, p, vext).status == "ok"
