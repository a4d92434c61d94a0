"""Property: parsing the text of any valid scenario gives it back.

Each section and each kind is drawn from its own spec class, field by
field; floats take arbitrary bit patterns, so the ``%.17g`` round trip is
exercised, within ranges that keep the scenario valid. Validation builds
the scenario and checks that its solver section can run, so ``t_end`` is
a whole number of steps and, with the quantum term on, ``dt`` sits within
the stability bound of a real ``hbar_eff`` (and of the series, if any);
and the initial state must pass a run's own check, so ``density_floor``
is drawn below its least density as a share of its mean.
Only a series closure draws a kernel, one that keeps it well-posed. An
equilibrium initial state keeps the quantum term off, so no example pays
for the equilibrium refinement.
"""

import dataclasses
import typing

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from qfluid import Grid, SolverConfig  # noqa: E402
from qfluid.madelung import (  # noqa: E402
    SolverAbort, check_state, stability_bound)
from qfluid.scenario import (  # noqa: E402
    ExternalCosine, ExternalHarmonic, ExternalSpec, ExternalTabulated,
    ExternalZero, InitialCosine, InitialEquilibrium, InitialGaussian,
    InitialSpec, InitialTabulated, KernelDelta, KernelDifferenceOfGaussians,
    KernelGaussian, KernelSpec, KernelTabulated, OracleSpec, PhysSpec,
    Scenario, TermSpec, build_external, build_flags, build_initial_state,
    build_params, parse_scenario, serialize)


def floats(lo=None, hi=None, **kw):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False, **kw)


ANY = floats()
POSITIVE = floats(0.0, exclude_min=True)
NON_NEGATIVE = floats(0.0)


# Strategy per settable field of every spec class. Box lengths stay in
# [0.9, 1.1] so one set of ranges keeps every grid's density above its
# floor, its gaussian packet clear of the harmonic seam, and its kernels
# contained (width < L/8, and L/16 for the outer gaussian of a DoG) yet
# resolved by n >= 16 samples.
LENGTH = floats(0.9, 1.1)
FIELDS = {
    PhysSpec: dict(hbar=floats(0.01, 1.0), mass=floats(0.5, 2.0),
                   kT=floats(1.0, 10.0), a2=st.none() | ANY, c=POSITIVE),
    TermSpec: dict(thermo=st.booleans(), quantum=st.booleans(),
                   quantum_order=st.integers(1, 3)),
    InitialGaussian: dict(center=st.none() | floats(0.40, 0.50),
                          width=floats(0.088, 0.099),
                          amplitude=floats(0.1, 10.0),
                          boost=floats(-1e3, 1e3), pedestal=floats(0.0, 1.0),
                          pedestal_kind=st.sampled_from(["uniform",
                                                         "thermal"])),
    InitialCosine: dict(base=floats(1.0, 2.0), amplitude=floats(-0.5, 0.5),
                        mode=st.integers(-8, 8), phase=ANY, phi_amplitude=ANY,
                        phi_mode=st.integers(-8, 8), phi_phase=ANY),
    InitialEquilibrium: dict(mean_density=floats(0.1, 10.0),
                             amplitude=floats(-1.0, 1.0),
                             width=floats(0.05, 0.45),
                             center=st.none() | floats(0.0, 0.9)),
    InitialTabulated: dict(file=st.just("rho.csv")),
    ExternalZero: dict(),
    ExternalHarmonic: dict(omega=floats(0.01, 2.0)),
    ExternalCosine: dict(v0=floats(-2.0, 2.0)),
    ExternalTabulated: dict(file=st.just("v.csv")),
    KernelGaussian: dict(width=floats(0.035, 0.11)),
    KernelDifferenceOfGaussians: dict(width=floats(0.035, 0.056)),
    KernelDelta: dict(),
    KernelTabulated: dict(file=st.just("kern.csv")),
    # t_end is set to a whole number of steps in scenarios()
    SolverConfig: dict(dt=floats(0.0, 1e300, exclude_min=True),
                       t_end=st.just(0.0),
                       snapshot_stride=st.integers(min_value=1),
                       dealias=st.booleans(),
                       density_floor=floats(0.0, 1.0, exclude_min=True,
                                            exclude_max=True)),
    OracleSpec: dict(dt=st.none() | POSITIVE, t_end=st.none() | NON_NEGATIVE,
                     snapshot_stride=st.none() | st.integers(min_value=1)),
}
SPECS = {cls: st.builds(cls, **kw) for cls, kw in FIELDS.items()}
NAME = st.from_regex(r"[\w.-]([\w. -]*[\w.-])?", fullmatch=True)


def kinds(union) -> list:
    return list(typing.get_args(union))


def one_kind_of(union):
    return st.one_of([SPECS[cls] for cls in kinds(union)])


@st.composite
def scenarios(draw, tables: str):
    """A valid scenario whose tabulated kinds read from ``tables``."""
    initial = draw(one_kind_of(InitialSpec))
    terms = draw(SPECS[TermSpec])
    if initial.kind == "equilibrium":
        terms = dataclasses.replace(terms, quantum=False)
    kernel = None
    if terms.quantum and terms.quantum_order >= 2:
        # moments need a kernel, and the delta has none beyond c_0; a
        # non-negative kernel's c_2n are all positive, so its series is
        # well-posed, where the difference of gaussians' c_4 = -10.5 makes
        # order 2 ill-posed once a^2 k^2 > 1.14 (1.78 with thermo on)
        kernel = draw(st.one_of([SPECS[cls] for cls in kinds(KernelSpec)
                                 if cls not in (KernelDelta,
                                                KernelDifferenceOfGaussians)]))
    physics = draw(SPECS[PhysSpec])
    if physics.a2 is not None and terms.quantum:
        # a real hbar_eff needs a2 > 0
        physics = dataclasses.replace(physics, a2=draw(floats(1e-6, 1.0)))
    scn = Scenario(
        name=draw(NAME), grid=Grid(n=2 * draw(st.integers(8, 16)),
                                   length=draw(LENGTH)),
        physics=physics, terms=terms, initial=initial,
        external=draw(one_kind_of(ExternalSpec)), kernel=kernel,
        solver=draw(SPECS[SolverConfig]), oracle=draw(SPECS[OracleSpec]))
    dt = scn.solver.dt
    params, flags = build_params(scn), build_flags(scn, scn.grid, tables)
    if terms.quantum:
        # a series' step bound needs its kernel's moments
        dt = draw(floats(0.0, stability_bound(scn.grid, params, flags),
                         exclude_min=True))
    # the floor sits below the initial state's least density share, where
    # the run's own check passes it (rounding decides at the share itself)
    state = build_initial_state(scn, scn.grid, params,
                                build_external(scn, tables), tables,
                                flags=flags)
    rho = state.density().values
    share = min(float(rho.min()) / float(rho.mean()), 1.0)
    floor = draw(floats(0.0, share, exclude_min=True, exclude_max=True)
                 .filter(lambda f: _clears(state, f)))
    solver = dataclasses.replace(scn.solver, dt=dt,
                                 t_end=draw(st.integers(0, 1000)) * dt,
                                 density_floor=floor)
    return dataclasses.replace(scn, solver=solver)


def _clears(state, floor) -> bool:
    try:
        check_state(state, floor)
    except SolverAbort:
        return False
    return True


@pytest.fixture(scope="module")
def tables(tmp_path_factory):
    """The CSV files the tabulated kinds name, in one directory."""
    out = tmp_path_factory.mktemp("tables")
    xs = np.linspace(0.0, 2.0, 21)
    for name, ys in (("rho.csv", 1.0 + 0.5 * np.sin(np.pi * xs) ** 2),
                     ("v.csv", 0.3 * np.cos(np.pi * xs))):
        np.savetxt(out / name, np.column_stack([xs, ys]), delimiter=",",
                   header="x,y", comments="")
    ks = np.linspace(-0.2, 0.2, 41)
    np.savetxt(out / "kern.csv",
               np.column_stack([ks, np.exp(-ks**2 / (2 * 0.02**2))]),
               delimiter=",", header="x,u", comments="")
    return str(out)


def test_strategies_cover_every_key_of_every_kind():
    for union in (InitialSpec, ExternalSpec, KernelSpec):
        assert set(kinds(union)) <= set(FIELDS)
    for cls, strategies in FIELDS.items():
        keys = {f.name for f in dataclasses.fields(cls) if f.init}
        assert set(strategies) == keys, cls.__name__


@settings(derandomize=True, deadline=None, max_examples=150, database=None)
@given(data=st.data())
def test_parse_inverts_serialize(tables, data):
    scn = data.draw(scenarios(tables))
    assert parse_scenario(serialize(scn), tables) == scn
