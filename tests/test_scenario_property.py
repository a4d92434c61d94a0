"""Property: parsing the text of any valid scenario gives it back.

Each section and each kind is drawn from its own spec class, field by
field; floats take arbitrary bit patterns, so the ``%.17g`` round trip is
exercised, within ranges that keep the scenario valid. An equilibrium
initial state keeps the quantum term off, so no example pays for the
equilibrium refinement.
"""

import dataclasses
import typing

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from qfluid import Grid, SolverConfig  # noqa: E402
from qfluid.scenario import (  # noqa: E402
    ExternalCosine, ExternalHarmonic, ExternalSpec, ExternalTabulated,
    ExternalZero, InitialCosine, InitialEquilibrium, InitialGaussian,
    InitialSpec, InitialTabulated, KernelDelta, KernelDifferenceOfGaussians,
    KernelGaussian, KernelSpec, KernelTabulated, OracleSpec, OutputSpec,
    PhysSpec, Scenario, TermSpec, parse_scenario, serialize)


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
                   kT=floats(1.0, 10.0),
                   a2_mode=st.sampled_from(["de_broglie", "explicit"]),
                   a2=ANY, c=POSITIVE),
    TermSpec: dict(thermo=st.booleans(), quantum=st.booleans(),
                   external=st.booleans(), quantum_order=st.integers(1, 3)),
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
    SolverConfig: dict(dt=POSITIVE, t_end=NON_NEGATIVE,
                       snapshot_stride=st.integers(min_value=1),
                       dealias=st.booleans(),
                       density_floor=floats(0.0, 1.0, exclude_min=True,
                                            exclude_max=True)),
    OracleSpec: dict(dt=st.none() | POSITIVE, t_end=st.none() | NON_NEGATIVE,
                     snapshot_stride=st.none() | st.integers(min_value=1),
                     nonlinearity=st.booleans(), strang=st.booleans()),
    OutputSpec: dict(plot=st.booleans()),
}
SPECS = {cls: st.builds(cls, **kw) for cls, kw in FIELDS.items()}
NAME = st.from_regex(r"[\w.-]([\w. -]*[\w.-])?", fullmatch=True)


def kinds(union) -> list:
    return list(typing.get_args(union))


def one_kind_of(union):
    return st.one_of([SPECS[cls] for cls in kinds(union)])


@st.composite
def scenarios(draw):
    initial = draw(one_kind_of(InitialSpec))
    external = draw(one_kind_of(ExternalSpec))
    terms = dataclasses.replace(draw(SPECS[TermSpec]),
                                external=external.kind != "zero")
    if initial.kind == "equilibrium":
        terms = dataclasses.replace(terms, quantum=False)
    kernels = st.none() | one_kind_of(KernelSpec)
    if terms.quantum and terms.quantum_order >= 2:
        # moments need a kernel, and the delta has none beyond c_0
        kernels = st.one_of([SPECS[cls] for cls in kinds(KernelSpec)
                             if cls is not KernelDelta])
    physics = draw(SPECS[PhysSpec])
    if physics.a2_mode == "de_broglie":
        physics = dataclasses.replace(physics, a2=None)
    return Scenario(
        name=draw(NAME), grid=Grid(n=2 * draw(st.integers(8, 16)),
                                   length=draw(LENGTH)),
        physics=physics, terms=terms, initial=initial, external=external,
        kernel=draw(kernels), solver=draw(SPECS[SolverConfig]),
        oracle=draw(SPECS[OracleSpec]), output=draw(SPECS[OutputSpec]))


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
@given(scn=scenarios())
def test_parse_inverts_serialize(tables, scn):
    assert parse_scenario(serialize(scn), tables) == scn
