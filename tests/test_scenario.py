"""Scenario parsing, validation, construction, and serialization."""

from pathlib import Path

import numpy as np
import pytest

from qfluid import presets
from qfluid.madelung import rhs
from qfluid.scenario import (ScenarioError, build_external, build_flags,
                             build_grid, build_initial_state,
                             build_oracle_config, build_params,
                             build_solver_config, parse_scenario, serialize)

MINIMAL = """\
[grid]
n = 32
length = 1.0

[initial]
kind = cosine
amplitude = 0.1
"""


def build_all(text, base_dir=None):
    scn = parse_scenario(text, base_dir)
    grid = build_grid(scn)
    params = build_params(scn)
    vext = build_external(scn, base_dir)
    state = build_initial_state(scn, grid, params, vext, base_dir)
    return scn, grid, params, vext, state


# ------------------------------------------------------------------ parsing

def test_minimal_scenario_defaults():
    scn = parse_scenario(MINIMAL)
    assert scn.name == "unnamed"
    assert scn.physics.hbar == 1.0 and scn.physics.kT == 1.0
    assert scn.physics.a2_mode == "de_broglie"
    assert scn.terms.thermo and not scn.terms.quantum
    assert scn.external.kind == "zero"
    assert scn.kernel is None
    assert scn.solver.dt == 1e-3 and scn.solver.t_end == 1.0
    assert scn.solver.dealias is True
    assert scn.output.plot is False
    oc = build_oracle_config(scn)
    assert oc.dt == scn.solver.dt
    assert oc.t_end == scn.solver.t_end
    assert oc.nonlinearity and oc.strang
    sc = build_solver_config(scn)
    assert sc.density_floor == 1e-12


def test_comments_and_blank_lines_ignored():
    text = "# leading comment\n; alt comment\n\n" + MINIMAL
    parse_scenario(text)


@pytest.mark.parametrize("text,match,line", [
    ("[nope]\n", r"unknown section \[nope\]", 1),
    ("[grid]\nn = 32\n[grid]\n", r"duplicate section", 3),
    ("[grid\nn = 32\n", "malformed section header", 1),
    ("n = 32\n", "key before any", 1),
    ("[grid]\nn 32\n", "expected key = value", 2),
    ("[grid]\nn = 32\nn = 64\n", "duplicate key", 3),
    ("[grid]\n= 32\n", "empty key", 2),
])
def test_tokenizer_errors_carry_line_numbers(text, match, line):
    with pytest.raises(ScenarioError, match=match) as info:
        parse_scenario(text)
    assert info.value.line == line
    assert f"line {line}:" in str(info.value)


def test_unknown_key_rejected():
    text = MINIMAL + "\n[solver]\ndt = 1e-3\ntimestep = 1e-3\n"
    with pytest.raises(ScenarioError, match="unknown key 'timestep'"):
        parse_scenario(text)


def test_missing_required_section():
    with pytest.raises(ScenarioError, match=r"missing required section \[initial\]"):
        parse_scenario("[grid]\nn = 32\nlength = 1.0\n")
    with pytest.raises(ScenarioError, match=r"missing required section \[grid\]"):
        parse_scenario("[initial]\nkind = cosine\n")


def test_missing_required_key():
    with pytest.raises(ScenarioError, match="missing required key 'length'"):
        parse_scenario("[grid]\nn = 32\n[initial]\nkind = cosine\n")


@pytest.mark.parametrize("bad,match", [
    ("n = eight", "expected an integer"),
    ("n = 32.5", "expected an integer"),
])
def test_bad_int_conversion(bad, match):
    with pytest.raises(ScenarioError, match=match):
        parse_scenario(f"[grid]\n{bad}\nlength = 1.0\n[initial]\nkind = cosine\n")


def test_bad_float_and_bool_conversions():
    with pytest.raises(ScenarioError, match="expected a number"):
        parse_scenario(MINIMAL.replace("length = 1.0", "length = one"))
    text = MINIMAL + "\n[solver]\ndealias = maybe\n"
    with pytest.raises(ScenarioError, match="expected true or false"):
        parse_scenario(text)


def test_bad_choice_lists_alternatives():
    text = MINIMAL.replace("kind = cosine", "kind = soliton")
    with pytest.raises(ScenarioError, match="expected one of gaussian"):
        parse_scenario(text)


def test_grid_rules_surface_with_lines():
    text = MINIMAL.replace("n = 32", "n = 9")
    with pytest.raises(ScenarioError, match="even") as info:
        parse_scenario(text)
    assert info.value.line == 2
    with pytest.raises(ScenarioError, match="length"):
        parse_scenario(MINIMAL.replace("length = 1.0", "length = -1.0"))


def test_de_broglie_needs_positive_temperature():
    text = MINIMAL + "\n[physics]\nkT = 0.0\n"
    with pytest.raises(ScenarioError, match="kT > 0"):
        parse_scenario(text)


def test_explicit_a2_key_rules():
    text = MINIMAL + "\n[physics]\na2 = 0.01\n"
    with pytest.raises(ScenarioError, match="a2_mode = explicit"):
        parse_scenario(text)
    ok = MINIMAL + "\n[physics]\na2_mode = explicit\na2 = 0.01\n"
    assert parse_scenario(ok).physics.a2 == 0.01


def test_terms_external_cross_checks():
    on_without_potential = MINIMAL + "\n[terms]\nexternal = true\n"
    with pytest.raises(ScenarioError, match="kind is zero"):
        parse_scenario(on_without_potential)
    potential_without_term = MINIMAL + "\n[external]\nkind = cosine\nv0 = 0.5\n"
    with pytest.raises(ScenarioError, match="external term is off"):
        parse_scenario(potential_without_term)


def test_quantum_order_two_needs_kernel():
    text = (MINIMAL
            + "\n[physics]\nhbar = 0.2\n"
            + "\n[terms]\nquantum = true\nquantum_order = 2\n")
    with pytest.raises(ScenarioError, match=r"needs a \[kernel\] section"):
        parse_scenario(text)
    with_kernel = text + "\n[kernel]\nfamily = difference_of_gaussians\nwidth = 0.05\n"
    scn = parse_scenario(with_kernel)
    flags = build_flags(scn, build_grid(scn))
    assert flags.quantum_order == 2
    assert flags.moments is not None
    # n=32 quadrature of the outer gaussian is only good to ~1e-5
    assert flags.moments.a2 == pytest.approx(2 * 0.05**2, rel=1e-4)


def test_kernel_section_validation():
    text = MINIMAL + "\n[kernel]\nfamily = gaussian\n"
    with pytest.raises(ScenarioError, match="needs a width"):
        parse_scenario(text)
    text = MINIMAL + "\n[kernel]\nfamily = tabulated\n"
    with pytest.raises(ScenarioError, match="needs a file"):
        parse_scenario(text)


# ------------------------------------------------------------ initial state

def test_cosine_initial_state():
    text = """\
[grid]
n = 64
length = 2.0

[initial]
kind = cosine
base = 1.5
amplitude = 0.25
mode = 2
phase = 0.3
phi_amplitude = 0.1
phi_mode = 1
phi_phase = -0.2
"""
    scn, grid, params, vext, state = build_all(text)
    x = grid.x
    want_rho = 1.5 + 0.25 * np.cos(2 * np.pi * 2 * x / 2.0 + 0.3)
    want_phi = 0.1 * np.cos(2 * np.pi * x / 2.0 - 0.2)
    assert np.abs(np.exp(state.lam.values) - want_rho).max() < 1e-13
    assert np.abs(state.phi.values - want_phi).max() < 1e-13


def test_gaussian_initial_state_with_boost_and_pedestal():
    text = """\
[grid]
n = 64
length = 1.0

[initial]
kind = gaussian
width = 0.08
amplitude = 2.0
boost = 0.7
pedestal = 0.001
"""
    scn, grid, params, vext, state = build_all(text)
    rho = np.exp(state.lam.values)
    x = grid.x
    want = np.zeros(grid.n)
    for j in range(-3, 4):
        want += np.exp(-0.5 * ((x - 0.5 - j) / 0.08) ** 2)
    want = 2.0 * want + 0.001 * 2.0
    assert np.abs(rho - want).max() < 1e-12
    # the boost profile pins v = -dphi/dx = boost at the packet center
    k = 2.0 * np.pi
    want_phi = -(0.7 / k) * np.sin(k * (x - 0.5))
    assert np.abs(state.phi.values - want_phi).max() < 1e-12
    from qfluid.madelung import velocity
    v = velocity(state).values
    assert v[grid.n // 2] == pytest.approx(0.7, rel=1e-10)


def test_gaussian_rejects_bad_width_and_amplitude():
    base = "[grid]\nn = 32\nlength = 1.0\n\n[initial]\nkind = gaussian\n"
    with pytest.raises(ScenarioError, match="width must be > 0"):
        parse_scenario(base + "width = -0.1\n")
    with pytest.raises(ScenarioError, match="amplitude must be > 0"):
        parse_scenario(base + "width = 0.1\namplitude = 0.0\n")


def test_initial_density_floor_enforced():
    text = """\
[grid]
n = 64
length = 1.0

[initial]
kind = gaussian
width = 0.02
amplitude = 1.0
"""
    with pytest.raises(ScenarioError, match="pedestal"):
        parse_scenario(text)


def test_thermal_pedestal_follows_external_potential():
    text = """\
[grid]
n = 64
length = 1.0

[physics]
kT = 2.0

[terms]
external = true

[initial]
kind = gaussian
width = 0.1
amplitude = 1.0
pedestal = 0.01
pedestal_kind = thermal

[external]
kind = cosine
v0 = 1.0
"""
    scn, grid, params, vext, state = build_all(text)
    rho = np.exp(state.lam.values)
    x = grid.x
    gauss = np.zeros(grid.n)
    for j in range(-3, 4):
        gauss += np.exp(-0.5 * ((x - 0.5 - j) / 0.1) ** 2)
    v = vext.field(grid).values
    shape = np.exp(-(params.m / params.kT) * (v - v.min()))
    want = gauss + 0.01 * shape
    assert np.abs(rho - want).max() < 1e-12


def test_classical_equilibrium_is_boltzmann():
    text = """\
[grid]
n = 64
length = 1.0

[physics]
kT = 0.8

[terms]
external = true

[initial]
kind = equilibrium
mean_density = 2.0

[external]
kind = cosine
v0 = 0.5
"""
    scn, grid, params, vext, state = build_all(text)
    rho = np.exp(state.lam.values)
    v = vext.field(grid).values
    w = np.exp(-(params.m / params.kT) * (v - v.min()))
    want = 2.0 * w / w.mean()
    assert np.abs(rho - want).max() < 1e-12
    assert np.all(state.phi.values == 0.0)


def test_quantum_equilibrium_is_discrete_fixed_point():
    text = """\
[grid]
n = 128
length = 1.0

[physics]
hbar = 0.05
kT = 20.0

[terms]
quantum = true
external = true

[initial]
kind = equilibrium

[external]
kind = harmonic
omega = 25.132741228718345

[solver]
dt = 5e-5
t_end = 1e-3
"""
    scn, grid, params, vext, state = build_all(text)
    flags = build_flags(scn, grid)
    dlam, dphi = rhs(state, flags, params, vext, dealias=scn.solver.dealias)
    assert np.abs(dlam.values).max() < 1e-10
    assert np.ptp(dphi.values) < 1e-9


def test_equilibrium_bump_needs_width():
    text = """\
[grid]
n = 32
length = 1.0

[initial]
kind = equilibrium
amplitude = 0.05
"""
    with pytest.raises(ScenarioError, match="bump needs width > 0"):
        parse_scenario(text)


def test_equilibrium_bump_multiplies_density():
    text = """\
[grid]
n = 64
length = 1.0

[initial]
kind = equilibrium
amplitude = 0.05
width = 0.15
center = 0.4
"""
    scn, grid, params, vext, state = build_all(text)
    rho = np.exp(state.lam.values)
    x = grid.x
    bump = np.zeros(grid.n)
    for j in range(-3, 4):
        bump += np.exp(-0.5 * ((x - 0.4 - j) / 0.15) ** 2)
    want = 1.0 * np.exp(0.05 * bump)  # flat Boltzmann profile without V
    assert np.abs(rho - want).max() < 1e-12


def test_tabulated_initial_state(tmp_path):
    xs = np.linspace(0.0, 1.0, 11)
    rho = 1.0 + 0.2 * np.sin(2 * np.pi * xs) ** 2
    path = tmp_path / "rho.csv"
    np.savetxt(path, np.column_stack([xs, rho]), delimiter=",", header="x,rho",
               comments="")
    text = """\
[grid]
n = 32
length = 1.0

[initial]
kind = tabulated
file = rho.csv
"""
    scn, grid, params, vext, state = build_all(text, base_dir=str(tmp_path))
    got = np.exp(state.lam.values)
    want = np.interp(grid.x, xs, rho, period=1.0)
    assert np.abs(got - want).max() < 1e-12


def test_tabulated_initial_rejects_bad_columns(tmp_path):
    path = tmp_path / "rho.csv"
    path.write_text("x,rho,extra\n0,1,0\n1,1,0\n")
    text = "[grid]\nn = 32\nlength = 1.0\n\n[initial]\nkind = tabulated\nfile = rho.csv\n"
    with pytest.raises(ScenarioError, match="two columns"):
        parse_scenario(text, base_dir=str(tmp_path))


# ----------------------------------------------------------- serialization

@pytest.mark.parametrize("name", sorted(presets.suite()))
def test_presets_serialize_round_trip(name):
    scn = presets.suite()[name]
    assert parse_scenario(serialize(scn)) == scn


def test_synthetic_scenario_round_trip(tmp_path):
    xs = np.linspace(-0.4, 0.4, 81)
    us = np.exp(-(xs**2) / (2 * 0.05**2))
    np.savetxt(tmp_path / "kern.csv", np.column_stack([xs, us]),
               delimiter=",", header="x,u", comments="")
    text = """\
[scenario]
name = synthetic

[grid]
n = 64
length = 2.0

[physics]
hbar = 0.3
mass = 1.5
kT = 0.7
a2_mode = explicit
a2 = 0.01

[terms]
thermo = true
quantum = true
external = false
quantum_order = 2

[kernel]
family = tabulated
file = kern.csv

[initial]
kind = cosine
amplitude = 0.05

[solver]
dt = 1e-4
t_end = 0.01
snapshot_stride = 10

[oracle]
dt = 5e-5
nonlinearity = false
"""
    scn = parse_scenario(text, base_dir=str(tmp_path))
    again = parse_scenario(serialize(scn), base_dir=str(tmp_path))
    assert again == scn
    oc = build_oracle_config(scn)
    assert oc.dt == 5e-5
    assert oc.t_end == 0.01  # inherited from the solver
    assert oc.nonlinearity is False


DEMO_SCENARIOS = Path(__file__).resolve().parents[1] / "demos" / "scenarios"


@pytest.mark.parametrize("name", sorted(presets.suite()))
def test_demo_scenario_files_are_serialized_presets(name):
    on_disk = (DEMO_SCENARIOS / f"{name}.ini").read_bytes()
    assert on_disk == serialize(presets.suite()[name]).encode("utf-8")


def test_evacuation_demo_round_trips():
    scn = parse_scenario((DEMO_SCENARIOS / "evacuation.ini").read_text())
    assert parse_scenario(serialize(scn)) == scn


def test_kernel_keys_follow_the_family():
    text = MINIMAL + "\n[kernel]\nfamily = delta\nwidth = 0.05\n"
    with pytest.raises(ScenarioError,
                       match=r"unknown key 'width' in section \[kernel\]"):
        parse_scenario(text)


def test_diverging_equilibrium_refinement_fails_cleanly():
    # the series closure of a narrow kernel is too stiff for the trap well
    text = (serialize(presets.trap()).replace("quantum_order = 1",
                                              "quantum_order = 2")
            + "\n[kernel]\nfamily = difference_of_gaussians\nwidth = 0.01\n")
    with pytest.raises(ScenarioError, match="did not converge"):
        parse_scenario(text)
