"""Scenario parsing, validation, construction, and serialization."""

import ast
import dataclasses
from pathlib import Path

import numpy as np
import pytest

from qfluid import presets, scenario
from qfluid.madelung import rhs, run
from qfluid.params import ExternalZero
from qfluid.scenario import (KernelGaussian, ScenarioError, build_external,
                             build_flags, build_grid, build_initial_state,
                             build_oracle_config, build_params,
                             build_solver_config, load, parse_scenario,
                             serialize)

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
    assert scn.physics.a2 is None
    assert build_params(scn).a2_explicit is None
    assert scn.terms.thermo and not scn.terms.quantum
    assert scn.external.kind == "zero"
    assert scn.kernel is None
    assert scn.solver.dt == 1e-3 and scn.solver.t_end == 1.0
    assert scn.solver.dealias is True
    oc = build_oracle_config(scn)
    assert oc.dt == scn.solver.dt
    assert oc.t_end == scn.solver.t_end
    assert oc.nonlinearity
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
    # a key that is not there names its section's header line
    with pytest.raises(ScenarioError,
                       match="missing required key 'length'") as info:
        parse_scenario("[initial]\nkind = cosine\n[grid]\nn = 32\n")
    assert info.value.line == 3
    with pytest.raises(ScenarioError,
                       match="missing required key 'kind'") as info:
        parse_scenario("[grid]\nn = 32\nlength = 1.0\n\n[initial]\n")
    assert info.value.line == 5


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
    with pytest.raises(ScenarioError, match="expected a finite number"):
        parse_scenario(MINIMAL.replace("length = 1.0", "length = inf"))
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
    """Giving a2 makes the kernel length explicit; without it, thermal."""
    setup = load(MINIMAL + "\n[physics]\na2 = 0.01\n")
    assert setup.scn.physics.a2 == 0.01
    assert setup.params.a2_explicit == 0.01 and setup.params.a2 == 0.01
    assert load(MINIMAL).params.a2_explicit is None


def test_the_external_term_follows_the_external_kind():
    assert load(MINIMAL).vext.kind == "zero"
    setup = load(MINIMAL + "\n[external]\nkind = cosine\nv0 = 0.5\n")
    assert setup.vext.kind == "cosine"
    args = (setup.state, setup.flags, setup.params)
    _, on = rhs(*args, setup.vext)
    _, off = rhs(*args, ExternalZero())
    v = setup.vext.field(setup.scn.grid).values
    assert np.abs(on.values - off.values - v).max() < 1e-14


def test_a_tabulated_potential_loads_at_build(tmp_path):
    (tmp_path / "v.csv").write_text("x,V\n0.0,1.0\n0.5,3.0\n1.0,1.0\n")
    text = MINIMAL + "\n[external]\nkind = tabulated\nfile = v.csv\n"
    setup = load(text, base_dir=str(tmp_path))
    assert setup.vext.kind == "tabulated"
    assert setup.vext.field(setup.scn.grid).values.max() == 3.0


# a potential whose samples the build rejects fails at its kind line
@pytest.mark.parametrize("external, match", [
    ("kind = tabulated\nfile = open.csv", "not periodic"),
    ("kind = tabulated\nfile = nan.csv", "must be finite"),
], ids=["open-table", "nan-table"])
def test_a_potential_that_cannot_be_sampled_fails_at_its_kind(
        external, match, tmp_path):
    (tmp_path / "open.csv").write_text("x,V\n0.0,1.0\n1.0,3.0\n")
    (tmp_path / "nan.csv").write_text("x,V\n0.0,1.0\n0.5,nan\n1.0,1.0\n")
    text = MINIMAL + "\n[external]\n" + external + "\n"
    with pytest.raises(ScenarioError, match=match) as info:
        load(text, base_dir=str(tmp_path))
    assert info.value.line == text.splitlines().index("[external]") + 2


# a number must be finite: nan and inf fail at parse, on their key's line
@pytest.mark.parametrize("section", [
    "[external]\nkind = cosine\nv0 = inf",
    "[external]\nkind = cosine\nv0 = nan",
    "[solver]\nt_end = inf",
    "[solver]\nt_end = nan",
    "[oracle]\nt_end = nan",
    "[initial]\nkind = gaussian\nwidth = 0.1\npedestal = nan",
    "[initial]\nkind = gaussian\nwidth = 0.1\ncenter = nan",
    "[initial]\nkind = cosine\nphase = -inf",
], ids=["inf-v0", "nan-v0", "inf-t_end", "nan-t_end", "nan-oracle-t_end",
        "nan-pedestal", "nan-center", "inf-phase"])
def test_a_number_that_is_not_finite_fails_on_its_line(section):
    text = "[grid]\nn = 32\nlength = 1.0\n\n" + section + "\n"
    if not section.startswith("[initial]"):
        text += "\n[initial]\nkind = cosine\n"
    culprit = section.splitlines()[-1]
    key = culprit.split(" = ")[0]
    with pytest.raises(ScenarioError,
                       match=f"key '{key}': expected a finite number") as info:
        parse_scenario(text)
    assert info.value.line == text.splitlines().index(culprit) + 1


def test_the_oracle_nonlinearity_follows_thermo():
    assert load(MINIMAL).oracle.nonlinearity
    off = load(MINIMAL + "\n[terms]\nthermo = false\n")
    assert not off.oracle.nonlinearity


# keys another input decides, and the [output] section, are unknown now
@pytest.mark.parametrize("section,culprit", [
    ("[terms]\nexternal = true", "external = true"),
    ("[physics]\na2_mode = explicit", "a2_mode = explicit"),
    ("[oracle]\nnonlinearity = false", "nonlinearity = false"),
    ("[output]\nplot = true", "[output]"),
    ("[oracle]\nstrang = true", "strang = true"),
], ids=["external", "a2_mode", "nonlinearity", "output", "strang"])
def test_removed_keys_fail_at_their_line(section, culprit):
    text = MINIMAL + f"\n{section}\n"
    with pytest.raises(ScenarioError, match="unknown") as info:
        parse_scenario(text)
    assert info.value.line == text.splitlines().index(culprit) + 1


# one case per checked key: the error names the line of its own key, in
# a section that states every key
VALID = {
    "grid": {"n": "32", "length": "1.0"},
    "physics": {"hbar": "1", "mass": "1", "kT": "1", "c": "1"},
    "solver": {"dt": "1e-3", "t_end": "1.0", "snapshot_stride": "1",
               "density_floor": "1e-12"},
    "oracle": {"dt": "1e-3", "t_end": "1.0", "snapshot_stride": "1"},
    "external": {"kind": "harmonic", "omega": "1"},
}


@pytest.mark.parametrize("section,key,value", [
    ("grid", "n", "9"),
    ("grid", "length", "-1.0"),
    ("physics", "hbar", "-1"),
    ("physics", "mass", "0"),
    ("physics", "kT", "0"),
    ("physics", "c", "-1"),
    ("solver", "dt", "-1"),
    ("solver", "t_end", "-1"),
    ("solver", "snapshot_stride", "0"),
    ("solver", "density_floor", "2"),
    ("oracle", "dt", "-1"),
    ("oracle", "t_end", "-1"),
    ("oracle", "snapshot_stride", "0"),
    ("external", "omega", "0"),
    ("external", "omega", "-2"),
    ("external", "omega", "1e200"),
])
def test_value_errors_name_their_own_line(section, key, value):
    keys = dict(VALID[section], **{key: value})
    text = "[initial]\nkind = cosine\n\n"
    if section != "grid":
        text += "[grid]\nn = 32\nlength = 1.0\n\n"
    text += f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
    with pytest.raises(ScenarioError, match=key) as info:
        parse_scenario(text)
    assert info.value.line == text.splitlines().index(f"{key} = {value}") + 1


def test_quantum_order_two_needs_kernel():
    text = (MINIMAL
            + "\n[physics]\nhbar = 0.2\n"
            + "\n[terms]\nquantum = true\nquantum_order = 2\n")
    with pytest.raises(ScenarioError,
                       match=r"needs a \[kernel\] section") as info:
        parse_scenario(text)
    assert info.value.line == text.splitlines().index("quantum_order = 2") + 1
    # a gaussian (c_4 = +3) keeps the series well-posed on this grid; its
    # step bound is 5.5e-4, below the default dt
    with_kernel = (text + "\n[kernel]\nfamily = gaussian\nwidth = 0.05\n"
                   + "\n[solver]\ndt = 5e-4\n")
    scn = parse_scenario(with_kernel)
    flags = build_flags(scn, build_grid(scn))
    assert flags.quantum_order == 2
    assert flags.moments is not None
    assert flags.moments.a2 == pytest.approx(-0.05**2, rel=1e-4)


def test_kernel_section_validation():
    # a kernel's width or file is required: parsing refuses its absence
    # at the [kernel] header, before any build step runs
    for family, key in (("gaussian", "width"), ("tabulated", "file")):
        text = MINIMAL + f"\n[kernel]\nfamily = {family}\n"
        with pytest.raises(ScenarioError,
                           match=f"missing required key '{key}'") as info:
            parse_scenario(text)
        assert info.value.line == text.splitlines().index("[kernel]") + 1


@pytest.mark.parametrize("kernel, culprit, match", [
    ("family = tabulated\nfile = missing.csv", "file = missing.csv",
     "missing.csv not found"),
    ("family = gaussian\nwidth = 0.5", "width = 0.5", "not well contained"),
    ("family = delta", "family = delta", "second moment vanishes"),
    ("family = tabulated\nfile = kern.csv", "file = kern.csv",
     "kern.csv must have exactly two columns"),
], ids=["file", "width", "family", "columns"])
def test_kernel_build_errors_carry_their_kernel_line(kernel, culprit, match,
                                                     tmp_path):
    (tmp_path / "kern.csv").write_text("x,u,extra\n-0.1,0,0\n0,1,0\n0.1,0,0\n")
    text = (MINIMAL + "\n[physics]\nhbar = 0.2\n"
            + "\n[terms]\nquantum = true\nquantum_order = 2\n"
            + "\n[kernel]\n" + kernel + "\n")
    with pytest.raises(ScenarioError, match=match) as info:
        parse_scenario(text, base_dir=str(tmp_path))
    assert info.value.line == text.splitlines().index(culprit) + 1


@pytest.mark.parametrize("terms", [
    "",
    "\n[terms]\nquantum = false\nquantum_order = 2\n",
    "\n[physics]\nhbar = 0.2\n\n[terms]\nquantum = true\n",
], ids=["defaults", "quantum-off", "bohm"])
def test_a_kernel_no_term_reads_is_refused(terms):
    text = MINIMAL + terms + "\n[kernel]\nfamily = gaussian\nwidth = 0.05\n"
    with pytest.raises(ScenarioError, match="is not read") as info:
        parse_scenario(text)
    assert info.value.line == text.splitlines().index("family = gaussian") + 1


BOHM = MINIMAL + "\n[terms]\nquantum = true\n"
NEGATIVE_A2 = BOHM + "\n[physics]\nkT = 1\na2 = -0.01\n"
SERIES = BOHM + "quantum_order = 2\n\n[physics]\nhbar = 0.1\n"


# one error per build step, each on the line its section's rule picks:
# an anchor the message names, the first key it names, the file it
# quotes, the first anchor stated
@pytest.mark.parametrize("text, culprit, match", [
    (NEGATIVE_A2, "a2 = -0.01", "no real effective Planck constant"),
    (NEGATIVE_A2 + "\n[solver]\ndt = 1e-5\nt_end = 1e-3\n", "a2 = -0.01",
     "no real effective Planck constant"),
    (MINIMAL + "\n[external]\nkind = tabulated\nfile = open.csv\n",
     "kind = tabulated", "not periodic"),
    (MINIMAL + "\n[external]\nkind = tabulated\nfile = gone.csv\n",
     "file = gone.csv", "gone.csv not found"),
    (MINIMAL + "\n[kernel]\nfamily = gaussian\nwidth = 0.05\n",
     "family = gaussian", "is not read"),
    (SERIES, "quantum_order = 2", r"needs a \[kernel\] section"),
    (SERIES + "\n[kernel]\nfamily = difference_of_gaussians\nwidth = 0.03\n",
     "family = difference_of_gaussians", "is ill-posed"),
    (BOHM + "\n[solver]\nt_end = 0.5\ndt = 1e-3\n", "dt = 1e-3",
     "violates the quantum stability bound"),
    (MINIMAL + "\n[solver]\nt_end = 0.0015\ndt = 1e-3\n", "dt = 1e-3",
     "not an integer number of steps"),
    (MINIMAL.replace("amplitude = 0.1", "amplitude = 1.5"), "kind = cosine",
     "positive everywhere"),
    (MINIMAL + "\n[oracle]\nsnapshot_stride = 2\ndt = -1\n", "dt = -1",
     "dt must be > 0"),
    # a quoted path is read whole, though its directories bear key names
    (SERIES + "\n[kernel]\nfamily = tabulated\nfile = family/kern.csv\n",
     "file = family/kern.csv", "exactly two columns"),
    (MINIMAL + "\n[external]\nkind = tabulated\nfile = kind/v.csv\n",
     "file = kind/v.csv", "exactly two columns"),
    (MINIMAL.replace("kind = cosine\namplitude = 0.1",
                     "kind = tabulated\nfile = kind/rho.csv"),
     "file = kind/rho.csv", "exactly two columns"),
], ids=["physics", "physics-and-solver", "external", "external-file",
        "kernel-not-read", "terms", "kernel-series", "solver-bound",
        "solver-steps", "initial", "oracle", "kernel-path", "external-path",
        "initial-path"])
def test_each_build_step_names_its_line(text, culprit, match, tmp_path):
    (tmp_path / "open.csv").write_text("x,V\n0.0,1.0\n1.0,3.0\n")
    for name in ("family/kern.csv", "kind/v.csv", "kind/rho.csv"):
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_text("x,y,z\n0.0,1.0,1.0\n0.5,1.0,1.0\n")
    with pytest.raises(ScenarioError, match=match) as info:
        parse_scenario(text, base_dir=str(tmp_path))
    assert info.value.line == text.splitlines().index(culprit) + 1


# ------------------------------------------------------------ initial state

@pytest.mark.parametrize("amplitude", ["9e307", "0"])
def test_an_overflowing_initial_density_is_refused_as_not_finite(amplitude):
    # the profile itself overflows, or only the sum its mean takes
    text = MINIMAL.replace("amplitude = 0.1",
                           f"base = 1e308\namplitude = {amplitude}")
    with pytest.raises(ScenarioError,
                       match="initial density is not finite") as info:
        parse_scenario(text)
    assert info.value.line == text.splitlines().index("kind = cosine") + 1


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
    # an initial-state value error names the line of its key, else the
    # line of the kind
    base = "[grid]\nn = 32\nlength = 1.0\n\n[initial]\nkind = "
    cases = [
        ("gaussian\nwidth = -0.1\n", "width must be > 0", 7),
        ("gaussian\nwidth = 0.1\namplitude = -1\n", "amplitude must be > 0",
         8),
        ("cosine\namplitude = 1.5\n", "positive everywhere", 6),
        ("equilibrium\namplitude = 0.1\n", "bump needs width", 7),
    ]
    for body, message, line in cases:
        with pytest.raises(ScenarioError, match=message) as info:
            parse_scenario(base + body)
        assert info.value.line == line, body


def test_gaussian_rejects_overflowing_boost_with_its_line():
    text = """\
[grid]
n = 32
length = 2.0

[initial]
kind = gaussian
width = 0.2
boost = 1e308
"""
    with pytest.raises(ScenarioError, match="boost") as info:
        parse_scenario(text)
    assert info.value.line == 8


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
a2 = 0.01

[terms]
thermo = true
quantum = true
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
"""
    scn = parse_scenario(text, base_dir=str(tmp_path))
    again = parse_scenario(serialize(scn), base_dir=str(tmp_path))
    assert again == scn
    oc = build_oracle_config(scn)
    assert oc.dt == 5e-5
    assert oc.t_end == 0.01  # inherited from the solver
    assert oc.nonlinearity is True  # follows thermo


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
    # at kT = 1 the trap's Boltzmann profile falls by e^-79 to the seam,
    # too steep for the refinement with Bohm's term alone
    scn = presets.trap()
    text = serialize(dataclasses.replace(
        scn, physics=dataclasses.replace(scn.physics, kT=1.0)))
    with pytest.raises(ScenarioError, match="did not converge"):
        parse_scenario(text)


SERIES_EQUILIBRIUM = """\
[grid]
n = 64
length = 1.0

[physics]
hbar = 0.1

[terms]
thermo = true
quantum = true
quantum_order = 2

[initial]
kind = equilibrium
amplitude = 0.0

[external]
kind = cosine
v0 = 0.5

[kernel]
family = gaussian
width = 0.03

[solver]
dt = 1e-5
t_end = 1e-3
snapshot_stride = 100
"""


def _trap_series():
    # a narrow kernel's remainder acts twice, in the table and through rho:
    # the refinement diverges unless its preconditioner holds both
    scn = presets.trap()
    return serialize(dataclasses.replace(
        scn, terms=dataclasses.replace(scn.terms, quantum_order=2),
        kernel=KernelGaussian(width=0.01),
        initial=dataclasses.replace(scn.initial, amplitude=0.0),
        solver=dataclasses.replace(scn.solver, t_end=200 * scn.solver.dt,
                                   snapshot_stride=200)))


# the records read U_Q masked as the run steps it: the trap reads 1.7e-14,
# where reading it unmasked gave the 2/3 mask's 4.5e-6
@pytest.mark.parametrize("text,residual", [(SERIES_EQUILIBRIUM, 1e-10),
                                           (_trap_series(), 1e-13)],
                         ids=["cosine", "trap"])
def test_thermal_series_equilibrium_is_a_fixed_point(text, residual):
    setup = load(text)
    traj = run(setup.state, setup.scn.solver, setup.flags, setup.params,
               setup.vext)
    assert traj.status == "ok" and len(traj.snapshots) == 2
    first, last = (s.density().values for s in traj.snapshots)
    assert np.abs(last - first).max() < 1e-12 * first.max()
    assert max(r.bernoulli_residual for r in traj.records) < residual


@pytest.mark.parametrize("change,match", [
    (dict(dt=2e-4), "violates the quantum stability bound"),
    (dict(t_end=0.250001), "not an integer number of steps"),
])
def test_unrunnable_solver_section_fails_on_its_dt_line(change, match):
    scn = presets.trap()
    text = serialize(dataclasses.replace(
        scn, solver=dataclasses.replace(scn.solver, **change)))
    with pytest.raises(ScenarioError, match=match) as info:
        parse_scenario(text)
    assert info.value.line == text.splitlines().index("[solver]") + 2


def test_only_scenario_runs_the_builders():
    """The builder sequence runs in scenario.build alone."""
    builders = {"build_initial_state", "build_flags", "build_external"}
    src = Path(__file__).resolve().parents[1] / "src" / "qfluid"
    offenders = []
    for path in sorted(src.glob("*.py")):
        if path.name == "scenario.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "attr", getattr(func, "id", None))
                if name in builders:
                    offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_only_madelung_reads_the_operator():
    """No module but madelung names the operator or its readers, nor reads
    an operator's ``rate`` or ``bernoulli``, nor imports a private name of
    madelung (its state stacks among them): the U_Q fixed point and a
    snapshot's fields are the solver's, and the operator can change inside
    one file."""
    names = {"Tendency", "_reader", "_uq_reader", "_stack", "_fields"}
    attrs = names | {"rate", "bernoulli"}
    src = Path(__file__).resolve().parents[1] / "src" / "qfluid"
    offenders = []
    for path in sorted(src.glob("*.py")):
        if path.name == "madelung.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used = node.id in names
            elif isinstance(node, ast.ImportFrom):
                used = node.module == "madelung" and any(
                    a.name.startswith("_") for a in node.names)
            elif isinstance(node, ast.alias):  # an import, dotted or not
                used = node.name.rpartition(".")[2] in names
            else:
                used = getattr(node, "attr", None) in attrs
            if used:
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_loading_a_quantum_equilibrium_builds_its_flags_once(monkeypatch):
    """The refinement of trap's equilibrium reads the flags build made."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return build_flags(*args, **kwargs)

    monkeypatch.setattr(scenario, "build_flags", counted)
    load(serialize(presets.trap()))
    assert len(calls) == 1


def test_readme_scenario_example_loads():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8")
    example = text.split("```ini\n", 1)[1].split("```", 1)[0]
    setup = load(example)
    assert setup.scn.name == "trap" and setup.vext.kind == "harmonic"
