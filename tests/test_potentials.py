"""Thermodynamic potentials, the quantum potential in all forms, and params."""

import math

import numpy as np
import pytest

from qfluid.grid import Field, Grid
from qfluid.params import (ExternalCosine, ExternalHarmonic, ExternalTable,
                           ExternalZero, PhysParams)
from qfluid.potentials import (bohm_identity_residual, bohm_potential,
                               bohm_potential_log, enthalpy,
                               euler_lagrange_oracle, internal_energy,
                               log_density, pressure)


@pytest.fixture
def grid():
    return Grid(n=128, length=2.0)


def cos_density(grid, amp=0.3, mode=2):
    w = 2.0 * np.pi * mode / grid.length
    return Field(grid, np.exp(amp * np.cos(w * grid.x))), amp, w


# ---------------------------------------------------------------- parameters

def test_phys_params_validation():
    with pytest.raises(ValueError, match="hbar"):
        PhysParams(hbar=0.0)
    with pytest.raises(ValueError, match="mass"):
        PhysParams(m=-1.0)
    with pytest.raises(ValueError, match="kT"):
        PhysParams(kT=-0.5)
    with pytest.raises(ValueError, match="signal speed"):
        PhysParams(c=0.0)


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("name", ["hbar", "m", "kT", "a2_explicit"])
def test_phys_params_refuse_non_finite_constants(name, value):
    # NaN passes every comparison, and inf each sign rule
    with pytest.raises(ValueError,
                       match=f"^{name} must be finite, got {value}$"):
        PhysParams(**{name: value})


def test_de_broglie_length_needs_positive_kT():
    # no explicit a2 means a^2 = hbar^2 / (4 m kT)
    with pytest.raises(ValueError, match="kT > 0"):
        PhysParams(a2_explicit=None, kT=0.0)
    assert PhysParams(a2_explicit=0.01, kT=0.0).a2 == 0.01


def test_de_broglie_length_and_coefficient():
    p = PhysParams(hbar=0.4, m=2.0, kT=5.0)
    assert p.a2 == pytest.approx(0.4**2 / (4.0 * 2.0 * 5.0), rel=1e-15)
    assert p.quantum_coefficient == pytest.approx(0.4**2 / (2.0 * 4.0), rel=1e-15)
    assert p.hbar_eff == 0.4


def test_explicit_mode_coefficient_and_hbar_eff():
    p = PhysParams(hbar=1.0, m=2.0, kT=3.0, a2_explicit=0.08)
    assert p.a2 == 0.08
    assert p.quantum_coefficient == pytest.approx(2.0 * 1.5 * 0.08, rel=1e-15)
    assert p.hbar_eff == pytest.approx(2.0 * 2.0 * np.sqrt(1.5 * 0.08), rel=1e-15)
    neg = PhysParams(hbar=1.0, m=2.0, kT=3.0, a2_explicit=-0.08)
    with pytest.raises(ValueError, match="effective Planck"):
        neg.hbar_eff


def test_external_potential_kinds(grid):
    assert np.all(ExternalZero().field(grid).values == 0.0)

    h = ExternalHarmonic(3.0).field(grid).values
    d = grid.x - 0.5 * grid.length
    assert np.abs(h - 0.5 * 9.0 * d**2).max() < 1e-14

    c = ExternalCosine(0.7).field(grid).values
    assert np.abs(c - 0.7 * np.cos(2 * np.pi * grid.x / grid.length)).max() < 1e-14

    for omega in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="omega > 0"):
            ExternalHarmonic(omega)


def test_equal_potentials_are_equal_and_tables_are_themselves():
    # the operator cache keys on the potential: equal kinds share a key
    assert ExternalHarmonic(2.0) == ExternalHarmonic(2.0)
    assert hash(ExternalCosine(0.5)) == hash(ExternalCosine(0.5))
    assert ExternalZero() != ExternalCosine(0.0)
    xs, vs = [0.0, 1.0, 2.0], [1.0, 3.0, 1.0]
    table = ExternalTable(xs, vs)
    assert table == table and table != ExternalTable(xs, vs)


def test_tabulated_potential_interpolates_periodically(grid):
    xs = [0.0, 0.5, 1.0, 1.5, 2.0]
    vs = [0.0, 1.0, 0.0, -1.0, 0.0]
    v = ExternalTable(xs, vs).field(grid).values
    want = np.interp(grid.x, xs, vs)
    assert np.abs(v - want).max() < 1e-14
    # a table over half the box repeats across it
    half = ExternalTable([0.0, 0.5, 1.0], [0.0, 1.0, 0.0]).field(grid).values
    assert np.array_equal(half, np.interp(grid.x % 1.0, xs[:3], vs[:3]))


def test_tabulated_potential_validation():
    with pytest.raises(ValueError, match="periodic"):
        ExternalTable([0.0, 1.0], [0.0, 2.0])
    with pytest.raises(ValueError, match="increase"):
        ExternalTable([0.0, 0.0, 1.0], [1.0, 2.0, 1.0])
    for xs, vs in (([0.0, 1.0], [1.0, 2.0, 1.0]), ([0.0], [1.0]),
                   ([[0.0, 1.0]], [[1.0, 1.0]])):
        with pytest.raises(ValueError, match="two matching 1d columns"):
            ExternalTable(xs, vs)


def test_potential_from_csv(tmp_path):
    path = tmp_path / "pot.csv"
    path.write_text("x,V\n0.0,1.0\n1.0,3.0\n2.0,1.0\n")
    pot = ExternalTable.from_csv(path)
    assert pot.kind == "tabulated"
    assert pot.field(Grid(n=8, length=2.0)).values[0] == pytest.approx(1.0)
    bad = tmp_path / "bad.csv"
    bad.write_text("x\n0.0\n1.0\n")
    with pytest.raises(ValueError, match="two columns"):
        ExternalTable.from_csv(bad)


# ------------------------------------------------------------ thermodynamics

def test_thermodynamic_fields(grid):
    rho, _, _ = cos_density(grid)
    p = PhysParams(hbar=1.0, m=0.5, kT=2.0)
    lam = np.log(rho.values)
    assert np.abs(internal_energy(rho, p).values - 4.0 * lam).max() < 1e-13
    assert np.abs(enthalpy(rho, p).values - 4.0 * (lam + 1.0)).max() < 1e-13
    assert np.abs(pressure(rho, p).values - 4.0 * rho.values).max() < 1e-13
    assert np.abs(log_density(rho).values - lam).max() == 0.0


def test_thermodynamics_reject_vanishing_density(grid):
    vals = np.ones(grid.n)
    vals[0] = 0.0
    p = PhysParams()
    with pytest.raises(ValueError, match="positive"):
        internal_energy(Field(grid, vals), p)


# --------------------------------------------------------- quantum potential

def test_bohm_gradient_form_matches_analytic(grid):
    rho, amp, w = cos_density(grid)
    p = PhysParams(hbar=0.3, m=1.5, kT=1.0)
    qc = 0.3**2 / (2.0 * 1.5**2)
    x = grid.x
    lam_dd = -amp * w**2 * np.cos(w * x)
    lam_d_sq = (amp * w * np.sin(w * x)) ** 2
    want = -0.5 * qc * (lam_dd + 0.5 * lam_d_sq)
    got = bohm_potential(rho, p, "gradient_form").values
    assert np.abs(got - want).max() < 1e-12 * np.abs(want).max()


def test_bohm_is_temperature_independent_in_de_broglie_mode(grid):
    rho, _, _ = cos_density(grid)
    cold = bohm_potential(rho, PhysParams(hbar=0.3, m=1.0, kT=0.2)).values
    hot = bohm_potential(rho, PhysParams(hbar=0.3, m=1.0, kT=9.0)).values
    assert np.abs(cold - hot).max() == 0.0


def test_bohm_forms_agree(grid):
    rho, _, _ = cos_density(grid)
    p = PhysParams(hbar=0.3, m=1.0, kT=1.0)
    assert bohm_identity_residual(rho, p) < 1e-10
    flat = Field(grid, np.full(grid.n, 2.0))
    assert bohm_identity_residual(flat, p) == 0.0


def test_bohm_rejects_unknown_form(grid):
    rho, _, _ = cos_density(grid)
    with pytest.raises(ValueError, match="form"):
        bohm_potential(rho, PhysParams(), "weak_form")


def test_variational_derivative_matches_closed_form():
    g = Grid(n=16, length=2.0)
    rho = Field(g, np.exp(0.2 * np.cos(2 * np.pi * g.x / g.length)))
    a2 = 0.04
    p = PhysParams(hbar=1.0, m=1.0, kT=1.0, a2_explicit=a2)
    numeric = euler_lagrange_oracle(rho, np.sqrt(a2), p).values
    closed = bohm_potential(rho, p, "gradient_form").values
    assert np.abs(numeric - closed).max() < 1e-6 * np.abs(closed).max()


def test_variational_oracle_delta_bounds():
    g = Grid(n=16, length=2.0)
    rho = Field(g, np.ones(g.n))
    p = PhysParams()
    with pytest.raises(ValueError, match="delta"):
        euler_lagrange_oracle(rho, 0.1, p, delta=1e-3)
    with pytest.raises(ValueError, match="delta"):
        euler_lagrange_oracle(rho, 0.1, p, delta=1e-9)
