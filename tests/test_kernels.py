"""Kernel families, moment tables, and the non-local energy series."""

import ast
from pathlib import Path

import numpy as np
import pytest

from qfluid.grid import Field, Grid, integrate
from qfluid.kernels import (Kernel, MomentTable, kernel_from_csv, make_kernel,
                            moments, nonlocal_energy, series_energy)
from qfluid.params import PhysParams


@pytest.fixture
def grid():
    return Grid(n=128, length=4.0)


@pytest.fixture
def p():
    return PhysParams(hbar=1.0, m=0.5, kT=2.0)


def smooth_density(grid, amp=0.3, mode=1):
    w = 2.0 * np.pi * mode / grid.length
    return Field(grid, np.exp(amp * np.cos(w * grid.x)))


@pytest.mark.parametrize("family,width", [
    ("gaussian", 0.2),
    ("difference_of_gaussians", 0.15),
    ("delta", None),
])
def test_kernels_even_and_normalized(family, width, grid):
    k = make_kernel(family, grid, width=width)
    assert integrate(k.as_field()) == pytest.approx(1.0, abs=1e-10)
    v = k.values
    rev = v[(-np.arange(grid.n)) % grid.n]
    assert np.abs(v - rev).max() < 1e-12 * np.abs(v).max()


def test_delta_kernel_is_identity_for_nonlocal_energy(grid, p):
    k = make_kernel("delta", grid)
    rho = smooth_density(grid)
    out = nonlocal_energy(rho, k, p)
    want = (p.kT / p.m) * np.log(rho.values)
    assert np.abs(out.values - want).max() < 1e-12


def test_kernel_width_bounded_by_box(grid):
    with pytest.raises(ValueError, match="width"):
        make_kernel("gaussian", grid, width=0.5)  # L/8 = 0.5 exactly
    with pytest.raises(ValueError, match="outer"):
        make_kernel("difference_of_gaussians", grid, width=0.3)  # 2w >= L/8


def test_gaussian_needs_width(grid):
    with pytest.raises(ValueError, match="width"):
        make_kernel("gaussian", grid)


def test_unknown_family_rejected(grid):
    with pytest.raises(ValueError, match="family"):
        make_kernel("lorentzian", grid, width=0.1)


def test_kernel_class_validates_samples(grid):
    flat = np.full(grid.n, 1.0 / grid.length)
    Kernel(grid, flat, "tabulated")  # fine: even and unit integral
    off_center = np.zeros(grid.n)
    off_center[1] = 1.0 / grid.dx  # unit integral but not even
    with pytest.raises(ValueError, match="even"):
        Kernel(grid, off_center, "tabulated")
    with pytest.raises(ValueError, match="integrate"):
        Kernel(grid, 2.0 * flat, "tabulated")


def test_gaussian_moments(grid):
    s = 0.2
    t = moments(make_kernel("gaussian", grid, width=s), max_n=2)
    assert t.a2 == pytest.approx(-(s**2), rel=1e-10)
    assert t.c[0] == 1.0
    assert t.c[1] == pytest.approx(1.0, rel=1e-12)
    assert t.c[2] == pytest.approx(3.0, rel=1e-8)


def test_difference_of_gaussians_moments(grid):
    # keep the outer gaussian narrow so its wrap tails stay below quadrature
    # precision
    s = 0.1
    t = moments(make_kernel("difference_of_gaussians", grid, width=s), max_n=2)
    assert t.a2 == pytest.approx(2.0 * s**2, rel=1e-10)
    assert t.c[1] == pytest.approx(1.0, rel=1e-12)
    assert t.c[2] == pytest.approx(-10.5, rel=1e-8)


def test_delta_moments_beyond_c0_rejected(grid):
    k = make_kernel("delta", grid)
    assert moments(k, max_n=0).a2 == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(ValueError, match="second moment vanishes"):
        moments(k, max_n=1)


def test_moment_table_coefficient_bounds():
    t = MomentTable(a2=0.01, c=(1.0, 1.0, 3.0))
    assert t.coefficient(2) == 3.0
    with pytest.raises(ValueError, match="c_6"):
        t.coefficient(3)


def test_series_energy_order_zero_is_thermal_identity(grid, p):
    rho = smooth_density(grid)
    t = MomentTable(a2=-0.04, c=(1.0, 1.0, 3.0))
    out = series_energy(rho, t, a=0.2, n_terms=0, p=p)
    want = (p.kT / p.m) * np.log(rho.values)
    assert np.abs(out.values - want).max() < 1e-13


def test_series_energy_term_matches_spectral_multiplier(grid, p):
    rho = smooth_density(grid, amp=0.1, mode=3)
    t = MomentTable(a2=-0.04, c=(1.0, 1.0, 3.0))
    a = 0.2
    e1 = series_energy(rho, t, a=a, n_terms=1, p=p)
    e0 = series_energy(rho, t, a=a, n_terms=0, p=p)
    lam_hat = np.fft.fft(np.log(rho.values))
    mult = (-(a**2) * grid.k**2) * t.c[1] / 2.0  # sign follows table.a2 < 0
    want = (p.kT / p.m) * np.fft.ifft(mult * lam_hat).real
    assert np.abs((e1.values - e0.values) - want).max() < 1e-13


def test_series_energy_sign_follows_table(grid, p):
    rho = smooth_density(grid, amp=0.1, mode=2)
    neg = MomentTable(a2=-0.04, c=(1.0, 1.0))
    pos = MomentTable(a2=+0.04, c=(1.0, 1.0))
    a = 0.2
    d_neg = series_energy(rho, neg, a, 1, p).values - series_energy(rho, neg, a, 0, p).values
    d_pos = series_energy(rho, pos, a, 1, p).values - series_energy(rho, pos, a, 0, p).values
    assert np.abs(d_neg + d_pos).max() < 1e-13 * np.abs(d_pos).max()


def test_series_energy_rejects_missing_coefficients(grid, p):
    rho = smooth_density(grid)
    t = MomentTable(a2=-0.04, c=(1.0, 1.0))
    with pytest.raises(ValueError, match="c_4"):
        series_energy(rho, t, a=0.2, n_terms=2, p=p)
    with pytest.raises(ValueError, match="n_terms"):
        series_energy(rho, t, a=0.2, n_terms=-1, p=p)


def test_series_converges_to_nonlocal_for_smooth_density(grid, p):
    # one low mode: truncation error falls with each extra term
    s = 0.12
    kern = make_kernel("gaussian", grid, width=s)
    t = moments(kern, max_n=4)
    rho = smooth_density(grid, amp=0.2, mode=1)
    exact = nonlocal_energy(rho, kern, p).values
    errs = []
    for n_terms in (1, 2, 3):
        approx = series_energy(rho, t, a=s, n_terms=n_terms, p=p).values
        errs.append(np.abs(approx - exact).max())
    assert errs[1] < 0.1 * errs[0]
    assert errs[2] < 0.1 * errs[1]


def test_nonlocal_energy_rejects_grid_mismatch(grid, p):
    k = make_kernel("gaussian", grid, width=0.2)
    other = smooth_density(Grid(n=64, length=4.0))
    with pytest.raises(ValueError, match="different grids"):
        nonlocal_energy(other, k, p)


def test_nonlocal_energy_rejects_vanishing_density(grid, p):
    k = make_kernel("delta", grid)
    vals = np.full(grid.n, 1.0)
    vals[3] = 0.0
    with pytest.raises(ValueError, match="positive"):
        nonlocal_energy(Field(grid, vals), k, p)


def test_tabulated_kernel_resamples_gaussian(grid):
    s = 0.2
    xs = np.linspace(-2.0, 2.0, 4001)
    us = np.exp(-(xs**2) / (2 * s * s)) / (s * np.sqrt(2 * np.pi))
    k = make_kernel("tabulated", grid, table=(xs, us))
    ref = make_kernel("gaussian", grid, width=s)
    assert np.abs(k.values - ref.values).max() < 1e-5 * np.abs(ref.values).max()


def test_tabulated_kernel_requires_table(grid):
    with pytest.raises(ValueError, match="table"):
        make_kernel("tabulated", grid)
    with pytest.raises(ValueError, match="columns"):
        make_kernel("tabulated", grid, table=(np.zeros((2, 2)), np.zeros((2, 2))))


def test_kernel_from_csv_round_trip(tmp_path, grid):
    s = 0.2
    xs = np.linspace(-2.0, 2.0, 2001)
    us = np.exp(-(xs**2) / (2 * s * s)) / (s * np.sqrt(2 * np.pi))
    path = tmp_path / "kernel.csv"
    np.savetxt(path, np.column_stack([xs, us]), delimiter=",", header="x,u",
               comments="")
    k = kernel_from_csv(path, grid)
    direct = make_kernel("tabulated", grid, table=(xs, us))
    assert np.abs(k.values - direct.values).max() == 0.0


def test_kernel_from_csv_rejects_bad_columns(tmp_path, grid):
    path = tmp_path / "kernel.csv"
    path.write_text("x,u,extra\n0,1,2\n0.5,1,2\n")
    with pytest.raises(ValueError, match="two columns"):
        kernel_from_csv(path, grid)


def test_only_the_closure_modules_build_the_series_multiplier():
    """The series multiplier is built in kernels.py and madelung.py alone,
    and once in madelung.py, whose operator holds the closure's linear
    rate; scenario.py rebuilds no part of that rate from the parameters."""
    src = Path(__file__).resolve().parents[1] / "src" / "qfluid"
    offenders = []
    in_madelung = []
    for path in sorted(src.glob("*.py")):
        if path.name == "kernels.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "attr", getattr(func, "id", None))
                if name == "_series_multiplier":
                    (in_madelung if path.name == "madelung.py"
                     else offenders).append(f"{path.name}:{node.lineno}")
            if (path.name == "scenario.py" and isinstance(node, ast.Attribute)
                    and node.attr == "quantum_coefficient"):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []
    assert len(in_madelung) == 1
