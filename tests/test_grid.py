"""Grid construction rules, spectral derivatives, and field algebra."""

import ast
import pickle
from pathlib import Path

import numpy as np
import pytest

from qfluid.grid import Field, Grid, convolve, dealias, derivative, integrate


@pytest.mark.parametrize("n,msg", [(9, "even"), (7, "n >= 8"), (4, "n >= 8")])
def test_grid_rejects_bad_n(n, msg):
    with pytest.raises(ValueError, match=msg):
        Grid(n=n, length=1.0)


@pytest.mark.parametrize("length", [0.0, -2.0, float("inf"), float("nan")])
def test_grid_rejects_bad_length(length):
    with pytest.raises(ValueError, match="length"):
        Grid(n=16, length=length)


def test_grid_samples_and_wavenumbers():
    g = Grid(n=16, length=2.0)
    assert g.dx == 0.125
    assert g.x[0] == 0.0
    assert g.x[-1] == pytest.approx(2.0 - 0.125)
    assert g.k[0] == 0.0
    assert g.k[1] == pytest.approx(np.pi)  # 2 pi / L
    assert g.signed_x.min() == pytest.approx(-1.0)
    assert g.signed_x.max() < 1.0
    # real-FFT modes 0..n/2: i k, with the Nyquist mode zeroed
    assert g.half_ik.shape == (g.n // 2 + 1,)
    assert g.half_ik[-1] == 0.0
    assert np.array_equal(g.half_ik[:-1], 1j * g.k[: g.n // 2])
    assert np.array_equal(g.half_k2, np.abs(g.k[: g.n // 2 + 1]) ** 2)


def test_equal_grids_share_operator_arrays():
    a, b = Grid(n=16, length=2.0), Grid(n=16, length=2.0)
    for name in ("x", "k", "signed_x", "dealias_mask", "half_ik", "half_k2",
                 "half_mask"):
        assert getattr(a, name) is getattr(b, name), name
        assert not getattr(a, name).flags.writeable
    assert Grid(n=16, length=1.0).k is not a.k


def test_pickled_grid_shares_the_read_only_tables():
    g = Grid(n=256, length=1.0)
    bare = len(pickle.dumps(g))
    g.x  # caches the tables on g
    assert len(pickle.dumps(g)) == bare
    copy = pickle.loads(pickle.dumps(g))
    assert copy == g
    assert copy.x is g.x and copy.half_ik is g.half_ik
    assert not copy.x.flags.writeable


def test_dealias_mask_keeps_two_thirds():
    g = Grid(n=96, length=1.0)
    kept = int(g.dealias_mask.sum())
    kmax = np.abs(g.k).max()
    expected = int((np.abs(g.k) <= 2.0 / 3.0 * kmax * (1 + 1e-12)).sum())
    assert kept == expected
    assert kept < g.n
    # the half-spectrum mask keeps the same modes, |k| read off rfft order
    half = np.abs(g.k[: g.n // 2 + 1])
    assert np.array_equal(g.half_mask, g.dealias_mask[: g.n // 2 + 1])
    assert set(half[g.half_mask]) == set(np.abs(g.k[g.dealias_mask]))


def test_derivative_matches_analytic_trig():
    g = Grid(n=64, length=2.0)
    m = 3
    w = 2.0 * np.pi * m / g.length
    f = Field(g, np.sin(w * g.x + 0.3))
    d1 = derivative(f, 1).values
    d2 = derivative(f, 2).values
    assert np.abs(d1 - w * np.cos(w * g.x + 0.3)).max() < 1e-12 * w
    assert np.abs(d2 + w * w * np.sin(w * g.x + 0.3)).max() < 1e-11 * w * w


def test_derivative_zeroes_nyquist_for_odd_orders():
    g = Grid(n=16, length=1.0)
    nyq = Field(g, np.cos(np.pi * np.arange(g.n)))  # pure Nyquist mode
    assert np.abs(derivative(nyq, 1).values).max() < 1e-12
    # even orders keep it: second derivative is -k_nyq^2 * field
    d2 = derivative(nyq, 2).values
    assert np.abs(d2 + (np.pi * g.n) ** 2 * nyq.values).max() < 1e-7


def test_apply_on_stacked_rows_matches_row_by_row():
    g = Grid(n=32, length=1.0)
    rows = np.random.default_rng(3).normal(size=(2, g.n))
    for mult in (g.half_ik, -g.half_k2, g.half_mask):
        stacked = g.apply(mult, rows)
        assert stacked.shape == rows.shape
        for j in range(2):
            assert np.array_equal(stacked[j], g.apply(mult, rows[j]))


def test_only_grid_calls_numpy_fft():
    """Every transform goes through Grid, the wave oracle's complex ones
    too."""
    src = Path(__file__).resolve().parents[1] / "src" / "qfluid"
    offenders = []
    for path in sorted(src.glob("*.py")):
        if path.name == "grid.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr == "fft":
                # np.fft, not Grid.fft
                hit = getattr(node.value, "id", None) in ("np", "numpy")
            elif isinstance(node, ast.ImportFrom):
                hit = (node.module or "").startswith("numpy.fft") or any(
                    a.name == "fft" for a in node.names)
            elif isinstance(node, ast.Import):
                hit = any(a.name.startswith("numpy.fft") for a in node.names)
            else:
                hit = False
            if hit:
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


@pytest.mark.parametrize("n", [8, 128, 256, 8192])
def test_transforms_equal_numpy_fft_bit_for_bit(n):
    # Grid calls numpy's pocketfft ufuncs directly; a numpy release that
    # changes them fails here instead of shifting results
    g = Grid(n=n, length=1.0)
    rng = np.random.default_rng(n)
    for shape in ((n,), (2, n), (3, n), (2, 64, n)):
        real = rng.normal(size=shape)
        half = g.rfft(real)
        assert np.array_equal(half, np.fft.rfft(real))
        half = half + 1j * rng.normal(size=half.shape)
        assert np.array_equal(g.irfft(half), np.fft.irfft(half, n))
    real = rng.normal(size=(3, n))[::-1]  # a strided view
    assert np.array_equal(g.rfft(real), np.fft.rfft(real))
    psi = rng.normal(size=n) + 1j * rng.normal(size=n)
    assert np.array_equal(g.fft(psi), np.fft.fft(psi))
    assert np.array_equal(g.ifft(psi), np.fft.ifft(psi))


def test_derivative_rejects_order_zero():
    g = Grid(n=16, length=1.0)
    with pytest.raises(ValueError, match="order"):
        derivative(Field(g, np.ones(16)), 0)


def test_integrate_constant_plus_cosine():
    g = Grid(n=32, length=3.0)
    f = Field(g, 2.5 + 0.7 * np.cos(2 * np.pi * g.x / g.length))
    assert integrate(f) == pytest.approx(2.5 * 3.0, abs=1e-13)


def test_convolve_matches_direct_sum():
    g = Grid(n=32, length=1.0)
    rng = np.random.default_rng(7)
    f = rng.normal(size=g.n)
    h = rng.normal(size=g.n)
    got = convolve(Field(g, f), Field(g, h)).values
    want = np.zeros(g.n)
    for i in range(g.n):
        for j in range(g.n):
            want[i] += f[j] * h[(i - j) % g.n]
    want *= g.dx
    assert np.abs(got - want).max() < 1e-12 * np.abs(want).max()


def test_convolve_rejects_grid_mismatch():
    a = Field(Grid(n=16, length=1.0), np.ones(16))
    b = Field(Grid(n=32, length=1.0), np.ones(32))
    with pytest.raises(ValueError, match="different grids"):
        convolve(a, b)


def test_dealias_removes_high_mode_keeps_low():
    g = Grid(n=48, length=1.0)
    low = np.cos(2 * np.pi * 4 * g.x)
    high = np.cos(2 * np.pi * 20 * g.x)  # above 2/3 * 24
    out = dealias(Field(g, low + high)).values
    assert np.abs(out - low).max() < 1e-12


def test_field_validation_and_immutability():
    g = Grid(n=16, length=1.0)
    with pytest.raises(ValueError, match="shape"):
        Field(g, np.ones(17))
    with pytest.raises(ValueError, match="finite"):
        Field(g, np.full(16, np.nan))
    f = Field(g, np.ones(16))
    with pytest.raises(ValueError):
        f.values[0] = 2.0


def test_field_arithmetic():
    g = Grid(n=16, length=1.0)
    a = Field(g, np.full(16, 3.0))
    b = Field(g, np.full(16, 2.0))
    assert np.all((a + b).values == 5.0)
    assert np.all((a - b).values == 1.0)
    assert np.all((a * b).values == 6.0)
    assert np.all((a / b).values == 1.5)
    assert np.all((2.0 * a).values == 6.0)
    assert np.all((1.0 - b).values == -1.0)
    assert np.all((-a).values == -3.0)
    other = Field(Grid(n=32, length=1.0), np.ones(32))
    with pytest.raises(ValueError):
        a + other
