"""Interaction kernels, their moments, and the non-local internal energy.

The non-local internal energy is ``U(x) = (kT/m) int u(x - x') ln rho(x')
dx'`` for an even, unit-integral kernel ``u``. Expanding ``ln rho`` about
``x`` turns the convolution into a gradient series whose coefficients are
the signed even moments of the kernel,

    a^2 = -int y^2 u(y) dy,
    c_{2n} = (-1)^n a^{-2n} int y^{2n} u(y) dy,

so ``c_0 = 1`` by normalization and ``c_2 = 1`` by construction. Kernels
whose second moment is negative (a^2 > 0) produce the quantum-potential
sign; the canonical example here is the difference of Gaussians
``2 g_s - g_{2s}`` with ``a^2 = +2 s^2`` and ``c_4 = -10.5``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import Field, Grid, convolve, integrate
from .params import PhysParams, _csv_columns

__all__ = [
    "Kernel",
    "MomentTable",
    "make_kernel",
    "kernel_from_csv",
    "moments",
    "nonlocal_energy",
    "series_energy",
    "truncation_sweep",
]

_FAMILIES = ("gaussian", "difference_of_gaussians", "delta", "tabulated")


@dataclass(frozen=True, eq=False)
class Kernel:
    """Even, unit-integral kernel sampled on the grid, centered at x = 0.

    Samples use the grid's natural ordering: index 0 is the origin and
    negative offsets wrap around the top of the array.
    """

    grid: Grid
    values: np.ndarray
    family: str
    width: float | None = None

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.n,):
            raise ValueError("kernel samples do not match the grid")
        if not np.all(np.isfinite(vals)):
            raise ValueError("kernel samples must be finite")
        rev = vals[(-np.arange(self.grid.n)) % self.grid.n]
        scale = max(np.abs(vals).max(), 1e-300)
        if np.abs(vals - rev).max() > 1e-12 * scale:
            raise ValueError("kernel must be even under x -> -x")
        if abs(integrate(Field(self.grid, vals)) - 1.0) > 1e-10:
            raise ValueError("kernel must integrate to 1")

    def as_field(self) -> Field:
        return Field(self.grid, self.values)


@dataclass(frozen=True)
class MomentTable:
    """Signed even moments of a kernel: ``a2`` and ``c = (c_0, c_2, ...)``."""

    a2: float
    c: tuple[float, ...]

    def coefficient(self, n: int) -> float:
        """Return ``c_{2n}``; raises if the table was not built that far."""
        if n >= len(self.c):
            raise ValueError(
                f"moment table holds c_0..c_{2 * (len(self.c) - 1)}, need c_{2 * n}"
            )
        return self.c[n]


def _symmetrize(grid: Grid, vals: np.ndarray) -> np.ndarray:
    rev = vals[(-np.arange(grid.n)) % grid.n]
    return 0.5 * (vals + rev)


def _normalize(grid: Grid, vals: np.ndarray) -> np.ndarray:
    s = float(np.sum(vals) * grid.dx)
    if abs(s) < 1e-12:
        raise ValueError("kernel integral is too close to zero to normalize")
    return vals / s


def _gaussian_samples(grid: Grid, s: float) -> np.ndarray:
    # Image sum over neighbor boxes keeps the wrapped kernel smooth; for
    # widths below L/8 the contribution beyond +-1 images is below 1e-12.
    y = grid.signed_x
    acc = np.zeros(grid.n)
    for j in (-1, 0, 1):
        acc += np.exp(-((y + j * grid.length) ** 2) / (2.0 * s * s))
    return acc / (s * math.sqrt(2.0 * math.pi))


def _check_width(grid: Grid, width: float, label: str) -> None:
    if not (width > 0.0):
        raise ValueError(f"{label} width must be > 0, got {width}")
    if width >= grid.length / 8.0:
        raise ValueError(
            f"{label} width {width} is not well contained: need width < L/8 = "
            f"{grid.length / 8.0}"
        )


def make_kernel(family: str, grid: Grid, *, width: float | None = None,
                table=None) -> Kernel:
    """Build a kernel of the given family on the grid.

    Families: ``gaussian`` (unit Gaussian of standard deviation ``width``),
    ``difference_of_gaussians`` (``2 g_s - g_{2s}`` with ``s = width``),
    ``delta`` (discrete delta, ``1/dx`` at the origin), and ``tabulated``
    (``table = (xs, us)`` sampled against the signed coordinate, linearly
    interpolated, then symmetrized and normalized).
    """
    if family not in _FAMILIES:
        raise ValueError(f"kernel family must be one of {_FAMILIES}, got {family!r}")

    if family == "delta":
        vals = np.zeros(grid.n)
        vals[0] = 1.0 / grid.dx
        return Kernel(grid, vals, family, None)

    if family == "gaussian":
        if width is None:
            raise ValueError("gaussian kernel needs a width")
        _check_width(grid, width, "gaussian")
        vals = _normalize(grid, _symmetrize(grid, _gaussian_samples(grid, width)))
        return Kernel(grid, vals, family, float(width))

    if family == "difference_of_gaussians":
        if width is None:
            raise ValueError("difference_of_gaussians kernel needs a width")
        _check_width(grid, width, "inner gaussian")
        _check_width(grid, 2.0 * width, "outer gaussian")
        raw = 2.0 * _gaussian_samples(grid, width) - _gaussian_samples(grid, 2.0 * width)
        vals = _normalize(grid, _symmetrize(grid, raw))
        return Kernel(grid, vals, family, float(width))

    if table is None:
        raise ValueError("tabulated kernel needs table=(xs, us)")
    xs = np.asarray(table[0], dtype=float)
    us = np.asarray(table[1], dtype=float)
    if xs.ndim != 1 or xs.shape != us.shape or xs.size < 2:
        raise ValueError("kernel table must be two matching 1d columns")
    order = np.argsort(xs)
    xs, us = xs[order], us[order]
    vals = np.interp(grid.signed_x, xs, us, left=0.0, right=0.0)
    vals = _normalize(grid, _symmetrize(grid, vals))
    return Kernel(grid, vals, "tabulated", None)


def kernel_from_csv(path, grid: Grid) -> Kernel:
    """Load a two-column CSV ``(x, u)`` and resample it onto the grid."""
    return make_kernel("tabulated", grid,
                       table=_csv_columns(path, "kernel", "u"))


def moments(kernel: Kernel, max_n: int = 2) -> MomentTable:
    """Quadrature moments of the kernel through ``c_{2 max_n}``.

    The signed coordinate folded to [-L/2, L/2) defines the moments. A
    vanishing second moment (the delta kernel) leaves every ``c_{2n}`` with
    ``n >= 1`` undefined, so only ``c_0`` can be tabulated then.
    """
    if max_n < 0:
        raise ValueError(f"max_n must be >= 0, got {max_n}")
    g = kernel.grid
    y = g.signed_x
    a2 = -float(np.sum(y**2 * kernel.values) * g.dx)
    c = [1.0]
    if max_n >= 1:
        if abs(a2) <= 1e-14 * g.length**2:
            raise ValueError(
                "kernel second moment vanishes (a^2 = 0); the c-table is "
                "undefined beyond c_0"
            )
        for n in range(1, max_n + 1):
            raw = float(np.sum(y ** (2 * n) * kernel.values) * g.dx)
            c.append((-1.0) ** n * raw / a2**n)
    return MomentTable(a2=a2, c=tuple(c))


# the last series order whose (2n)! is a double: 170! is, 172! is not
_MAX_ORDER = 85


def _series_multiplier(grid: Grid, a2: float, c, first: int,
                       last: int) -> np.ndarray:
    """Gradient-series multiplier on the real-FFT modes,
    ``sum_{n=first}^{last} (a^2 k^2)^n c_{2n} / (2n)!``.

    This is the gradient series ``sum (-1)^n a^{2n} (c_{2n}/(2n)!) lap^n``
    in Fourier space, since ``(-1)^n lap^n -> (-1)^n (-k^2)^n = k^{2n}``.
    ValueError past :data:`_MAX_ORDER`; a term that overflows leaves
    non-finite modes, which the callers refuse.
    """
    if last > _MAX_ORDER:
        raise ValueError(
            f"series order {last} is past {_MAX_ORDER}, the last whose"
            f" (2n)! is a double")
    k2 = grid.half_k2
    mult = np.zeros(k2.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(first, last + 1):
            mult += (a2 * k2) ** n * c[n] / math.factorial(2 * n)
    return mult


def _check_positive_density(rho: Field) -> None:
    mean = float(np.mean(rho.values))
    if not mean > 0 or float(rho.values.min()) <= 1e-12 * mean:
        raise ValueError("density must stay positive (min rho <= 1e-12 * mean rho)")


def nonlocal_energy(rho: Field, kernel: Kernel, p: PhysParams) -> Field:
    """Non-local internal energy ``(kT/m) * (u * ln rho)``."""
    if kernel.grid != rho.grid:
        raise ValueError("kernel and density live on different grids")
    _check_positive_density(rho)
    lam = Field(rho.grid, np.log(rho.values))
    return (p.kT / p.m) * convolve(lam, kernel.as_field())


def series_energy(rho: Field, table: MomentTable, a: float, n_terms: int,
                  p: PhysParams) -> Field:
    """Gradient-series approximation of the non-local energy.

    ``U = (kT/m) sum_{n=0}^{N} (-1)^n a^{2n} (c_{2n}/(2n)!) lap^n ln rho``
    with ``N = n_terms``. In Fourier space the whole series is the single
    multiplier ``sum_n (a^2 k^2)^n c_{2n} / (2n)!`` applied to ``ln rho``.

    ``a`` is a length, so the sign of a^2 is taken from the moment table
    (families like the single gaussian carry a negative second moment).
    """
    if n_terms < 0:
        raise ValueError(f"n_terms must be >= 0, got {n_terms}")
    table.coefficient(n_terms)
    _check_positive_density(rho)
    g = rho.grid
    a2 = math.copysign(float(a) ** 2, table.a2)
    mult = _series_multiplier(g, a2, table.c, 0, n_terms)
    out = g.apply(mult, np.log(rho.values))
    return Field(g, (p.kT / p.m) * out)


def truncation_sweep(grid: Grid, fracs, orders,
                     family: str = "difference_of_gaussians") -> list:
    """Max error of the series against the exact non-local energy.

    One row per kernel length ``a = frac L`` (a difference of gaussians of
    width ``a / sqrt 2``, else a gaussian of width ``a``), one error per
    series order, on ``rho = exp(0.4 cos(2 pi x / L))`` at unit constants.
    """
    p = PhysParams()
    rho = Field(grid, np.exp(0.4 * np.cos(2 * np.pi * grid.x / grid.length)))
    rows = []
    for frac in fracs:
        width = frac * grid.length
        if family == "difference_of_gaussians":
            width /= math.sqrt(2.0)
        kern = make_kernel(family, grid, width=width)
        tab = moments(kern, max_n=max(orders))
        a = math.sqrt(abs(tab.a2))
        exact = nonlocal_energy(rho, kern, p).values
        errs = [exact - series_energy(rho, tab, a, n, p).values for n in orders]
        rows.append([float(np.abs(e).max()) for e in errs])
    return rows
