"""Periodic 1D grid and spectral field algebra.

Everything downstream (kernels, potentials, solvers) lives on a uniform
periodic grid. Differentiation and convolution are done in Fourier space,
so smooth fields are handled to near machine accuracy; integration is the
periodic trapezoid rule, which on a uniform periodic grid is sum times dx.

:class:`Grid` is the one owner of real-field spectral calculus. It holds
the half-spectrum operators of the real FFT (``i k`` with the Nyquist mode
zeroed, ``k^2`` and the 2/3 mask) and applies a multiplier as
``irfft(mult * rfft(values))``, on single fields or stacked rows. Its
arrays are built once per ``(n, length)`` and shared by equal grids. It
also runs the complex transforms of the wave oracle, so every transform
in the package goes through it. The transforms call numpy's pocketfft
ufuncs directly, with the factors ``np.fft`` passes for the default norm
(1 forward, ``1/n`` inverse): the same bits without the Python wrapper,
which at n = 128 costs more than the transform. Each takes an optional
``out``, so a stepping loop can transform into arrays it owns.

:class:`Field` is the one value type of the fields built on a grid, and it
is made one way: it owns a read-only float copy of exactly ``n`` finite
samples, never a view into the caller's array.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from numpy.fft import _pocketfft_umath as _pocketfft

__all__ = [
    "Grid",
    "Field",
    "derivative",
    "convolve",
    "integrate",
    "dealias",
]


# the forward factor as a ready 0-d array: a Python number is converted on
# every call. The transforms run along the last axes, the ufuncs' default
_ONE = np.array(1.0)
_ONE.flags.writeable = False


@lru_cache(maxsize=64)
def _shared_tables(n: int, length: float) -> dict[str, np.ndarray]:
    """Read-only sample and wavenumber arrays of one ``(n, length)``."""
    dx = length / n
    x = dx * np.arange(n)
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=dx)
    kabs = np.abs(k)
    mask = kabs <= (2.0 / 3.0) * kabs.max() * (1.0 + 1e-12)
    # rfft keeps modes 0..n/2; fftfreq files the Nyquist mode as negative
    half_k = kabs[: n // 2 + 1]
    ik = 1j * half_k
    ik[-1] = 0.0  # odd-order multiplier is zeroed at Nyquist
    tables = {
        "x": x,
        "k": k,
        "signed_x": np.where(x < 0.5 * length, x, x - length),
        "dealias_mask": mask,
        "half_ik": ik,
        "half_k2": half_k**2,
        "half_mask": mask[: n // 2 + 1],
        "inv_n": np.array(1 / n),
    }
    for arr in tables.values():
        arr.flags.writeable = False
    return tables


def _shared(name: str, doc: str) -> property:
    return property(lambda grid: grid._tables[name], doc=doc)


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid with ``n`` samples on ``[0, length)``.

    Parameters
    ----------
    n : int
        Number of samples. Must be even (Nyquist bookkeeping, 2/3 dealias
        rule) and at least 8.
    length : float
        Box size. Samples sit at ``x_j = j * length / n``.

    ``k`` and ``dealias_mask`` span the full spectrum in complex FFT
    ordering. The ``half_*`` operators span the ``n // 2 + 1`` modes of
    the real FFT that :meth:`rfft`, :meth:`irfft` and :meth:`apply` use.
    All arrays are read-only and shared by equal grids.
    """

    n: int
    length: float

    def __post_init__(self) -> None:
        if self.n < 8:
            raise ValueError(f"grid needs n >= 8, got n={self.n}")
        if self.n % 2 != 0:
            raise ValueError(f"grid needs even n, got n={self.n}")
        if not (self.length > 0.0 and np.isfinite(self.length)):
            raise ValueError(f"grid needs finite length > 0, got {self.length}")

    @property
    def dx(self) -> float:
        return self.length / self.n

    @cached_property
    def _tables(self) -> dict[str, np.ndarray]:
        return _shared_tables(self.n, self.length)

    def __getstate__(self) -> dict:
        """Pickle without the cached tables: the copy looks the shared
        ones up again instead of carrying private, writable arrays."""
        return {k: v for k, v in vars(self).items() if k != "_tables"}

    x = _shared("x", "Sample positions ``x_j = j dx``.")
    k = _shared("k", "Angular wavenumbers in FFT order, ``2 pi j / L``.")
    signed_x = _shared("signed_x", "Positions folded to ``[-L/2, L/2)``.")
    dealias_mask = _shared("dealias_mask", "Keeps ``|k| <= (2/3) k_max``.")
    half_ik = _shared("half_ik", "``i k`` on real-FFT modes, 0 at Nyquist.")
    half_k2 = _shared("half_k2", "``k^2`` on the real-FFT modes.")
    half_mask = _shared("half_mask", "The 2/3 mask on the real-FFT modes.")

    def rfft(self, values: np.ndarray,
             out: np.ndarray | None = None) -> np.ndarray:
        """Half spectrum of real samples along the last axis."""
        if out is None:
            out = np.empty(values.shape[:-1] + (self.n // 2 + 1,),
                           dtype=complex)
        return _pocketfft.rfft_n_even(values, _ONE, out=out)

    def irfft(self, spectrum: np.ndarray,
              out: np.ndarray | None = None) -> np.ndarray:
        """Real samples of a half spectrum along the last axis."""
        if out is None:
            out = np.empty(spectrum.shape[:-1] + (self.n,))
        return _pocketfft.irfft(spectrum, self._tables["inv_n"], out=out)

    def fft(self, values: np.ndarray,
            out: np.ndarray | None = None) -> np.ndarray:
        """Full spectrum of complex samples along the last axis."""
        if out is None:
            out = np.empty(values.shape, dtype=complex)
        return _pocketfft.fft(values, _ONE, out=out)

    def ifft(self, spectrum: np.ndarray,
             out: np.ndarray | None = None) -> np.ndarray:
        """Complex samples of a full spectrum along the last axis."""
        if out is None:
            out = np.empty(spectrum.shape, dtype=complex)
        return _pocketfft.ifft(spectrum, self._tables["inv_n"], out=out)

    def apply(self, mult, values: np.ndarray) -> np.ndarray:
        """``irfft(mult * rfft(values))``; ``values`` may stack rows."""
        return self.irfft(mult * self.rfft(values))


class Field:
    """Real scalar field sampled on a :class:`Grid`.

    ``Field(grid, values)`` copies ``values`` as floats, refuses a shape
    other than ``(n,)`` or a sample that is not finite, and marks the copy
    read-only: a field owns its samples, and the caller's array stays its
    own. Arithmetic with fields on the same grid and with scalars returns
    new fields.
    """

    __slots__ = ("grid", "values")

    def __init__(self, grid: Grid, values):
        arr = np.array(values, dtype=float)
        if arr.shape != (grid.n,):
            raise ValueError(
                f"field shape {arr.shape} does not match grid n={grid.n}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError("field samples must be finite")
        arr.flags.writeable = False
        self.grid = grid
        self.values = arr

    @classmethod
    def constant(cls, grid: Grid, value: float) -> "Field":
        return cls(grid, np.full(grid.n, float(value)))

    def _coerce(self, other):
        if isinstance(other, Field):
            if other.grid != self.grid:
                raise ValueError("fields live on different grids")
            return other.values
        return float(other)

    def __add__(self, other):
        return Field(self.grid, self.values + self._coerce(other))

    __radd__ = __add__

    def __sub__(self, other):
        return Field(self.grid, self.values - self._coerce(other))

    def __rsub__(self, other):
        return Field(self.grid, self._coerce(other) - self.values)

    def __mul__(self, other):
        return Field(self.grid, self.values * self._coerce(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return Field(self.grid, self.values / self._coerce(other))

    def __rtruediv__(self, other):
        return Field(self.grid, self._coerce(other) / self.values)

    def __neg__(self):
        return Field(self.grid, -self.values)

    def __repr__(self):
        return f"Field(n={self.grid.n}, L={self.grid.length:g})"


def derivative(f: Field, order: int = 1) -> Field:
    """Spectral derivative of integer ``order >= 1``.

    Multiplies each mode by ``(i k)**order``. For odd orders the Nyquist
    mode is zeroed: its multiplier would break conjugate symmetry, and for
    resolved fields that mode carries no usable content anyway.
    """
    if order < 1:
        raise ValueError(f"derivative order must be >= 1, got {order}")
    g = f.grid
    mult = (-g.half_k2) ** (order // 2)
    if order % 2 == 1:
        mult = g.half_ik * mult
    return Field(g, g.apply(mult, f.values))


def convolve(f: Field, g: Field) -> Field:
    """Periodic convolution ``(f * g)(x) = int f(y) g(x - y) dy``.

    Computed spectrally and scaled by ``dx`` so that convolution with a
    unit-integral kernel preserves the mean of ``f``.
    """
    if f.grid != g.grid:
        raise ValueError("fields live on different grids")
    grid = f.grid
    f_hat, g_hat = grid.rfft(np.stack((f.values, g.values)))
    out = grid.irfft(f_hat * g_hat) * grid.dx
    return Field(grid, out)


def integrate(f: Field) -> float:
    """Periodic trapezoid quadrature: ``sum(f) * dx``."""
    return float(np.sum(f.values) * f.grid.dx)


def dealias(f: Field) -> Field:
    """Zero all modes above the 2/3 cutoff."""
    g = f.grid
    return Field(g, g.apply(g.half_mask, f.values))
