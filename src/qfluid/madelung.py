"""Hydrodynamic evolution in log-density / velocity-potential variables.

State is the pair ``(lam, phi)`` with ``lam = ln rho`` and velocity
``v = -grad phi``. The equations of motion are

    d lam / dt = grad phi . grad lam + lap phi          (continuity)
    d phi / dt = (grad phi)^2 / 2 + H_th + U_Q + V_e    (Bernoulli)

where :class:`TermFlags` switches H_th and U_Q, and V_e enters exactly
when the :class:`ExternalPotential` is not of kind ``zero``, the kind
the wave oracle reads too. U_Q is the gradient series of the non-local
log-density energy, cut after ``c_{2 quantum_order}``; its first term
is Bohm's potential. Working in ``lam`` keeps the density positive by
construction and makes the enthalpy ``(kT/m)(lam + 1)`` linear in the
state. Quadratic products in the right hand side are dealiased with the
2/3 rule (default on).

Between RK4 stages and steps the state is the stacked half spectrum
``(lam^, phi^)`` of the real FFT. A :class:`Tendency`, built once per run,
gives both tendencies from it in two batched transforms through the grid's
operator layer. The first stage's inverse carries the state rows too, so
an RK4 step reads its state back at no extra transform and takes eight.
A run's steps write into work arrays the run owns (a ``_Work`` set, built
once per run and once per :func:`step`), with the operations and
operand order of the fresh-array expressions they replace: numpy's complex
multiply fuses with FMA and is not bitwise commutative, so ``grad * x``,
``masks * S`` and ``linear * x`` keep their order and the bits stay.
:func:`rhs` reads the whole operator in four transforms.

The records, :func:`quantum_potential` and the equilibrium refinement
need the Bernoulli row alone (U_Q is that row at rest with only the
quantum term on). :meth:`Tendency.bernoulli` gives it to the bit, for one
state or a stack of them, from transforms that carry only the rows it
reads: a Bohm refinement sweep transforms two rows each way, not three.
:func:`run` builds the records of its stored states once per ``CHUNK`` of
them (and once more for the rest, at the end or on abort), in four
transforms per stack, so the per-call cost is paid once per stack: at
n = 256 a stored state's record costs about a quarter of an RK4 step,
where a lone record costs about one. :func:`diagnostics` is the
one-state case. The snapshot writer's v and U_Q go by stacks too, and so
does :func:`action`, in one pass: a stack reads its phi with a one-row
halo for ``dphi/dt``, so the action holds one stack's rows beyond its
input, whatever the number of snapshots. The records, the writer and the
action read their stacks of states through :func:`_stack`.

Time stepping is classical RK4. A run terminates early, with a partial
trajectory and an error status, if the density floor is crossed (vacuum)
or the state stops being finite (blowup). For quantum runs the time step
must respect ``dt <= 0.5 dx^2 m / hbar_eff``, the usual explicit spectral
bound for the free dispersion branch, and a series closure its own,
stiffer bound (:func:`stability_bound`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .grid import Field, Grid, derivative
from .kernels import MomentTable, _series_multiplier
from .params import ExternalPotential, PhysParams

__all__ = [
    "State",
    "TermFlags",
    "SolverConfig",
    "DiagnosticRecord",
    "Trajectory",
    "SolverAbort",
    "IllPosedSeries",
    "Tendency",
    "velocity",
    "quantum_potential",
    "rhs",
    "step",
    "run",
    "diagnostics",
    "action",
]

# States per stacked pass of the records, the snapshot fields and the
# action: enough to spread the per-call cost, small enough for the cache.
CHUNK = 64


@dataclass(frozen=True)
class State:
    """Instantaneous fluid state ``(t, lam, phi)`` on one grid."""

    t: float
    lam: Field
    phi: Field

    def __post_init__(self) -> None:
        if self.lam.grid != self.phi.grid:
            raise ValueError("lam and phi live on different grids")

    @property
    def grid(self) -> Grid:
        return self.lam.grid

    def density(self) -> Field:
        return Field(self.grid, np.exp(self.lam.values), _fresh=True)


@dataclass(frozen=True)
class TermFlags:
    """Which of the thermal and quantum Bernoulli terms participate in the
    dynamics; V_e participates when the run's potential is not zero.

    ``quantum_order`` cuts the quantum closure's gradient series: 1 keeps
    Bohm's first term; >= 2 keeps the terms through ``c_{2 quantum_order}``
    from a :class:`MomentTable` (``moments``; ``c_2 = 1`` by construction).
    """

    thermo: bool = True
    quantum: bool = False
    quantum_order: int = 1
    moments: MomentTable | None = None

    def __post_init__(self) -> None:
        if self.quantum_order < 1:
            raise ValueError(f"quantum_order must be >= 1, got {self.quantum_order}")
        if self.series:
            if self.moments is None:
                raise ValueError(
                    "quantum_order >= 2 needs kernel moments (TermFlags.moments)"
                )
            self.moments.coefficient(self.quantum_order)
            if self.moments.c[1] != 1.0:  # the n = 1 term is Bohm's
                raise ValueError(f"c_2 must be 1, got {self.moments.c[1]}")

    @property
    def series(self) -> bool:
        """The closure carries series terms beyond Bohm's."""
        return self.quantum and self.quantum_order >= 2


@dataclass(frozen=True)
class SolverConfig:
    dt: float = 1e-3
    t_end: float = 1.0
    snapshot_stride: int = 1
    dealias: bool = True
    density_floor: float = 1e-12

    def __post_init__(self) -> None:
        if not self.dt > 0:
            raise ValueError(f"dt must be > 0, got {self.dt}")
        if self.t_end < 0:
            raise ValueError(f"t_end must be >= 0, got {self.t_end}")
        if self.snapshot_stride < 1:
            raise ValueError(f"snapshot_stride must be >= 1, got {self.snapshot_stride}")
        if not 0.0 < self.density_floor < 1.0:
            raise ValueError(f"density_floor must be in (0, 1), got {self.density_floor}")


@dataclass(frozen=True)
class DiagnosticRecord:
    """Per-snapshot scalars. ``lagrangian_minus_pressure`` is NaN whenever
    the quantum term is active (the on-shell identity it checks is the
    classical one)."""

    t: float
    mass: float
    energy: float
    momentum: float
    bernoulli_residual: float
    lagrangian_minus_pressure: float
    min_density: float


@dataclass
class Trajectory:
    snapshots: list[State]
    records: list[DiagnosticRecord]
    status: str = "ok"
    message: str | None = None

    @property
    def times(self) -> np.ndarray:
        return np.array([s.t for s in self.snapshots])


class SolverAbort(RuntimeError):
    """Raised by :func:`step` on vacuum or blowup; :func:`run` converts it
    into a trajectory status."""

    def __init__(self, kind: str, message: str, t: float):
        super().__init__(message)
        self.kind = kind
        self.t = t

    def __reduce__(self):
        # pickle rebuilds an error from its args, which hold the message
        # alone; a forked child sends it whole
        return type(self), (self.kind, str(self), self.t)


# log of the largest float: the density exp(lam) overflows above it
_LOG_MAX = math.log(np.finfo(float).max)


# ---------------------------------------------------------------------------
# right-hand side on the half spectrum

class Tendency:
    """Spectra of ``(d lam/dt, d phi/dt)`` from the stacked ``(lam^, phi^)``.

    Built once per ``(grid, flags, params, dealias, vext)``. A call takes
    two batched transforms, back of the masked gradients and forward of two
    product rows; the rest is a per-mode linear table and a forcing row:

        d lam^/dt = mask F[grad phi grad lam] - k^2 phi^
        d phi^/dt = mask F[(grad phi)^2 / 2 - (qc/4) (grad lam)^2]
                    + (theta + qc k^2 / 2 + R) lam^ + F[(R rho) / rho]
                    + n theta delta_k0 + V^

    :attr:`theta` is ``kT/m`` with thermo on, else 0, and ``V^`` enters
    when ``vext`` is given and not of kind ``zero``. With quantum on the
    closure is ``(kT/m) [M lam + (M rho) / rho]``, ``M = sum_{n=1}^{N}
    (a^2 k^2)^n c_{2n} / (2n)!``. Its n = 1 term is Bohm's, the ``qc``
    terms above; only the ``remainder`` ``R = (kT/m) sum_{n=2}^{N}``
    (order >= 2) goes through rho: lam goes back as a third row, and
    ``R rho`` costs two transforms more.

    About a uniform state the rho route is ``R lam^`` too, so each mode
    turns at ``omega_k^2 = k^2 L(k)``. The linear :attr:`rate` is
    ``L = theta + qc k^2 / 2 + 2 R``, ``(kT/m)(1 + 2 M)`` with thermo on
    and ``2 (kT/m) M`` off; the series guard, RK4's reach and the
    equilibrium refinement read it.

    A call takes one state's ``(2, nh)`` ``hat``: :meth:`back`, the
    inverse of a spectrum that holds the state and room for its gradients,
    then :meth:`rates`, the products and the forward. :meth:`rk4` steps in
    the arrays of a ``_Work`` set and takes its first stage's inverse from
    the caller, which may ask it for the state rows as well.
    :meth:`bernoulli` reads ``d phi^/dt`` alone, of one state or a stack,
    with the same Bohm product and rho route as :meth:`rates`.
    """

    def __init__(self, grid: Grid, flags: TermFlags, p: PhysParams,
                 dealias: bool, vext: ExternalPotential | None = None):
        mask = grid.half_mask if dealias else np.ones(grid.half_k2.shape)
        self.theta = p.kT / p.m if flags.thermo else 0.0
        self.grid = grid
        # the tables hold one row per state row and are complex, as the
        # spectra they scale: a product neither broadcasts nor casts
        self.grad = np.stack((grid.half_ik * mask,) * 2)
        # the Bernoulli product row carries twice its value; the 1/2 is here
        self.masks = np.stack((mask, 0.5 * mask), dtype=complex)
        self.bohm = 0.5 * p.quantum_coefficient if flags.quantum else 0.0
        lin = self.theta + self.bohm * grid.half_k2
        self.remainder = None
        self.rate = lin
        if flags.series:
            self.remainder = (p.kT / p.m) * _series_multiplier(
                grid, p.a2, flags.moments.c, 2, flags.quantum_order)
            lin = lin + self.remainder
            self.rate = lin + self.remainder  # in the table and through rho
        self.linear = np.stack((-grid.half_k2, lin), dtype=complex)
        self.force = np.zeros(mask.shape, dtype=complex)
        self.force[0] = grid.n * self.theta
        if vext is not None and vext.kind != "zero":
            self.force += grid.rfft(vext.field(grid).values)
        # the rows a stage's inverse reads and its products fill
        self.rows = 2 if self.remainder is None else 3

    def __call__(self, hat: np.ndarray) -> np.ndarray:
        spec = np.empty((4,) + hat.shape[1:], dtype=complex)
        spec[2:] = hat
        return self.rates(hat[::-1], self.back(spec))

    def back(self, spec: np.ndarray, state: bool = False,
             out: np.ndarray | None = None) -> np.ndarray:
        """One inverse transform of ``spec``, a ``(4, ...)`` spectrum with
        a state in rows 2:4. The state's masked gradients go to rows 0:2;
        the inverse reads them, then the state rows with ``state``, else
        lam for the remainder, into ``out`` if given."""
        np.multiply(self.grad, spec[2:], out=spec[:2])
        rows = spec if state else spec[:self.rows]
        return self.grid.irfft(
            rows, out=None if out is None else out[:len(rows)])

    def rates(self, rev: np.ndarray, real: np.ndarray,
              out: np.ndarray | None = None,
              work: _Work | None = None) -> np.ndarray:
        """The tendency of a state from its :meth:`back` rows ``real`` and
        its spectrum with the rows reversed, ``rev = (phi^, lam^)``, into
        ``out`` if given, with the products in ``work``'s arrays if
        given."""
        dlam, dphi = real[0], real[1]
        if work is None:
            prods, spectra = np.empty((self.rows,) + dlam.shape), None
            row = np.empty(dlam.shape)
        else:
            prods, spectra, row = work.prods, work.spectra, work.row
        # two multiplies: one that broadcasts dphi over both rows is slower
        # at n = 256 (2.2 against 1.7 us)
        np.multiply(dlam, dphi, out=prods[0])
        bern = np.multiply(dphi, dphi, out=prods[1])
        if self.bohm:
            bern -= self._bohm(dlam, row)
        if self.remainder is not None:
            self._through_rho(real[2], row, prods[2],
                              None if spectra is None else spectra[2])
        spectra = self.grid.rfft(prods, out=spectra)
        out = np.multiply(self.masks, spectra[:2], out=out)
        out += np.multiply(self.linear, rev, out=spectra[:2])
        out[1] += self.force
        if self.remainder is not None:
            out[1] += spectra[2]
        return out

    def bernoulli(self, lam_hat: np.ndarray,
                  phi_hat: np.ndarray | None = None) -> np.ndarray:
        """``d phi^/dt`` of ``(lam^, phi^)``, phi = 0 if ``phi_hat`` is not
        given: row 1 of a call, bit for bit, on one state's ``(nh,)`` rows
        or an ``(m, nh)`` stack, which the tables broadcast over.

        Its one inverse carries only the rows it reads: grad lam with
        Bohm, grad phi with ``phi_hat`` and lam with the remainder. Its
        forward carries the product row and the remainder's. A zero phi's
        product row is ``0 * 0``, from which Bohm's term is subtracted.
        """
        reads = ([lam_hat] if self.bohm else []) + (
            [] if phi_hat is None else [phi_hat])
        rem = self.remainder is not None
        spec = np.empty((len(reads) + rem,) + lam_hat.shape, dtype=complex)
        for row, x in zip(spec, reads):
            np.multiply(self.grad[0], x, out=row)
        if rem:
            spec[-1] = lam_hat
        real = self.grid.irfft(spec)
        prods = np.empty((1 + rem,) + real.shape[1:])
        row = np.empty(real.shape[1:])
        bern = prods[0]
        if phi_hat is None:
            bern.fill(0.0)
        else:
            dphi = real[len(reads) - 1]
            np.multiply(dphi, dphi, out=bern)
        if self.bohm:
            bern -= self._bohm(real[0], row)
        if rem:
            self._through_rho(real[-1], row, prods[1])
        spectra = self.grid.rfft(prods)
        out = np.multiply(self.masks[1], spectra[0])
        out += np.multiply(self.linear[1], lam_hat, out=spectra[0])
        out += self.force
        if rem:
            out += spectra[1]
        return out

    def _bohm(self, dlam: np.ndarray, row: np.ndarray) -> np.ndarray:
        """Bohm's part ``(qc/2) (grad lam)^2`` of the Bernoulli product row,
        which carries twice its value, into ``row``."""
        np.multiply(self.bohm, dlam, out=row)
        return np.multiply(row, dlam, out=row)

    def _through_rho(self, lam: np.ndarray, row: np.ndarray, out: np.ndarray,
                     spectrum: np.ndarray | None = None) -> None:
        """The remainder's route ``(R rho) / rho`` of the real ``lam`` rows
        into ``out``, with rho in ``row`` and its spectrum in ``spectrum``
        if given."""
        rho = np.exp(lam, out=row)
        r_hat = self.grid.rfft(rho, out=spectrum)
        np.multiply(self.remainder, r_hat, out=r_hat)
        np.divide(self.grid.irfft(r_hat, out=out), rho, out=out)

    def rk4(self, hat: np.ndarray, dt: float, real: np.ndarray,
            work: _Work) -> np.ndarray:
        """One classical RK4 step of the stacked half spectrum ``hat``,
        written over it; ``real`` is its :meth:`back` rows, which k1 reads.
        The stages and their inputs go to ``work``'s arrays and combine in
        place, in the order of ``hat + dt/6 (k1 + 2 (k2 + k3) + k4)``. A
        stage's inverse is :meth:`back` on the views ``work`` holds."""
        k1, k2, k3, k4 = work.k
        x = work.x
        self.rates(hat[::-1], real, k1, work)
        for k, c, kn in ((k1, 0.5 * dt, k2), (k2, 0.5 * dt, k3), (k3, dt, k4)):
            np.add(hat, np.multiply(c, k, out=x), out=x)
            np.multiply(self.grad, x, out=work.grads)
            self.rates(work.x_rev,
                       self.grid.irfft(work.x_rows, out=work.x_real), kn, work)
        k2 += k3
        k2 *= 2.0
        k1 += k2
        k1 += k4
        k1 *= dt / 6.0
        return np.add(k1, hat, out=hat)


class _Work:
    """The arrays a run's RK4 steps write into, for one :class:`Tendency`.

    ``state`` (the run's) and ``spec`` (a stage input's) are ``(4, nh)``
    spectra laid out for :meth:`Tendency.back`: the state in rows 2:4,
    its masked gradients in rows 0:2, so one inverse reads both with no
    copy. ``real`` takes that inverse, ``k`` the four stages, ``prods`` and
    ``spectra`` the product rows and their spectra, and ``row`` Bohm's
    term and rho. They belong to the run, not to the cached operators.

    The views a stage reads are sliced once here: its input ``x``, its
    gradient rows ``grads``, the input reversed ``x_rev`` for the linear
    table, the rows ``x_rows`` its inverse reads and ``x_real`` that
    inverse fills, and ``checked``, the state rows of the run's inverse.
    """

    __slots__ = ("state", "spec", "real", "k", "prods", "spectra", "row",
                 "x", "grads", "x_rev", "x_rows", "x_real", "checked")

    def __init__(self, op: Tendency):
        n, nh = op.grid.n, op.grid.half_k2.size
        self.state = np.empty((4, nh), dtype=complex)
        self.spec = np.empty((4, nh), dtype=complex)
        self.real = np.empty((4, n))
        self.k = np.empty((4, 2, nh), dtype=complex)
        self.prods = np.empty((op.rows, n))
        self.spectra = np.empty((op.rows, nh), dtype=complex)
        self.row = np.empty(n)
        self.x, self.grads = self.spec[2:], self.spec[:2]
        self.x_rev = self.x[::-1]
        self.x_rows, self.x_real = self.spec[:op.rows], self.real[:op.rows]
        self.checked = self.real[2:]


@lru_cache(maxsize=16)
def _reader(grid: Grid, flags: TermFlags, p: PhysParams, dealias: bool,
            vext: ExternalPotential | None = None) -> Tendency:
    """The tendency per key: :func:`rhs` and the records read it with
    ``V_e`` left out, :func:`step` with ``V_e`` in."""
    return Tendency(grid, flags, p, dealias, vext)


def _uq_hat(grid: Grid, lam_hat, flags: TermFlags, p: PhysParams,
            dealias: bool):
    """Spectra of U_Q for one state's lam^ or an ``(m, nh)`` stack: the
    Bernoulli tendency at rest with only the quantum term on, its products
    masked as ``dealias`` says."""
    only = replace(flags, thermo=False)
    return _reader(grid, only, p, dealias).bernoulli(lam_hat)


def velocity(s: State) -> Field:
    """``v = -grad phi``."""
    return Field(s.grid, -derivative(s.phi, 1).values, _fresh=True)


def quantum_potential(s: State, flags: TermFlags, p: PhysParams) -> Field:
    """The quantum-potential field the active flags produce (zeros if off):
    the series closure, Bohm's at order 1. It is the Bernoulli tendency of
    the state at rest with only the quantum term on and dealiasing off.
    """
    grid = s.grid
    if not flags.quantum:
        return Field.constant(grid, 0.0)
    _, uq = _fields(grid, _stack([s]), flags, p)
    return Field(grid, uq[0], _fresh=True)


def _stack(states) -> np.ndarray:
    """The ``(2, m, n)`` stack ``(lam, phi)`` of m states, in their order."""
    return np.array([[s.lam.values for s in states],
                     [s.phi.values for s in states]])


def _fields(grid: Grid, real, flags: TermFlags, p: PhysParams):
    """``(v, U_Q)`` of a :func:`_stack` ``real`` from one forward and one
    inverse transform; U_Q is None with the quantum term off.
    :func:`quantum_potential` is the one-state case, and v is
    :func:`velocity`'s ``-grad phi`` state by state."""
    if not flags.quantum:
        return -grid.apply(grid.half_ik, real[1]), None
    hat = grid.rfft(real)
    v, uq = grid.irfft(np.stack((grid.half_ik * hat[1],
                                 _uq_hat(grid, hat[0], flags, p, False))))
    return -v, uq


def rhs(s: State, flags: TermFlags, p: PhysParams, vext: ExternalPotential,
        dealias: bool = True) -> tuple[Field, Field]:
    """Time derivatives ``(d lam/dt, d phi/dt)`` of the current state."""
    grid = s.grid
    hat = grid.rfft(np.array((s.lam.values, s.phi.values)))
    dlam, dphi = grid.irfft(_reader(grid, flags, p, dealias)(hat))
    varr = _samples(grid, vext)
    if varr is not None:
        dphi = dphi + varr
    return Field(grid, dlam, _fresh=True), Field(grid, dphi, _fresh=True)


def _check_state(rows, grid, floor, t, row=None):
    """Abort on the stacked real state ``(lam, phi)``: blowup if it is not
    finite or its density would overflow, vacuum below the floor. The
    density goes to ``row`` if given."""
    # the reductions are numpy's ufunc methods, called without the Python
    # wrappers of ndarray.all, max, sum and min: the same bits
    if not np.logical_and.reduce(np.isfinite(rows), axis=None):
        raise SolverAbort("blowup", f"state stopped being finite at t={t:.6g}", t)
    lam = rows[0]
    # below this neither a node's density nor the sum of n of them overflows
    if np.maximum.reduce(lam) > _LOG_MAX - math.log(2 * grid.n):
        j = int(np.argmax(lam))
        raise SolverAbort(
            "blowup",
            f"density overflows at t={t:.6g}: lam={lam[j]:.6g} at node {j}"
            f" (x={grid.x[j]:.6g})",
            t,
        )
    rho = np.exp(lam, out=row)
    mean = float(np.add.reduce(rho) / grid.n)  # the bits of rho.mean()
    mn = float(np.minimum.reduce(rho))
    if mn <= floor * mean:
        j = int(np.argmin(rho))
        raise SolverAbort(
            "vacuum",
            f"density floor crossed at t={t:.6g}: rho={mn:.3e} "
            f"({mn / mean:.3e} of mean) at node {j} (x={grid.x[j]:.6g})",
            t,
        )


def step(s: State, cfg: SolverConfig, flags: TermFlags, p: PhysParams,
         vext: ExternalPotential) -> State:
    """One RK4 step. Raises :class:`SolverAbort` on vacuum or blowup."""
    grid = s.grid
    op = _reader(grid, flags, p, cfg.dealias, vext)
    work = _Work(op)
    spec = work.state
    hat = grid.rfft(np.array((s.lam.values, s.phi.values)), out=spec[2:])
    real = grid.irfft(op.rk4(hat, cfg.dt, op.back(spec, out=work.real), work))
    t_new = s.t + cfg.dt
    _check_state(real, grid, cfg.density_floor, t_new, work.row)
    lam, phi = real
    return State(t_new, Field(grid, lam, _fresh=True),
                 Field(grid, phi, _fresh=True))


class IllPosedSeries(ValueError):
    """The closure's linear rate ``L(k)`` is negative on a mode of the grid:
    about a uniform state ``d^2 lam^/dt^2 = -k^2 L lam^``, so that mode
    grows at a rate rising with k (Rosenau, Phys. Rev. A 40:7193, 1989)."""


def _step_bounds(grid: Grid, p: PhysParams,
                 flags: TermFlags) -> dict[str, float]:
    """The quantum time step's bounds by name.

    Every quantum run keeps ``0.5 dx^2 m / hbar_eff`` (ValueError if no
    real ``hbar_eff`` exists). A series closure must have ``L(k) >= 0`` on
    every mode of the half spectrum, else IllPosedSeries: the table and the
    rho row act unmasked. It then adds RK4's reach on the imaginary axis
    over its fastest linear mode, ``2 sqrt(2) / max_k omega_k`` with
    ``omega_k^2 = k^2 L(k)``; both read the operator's :attr:`Tendency.rate`.
    """
    bounds = {"quantum stability bound 0.5 dx^2 m / hbar_eff":
              0.5 * grid.dx**2 * p.m / p.hbar_eff}
    if flags.series:
        rate = _reader(grid, flags, p, True).rate
        j = int(np.argmin(rate))
        if rate[j] < 0:
            raise IllPosedSeries(
                f"the gradient series cut after c_{2 * flags.quantum_order} is"
                f" ill-posed: its linear rate falls to {rate[j]:.4g} at a^2 k^2"
                f" = {p.a2 * grid.half_k2[j]:.4g}, where a mode grows unbounded")
        bounds["series stability bound 2 sqrt(2) / max_k omega_k"] = (
            2.0 * math.sqrt(2.0 / float((grid.half_k2 * rate).max())))
    return bounds


def stability_bound(grid: Grid, p: PhysParams, flags: TermFlags) -> float:
    """Largest admissible quantum time step: the least of the bounds
    :func:`_step_bounds` names."""
    return min(_step_bounds(grid, p, flags).values())


def whole_steps(t_end: float, dt: float) -> int:
    """``t_end / dt``; ValueError unless that is a whole number."""
    ratio = t_end / dt
    if not math.isfinite(ratio) or abs(round(ratio) * dt - t_end) > 1e-9 * t_end:
        raise ValueError(
            f"t_end={t_end!r} is not an integer number of steps of dt={dt!r}")
    return round(ratio)


def solver_steps(cfg: SolverConfig, grid: Grid, flags: TermFlags,
                 p: PhysParams) -> int:
    """Steps a run of ``cfg`` takes; ValueError if ``t_end`` is not whole
    steps or, with the quantum term on, ``dt`` breaks the binding one of
    the :func:`_step_bounds`, which raise for a run that has none."""
    if flags.quantum:
        name, bound = min(_step_bounds(grid, p, flags).items(),
                          key=lambda item: item[1])
        if cfg.dt > bound * (1.0 + 1e-12):
            raise ValueError(f"dt={cfg.dt:g} violates the {name} = {bound:g}")
    return whole_steps(cfg.t_end, cfg.dt)


def run(initial: State, cfg: SolverConfig, flags: TermFlags, p: PhysParams,
        vext: ExternalPotential) -> Trajectory:
    """Integrate to ``t_end``, recording every ``snapshot_stride``-th state.

    ``t_end = 0`` yields a single-snapshot trajectory of the initial state.
    On vacuum or blowup the partial trajectory is returned with the
    corresponding status instead of raising.
    """
    grid = initial.grid
    n_steps = solver_steps(cfg, grid, flags, p)

    lam = initial.lam.values
    phi = initial.phi.values
    t0 = initial.t
    rows = np.array((lam, phi))
    _check_state(rows, grid, cfg.density_floor, t0)
    # the state lives on the half spectrum, in the work arrays the run
    # owns; k1's inverse reads it back
    op = Tendency(grid, flags, p, cfg.dealias, vext)
    work = _Work(op)
    spec = work.state
    hat = grid.rfft(rows, out=spec[2:])
    real = op.back(spec, out=work.real)

    traj = Trajectory(snapshots=[], records=[])

    def record():
        # the stored states that have no record yet, as one stack
        traj.records += _records(traj.snapshots[len(traj.records):], flags,
                                 p, vext, cfg.dealias)

    def store(t, larr, parr):
        traj.snapshots.append(State(t, Field(grid, larr.copy(), _fresh=True),
                                    Field(grid, parr.copy(), _fresh=True)))
        if len(traj.snapshots) % CHUNK == 0:
            record()

    store(t0, lam, phi)
    try:
        for i in range(1, n_steps + 1):
            op.rk4(hat, cfg.dt, real, work)
            real = op.back(spec, state=True, out=work.real)
            t = t0 + i * cfg.dt
            _check_state(work.checked, grid, cfg.density_floor, t, work.row)
            if i % cfg.snapshot_stride == 0 or i == n_steps:
                store(t, real[2], real[3])
    except SolverAbort as abort:
        traj.status = abort.kind
        traj.message = str(abort)
    if len(traj.records) < len(traj.snapshots):
        record()
    return traj


# ---------------------------------------------------------------------------
# diagnostics and the action

def _energy_rows(grid: Grid, lam_hat, phi_hat, flags: TermFlags,
                 p: PhysParams) -> list:
    """Spectra of ``grad phi``, ``grad lam`` when quantum, and ``R lam``
    with the series, ``R`` the operator's own remainder."""
    rows = [grid.half_ik * phi_hat]
    if flags.quantum:
        rows.append(grid.half_ik * lam_hat)
    if flags.series:
        rows.append(_reader(grid, flags, p, True).remainder * lam_hat)
    return rows


def _energy_density(lam, rows, flags: TermFlags, p: PhysParams, varr):
    """Pointwise energy per unit volume for the active terms, with rho and v.

    ``rows`` are :func:`_energy_rows` in real space, and ``varr`` the
    samples of V_e, None for the zero potential. The quantum part is
    ``(kT/m) rho (M lam)``, whose density derivative is U_Q, with Bohm's
    term in the sign-definite form ``(kT/m) a^2 rho (grad lam)^2 / 2``.
    On shell the Lagrangian density is ``rho dphi/dt`` minus this.
    """
    rho = np.exp(lam)
    v = -rows[0]
    dens = 0.5 * rho * v * v
    if flags.thermo:
        dens = dens + rho * (p.kT / p.m) * lam
    if varr is not None:
        dens = dens + rho * varr
    if flags.quantum:
        dens = dens + 0.25 * p.quantum_coefficient * rho * rows[1]**2
    if flags.series:
        dens = dens + rho * rows[2]
    return dens, rho, v


def _samples(grid: Grid, vext: ExternalPotential) -> np.ndarray | None:
    """V_e on the grid, None for the zero potential."""
    return None if vext.kind == "zero" else vext.field(grid).values


def diagnostics(s: State, flags: TermFlags, p: PhysParams,
                vext: ExternalPotential,
                dealias: bool = True) -> DiagnosticRecord:
    """One state's record: the one-state case of the stacked records."""
    return _records([s], flags, p, vext, dealias)[0]


def _records(states: list[State], flags: TermFlags, p: PhysParams,
             vext: ExternalPotential,
             dealias: bool) -> list[DiagnosticRecord]:
    """One record per state, built for the whole stack at once.

    The energy's rows and the tendency row it needs (U_Q when quantum,
    else the Bernoulli rate, both read by :meth:`Tendency.bernoulli`) come
    back in one inverse for the stack. That row is the tendency's as a run
    with ``dealias`` steps it, so a fixed point of the run reads a
    Bernoulli residual at roundoff.
    Every sum and extremum runs along a state's own row, so a record does
    not depend on the stack it was built in.
    """
    grid = states[0].grid
    real = _stack(states)
    lam = real[0]
    varr = _samples(grid, vext)
    hat = grid.rfft(real)
    rows = _energy_rows(grid, hat[0], hat[1], flags, p)
    rows.append(_uq_hat(grid, hat[0], flags, p, dealias) if flags.quantum
                else _reader(grid, flags, p, dealias).bernoulli(*hat))
    back = grid.irfft(np.array(rows))
    dens, rho, v = _energy_density(lam, back, flags, p, varr)
    dx = grid.dx
    mass = np.sum(rho, axis=-1) * dx
    energy = np.sum(dens, axis=-1) * dx
    momentum = np.sum(rho * v, axis=-1) * dx

    bern = 0.5 * v * v
    if flags.thermo:
        # U_th + p/rho telescopes to the enthalpy (kT/m)(lam + 1)
        bern = bern + (p.kT / p.m) * (lam + 1.0)
    if varr is not None:
        bern = bern + varr
    if flags.quantum:
        bern = bern + back[-1]
    bern_res = [spread / mag if mag > 0 else spread for spread, mag in
                zip(np.std(bern, axis=-1).tolist(),
                    np.mean(np.abs(bern), axis=-1).tolist())]

    if flags.quantum:
        lmp = [math.nan] * len(states)
    else:
        dp = back[-1] if varr is None else back[-1] + varr
        lag = rho * dp - dens
        pr = (p.kT / p.m) * rho
        lmp = [dev / pmax if pmax > 0 else math.nan for dev, pmax in
               zip(np.abs(lag - pr).max(axis=-1).tolist(),
                   np.abs(pr).max(axis=-1).tolist())]

    return [DiagnosticRecord(*fields) for fields in zip(
        [s.t for s in states], mass.tolist(), energy.tolist(),
        momentum.tolist(), bern_res, lmp, rho.min(axis=-1).tolist())]


def action(traj: Trajectory, flags: TermFlags, p: PhysParams,
           vext: ExternalPotential) -> float:
    """Space-time action of a recorded trajectory.

    Trapezoid rule in time over the snapshots; the Lagrangian density is
    the on-shell substitution ``v = -grad phi``,

        L = rho dphi/dt - rho (grad phi)^2 / 2 - rho (U_th + V_e) + L_Q,

    with ``dphi/dt`` from centered differences (one-sided second order at
    the ends). Snapshot times must be finite, strictly increasing and
    uniformly spaced, and the snapshots at least three.

    The snapshots go by stacks of ``CHUNK``: a stack reads its phi with a
    one-row halo on each side for ``dphi/dt``, so beyond its input the
    action holds one stack's rows, O((CHUNK + 2) n) whatever the number of
    snapshots.
    """
    snaps = traj.snapshots
    m = len(snaps)
    if m < 3:
        raise ValueError("action needs at least three snapshots")
    times = traj.times
    dts = np.diff(times)
    if not (np.isfinite(times).all() and (dts > 0).all()):
        raise ValueError(
            "action needs finite, strictly increasing snapshot times")
    dt = float(dts[0])
    if np.abs(dts - dt).max() > 1e-9 * dt:
        raise ValueError("action needs uniformly spaced snapshots")
    two_dt = 2.0 * dt
    grid = snaps[0].grid
    varr = _samples(grid, vext)
    # classical: phi alone is transformed, and its spectrum stands in for
    # the unread lam^
    first = 0 if flags.quantum else 1

    total = 0.0
    for j0 in range(0, m, CHUNK):
        j1 = min(j0 + CHUNK, m)
        # the halo: one row each side, two on the left for a lone last
        # row, whose one-sided difference reaches back to m - 3
        h0, h1 = max(min(j0 - 1, m - 3), 0), min(j1 + 1, m)
        real = _stack(snaps[h0:h1])
        part = slice(j0 - h0, j1 - h0)  # the stack's rows in the halo
        phis = real[1]
        # dphi/dt over the halo as over a whole run; a halo row that is
        # not an end of the run is left unset, and not read
        dphi_dt = np.empty_like(phis)
        dphi_dt[1:-1] = (phis[2:] - phis[:-2]) / two_dt
        if h0 == 0:
            dphi_dt[0] = (-3.0 * phis[0] + 4.0 * phis[1] - phis[2]) / two_dt
        if h1 == m:
            dphi_dt[-1] = (3.0 * phis[-1] - 4.0 * phis[-2] + phis[-3]) / two_dt

        hat = grid.rfft(real[first:, part])
        rows = grid.irfft(np.array(
            _energy_rows(grid, hat[0], hat[-1], flags, p)))
        dens, rho, _ = _energy_density(real[0, part], rows, flags, p, varr)
        lag = rho * dphi_dt[part] - dens
        # the row totals are added one by one, in snapshot order
        for j, row in enumerate((np.sum(lag, axis=-1) * grid.dx).tolist(),
                                j0):
            total += (0.5 if j in (0, m - 1) else 1.0) * row
    return total * dt
