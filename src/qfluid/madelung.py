"""Hydrodynamic evolution in log-density / velocity-potential variables.

State is the pair ``(lam, phi)`` with ``lam = ln rho`` and velocity
``v = -grad phi``. The equations of motion are

    d lam / dt = grad phi . grad lam + lap phi          (continuity)
    d phi / dt = (grad phi)^2 / 2 + H_th + U_Q + V_e    (Bernoulli)

where :class:`TermFlags` switches H_th and U_Q, and V_e is the samples
of the external :data:`~qfluid.params.Potential` (zeros for the zero
potential), as in the wave oracle. U_Q is the gradient series of the
non-local log-density energy, cut after ``c_{2 quantum_order}``; its
first term is Bohm's potential. Working in ``lam`` keeps the density
positive by construction and makes the enthalpy ``(kT/m)(lam + 1)``
linear in the state. Quadratic products in the right hand side are
dealiased with the 2/3 rule (default on).

Between RK4 stages and steps the state is the stacked half spectrum
``(lam^, phi^)`` of the real FFT. A :class:`Tendency`, built once per run,
gives both tendencies from it in two batched transforms through the grid's
operator layer. Its :meth:`~Tendency.stepper` is a closure bound once to
the operator and to arrays of its own, started from a state's samples
(one per run, per :func:`step` and per :func:`rhs` call), and every stage
:func:`run`, :func:`step` and :func:`rhs` evaluate goes through it:
:func:`rhs` is one stage, in four transforms. A step ends with the
inverse of the new state, which the next k1 reads too, so it takes eight
transforms. The stepper keeps the operations and operand order of the
fresh-array expressions it replaces, with the linear table's product
split into its two rows: numpy's complex multiply fuses with FMA and is
not bitwise commutative, so ``grad * x``, ``masks * S`` and ``linear * x``
keep their order and the bits stay.

The records, :func:`quantum_potential` and :func:`refine_equilibrium`
(a quantum equilibrium's fixed point) need the Bernoulli row alone (U_Q
is that row at rest with only the quantum term on); no other module
reads an operator. :meth:`Tendency.bernoulli` gives it to the bit, for
one state or a stack of them, from transforms that carry only the rows
it reads: a Bohm refinement sweep transforms two rows each way, not
three. The closure's real-space products have one home, the rule
:meth:`Tendency.products` builds, which the stage and ``bernoulli`` bind.
:func:`run` stores its initial state itself and the steps' states, and
builds their records at the end, through :func:`_records`, one stack of
``CHUNK`` states at a time, in four transforms per stack, so the per-call
cost is paid once per stack: at n = 256 a stored state's record costs
about a quarter of an RK4 step, where a lone record costs about one.
:func:`diagnostics` is the one-state case. The snapshot files' fields go
by stacks too, through :func:`snapshot_fields`, and so does
:func:`action`, in one pass: a stack reads its phi with a one-row halo
for ``dphi/dt``, so the action holds one stack's rows beyond its input,
whatever the number of snapshots. All three read their stacks of states
through :func:`_stack`.

Time stepping is classical RK4. A run terminates early, with a partial
trajectory and an error status, if the density floor is crossed (vacuum)
or the state stops being finite (blowup), which the check words and
numpy does not warn of, in the steps or in the records; an initial state
must pass the same check, :func:`check_state`. A quantum run's time step
must respect ``dt <= 0.5 dx^2 m / hbar_eff``, the explicit spectral bound
for the free dispersion branch, and a series closure its own, stiffer
bound; :func:`_step_bounds` alone says which bounds a closure has.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .grid import Field, Grid, derivative
from .kernels import MomentTable, _series_multiplier
from .params import PhysParams, Potential

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
    "check_state",
    "diagnostics",
    "action",
    "refine_equilibrium",
    "snapshot_fields",
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
    dynamics; V_e is no flag, but the samples of the run's potential.

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


def check_timing(cfg) -> None:
    """The timing rule of :class:`SolverConfig` and ``OracleConfig``."""
    if not cfg.dt > 0:
        raise ValueError(f"dt must be > 0, got {cfg.dt}")
    if not math.isfinite(cfg.dt):
        raise ValueError(f"dt must be finite, got {cfg.dt}")
    if cfg.t_end < 0:
        raise ValueError(f"t_end must be >= 0, got {cfg.t_end}")
    if cfg.snapshot_stride < 1:
        raise ValueError(f"snapshot_stride must be >= 1, got {cfg.snapshot_stride}")


@dataclass(frozen=True)
class SolverConfig:
    dt: float = 1e-3
    t_end: float = 1.0
    snapshot_stride: int = 1
    dealias: bool = True
    density_floor: float = 1e-12

    def __post_init__(self) -> None:
        check_timing(self)
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

    :attr:`theta` is ``kT/m`` with thermo on, else 0, and ``V^`` is the
    spectrum of ``vext``'s samples (0 without ``vext``). With quantum on the
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

    The closure's real-space products are stated once, in the rule
    :meth:`products` builds. A stage of the :meth:`stepper` binds it once
    per stepper and :meth:`bernoulli`, which reads ``d phi^/dt`` alone of
    one state or a stack, once per call; :func:`rhs` is one stage.
    """

    def __init__(self, grid: Grid, flags: TermFlags, p: PhysParams,
                 dealias: bool, vext: Potential | None = None):
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
        if vext is not None:
            self.force += grid.rfft(vext.field(grid).values)
        # the rows a stage's inverse reads and its products fill
        self.rows = 2 if self.remainder is None else 3

    def products(self, dlam, dphi, lam, adv, bern, by_rho):
        """``fill()``, the closure's products in the one rule of a
        :meth:`stepper`'s stage and :meth:`bernoulli`, bound to the inverse
        rows it reads and to the rows it fills: ``grad phi grad lam`` into
        ``adv`` (None: skipped), twice ``(grad phi)^2/2 - (qc/4) (grad
        lam)^2`` into ``bern`` (at rest ``dphi`` is a 0-d zero: ``0 * 0``
        less Bohm's term) and ``(R rho) / rho`` into ``by_rho``. A scratch
        row (Bohm's term, rho) and rho's spectrum are made only if read.
        """
        rfft, irfft, rem = self.grid.rfft, self.grid.irfft, self.remainder
        mul, sub, exp, div = np.multiply, np.subtract, np.exp, np.divide
        bohm = np.array(self.bohm) if self.bohm else None
        row = np.empty(bern.shape) if self.bohm or rem is not None else None
        r_hat = (None if rem is None else
                 np.empty(bern.shape[:-1] + rem.shape, dtype=complex))

        def fill():
            if adv is not None:
                mul(dlam, dphi, adv)
            mul(dphi, dphi, bern)
            if bohm is not None:  # (qc/2) (grad lam)^2, twice its value
                sub(bern, mul(mul(bohm, dlam, row), dlam, row), bern)
            if rem is not None:  # (R rho) / rho, rho in row
                mul(rem, rfft(exp(lam, row), r_hat), r_hat)
                div(irfft(r_hat, by_rho), row, by_rho)

        return fill

    def stepper(self, lam: np.ndarray, phi: np.ndarray, dt: float):
        """``(advance, stage, rows, hat)`` of a stepper started from the
        samples ``lam``, ``phi``, bound once to this operator and to arrays
        of its own. ``hat``, the state's spectrum, and its masked gradients
        share one ``(4, nh)`` array, and ``rows``, the real state, are rows
        2:4 of its inverse, so one inverse reads both with no copy. The
        build reads back the rows k1 reads: with the remainder, lam's round
        trip overwrites its samples.

        ``stage(lam^, phi^, k, k[1])`` writes into ``k`` the tendency of the
        state whose inverse the real rows hold: the :meth:`products`, their
        forward, the masked spectra, the linear table as two contiguous row
        products and the forcing row; ``stage()`` is k1. ``advance()`` takes
        one RK4 step of ``hat`` in place, in the order of ``hat + dt/6 (k1 +
        2 (k2 + k3) + k4)``, and ends with the inverse of the new state and
        its gradients: a run checks and stores ``rows``, and the next k1
        reads the rest. Every table, view, ufunc and transform is bound
        here, and each scalar factor is a 0-d array of the value numpy casts
        the Python float to, so a step looks up and converts nothing.
        """
        rfft, irfft = self.grid.rfft, self.grid.irfft
        mul, add = np.multiply, np.add
        grad, masks, force, rem = (self.grad, self.masks, self.force,
                                   self.remainder)
        to_lam, to_phi = self.linear  # -k^2 scales phi^, the rest lam^
        half, full, sixth, two = (np.array(c, dtype=complex)
                                  for c in (0.5 * dt, dt, dt / 6.0, 2.0))
        n, nh = self.grid.n, self.grid.half_k2.size
        # the state's and a stage input's spectra with their gradients
        state, spec = np.empty((2, 4, nh), dtype=complex)
        real = np.empty((4, n))
        k1, k2, k3, k4 = np.empty((4, 2, nh), dtype=complex)
        prods = np.empty((self.rows, n))
        spectra = np.empty((self.rows, nh), dtype=complex)
        hat, grads, x, rows = state[2:], spec[:2], spec[2:], real[2:]
        (hat_lam, hat_phi), (x_lam, x_phi) = hat, x
        lin, s_lam, s_phi, s_rho = spectra[:2], *spectra[:2], spectra[-1]
        fill = self.products(*real[:3], *prods[:2], prods[-1])
        x_rows, x_real = spec[:self.rows], real[:self.rows]
        stages = ((k1, half, k2, k2[1]), (k2, half, k3, k3[1]),
                  (k3, full, k4, k4[1]))
        rows[:] = lam, phi
        rfft(rows, hat)
        mul(grad, hat, state[:2])
        irfft(state[:self.rows], x_real)

        def stage(lam_hat=hat_lam, phi_hat=hat_phi, k=k1, k_phi=k1[1]):
            fill()
            rfft(prods, spectra)
            mul(masks, lin, k)
            mul(to_lam, phi_hat, s_lam)
            mul(to_phi, lam_hat, s_phi)
            add(k, lin, k)
            add(k_phi, force, k_phi)
            if rem is not None:  # s_rho is read with the remainder alone
                add(k_phi, s_rho, k_phi)
            return k

        def advance():
            stage()
            for k, c, kn, kn_phi in stages:
                add(hat, mul(c, k, x), x)
                mul(grad, x, grads)
                irfft(x_rows, x_real)
                stage(x_lam, x_phi, kn, kn_phi)
            add(k2, k3, k2)
            mul(k2, two, k2)
            add(k1, k2, k1)
            add(k1, k4, k1)
            mul(k1, sixth, k1)
            add(k1, hat, hat)
            mul(grad, hat, state[:2])
            irfft(state, real)

        return advance, stage, rows, hat

    def bernoulli(self, lam_hat: np.ndarray,
                  phi_hat: np.ndarray | None = None) -> np.ndarray:
        """``d phi^/dt`` of ``(lam^, phi^)``, phi = 0 if ``phi_hat`` is not
        given: row 1 of a :meth:`stepper`'s stage, bit for bit, on one
        state's ``(nh,)`` rows or an ``(m, nh)`` stack, which the tables
        broadcast over. Its products are the stage's :meth:`products`.

        Its one inverse carries only the rows it reads: grad lam with
        Bohm, grad phi with ``phi_hat`` and lam with the remainder. Its
        forward carries the product row and the remainder's.
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
        dlam = real[0] if self.bohm else None
        dphi = np.zeros(()) if phi_hat is None else real[len(reads) - 1]
        lam = real[-1] if rem else None
        prod = np.empty((1 + rem,) + lam_hat.shape[:-1] + (self.grid.n,))
        self.products(dlam, dphi, lam, None, prod[0], prod[-1])()
        spectra = self.grid.rfft(prod)
        out = np.multiply(self.masks[1], spectra[0])
        out += np.multiply(self.linear[1], lam_hat, out=spectra[0])
        out += self.force
        if rem:
            out += spectra[1]
        return out


@lru_cache(maxsize=16)
def _reader(grid: Grid, flags: TermFlags, p: PhysParams, dealias: bool,
            vext: Potential | None = None) -> Tendency:
    """The tendency per key: :func:`rhs` and :func:`step` read it with
    the run's ``V_e``, the records and :func:`_uq_reader` without."""
    return Tendency(grid, flags, p, dealias, vext)


def _uq_reader(grid: Grid, flags: TermFlags, p: PhysParams,
               dealias: bool) -> Tendency:
    """The operator of U_Q, only the quantum term on, its products masked
    as ``dealias`` says: its Bernoulli row at rest is U_Q, and its ``rate``
    U_Q's linear part. The records, fields and refinement read it."""
    return _reader(grid, replace(flags, thermo=False), p, dealias)


def velocity(s: State) -> Field:
    """``v = -grad phi``."""
    return Field(s.grid, -derivative(s.phi, 1).values, _fresh=True)


def quantum_potential(s: State, flags: TermFlags, p: PhysParams) -> Field:
    """The quantum-potential field the active flags produce (zeros if off):
    the series closure, Bohm's at order 1. It is the Bernoulli tendency of
    the state at rest with only the quantum term on and dealiasing off,
    the one-state case of :func:`snapshot_fields`.
    """
    *_, uq = next(snapshot_fields([s], flags, p))
    return (Field.constant(s.grid, 0.0) if uq is None
            else Field(s.grid, uq, _fresh=True))


def _stack(states) -> np.ndarray:
    """The ``(2, m, n)`` stack ``(lam, phi)`` of m states, in their order."""
    return np.array([[s.lam.values for s in states],
                     [s.phi.values for s in states]])


def snapshot_fields(states, flags: TermFlags, p: PhysParams):
    """``(t, rho, phi, v, U_Q)`` of each state, a snapshot file's fields,
    U_Q None with the quantum term off; a stack of ``CHUNK`` states takes
    one forward and one inverse transform. v is :func:`velocity`'s."""
    for j0 in range(0, len(states), CHUNK):
        part = states[j0:j0 + CHUNK]
        real, grid = _stack(part), part[0].grid
        if flags.quantum:
            hat = grid.rfft(real)
            uq = _uq_reader(grid, flags, p, False).bernoulli(hat[0])
            dphi, uq = grid.irfft(np.stack((grid.half_ik * hat[1], uq)))
        else:
            dphi, uq = grid.apply(grid.half_ik, real[1]), [None] * len(part)
        yield from zip([s.t for s in part], np.exp(real[0]), real[1], -dphi,
                       uq)


def refine_equilibrium(lam: np.ndarray, grid: Grid, flags: TermFlags,
                       params: PhysParams, varr: np.ndarray,
                       mean_density: float, dealias: bool) -> np.ndarray:
    """Sharpen the Boltzmann ansatz into a discrete quantum fixed point.

    Solves kT/m (lam + 1) + U_Q[lam] + V = const by damped iteration: the
    thermal restoring term plus U_Q's linear part ``L(k) lam^`` (Bohm's
    and twice the series remainder, the operator's ``rate``) are inverted
    spectrally each sweep, which keeps high wavenumbers contractive, and
    the remaining nonlinearity is lagged. U_Q is the Bernoulli row alone
    of :func:`_uq_reader`, the records' operator, so the converged profile
    is a fixed point of the equations as stepped, dealiasing included.
    Normalizing mean rho each sweep fixes the constant; a sweep whose
    update is not finite ends the iteration as diverged.
    """
    uq = _uq_reader(grid, flags, params, dealias)
    denom = params.kT / params.m + uq.rate
    log_norm = np.log(mean_density)
    v_hat = grid.rfft(varr)
    for _ in range(400):
        lam_hat = grid.rfft(lam)
        # the lagged rest of U_Q is uq - L lam
        src_hat = -v_hat - uq.bernoulli(lam_hat)
        with np.errstate(all="ignore"):
            new = grid.irfft((src_hat + uq.rate * lam_hat) / denom)
            new = new - np.log(np.exp(new).mean()) + log_norm
            delta = float(np.max(np.abs(new - lam)))
        if not np.isfinite(delta):
            break
        lam = new
        if delta < 1e-14:
            return lam
    raise ValueError(
        "equilibrium refinement did not converge; the quantum term is too "
        f"stiff for this potential (last update {delta:.3g})")


def rhs(s: State, flags: TermFlags, p: PhysParams, vext: Potential,
        dealias: bool = True) -> tuple[Field, Field]:
    """``(d lam/dt, d phi/dt)`` of the state: k1 of a :func:`step`, one
    stage of a stepper started from its samples."""
    grid = s.grid
    op = _reader(grid, flags, p, dealias, vext)
    dlam, dphi = grid.irfft(op.stepper(s.lam.values, s.phi.values, 0.0)[1]())
    return Field(grid, dlam, _fresh=True), Field(grid, dphi, _fresh=True)


def _state_check(rows, grid: Grid, floor: float):
    """``check(t)`` of the stacked real state ``rows`` ``(lam, phi)``: a
    blowup if it is not finite or its density would overflow, a vacuum
    below the floor. Bound once per run (or :func:`step`, or
    :func:`check_state`) to the rows and the grid's constants.

    A good state passes one test, with no ``exp``: phi's sum is finite
    (only if each entry is), lam's maximum is at most ``top``, its minimum
    gives a normal density and its spread is under ``-ln floor`` less a
    margin for the rounding of ``exp`` and the mean (n up to about 1e6).
    The tests one by one alone decide and word an abort. The sum warns if
    finite entries overflow it or infinities of both signs meet, so a
    caller that must not warn calls under ``np.errstate``.
    """
    lam, phi = rows
    x, top = grid.x, math.log(np.finfo(float).max) - math.log(2 * grid.n)
    gap, bottom = -math.log(floor) - 1e-9, math.log(np.finfo(float).tiny) + 1
    # the reductions are numpy's ufunc methods, called without the Python
    # wrappers of ndarray.max, sum and min: the same bits
    total, high, low = np.add.reduce, np.maximum.reduce, np.minimum.reduce

    def check(t: float) -> None:
        hi, lo = high(lam), low(lam)
        if (math.isfinite(total(phi)) and hi <= top and hi - lo < gap
                and lo > bottom):
            return
        if not np.logical_and.reduce(np.isfinite(rows), axis=None):
            raise SolverAbort(
                "blowup", f"state stopped being finite at t={t:.6g}", t)
        # below top no node's density, nor the sum of n of them, overflows
        if hi > top:
            j = int(np.argmax(lam))
            raise SolverAbort("blowup", f"density overflows at t={t:.6g}: "
                              f"lam={lam[j]:.6g} at node {j} (x={x[j]:.6g})", t)
        rho = np.exp(lam)
        mean, mn = float(rho.mean()), float(rho.min())
        if mn <= floor * mean:
            j, share = int(np.argmin(rho)), mn / mean if mean else math.nan
            raise SolverAbort(
                "vacuum", f"density floor crossed at t={t:.6g}: rho={mn:.3e} "
                f"({share:.3e} of mean) at node {j} (x={x[j]:.6g})", t)

    return check


def check_state(s: State, floor: float) -> None:
    """The check a run makes of every state, of ``s`` at its time: raises
    :class:`SolverAbort` on a blowup or below the density ``floor``, and
    numpy does not warn."""
    with np.errstate(over="ignore", invalid="ignore"):
        _state_check((s.lam.values, s.phi.values), s.grid, floor)(s.t)


def step(s: State, cfg: SolverConfig, flags: TermFlags, p: PhysParams,
         vext: Potential) -> State:
    """One RK4 step of a stepper started from the state's samples. Raises
    :class:`SolverAbort` on vacuum or blowup."""
    grid = s.grid
    op = _reader(grid, flags, p, cfg.dealias, vext)
    t_new = s.t + cfg.dt
    # a blowup is the check's to word, so numpy does not warn of it
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        advance, _, rows, _ = op.stepper(s.lam.values, s.phi.values, cfg.dt)
        advance()
        _state_check(rows, grid, cfg.density_floor)(t_new)
    lam, phi = rows
    return State(t_new, Field(grid, lam, _fresh=True),
                 Field(grid, phi, _fresh=True))


class IllPosedSeries(ValueError):
    """The closure's linear rate ``L(k)`` is negative on a mode of the grid:
    about a uniform state ``d^2 lam^/dt^2 = -k^2 L lam^``, so that mode
    grows at a rate rising with k (Rosenau, Phys. Rev. A 40:7193, 1989)."""


def _step_bounds(grid: Grid, p: PhysParams,
                 flags: TermFlags) -> dict[str, float]:
    """The time step's bounds by name; none without the quantum term.

    Every quantum run keeps ``0.5 dx^2 m / hbar_eff`` (ValueError if no
    real ``hbar_eff`` exists). A series closure must have ``L(k) >= 0`` on
    every mode of the half spectrum, else IllPosedSeries: the table and the
    rho row act unmasked. It then adds RK4's reach on the imaginary axis
    over its fastest linear mode, ``2 sqrt(2) / max_k omega_k`` with
    ``omega_k^2 = k^2 L(k)``; both read the operator's :attr:`Tendency.rate`.
    """
    if not flags.quantum:
        return {}
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


def stability_bound(grid: Grid, p: PhysParams,
                    flags: TermFlags) -> float | None:
    """Largest admissible time step: the least of the bounds
    :func:`_step_bounds` names, None if it names none."""
    return min(_step_bounds(grid, p, flags).values(), default=None)


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
    steps or ``dt`` breaks the binding one of the :func:`_step_bounds`,
    which raise for a quantum run that can have none."""
    name, bound = min(_step_bounds(grid, p, flags).items(),
                      key=lambda item: item[1], default=("", math.inf))
    if cfg.dt > bound * (1.0 + 1e-12):
        raise ValueError(f"dt={cfg.dt:g} violates the {name} = {bound:g}")
    return whole_steps(cfg.t_end, cfg.dt)


def run(initial: State, cfg: SolverConfig, flags: TermFlags, p: PhysParams,
        vext: Potential) -> Trajectory:
    """Integrate to ``t_end``, storing ``initial`` itself, every
    ``snapshot_stride``-th state and the last; :func:`_records` builds
    their records at the end.

    ``t_end = 0`` yields a single-snapshot trajectory of the initial state.
    An initial state that fails :func:`check_state` raises
    :class:`SolverAbort`. On vacuum or blowup later, the states stored so
    far are returned with the corresponding status instead of raising.
    """
    grid = initial.grid
    n_steps = solver_steps(cfg, grid, flags, p)
    op = Tendency(grid, flags, p, cfg.dealias, vext)
    t0, dt, stride = initial.t, cfg.dt, cfg.snapshot_stride
    snaps, status, message = [initial], "ok", None
    # a blowup is the check's to word, so numpy does not warn of it, in
    # the steps or in the records of what they left
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        check_state(initial, cfg.density_floor)
        # each step ends with the stepper's state rows, which the one
        # check reads and the run stores
        advance, _, rows, _ = op.stepper(initial.lam.values,
                                         initial.phi.values, dt)
        check = _state_check(rows, grid, cfg.density_floor)
        try:
            for i in range(1, n_steps + 1):
                advance()
                t = t0 + i * dt
                check(t)
                if i % stride == 0 or i == n_steps:
                    snaps.append(State(t, *(Field(grid, r.copy(), _fresh=True)
                                            for r in rows)))
        except SolverAbort as abort:
            status, message = abort.kind, str(abort)
        records = _records(snaps, flags, p, vext, cfg.dealias)
    return Trajectory(snaps, records, status, message)


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
    samples of V_e. The quantum part is ``(kT/m) rho (M lam)``, whose
    density derivative is U_Q, with Bohm's term in the sign-definite form
    ``(kT/m) a^2 rho (grad lam)^2 / 2``.
    On shell the Lagrangian density is ``rho dphi/dt`` minus this.
    """
    rho = np.exp(lam)
    v = -rows[0]
    dens = 0.5 * rho * v * v
    if flags.thermo:
        dens = dens + rho * (p.kT / p.m) * lam
    dens = dens + rho * varr
    if flags.quantum:
        dens = dens + 0.25 * p.quantum_coefficient * rho * rows[1]**2
    if flags.series:
        dens = dens + rho * rows[2]
    return dens, rho, v


def diagnostics(s: State, flags: TermFlags, p: PhysParams,
                vext: Potential,
                dealias: bool = True) -> DiagnosticRecord:
    """One state's record: the one-state case of the stacked records."""
    return _records([s], flags, p, vext, dealias)[0]


def _records(states: list[State], flags: TermFlags, p: PhysParams,
             vext: Potential,
             dealias: bool) -> list[DiagnosticRecord]:
    """One record per state, built a stack of ``CHUNK`` states at a time.

    The energy's rows and the tendency row it needs (U_Q when quantum,
    else the Bernoulli rate, both read by :meth:`Tendency.bernoulli`) come
    back in one inverse for the stack. That row is the tendency's as a run
    with ``dealias`` steps it, so a fixed point of the run reads a
    Bernoulli residual at roundoff.
    Every sum and extremum runs along a state's own row, so a record does
    not depend on the stack it was built in.
    """
    if len(states) > CHUNK:
        return [rec for j in range(0, len(states), CHUNK) for rec in
                _records(states[j:j + CHUNK], flags, p, vext, dealias)]
    grid = states[0].grid
    real = _stack(states)
    lam = real[0]
    varr = vext.field(grid).values
    hat = grid.rfft(real)
    rows = _energy_rows(grid, hat[0], hat[1], flags, p)
    rows.append(_uq_reader(grid, flags, p, dealias).bernoulli(hat[0])
                if flags.quantum
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
    bern = bern + varr
    if flags.quantum:
        bern = bern + back[-1]
    bern_res = [spread / mag if mag > 0 else spread for spread, mag in
                zip(np.std(bern, axis=-1).tolist(),
                    np.mean(np.abs(bern), axis=-1).tolist())]

    if flags.quantum:
        lmp = [math.nan] * len(states)
    else:
        dp = back[-1] + varr
        lag = rho * dp - dens
        pr = (p.kT / p.m) * rho
        lmp = [dev / pmax if pmax > 0 else math.nan for dev, pmax in
               zip(np.abs(lag - pr).max(axis=-1).tolist(),
                   np.abs(pr).max(axis=-1).tolist())]

    return [DiagnosticRecord(*fields) for fields in zip(
        [s.t for s in states], mass.tolist(), energy.tolist(),
        momentum.tolist(), bern_res, lmp, rho.min(axis=-1).tolist())]


def action(traj: Trajectory, flags: TermFlags, p: PhysParams,
           vext: Potential) -> float:
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
    varr = vext.field(grid).values
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
