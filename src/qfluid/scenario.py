"""Scenario files: a small key = value format describing one run.

A scenario is a sectioned text file::

    [scenario]
    name = trap

    [grid]
    n = 256
    length = 1.0

    [physics]
    hbar = 0.15
    mass = 1.0
    kT = 0.5
    a2_mode = de_broglie
    c = 1.0

    [terms]
    thermo = true
    quantum = true
    external = true
    quantum_order = 1

    [initial]
    kind = gaussian
    width = 0.09
    ...

Full-line comments start with ``#`` or ``;``. Unknown sections or keys are
hard errors with line numbers: a physics typo must not silently run a
different scenario. Every key irrelevant to the chosen kind is likewise
rejected. ``parse_scenario`` validates the whole tree eagerly (grid rules,
parameter ranges, density floor of the initial state), so a Scenario in
hand is runnable.

Defaults, applied when a key or section is absent:

    name unnamed | physics: hbar 1, mass 1, kT 1, a2_mode de_broglie, c 1
    terms: thermo on, quantum off, external off, quantum_order 1
    external kind zero | solver: dt 1e-3, t_end 1.0, snapshot_stride 1,
    dealias true, density_floor 1e-12 | oracle: follows solver, with the
    log nonlinearity, Strang splitting | output: plot false

``serialize`` writes every resolved key back out explicitly, and
``parse_scenario(serialize(s))`` reproduces ``s`` exactly.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass

import numpy as np

from .grid import Field, Grid
from .kernels import Kernel, make_kernel, kernel_from_csv, moments
from .madelung import SolverConfig, State, TermFlags
from .params import ExternalPotential, PhysParams
from .schrodinger import OracleConfig

__all__ = [
    "ScenarioError",
    "GridSpec",
    "PhysSpec",
    "TermSpec",
    "InitialSpec",
    "ExternalSpec",
    "KernelSpec",
    "SolverSpec",
    "OracleSpec",
    "OutputSpec",
    "Scenario",
    "parse_scenario",
    "serialize",
    "build_grid",
    "build_params",
    "build_flags",
    "build_kernel",
    "build_external",
    "build_initial_state",
    "build_solver_config",
    "build_oracle_config",
]


class ScenarioError(ValueError):
    """Scenario file rejected; carries the offending line when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line else message)


@dataclass(frozen=True)
class GridSpec:
    n: int
    length: float


@dataclass(frozen=True)
class PhysSpec:
    hbar: float = 1.0
    mass: float = 1.0
    kT: float = 1.0
    a2_mode: str = "de_broglie"
    a2: float | None = None
    c: float = 1.0


@dataclass(frozen=True)
class TermSpec:
    thermo: bool = True
    quantum: bool = False
    external: bool = False
    quantum_order: int = 1


@dataclass(frozen=True)
class InitialSpec:
    """Initial condition. Kind selects which other fields apply.

    gaussian: center (defaults to mid-box), width, amplitude, boost
        (velocity at the packet center, imposed through a winding-free
        cosine velocity profile), pedestal (background floor as a fraction
        of amplitude), pedestal_kind (uniform, or thermal for a
        Boltzmann-weighted floor exp(-m (V - Vmin) / kT)).
    cosine: rho = base + amplitude cos(2 pi mode x / L + phase), and an
        optional velocity potential phi_amplitude cos(2 pi phi_mode x / L
        + phi_phase).
    equilibrium: rho proportional to exp(-m V / kT), normalized to
        mean_density, at rest. When both the thermo and quantum terms are
        active the profile is refined on the grid until the full
        stationarity condition kT/m (lam + 1) + U_Q + V = const holds, so
        the state is a fixed point of the discrete equations, not just of
        their classical limit. An optional bump (amplitude, width, center)
        multiplies rho by exp of a periodized gaussian, seeding dynamics
        without disturbing the box seam.
    tabulated: density read from a two-column CSV (x, rho), at rest.
    """

    kind: str
    center: float | None = None
    width: float | None = None
    amplitude: float = 1.0
    boost: float = 0.0
    pedestal: float = 0.0
    pedestal_kind: str = "uniform"
    base: float = 1.0
    mode: int = 1
    phase: float = 0.0
    phi_amplitude: float = 0.0
    phi_mode: int = 1
    phi_phase: float = 0.0
    mean_density: float = 1.0
    file: str | None = None


@dataclass(frozen=True)
class ExternalSpec:
    kind: str = "zero"
    omega: float | None = None
    v0: float | None = None
    file: str | None = None


@dataclass(frozen=True)
class KernelSpec:
    family: str
    width: float | None = None
    file: str | None = None


@dataclass(frozen=True)
class SolverSpec:
    dt: float = 1e-3
    t_end: float = 1.0
    snapshot_stride: int = 1
    dealias: bool = True
    density_floor: float = 1e-12


@dataclass(frozen=True)
class OracleSpec:
    dt: float | None = None
    t_end: float | None = None
    snapshot_stride: int | None = None
    nonlinearity: bool = True
    strang: bool = True


@dataclass(frozen=True)
class OutputSpec:
    plot: bool = False


@dataclass(frozen=True)
class Scenario:
    name: str
    grid: GridSpec
    physics: PhysSpec
    terms: TermSpec
    initial: InitialSpec
    external: ExternalSpec
    kernel: KernelSpec | None
    solver: SolverSpec
    oracle: OracleSpec
    output: OutputSpec


_SECTIONS = ("scenario", "grid", "physics", "terms", "initial", "external",
             "kernel", "solver", "oracle", "output")


def _tokenize(text: str) -> dict[str, dict[str, tuple[str, int]]]:
    sections: dict[str, dict[str, tuple[str, int]]] = {}
    current: dict[str, tuple[str, int]] | None = None
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line[0] in "#;":
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ScenarioError("malformed section header", ln)
            name = line[1:-1].strip()
            if name not in _SECTIONS:
                raise ScenarioError(
                    f"unknown section [{name}]; known sections: "
                    + ", ".join(_SECTIONS), ln)
            if name in sections:
                raise ScenarioError(f"duplicate section [{name}]", ln)
            current = {}
            sections[name] = current
            continue
        if current is None:
            raise ScenarioError("key before any [section] header", ln)
        key, sep, val = line.partition("=")
        if not sep:
            raise ScenarioError("expected key = value", ln)
        key = key.strip()
        val = val.strip()
        if not key:
            raise ScenarioError("empty key", ln)
        if key in current:
            raise ScenarioError(f"duplicate key {key!r}", ln)
        current[key] = (val, ln)
    return sections


class _Section:
    """Typed key extraction with line-precise errors and leftovers check."""

    _REQUIRED = object()

    def __init__(self, name: str, entries: dict[str, tuple[str, int]]):
        self.name = name
        self.entries = dict(entries)
        self.lines = {k: ln for k, (_, ln) in entries.items()}

    def _convert(self, key: str, conv, raw: str, ln: int):
        try:
            return conv(raw)
        except ValueError as e:
            raise ScenarioError(f"key {key!r}: {e}", ln) from None

    def take(self, key: str, conv, default=_REQUIRED):
        if key not in self.entries:
            if default is _Section._REQUIRED:
                raise ScenarioError(
                    f"section [{self.name}] is missing required key {key!r}")
            return default
        raw, ln = self.entries.pop(key)
        return self._convert(key, conv, raw, ln)

    def line(self, key: str) -> int | None:
        return self.lines.get(key)

    def finish(self) -> None:
        for key, (_, ln) in self.entries.items():
            raise ScenarioError(
                f"unknown key {key!r} in section [{self.name}]", ln)


def _to_int(raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"expected an integer, got {raw!r}") from None


def _to_float(raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"expected a number, got {raw!r}") from None


_TRUE = {"true", "yes", "on", "1"}
_FALSE = {"false", "no", "off", "0"}


def _to_bool(raw: str) -> bool:
    low = raw.lower()
    if low in _TRUE:
        return True
    if low in _FALSE:
        return False
    raise ValueError(f"expected true or false, got {raw!r}")


def _to_str(raw: str) -> str:
    return raw


def _choice(*allowed: str):
    def conv(raw: str) -> str:
        if raw not in allowed:
            raise ValueError(
                f"expected one of {', '.join(allowed)}; got {raw!r}")
        return raw
    return conv


def parse_scenario(text: str, base_dir: str | None = None) -> Scenario:
    """Parse and fully validate a scenario file.

    ``base_dir`` anchors relative paths of tabulated inputs (the CLI passes
    the scenario file's directory). Validation constructs the actual grid,
    parameters, and initial state, so any rule those objects enforce
    surfaces here, tagged with the closest source line.
    """
    raw = _tokenize(text)
    seen = {name: _Section(name, raw.get(name, {})) for name in _SECTIONS}
    for required in ("grid", "initial"):
        if required not in raw:
            raise ScenarioError(f"missing required section [{required}]")

    sec = seen["scenario"]
    name = sec.take("name", _to_str, "unnamed")
    sec.finish()

    sec = seen["grid"]
    gspec = GridSpec(n=sec.take("n", _to_int),
                     length=sec.take("length", _to_float))
    grid_lines = (sec.line("n"), sec.line("length"))
    sec.finish()

    sec = seen["physics"]
    pspec = PhysSpec(
        hbar=sec.take("hbar", _to_float, 1.0),
        mass=sec.take("mass", _to_float, 1.0),
        kT=sec.take("kT", _to_float, 1.0),
        a2_mode=sec.take("a2_mode", _choice("de_broglie", "explicit"),
                         "de_broglie"),
        a2=sec.take("a2", _to_float, None),
        c=sec.take("c", _to_float, 1.0),
    )
    phys_line = sec.line("a2_mode") or sec.line("kT")
    if pspec.a2_mode == "de_broglie" and pspec.a2 is not None:
        raise ScenarioError(
            "key 'a2' only applies to a2_mode = explicit",
            sec.line("a2"))
    sec.finish()

    sec = seen["terms"]
    tspec = TermSpec(
        thermo=sec.take("thermo", _to_bool, True),
        quantum=sec.take("quantum", _to_bool, False),
        external=sec.take("external", _to_bool, False),
        quantum_order=sec.take("quantum_order", _to_int, 1),
    )
    terms_line = sec.line("quantum_order") or sec.line("quantum")
    sec.finish()

    sec = seen["initial"]
    kind = sec.take("kind", _choice("gaussian", "cosine", "equilibrium",
                                    "tabulated"))
    ispec = _parse_initial(sec, kind)
    sec.finish()

    sec = seen["external"]
    ekind = sec.take("kind", _choice("zero", "harmonic", "cosine",
                                     "tabulated"), "zero")
    espec = _parse_external(sec, ekind)
    external_line = sec.line("kind")
    sec.finish()

    sec = seen["kernel"]
    kspec = None
    if "kernel" in raw:
        family = sec.take("family", _choice(
            "gaussian", "difference_of_gaussians", "delta", "tabulated"))
        kspec = KernelSpec(
            family=family,
            width=sec.take("width", _to_float, None),
            file=sec.take("file", _to_str, None),
        )
        if family in ("gaussian", "difference_of_gaussians") and kspec.width is None:
            raise ScenarioError(
                f"kernel family {family!r} needs a width")
        if family == "tabulated" and kspec.file is None:
            raise ScenarioError("kernel family 'tabulated' needs a file")
    sec.finish()

    sec = seen["solver"]
    sspec = SolverSpec(
        dt=sec.take("dt", _to_float, 1e-3),
        t_end=sec.take("t_end", _to_float, 1.0),
        snapshot_stride=sec.take("snapshot_stride", _to_int, 1),
        dealias=sec.take("dealias", _to_bool, True),
        density_floor=sec.take("density_floor", _to_float, 1e-12),
    )
    sec.finish()

    sec = seen["oracle"]
    ospec = OracleSpec(
        dt=sec.take("dt", _to_float, None),
        t_end=sec.take("t_end", _to_float, None),
        snapshot_stride=sec.take("snapshot_stride", _to_int, None),
        nonlinearity=sec.take("nonlinearity", _to_bool, True),
        strang=sec.take("strang", _to_bool, True),
    )
    sec.finish()

    sec = seen["output"]
    outspec = OutputSpec(plot=sec.take("plot", _to_bool, False))
    sec.finish()

    scn = Scenario(name=name, grid=gspec, physics=pspec, terms=tspec,
                   initial=ispec, external=espec, kernel=kspec,
                   solver=sspec, oracle=ospec, output=outspec)
    _validate(scn, base_dir, grid_lines, phys_line, terms_line, external_line)
    return scn


def _parse_initial(sec: _Section, kind: str) -> InitialSpec:
    if kind == "gaussian":
        return InitialSpec(
            kind=kind,
            center=sec.take("center", _to_float, None),
            width=sec.take("width", _to_float),
            amplitude=sec.take("amplitude", _to_float, 1.0),
            boost=sec.take("boost", _to_float, 0.0),
            pedestal=sec.take("pedestal", _to_float, 0.0),
            pedestal_kind=sec.take("pedestal_kind",
                                   _choice("uniform", "thermal"), "uniform"),
        )
    if kind == "cosine":
        return InitialSpec(
            kind=kind,
            base=sec.take("base", _to_float, 1.0),
            amplitude=sec.take("amplitude", _to_float, 0.0),
            mode=sec.take("mode", _to_int, 1),
            phase=sec.take("phase", _to_float, 0.0),
            phi_amplitude=sec.take("phi_amplitude", _to_float, 0.0),
            phi_mode=sec.take("phi_mode", _to_int, 1),
            phi_phase=sec.take("phi_phase", _to_float, 0.0),
        )
    if kind == "equilibrium":
        return InitialSpec(
            kind=kind,
            mean_density=sec.take("mean_density", _to_float, 1.0),
            amplitude=sec.take("amplitude", _to_float, 0.0),
            width=sec.take("width", _to_float, None),
            center=sec.take("center", _to_float, None),
        )
    return InitialSpec(kind=kind, file=sec.take("file", _to_str))


def _parse_external(sec: _Section, kind: str) -> ExternalSpec:
    if kind == "harmonic":
        return ExternalSpec(kind=kind, omega=sec.take("omega", _to_float))
    if kind == "cosine":
        return ExternalSpec(kind=kind, v0=sec.take("v0", _to_float))
    if kind == "tabulated":
        return ExternalSpec(kind=kind, file=sec.take("file", _to_str))
    return ExternalSpec(kind=kind)


def _validate(scn: Scenario, base_dir, grid_lines, phys_line, terms_line,
              external_line) -> None:
    n_line, length_line = grid_lines
    try:
        grid = build_grid(scn)
    except ValueError as e:
        line = length_line if "length" in str(e) else n_line
        raise ScenarioError(str(e), line) from None
    try:
        params = build_params(scn)
    except ValueError as e:
        raise ScenarioError(str(e), phys_line) from None

    if scn.terms.external and scn.external.kind == "zero":
        raise ScenarioError(
            "terms enable the external potential but [external] kind is zero",
            terms_line)
    if not scn.terms.external and scn.external.kind != "zero":
        raise ScenarioError(
            f"[external] defines a {scn.external.kind} potential but the "
            "external term is off", external_line)
    try:
        vext = build_external(scn, base_dir)
        vext.field(grid)
    except (ValueError, OSError) as e:
        raise ScenarioError(str(e), external_line) from None

    try:
        build_flags(scn, grid, base_dir)
    except (ValueError, OSError) as e:
        raise ScenarioError(str(e), terms_line) from None

    try:
        build_initial_state(scn, grid, params, vext, base_dir)
    except (ValueError, OSError) as e:
        raise ScenarioError(str(e)) from None

    try:
        build_solver_config(scn)
        build_oracle_config(scn)
    except ValueError as e:
        raise ScenarioError(str(e)) from None


def _resolve(path: str, base_dir: str | None) -> str:
    if base_dir is not None and not os.path.isabs(path):
        return os.path.join(base_dir, path)
    return path


def build_grid(scn: Scenario) -> Grid:
    return Grid(n=scn.grid.n, length=scn.grid.length)


def build_params(scn: Scenario) -> PhysParams:
    p = scn.physics
    return PhysParams(hbar=p.hbar, m=p.mass, kT=p.kT, a2_mode=p.a2_mode,
                      a2_explicit=p.a2, c=p.c)


def build_external(scn: Scenario, base_dir: str | None = None) -> ExternalPotential:
    e = scn.external
    if e.kind == "zero":
        return ExternalPotential.zero()
    if e.kind == "harmonic":
        return ExternalPotential.harmonic(e.omega)
    if e.kind == "cosine":
        return ExternalPotential.cosine(e.v0)
    return ExternalPotential.from_csv(_resolve(e.file, base_dir))


def build_kernel(scn: Scenario, grid: Grid,
                 base_dir: str | None = None) -> Kernel | None:
    k = scn.kernel
    if k is None:
        return None
    if k.family == "tabulated":
        return kernel_from_csv(_resolve(k.file, base_dir), grid)
    return make_kernel(k.family, grid, width=k.width)


def build_flags(scn: Scenario, grid: Grid,
                base_dir: str | None = None) -> TermFlags:
    t = scn.terms
    table = None
    if t.quantum and t.quantum_order >= 2:
        kernel = build_kernel(scn, grid, base_dir)
        if kernel is None:
            raise ValueError(
                f"quantum_order = {t.quantum_order} needs a [kernel] section "
                "to supply moment coefficients")
        table = moments(kernel, max_n=t.quantum_order)
    return TermFlags(thermo=t.thermo, quantum=t.quantum, external=t.external,
                     quantum_order=t.quantum_order, moments=table)


def build_solver_config(scn: Scenario) -> SolverConfig:
    s = scn.solver
    return SolverConfig(dt=s.dt, t_end=s.t_end,
                        snapshot_stride=s.snapshot_stride, dealias=s.dealias,
                        density_floor=s.density_floor)


def build_oracle_config(scn: Scenario) -> OracleConfig:
    o, s = scn.oracle, scn.solver
    return OracleConfig(
        dt=o.dt if o.dt is not None else s.dt,
        t_end=o.t_end if o.t_end is not None else s.t_end,
        snapshot_stride=(o.snapshot_stride if o.snapshot_stride is not None
                         else s.snapshot_stride),
        nonlinearity=o.nonlinearity,
        strang=o.strang,
    )


def _refine_equilibrium(lam: np.ndarray, grid: Grid, flags: TermFlags,
                        params: PhysParams, vext: ExternalPotential,
                        varr: np.ndarray, mean_density: float,
                        dealias: bool) -> np.ndarray:
    """Sharpen the Boltzmann ansatz into a discrete quantum fixed point.

    Solves kT/m (lam + 1) + U_Q[lam] + V = const by damped iteration: the
    thermal restoring term plus the leading -qc/2 lam'' piece of U_Q are
    inverted spectrally each sweep, which keeps high wavenumbers
    contractive, and the remaining nonlinearity is lagged. U_Q is read off
    the solver's own right-hand side (at rest), so the converged profile
    is a fixed point of the equations as stepped, dealiasing included. The
    constant is fixed by normalizing mean rho each sweep.
    """
    from .madelung import rhs

    theta = params.kT / params.m
    half_qc_k2 = 0.5 * params.quantum_coefficient * grid.half_k2
    denom = theta + half_qc_k2
    log_norm = np.log(mean_density)
    zero_phi = Field.constant(grid, 0.0)
    vpart = varr if flags.external else 0.0
    for _ in range(400):
        _, dphi = rhs(State(0.0, Field(grid, lam, _fresh=True), zero_phi),
                      flags, params, vext, dealias)
        uq = dphi.values - theta * (lam + 1.0) - vpart
        # the lagged rest of U_Q is uq + (qc/2) lam''
        src_hat, lam_hat = grid.rfft(np.stack((-varr - uq, lam)))
        new = grid.irfft((src_hat + half_qc_k2 * lam_hat) / denom)
        new = new - np.log(np.exp(new).mean()) + log_norm
        delta = float(np.max(np.abs(new - lam)))
        lam = new
        if delta < 1e-14:
            return lam
    raise ValueError(
        "equilibrium refinement did not converge; the quantum term is too "
        f"stiff for this potential (last update {delta:.3g})")


def build_initial_state(scn: Scenario, grid: Grid, params: PhysParams,
                        vext: ExternalPotential,
                        base_dir: str | None = None) -> State:
    """Construct the t = 0 state and enforce the initial density floor."""
    ic = scn.initial
    x = grid.x
    length = grid.length
    phi = np.zeros(grid.n)
    if ic.kind == "gaussian":
        if not ic.width > 0:
            raise ValueError(f"gaussian width must be > 0, got {ic.width}")
        if not ic.amplitude > 0:
            raise ValueError(
                f"gaussian amplitude must be > 0, got {ic.amplitude}")
        center = ic.center if ic.center is not None else 0.5 * length
        rho = np.zeros(grid.n)
        for j in range(-3, 4):
            rho += np.exp(-0.5 * ((x - center - j * length) / ic.width) ** 2)
        rho *= ic.amplitude
        if ic.pedestal > 0:
            if ic.pedestal_kind == "thermal" and params.kT > 0:
                v = vext.field(grid).values
                shape = np.exp(-(params.m / params.kT) * (v - v.min()))
            else:
                shape = np.ones(grid.n)
            rho = rho + ic.pedestal * ic.amplitude * shape
        if ic.boost != 0.0:
            phi = (-(ic.boost * length / (2.0 * np.pi))
                   * np.sin(2.0 * np.pi * (x - center) / length))
        if vext.kind == "harmonic":
            edge = min(center, length - center)
            if edge < 4.0 * ic.width:
                warnings.warn(
                    f"gaussian packet center sits {edge:.4g} from the box "
                    f"edge, closer than 4 widths ({4 * ic.width:.4g}); the "
                    "harmonic potential has a seam there", stacklevel=2)
    elif ic.kind == "cosine":
        rho = ic.base + ic.amplitude * np.cos(
            2.0 * np.pi * ic.mode * x / length + ic.phase)
        phi = ic.phi_amplitude * np.cos(
            2.0 * np.pi * ic.phi_mode * x / length + ic.phi_phase)
    elif ic.kind == "equilibrium":
        if not params.kT > 0:
            raise ValueError("equilibrium initial condition needs kT > 0")
        v = vext.field(grid).values
        w = np.exp(-(params.m / params.kT) * (v - v.min()))
        rho = ic.mean_density * w / w.mean()
        if scn.terms.quantum and scn.terms.thermo:
            flags = build_flags(scn, grid, base_dir)
            lam = _refine_equilibrium(np.log(rho), grid, flags, params, vext,
                                      v, ic.mean_density, scn.solver.dealias)
            rho = np.exp(lam)
        if ic.amplitude != 0.0:
            if ic.width is None or not ic.width > 0:
                raise ValueError(
                    "equilibrium bump needs width > 0 when amplitude is set")
            center = ic.center if ic.center is not None else 0.5 * length
            bump = np.zeros(grid.n)
            for j in range(-3, 4):
                bump += np.exp(
                    -0.5 * ((x - center - j * length) / ic.width) ** 2)
            rho = rho * np.exp(ic.amplitude * bump)
    else:
        data = np.loadtxt(_resolve(ic.file, base_dir), delimiter=",",
                          comments="#", skiprows=1, ndmin=2)
        if data.shape[1] != 2:
            raise ValueError(
                "density CSV must have exactly two columns (x, rho)")
        rho = np.interp(x, data[:, 0], data[:, 1], period=length)

    if rho.min() <= 0:
        raise ValueError("initial density must be positive everywhere")
    floor = 1e-10 * rho.mean()
    if rho.min() < floor:
        raise ValueError(
            f"initial density minimum {rho.min():.3g} sits below 1e-10 of "
            f"the mean ({rho.mean():.3g}); add a pedestal or widen the "
            "profile")
    lam = np.log(rho)
    return State(0.0, Field(grid, lam, _fresh=True),
                 Field(grid, phi, _fresh=True))


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return "%.17g" % v
    return str(v)


def serialize(scn: Scenario) -> str:
    """Write a scenario back to text, every resolved key explicit."""
    out: list[str] = []

    def section(name: str, pairs: list[tuple[str, object]]) -> None:
        out.append(f"[{name}]")
        for key, val in pairs:
            if val is None:
                continue
            out.append(f"{key} = {_fmt(val)}")
        out.append("")

    section("scenario", [("name", scn.name)])
    section("grid", [("n", scn.grid.n), ("length", scn.grid.length)])
    p = scn.physics
    section("physics", [("hbar", p.hbar), ("mass", p.mass), ("kT", p.kT),
                        ("a2_mode", p.a2_mode), ("a2", p.a2), ("c", p.c)])
    t = scn.terms
    section("terms", [("thermo", t.thermo), ("quantum", t.quantum),
                      ("external", t.external),
                      ("quantum_order", t.quantum_order)])
    ic = scn.initial
    pairs: list[tuple[str, object]] = [("kind", ic.kind)]
    if ic.kind == "gaussian":
        pairs += [("center", ic.center), ("width", ic.width),
                  ("amplitude", ic.amplitude), ("boost", ic.boost),
                  ("pedestal", ic.pedestal),
                  ("pedestal_kind", ic.pedestal_kind)]
    elif ic.kind == "cosine":
        pairs += [("base", ic.base), ("amplitude", ic.amplitude),
                  ("mode", ic.mode), ("phase", ic.phase),
                  ("phi_amplitude", ic.phi_amplitude),
                  ("phi_mode", ic.phi_mode), ("phi_phase", ic.phi_phase)]
    elif ic.kind == "equilibrium":
        pairs += [("mean_density", ic.mean_density),
                  ("amplitude", ic.amplitude), ("width", ic.width),
                  ("center", ic.center)]
    else:
        pairs += [("file", ic.file)]
    section("initial", pairs)
    e = scn.external
    section("external", [("kind", e.kind), ("omega", e.omega), ("v0", e.v0),
                         ("file", e.file)])
    if scn.kernel is not None:
        k = scn.kernel
        section("kernel", [("family", k.family), ("width", k.width),
                           ("file", k.file)])
    s = scn.solver
    section("solver", [("dt", s.dt), ("t_end", s.t_end),
                       ("snapshot_stride", s.snapshot_stride),
                       ("dealias", s.dealias),
                       ("density_floor", s.density_floor)])
    o = scn.oracle
    section("oracle", [("dt", o.dt), ("t_end", o.t_end),
                       ("snapshot_stride", o.snapshot_stride),
                       ("nonlinearity", o.nonlinearity),
                       ("strang", o.strang)])
    section("output", [("plot", scn.output.plot)])
    return "\n".join(out)
