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

A section's keys, types, defaults and order are the fields of its
dataclass, one per kind where the section has a ``kind`` (the kernel: a
``family``). Defaults, applied when a key or section is absent:

    name unnamed | physics: hbar 1, mass 1, kT 1, a2_mode de_broglie, c 1
    terms: thermo on, quantum off, external off, quantum_order 1
    external kind zero | solver: dt 1e-3, t_end 1.0, snapshot_stride 1,
    dealias true, density_floor 1e-12 | oracle: follows solver, with the
    log nonlinearity, Strang splitting | output: plot false

``serialize`` writes every resolved key back out explicitly, and
``parse_scenario(serialize(s))`` reproduces ``s`` exactly.
"""

from __future__ import annotations

import dataclasses
import os
import typing
import warnings
from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from .grid import Field, Grid
from .kernels import Kernel, make_kernel, kernel_from_csv, moments
from .madelung import SolverConfig, State, TermFlags
from .params import ExternalPotential, PhysParams
from .schrodinger import OracleConfig

__all__ = [
    "ScenarioError",
    "PhysSpec",
    "TermSpec",
    "InitialSpec",
    "InitialGaussian", "InitialCosine", "InitialEquilibrium",
    "InitialTabulated",
    "ExternalSpec",
    "ExternalZero", "ExternalHarmonic", "ExternalCosine", "ExternalTabulated",
    "KernelSpec",
    "KernelGaussian", "KernelDifferenceOfGaussians", "KernelDelta",
    "KernelTabulated",
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


# one dataclass per kind: keyword-only, so fields follow file order
_kinded = dataclass(frozen=True, kw_only=True)


@dataclass(frozen=True)
class PhysSpec:
    hbar: float = 1.0
    mass: float = 1.0
    kT: float = 1.0
    a2_mode: Literal["de_broglie", "explicit"] = "de_broglie"
    a2: float | None = None
    c: float = 1.0


@dataclass(frozen=True)
class TermSpec:
    thermo: bool = True
    quantum: bool = False
    external: bool = False
    quantum_order: int = 1


@_kinded
class InitialGaussian:
    """Periodized gaussian packet.

    ``center`` defaults to mid-box. ``boost`` is the velocity at the packet
    center, imposed through a winding-free cosine velocity profile.
    ``pedestal`` is a background floor as a fraction of ``amplitude``,
    uniform or, for ``pedestal_kind = thermal``, Boltzmann-weighted
    ``exp(-m (V - Vmin) / kT)``.
    """

    kind: str = field(default="gaussian", init=False)
    center: float | None = None
    width: float
    amplitude: float = 1.0
    boost: float = 0.0
    pedestal: float = 0.0
    pedestal_kind: Literal["uniform", "thermal"] = "uniform"


@_kinded
class InitialCosine:
    """``rho = base + amplitude cos(2 pi mode x / L + phase)``, with the
    velocity potential ``phi_amplitude cos(2 pi phi_mode x / L + phi_phase)``.
    """

    kind: str = field(default="cosine", init=False)
    base: float = 1.0
    amplitude: float = 0.0
    mode: int = 1
    phase: float = 0.0
    phi_amplitude: float = 0.0
    phi_mode: int = 1
    phi_phase: float = 0.0


@_kinded
class InitialEquilibrium:
    """``rho`` proportional to ``exp(-m V / kT)``, normalized to
    ``mean_density``, at rest.

    When both the thermo and quantum terms are active the profile is
    refined on the grid until the full stationarity condition
    ``kT/m (lam + 1) + U_Q + V = const`` holds, so the state is a fixed
    point of the discrete equations, not just of their classical limit. A
    nonzero ``amplitude`` multiplies rho by exp of a periodized gaussian
    bump (``width``, ``center``), seeding dynamics without disturbing the
    box seam.
    """

    kind: str = field(default="equilibrium", init=False)
    mean_density: float = 1.0
    amplitude: float = 0.0
    width: float | None = None
    center: float | None = None


@_kinded
class InitialTabulated:
    """Density read from a two-column CSV ``(x, rho)``, at rest."""

    kind: str = field(default="tabulated", init=False)
    file: str


InitialSpec = (InitialGaussian | InitialCosine | InitialEquilibrium
               | InitialTabulated)


@_kinded
class ExternalZero:
    kind: str = field(default="zero", init=False)


@_kinded
class ExternalHarmonic:
    kind: str = field(default="harmonic", init=False)
    omega: float


@_kinded
class ExternalCosine:
    kind: str = field(default="cosine", init=False)
    v0: float


@_kinded
class ExternalTabulated:
    kind: str = field(default="tabulated", init=False)
    file: str


ExternalSpec = (ExternalZero | ExternalHarmonic | ExternalCosine
                | ExternalTabulated)


@_kinded
class KernelGaussian:
    family: str = field(default="gaussian", init=False)
    width: float | None = None


@_kinded
class KernelDifferenceOfGaussians(KernelGaussian):
    family: str = field(default="difference_of_gaussians", init=False)


@_kinded
class KernelDelta:
    family: str = field(default="delta", init=False)


@_kinded
class KernelTabulated:
    family: str = field(default="tabulated", init=False)
    file: str | None = None


# supplies the moments of quantum_order >= 2
KernelSpec = (KernelGaussian | KernelDifferenceOfGaussians | KernelDelta
              | KernelTabulated)


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
    grid: Grid
    physics: PhysSpec
    terms: TermSpec
    initial: InitialSpec
    external: ExternalSpec
    kernel: KernelSpec | None
    solver: SolverConfig
    oracle: OracleSpec
    output: OutputSpec


@dataclass(frozen=True)
class _Header:
    name: str = "unnamed"


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
            if name not in _SCHEMA:
                raise ScenarioError(
                    f"unknown section [{name}]; known sections: "
                    + ", ".join(_SCHEMA), ln)
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


def _number(tp, what: str):
    def conv(raw: str):
        try:
            return tp(raw)
        except ValueError:
            raise ValueError(f"expected {what}, got {raw!r}") from None
    return conv


_TRUE = {"true", "yes", "on", "1"}
_FALSE = {"false", "no", "off", "0"}


def _to_bool(raw: str) -> bool:
    low = raw.lower()
    if low in _TRUE:
        return True
    if low in _FALSE:
        return False
    raise ValueError(f"expected true or false, got {raw!r}")


def _choice(*allowed: str):
    def conv(raw: str) -> str:
        if raw not in allowed:
            raise ValueError(
                f"expected one of {', '.join(allowed)}; got {raw!r}")
        return raw
    return conv


# field type -> (parse, format); floats keep all 17 digits
_TYPES = {
    int: (_number(int, "an integer"), str),
    float: (_number(float, "a number"), lambda v: "%.17g" % v),
    bool: (_to_bool, lambda v: "true" if v else "false"),
    str: (str, str),
}
_REQUIRED = object()


def _keys(cls) -> tuple:
    """``(key, parse, format, default)`` per settable field, in order."""
    hints = typing.get_type_hints(cls)
    out = []
    for f in dataclasses.fields(cls):
        if not f.init:
            continue
        tp = hints[f.name]
        args = typing.get_args(tp)
        if typing.get_origin(tp) is Literal:
            conv = (_choice(*args), str)
        else:
            conv = _TYPES[args[0] if args else tp]  # T | None parses as T
        default = _REQUIRED if f.default is dataclasses.MISSING else f.default
        out.append((f.name, *conv, default))
    return tuple(out)


def _tagged(key: str, default, union) -> tuple:
    by_tag = {getattr(cls, key): cls for cls in typing.get_args(union)}
    return key, _choice(*by_tag), default, by_tag


# section -> (tag key, tag parser, default tag, class by tag); an untagged
# section has one class under the tag None
_SCHEMA = {
    "scenario": (None, None, None, {None: _Header}),
    "grid": (None, None, None, {None: Grid}),
    "physics": (None, None, None, {None: PhysSpec}),
    "terms": (None, None, None, {None: TermSpec}),
    "initial": _tagged("kind", _REQUIRED, InitialSpec),
    "external": _tagged("kind", "zero", ExternalSpec),
    "kernel": _tagged("family", _REQUIRED, KernelSpec),
    "solver": (None, None, None, {None: SolverConfig}),
    "oracle": (None, None, None, {None: OracleSpec}),
    "output": (None, None, None, {None: OutputSpec}),
}
_KEYS = {cls: _keys(cls)
         for *_, by_tag in _SCHEMA.values() for cls in by_tag.values()}


def _take(section: str, entries: dict, key: str, conv, default):
    if key not in entries:
        if default is _REQUIRED:
            raise ScenarioError(
                f"section [{section}] is missing required key {key!r}")
        return default
    raw, ln = entries[key]
    try:
        return conv(raw)
    except ValueError as e:
        raise ScenarioError(f"key {key!r}: {e}", ln) from None


def _parse_section(name: str, entries: dict):
    tag_key, tag_conv, tag_default, by_tag = _SCHEMA[name]
    cls = by_tag[tag_key and _take(name, entries, tag_key, tag_conv,
                                   tag_default)]
    kwargs = {key: _take(name, entries, key, conv, default)
              for key, conv, _, default in _KEYS[cls]}
    for key, (_, ln) in entries.items():
        if key not in kwargs and key != tag_key:
            raise ScenarioError(f"unknown key {key!r} in section [{name}]", ln)
    try:
        return cls(**kwargs)
    except ValueError as e:  # Grid and SolverConfig check their values
        line = None
        if cls is Grid:
            line = entries["length" if "length" in str(e) else "n"][1]
        raise ScenarioError(str(e), line) from None


def parse_scenario(text: str, base_dir: str | None = None) -> Scenario:
    """Parse and fully validate a scenario file.

    ``base_dir`` anchors relative paths of tabulated inputs (the CLI passes
    the scenario file's directory). Validation constructs the actual grid,
    parameters, and initial state, so any rule those objects enforce
    surfaces here, tagged with the closest source line.
    """
    raw = _tokenize(text)
    for required in ("grid", "initial"):
        if required not in raw:
            raise ScenarioError(f"missing required section [{required}]")
    parts = {name: None if name == "kernel" and name not in raw
             else _parse_section(name, raw.get(name, {})) for name in _SCHEMA}

    phys = parts["physics"]
    if phys.a2_mode == "de_broglie" and phys.a2 is not None:
        raise ScenarioError(
            "key 'a2' only applies to a2_mode = explicit",
            _line(raw, "physics", "a2"))
    kspec = parts["kernel"]
    if isinstance(kspec, KernelGaussian) and kspec.width is None:
        raise ScenarioError(f"kernel family {kspec.family!r} needs a width")
    if isinstance(kspec, KernelTabulated) and kspec.file is None:
        raise ScenarioError("kernel family 'tabulated' needs a file")

    scn = Scenario(name=parts.pop("scenario").name, **parts)
    _validate(scn, base_dir, raw)
    return scn


def _line(raw: dict, section: str, key: str) -> int | None:
    return raw.get(section, {}).get(key, (None, None))[1]


def _validate(scn: Scenario, base_dir, raw) -> None:
    grid = scn.grid
    try:
        params = build_params(scn)
    except ValueError as e:
        raise ScenarioError(str(e), _line(raw, "physics", "a2_mode")
                            or _line(raw, "physics", "kT")) from None

    terms_line = (_line(raw, "terms", "quantum_order")
                  or _line(raw, "terms", "quantum"))
    external_line = _line(raw, "external", "kind")
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
        build_oracle_config(scn)
    except ValueError as e:
        raise ScenarioError(str(e)) from None


def _resolve(path: str, base_dir: str | None) -> str:
    if base_dir is not None and not os.path.isabs(path):
        return os.path.join(base_dir, path)
    return path


def build_grid(scn: Scenario) -> Grid:
    return scn.grid


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
    return make_kernel(k.family, grid, width=getattr(k, "width", None))


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
    return scn.solver


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
    constant is fixed by normalizing mean rho each sweep. A sweep whose
    update is not finite ends the iteration as diverged.
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
        with np.errstate(all="ignore"):
            new = grid.irfft((src_hat + half_qc_k2 * lam_hat) / denom)
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


def serialize(scn: Scenario) -> str:
    """Write a scenario back to text, every resolved key explicit."""
    out: list[str] = []
    for name, (tag_key, *_) in _SCHEMA.items():
        spec = _Header(scn.name) if name == "scenario" else getattr(scn, name)
        if spec is None:
            continue
        out.append(f"[{name}]")
        if tag_key:
            out.append(f"{tag_key} = {getattr(spec, tag_key)}")
        for key, _, fmt, _ in _KEYS[type(spec)]:
            val = getattr(spec, key)
            if val is not None:
                out.append(f"{key} = {fmt(val)}")
        out.append("")
    return "\n".join(out)
