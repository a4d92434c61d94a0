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
    c = 1.0

    [terms]
    thermo = true
    quantum = true
    quantum_order = 1

    [initial]
    kind = gaussian
    width = 0.09
    ...

Full-line comments start with ``#`` or ``;``. Unknown sections or keys are
hard errors with line numbers: a physics typo must not silently run a
different scenario. Every key irrelevant to the chosen kind is likewise
rejected, and so is a ``[kernel]`` that no term reads. A choice that
another input already decides has no key: the external term is on when
``[external]`` names a potential, the kernel length is explicit when
``a2`` is given (else the thermal de Broglie one), the oracle's log
nonlinearity follows the thermo term, its splitting is always Strang's
(``[oracle]`` sets timing only), and plots are ``qfluid run --plot``.
Validation is :func:`build`, the one function that turns a Scenario
into a :class:`Setup` (parameters, flags, external potential, initial
state, oracle config) and checks the solver's step count, bound and
series well-posedness, and the initial state by a run's own check
(:func:`~qfluid.madelung.check_state`) at the scenario's density floor;
``parse_scenario`` runs it, so a Scenario in hand is runnable, and
:func:`load` hands back the Setup it built. It reads no operator:
madelung refines a quantum equilibrium's fixed point. Numbers must be
finite. An error lands in its section on an anchor it names (solver
``dt``, ``t_end``, ``density_floor``; external, initial ``kind``; kernel
``family``; terms ``quantum_order``, ``quantum``), else on the first key
it names, the ``file`` it quotes, the first anchor stated, the section
header.

A section's keys, types, defaults and order are the fields of its
dataclass, one per kind where the section has a ``kind`` (the kernel: a
``family``). The ``[external]`` kinds zero, harmonic and cosine are the
potentials of :mod:`qfluid.params` themselves, so a bad ``omega`` fails
at parse on its own line; ``tabulated`` names a file, which
:func:`build_external` loads into an :class:`ExternalTable`. Defaults,
applied when a key or section is absent:

    name unnamed | physics: hbar 1, mass 1, kT 1, no a2, c 1
    terms: thermo on, quantum off, quantum_order 1 | external kind zero
    solver: dt 1e-3, t_end 1.0, snapshot_stride 1, dealias true,
    density_floor 1e-12 | oracle: timing follows solver

``serialize`` writes every resolved key back out explicitly, and
``parse_scenario(serialize(s))`` reproduces ``s`` exactly.
"""

from __future__ import annotations

import dataclasses
import os
import re
import typing
import warnings
from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from .grid import Field, Grid
from .kernels import make_kernel, kernel_from_csv, moments
from .madelung import (SolverAbort, SolverConfig, State, TermFlags,
                       check_state, refine_equilibrium, solver_steps,
                       stability_bound)
from .params import (ExternalCosine, ExternalHarmonic, ExternalTable,
                     ExternalZero, PhysParams, Potential, _csv_columns)
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
    "Scenario",
    "Setup",
    "parse_scenario",
    "load",
    "build",
    "serialize",
    "build_grid",
    "build_params",
    "build_flags",
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
    a2: float | None = None
    c: float = 1.0


@dataclass(frozen=True)
class TermSpec:
    thermo: bool = True
    quantum: bool = False
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
class ExternalTabulated:
    kind: str = field(default="tabulated", init=False)
    file: str


ExternalSpec = (ExternalZero | ExternalHarmonic | ExternalCosine
                | ExternalTabulated)


@_kinded
class KernelGaussian:
    family: str = field(default="gaussian", init=False)
    width: float


@_kinded
class KernelDifferenceOfGaussians(KernelGaussian):
    family: str = field(default="difference_of_gaussians", init=False)


@_kinded
class KernelDelta:
    family: str = field(default="delta", init=False)


@_kinded
class KernelTabulated:
    family: str = field(default="tabulated", init=False)
    file: str


# supplies the moments of quantum_order >= 2
KernelSpec = (KernelGaussian | KernelDifferenceOfGaussians | KernelDelta
              | KernelTabulated)


@dataclass(frozen=True)
class OracleSpec:
    """The wave referee's timing, the solver's where unset: its splitting
    is always Strang's, and its log nonlinearity is the thermal enthalpy,
    so it follows ``[terms] thermo``."""

    dt: float | None = None
    t_end: float | None = None
    snapshot_stride: int | None = None


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


@dataclass(frozen=True)
class _Header:
    name: str = "unnamed"


class _Section(dict):
    """A section's ``key -> (value, line)``, and its header's ``line``."""

    line: int | None = None


def _tokenize(text: str) -> dict[str, _Section]:
    sections: dict[str, _Section] = {}
    current: _Section | None = None
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
            current = sections[name] = _Section()
            current.line = ln
            continue
        if current is None:
            raise ScenarioError("key before any [section] header", ln)
        key, sep, val = line.partition("=")
        if not sep:
            raise ScenarioError("expected key = value", ln)
        key, val = key.strip(), val.strip()
        if not key:
            raise ScenarioError("empty key", ln)
        if key in current:
            raise ScenarioError(f"duplicate key {key!r}", ln)
        current[key] = (val, ln)
    return sections


def _number(tp, what: str):
    def conv(raw: str):
        try:
            val = tp(raw)
        except ValueError:
            raise ValueError(f"expected {what}, got {raw!r}") from None
        if tp is float and not -np.inf < val < np.inf:
            raise ValueError(f"expected a finite number, got {raw!r}")
        return val
    return conv


_TRUE = {"true", "yes", "on", "1"}
_FALSE = {"false", "no", "off", "0"}


def _to_bool(raw: str) -> bool:
    low = raw.lower()
    if low not in _TRUE | _FALSE:
        raise ValueError(f"expected true or false, got {raw!r}")
    return low in _TRUE


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
}
_KEYS = {cls: _keys(cls)
         for *_, by_tag in _SCHEMA.values() for cls in by_tag.values()}


def _take(section: str, entries: _Section, key: str, conv, default):
    if key not in entries:
        if default is _REQUIRED:
            raise ScenarioError(
                f"section [{section}] is missing required key {key!r}",
                entries.line)
        return default
    raw, ln = entries[key]
    try:
        return conv(raw)
    except ValueError as e:
        raise ScenarioError(f"key {key!r}: {e}", ln) from None


def _parse_section(name: str, entries: _Section):
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
    except ValueError as e:  # checked in Grid, SolverConfig, ExternalHarmonic
        raise ScenarioError(str(e), _line_of(entries, str(e))) from None


def _line_of(entries: _Section, message: str, anchors=()) -> int | None:
    """The line of the section ``entries`` an error ``message`` is about:
    an anchor it names, else the first key it names, the ``file`` whose
    path it quotes, the first anchor stated, the header. A quoted path is
    read whole: its directories may bear the names of keys."""
    named = re.findall(r"\w+", message)
    if "file" in entries and entries["file"][0] in message:
        quoted = rf"\S*{re.escape(entries['file'][0])}\S*"
        named = [*re.findall(r"\w+", re.sub(quoted, " ", message)), "file"]
    for key in [*(a for a in anchors if a in named), *named, *anchors]:
        if key in entries:
            return entries[key][1]
    return entries.line


@dataclass(frozen=True)
class Setup:
    """A scenario built: everything a run or a compare starts from."""

    scn: Scenario
    params: PhysParams
    flags: TermFlags
    vext: Potential
    state: State
    oracle: OracleConfig


def parse_scenario(text: str, base_dir: str | None = None) -> Scenario:
    """Parse and fully validate a scenario file; see :func:`load`."""
    return load(text, base_dir).scn


def load(text: str, base_dir: str | None = None) -> Setup:
    """Parse a scenario file and :func:`build` it.

    ``base_dir`` anchors relative paths of tabulated inputs (the CLI passes
    the scenario file's directory). Any rule the built objects enforce
    surfaces here, tagged with the closest source line.
    """
    raw = _tokenize(text)
    for required in ("grid", "initial"):
        if required not in raw:
            raise ScenarioError(f"missing required section [{required}]")
    parts = {name: None if name == "kernel" and name not in raw
             else _parse_section(name, raw.get(name, _Section()))
             for name in _SCHEMA}
    scn = Scenario(name=parts.pop("scenario").name, **parts)
    return _build(scn, base_dir, raw)


def build(scn: Scenario, base_dir: str | None = None) -> Setup:
    """Build a scenario's parameters, flags, potential, initial state and
    oracle config, and check that its solver section can run. The one
    place the builders run in sequence; a broken rule is a ScenarioError.
    """
    return _build(scn, base_dir, {})


def _build(scn: Scenario, base_dir, raw) -> Setup:
    grid = scn.grid
    # each step names the section its errors belong to, then its anchors
    step = ("grid", "n")
    try:
        grid.x  # builds the grid's tables: they must fit in memory
        step = ("physics",)
        params = build_params(scn)
        if scn.terms.quantum:
            params.hbar_eff  # raises unless a real one exists
        step = ("external", "kind")
        vext = build_external(scn, base_dir)
        vext.field(grid)  # its samples must be finite
        step = (("terms", "quantum_order", "quantum") if scn.kernel is None
                else ("kernel", "family"))
        flags = build_flags(scn, grid, base_dir)
        stability_bound(grid, params, flags)  # a series must be well-posed
        step = ("solver", "dt", "t_end")
        solver_steps(scn.solver, grid, flags, params)
        step = ("initial", "kind")
        state = build_initial_state(scn, grid, params, vext, base_dir,
                                    flags=flags)
        step = ("solver", "density_floor")
        check_state(state, scn.solver.density_floor)  # as a run checks it
        step = ("oracle",)
        oracle = build_oracle_config(scn)
    except (ValueError, OSError, MemoryError, SolverAbort) as e:
        section, *anchors = step
        raise ScenarioError(str(e), _line_of(raw.get(section, _Section()),
                                             str(e), anchors)) from None
    return Setup(scn, params, flags, vext, state, oracle)


def _resolve(path: str, base_dir: str | None) -> str:
    return path if base_dir is None else os.path.join(base_dir, path)


def build_grid(scn: Scenario) -> Grid:
    return scn.grid


def build_params(scn: Scenario) -> PhysParams:
    p = scn.physics
    return PhysParams(hbar=p.hbar, m=p.mass, kT=p.kT, a2_explicit=p.a2,
                      c=p.c)


def build_external(scn: Scenario, base_dir: str | None = None) -> Potential:
    """The scenario's ``[external]`` potential, a table loaded from file."""
    e = scn.external
    if isinstance(e, ExternalTabulated):
        return ExternalTable.from_csv(_resolve(e.file, base_dir))
    return e


def build_flags(scn: Scenario, grid: Grid,
                base_dir: str | None = None) -> TermFlags:
    t, k = scn.terms, scn.kernel
    table = None
    if t.quantum and t.quantum_order >= 2:
        if k is None:
            raise ValueError(
                f"quantum_order = {t.quantum_order} needs a [kernel] section "
                "to supply moment coefficients")
        if k.family == "tabulated":
            kernel = kernel_from_csv(_resolve(k.file, base_dir), grid)
        else:
            kernel = make_kernel(k.family, grid,
                                 width=getattr(k, "width", None))
        table = moments(kernel, max_n=t.quantum_order)
    elif k is not None:
        raise ValueError(
            f"[kernel] family {k.family!r} is not read: its moments "
            "serve the quantum term at quantum_order >= 2 only")
    return TermFlags(thermo=t.thermo, quantum=t.quantum,
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
        nonlinearity=scn.terms.thermo,
    )


def _periodized_gaussian(grid: Grid, center: float,
                         width: float) -> np.ndarray:
    """A unit-peak gaussian summed with its six nearest periodic images."""
    out = np.zeros(grid.n)
    for j in range(-3, 4):
        out += np.exp(-0.5 * ((grid.x - center - j * grid.length) / width)
                      ** 2)
    return out


# a profile or a mean that overflows is refused below, as not finite;
# the seam warning's stacklevel steps past errstate's wrapper
@np.errstate(over="ignore", invalid="ignore")
def build_initial_state(scn: Scenario, grid: Grid, params: PhysParams,
                        vext: Potential,
                        base_dir: str | None = None, *,
                        flags: TermFlags | None = None) -> State:
    """Construct the t = 0 state and enforce the initial density floor.
    A quantum equilibrium is madelung's :func:`refine_equilibrium` of the
    Boltzmann profile under ``flags``, built here if not given."""
    ic = scn.initial
    x = grid.x
    length = grid.length
    phi = np.zeros(grid.n)
    if ic.kind == "gaussian":
        if not np.isfinite(ic.boost * length):
            raise ValueError(f"gaussian boost {ic.boost:g} times the box "
                             f"length {length:g} must be finite")
        if not ic.width > 0:
            raise ValueError(f"gaussian width must be > 0, got {ic.width}")
        if not ic.amplitude > 0:
            raise ValueError(
                f"gaussian amplitude must be > 0, got {ic.amplitude}")
        center = ic.center if ic.center is not None else 0.5 * length
        rho = ic.amplitude * _periodized_gaussian(grid, center, ic.width)
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
                    "harmonic potential has a seam there", stacklevel=3)
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
            if flags is None:
                flags = build_flags(scn, grid, base_dir)
            lam = refine_equilibrium(np.log(rho), grid, flags, params, v,
                                     ic.mean_density, scn.solver.dealias)
            rho = np.exp(lam)
        if ic.amplitude != 0.0:
            if ic.width is None or not ic.width > 0:
                raise ValueError(
                    "equilibrium bump needs width > 0 when amplitude is set")
            center = ic.center if ic.center is not None else 0.5 * length
            rho = rho * np.exp(
                ic.amplitude * _periodized_gaussian(grid, center, ic.width))
    else:
        xs, rhos = _csv_columns(_resolve(ic.file, base_dir), "density",
                                "rho")
        rho = np.interp(x, xs, rhos, period=length)
    mean = rho.mean()
    if not np.isfinite(mean):
        raise ValueError(f"initial density is not finite: its mean is {mean}")
    if rho.min() <= 0:
        raise ValueError("initial density must be positive everywhere")
    if rho.min() < 1e-10 * mean:
        raise ValueError(
            f"initial density minimum {rho.min():.3g} sits below 1e-10 of "
            f"the mean ({mean:.3g}); add a pedestal or widen the profile")
    lam = np.log(rho)
    return State(0.0, Field(grid, lam), Field(grid, phi))


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
