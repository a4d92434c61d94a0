"""Variational quantum-fluid laboratory on a periodic 1D grid.

The fluid is evolved in log-density / velocity-potential variables
``(lam, phi)`` with a Bernoulli equation whose quantum term is the
gradient expansion of a non-local kernel energy, Bohm's closed form first.
A split-step wave-equation oracle, a brute-force variational oracle, and a
retarded (finite signal speed) energy route cross-check the solver.

The pieces are importable flat from the package root; the ``qfluid``
console script exposes ``run``, ``verify``, ``compare`` and ``scan``.
"""

from .version import __version__
from .grid import Grid, Field, derivative, convolve, integrate, dealias
from .params import PhysParams, ExternalTable, Potential
from .kernels import (Kernel, MomentTable, make_kernel, kernel_from_csv,
                      moments, nonlocal_energy, series_energy)
from .potentials import (internal_energy, enthalpy, pressure, log_density,
                         bohm_potential, bohm_potential_log,
                         bohm_identity_residual, quantum_lagrangian_energy,
                         euler_lagrange_oracle)
from .madelung import (State, TermFlags, SolverConfig, DiagnosticRecord,
                       Trajectory, SolverAbort, velocity, quantum_potential,
                       rhs, step, run, diagnostics, action)
from .schrodinger import (WaveState, OracleConfig, WaveTrajectory,
                          to_wavefunction, from_wavefunction, oracle_step,
                          run_oracle, waves_from_states, compare,
                          CompareResult)
from .covariant import DensityHistory, dalembert_uq, retarded_energy
from .scenario import (ScenarioError, PhysSpec, TermSpec, InitialSpec,
                       InitialGaussian, InitialCosine, InitialEquilibrium,
                       InitialTabulated, ExternalSpec, ExternalZero,
                       ExternalHarmonic, ExternalCosine, ExternalTabulated,
                       KernelSpec, KernelGaussian, KernelDifferenceOfGaussians,
                       KernelDelta, KernelTabulated, OracleSpec, Scenario,
                       Setup, parse_scenario, load, build, serialize,
                       build_grid, build_params, build_flags,
                       build_external, build_initial_state,
                       build_solver_config, build_oracle_config)
from . import presets
from .verify import (CheckResult, RunCache, SUITES, SUITE_NAMES, run_suite,
                     format_line, direct_convolution)

__all__ = [
    "__version__",
    # grid
    "Grid", "Field", "derivative", "convolve", "integrate", "dealias",
    # physics
    "PhysParams", "ExternalTable", "Potential",
    # kernels
    "Kernel", "MomentTable", "make_kernel", "kernel_from_csv", "moments",
    "nonlocal_energy", "series_energy",
    # potentials
    "internal_energy", "enthalpy", "pressure", "log_density",
    "bohm_potential", "bohm_potential_log", "bohm_identity_residual",
    "quantum_lagrangian_energy", "euler_lagrange_oracle",
    # fluid solver
    "State", "TermFlags", "SolverConfig", "DiagnosticRecord", "Trajectory",
    "SolverAbort", "velocity", "quantum_potential", "rhs", "step", "run",
    "diagnostics", "action",
    # wave oracle
    "WaveState", "OracleConfig", "WaveTrajectory", "to_wavefunction",
    "from_wavefunction", "oracle_step", "run_oracle", "waves_from_states",
    "compare", "CompareResult",
    # finite signal speed
    "DensityHistory", "dalembert_uq", "retarded_energy",
    # scenarios
    "ScenarioError", "PhysSpec", "TermSpec", "InitialSpec", "InitialGaussian",
    "InitialCosine", "InitialEquilibrium", "InitialTabulated", "ExternalSpec",
    "ExternalZero", "ExternalHarmonic", "ExternalCosine", "ExternalTabulated",
    "KernelSpec", "KernelGaussian", "KernelDifferenceOfGaussians",
    "KernelDelta", "KernelTabulated", "OracleSpec", "Scenario", "Setup",
    "parse_scenario", "load", "build", "serialize",
    "build_grid", "build_params", "build_flags", "build_external",
    "build_initial_state", "build_solver_config", "build_oracle_config",
    "presets",
    # verification
    "CheckResult", "RunCache", "SUITES", "SUITE_NAMES", "run_suite",
    "format_line", "direct_convolution",
]
