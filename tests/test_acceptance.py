"""Acceptance criteria, one test per criterion.

Each test executes exactly the check the ``qfluid verify all`` command
runs, with the same per-check seeding, prints the same one-line verdict,
and asserts it. A module-level cache shares the expensive trajectories
between criteria, as the command line does.

The free-packet criterion asserts both halves of its contract (oracle
agreement and the dispersive width law); the width-law half does not hold
on a periodic box at the required tolerance, and the check's details
explain why. It is reported honestly rather than weakened.
"""

import time
from types import SimpleNamespace

import numpy as np

from qfluid import verify
from qfluid.verify import _CHECKS, RunCache, format_line

CACHE = RunCache()
SEED = 0

# wall-clock ceiling for the solver-plus-oracle criteria
RUNTIME_LIMIT = 60.0


def execute(fn):
    ctx = SimpleNamespace(cache=CACHE,
                          rng=np.random.default_rng([SEED, _CHECKS.index(fn)]))
    result = fn(ctx)
    print(format_line(result))
    if result.details:
        print("       " + result.details)
    return result


def test_c1_quantum_potential_forms_agree():
    assert execute(verify.check_bohm_identity).passed


def test_c2_variational_derivative_matches():
    assert execute(verify.check_euler_lagrange).passed


def test_c3_series_truncation_scaling():
    assert execute(verify.check_truncation).passed


def test_c4_spectral_convolution_exact():
    assert execute(verify.check_convolution).passed


def test_c5a_trapped_run_tracks_oracle():
    t0 = time.perf_counter()
    result = execute(verify.check_trap_equivalence)
    elapsed = time.perf_counter() - t0
    setup, _ = CACHE.get("trap")
    assert setup.scn.grid.n == 256
    assert elapsed < RUNTIME_LIMIT
    assert result.passed


def test_c5b_free_packet_oracle_and_width_law():
    t0 = time.perf_counter()
    result = execute(verify.check_free_packet)
    elapsed = time.perf_counter() - t0
    assert elapsed < RUNTIME_LIMIT
    assert result.passed


def test_c6_mass_and_energy_conservation():
    assert execute(verify.check_conservation).passed


def test_c7_equilibrium_stays_put():
    assert execute(verify.check_equilibrium_fixed_point).passed


def test_c8_onshell_lagrangian_equals_pressure():
    assert execute(verify.check_onshell).passed


def test_c9_action_stationarity_scaling():
    assert execute(verify.check_action_stationarity).passed


def test_c10a_covariant_static_limit():
    assert execute(verify.check_covariant_static).passed


def test_c10b_covariant_correction_order():
    assert execute(verify.check_covariant_contraction).passed


def test_c10c_retarded_energy_horizon_rate():
    assert execute(verify.check_retarded_rate).passed


def test_c11_rk4_temporal_order():
    assert execute(verify.check_rk4_order).passed


def test_c12_outputs_reproducible():
    assert execute(verify.check_reproducibility).passed
