"""Per-layer numbers: microtimings of public layer functions, and metrics
read off the spans of traced operations.

Layers are the modules of ``src/qfluid``: scenario, madelung, schrodinger,
output, verify, grid, covariant and kernels. The thin modules (cli,
presets, params, potentials, svgplot) are timed through the layers that
call them; ``cli`` self time is what the command spends outside every
traced layer.

Microtimings call the public function on the workload's own inputs (its
initial state and grid) ``MICRO_SAMPLES`` times, each call timed on its
own, after ``MICRO_WARMUP`` untimed calls that fill the FFT plan cache and
finish lazy imports. With 1000 samples the p99 has ten samples beyond it.
"""

from __future__ import annotations

import math
import statistics
import time
from collections import Counter

import qfluid

from spans import Tracer, duration, self_times
from workloads import VERIFY_SUITES

MICRO_SAMPLES = 1000
MICRO_WARMUP = 5

LAYERS = ("cli", "scenario", "madelung", "schrodinger", "output", "verify")
# Microtiming name -> factor from seconds to its unit.
MICRO = {
    "madelung.step_us": 1e6, "madelung.rhs_us": 1e6,
    "madelung.diagnostics_us": 1e6, "schrodinger.oracle_step_us": 1e6,
    "grid.derivative_us": 1e6, "grid.dealias_us": 1e6,
    "covariant.dalembert_uq_us": 1e6, "covariant.retarded_energy_ms": 1e3,
    "kernels.nonlocal_energy_us": 1e6, "kernels.series_energy_us": 1e6,
}
# Microtimings a workload does not reach are reported as zero.
MICRO_ON = {
    "schrodinger": ("trap_compare", "wide_grid"),
    "covariant": ("verify_suites",),
    "kernels": ("verify_suites",),
}


def tail(values) -> tuple[float, float] | None:
    """Highest percentile with at least ten samples beyond it, and its value.

    None when there are fewer than eleven samples.
    """
    n = len(values)
    if n < 11:
        return None
    ordered = sorted(values)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def microtime(fn) -> list[float]:
    """Seconds per call of ``fn``, warm-up calls excluded."""
    for _ in range(MICRO_WARMUP):
        fn()
    out = []
    for _ in range(MICRO_SAMPLES):
        t0 = time.perf_counter()
        fn()
        out.append(time.perf_counter() - t0)
    return out


def micro_inputs(workload: str, built):
    """Callables per microtiming, on the workload's own state and grid."""
    s, f, p, v = built.state, built.flags, built.params, built.vext
    cfg = qfluid.build_solver_config(built.scn)
    calls = {
        "madelung.step_us": lambda: qfluid.step(s, cfg, f, p, v),
        "madelung.rhs_us": lambda: qfluid.rhs(s, f, p, v, cfg.dealias),
        "madelung.diagnostics_us": lambda: qfluid.diagnostics(s, f, p, v),
        "grid.derivative_us": lambda: qfluid.derivative(s.lam, 1),
        "grid.dealias_us": lambda: qfluid.dealias(s.lam),
    }
    if workload in MICRO_ON["schrodinger"]:
        ocfg = qfluid.build_oracle_config(built.scn)
        wave = qfluid.to_wavefunction(s, p)
        calls["schrodinger.oracle_step_us"] = \
            lambda: qfluid.oracle_step(wave, ocfg, p, v)
    if workload in MICRO_ON["covariant"]:
        calls.update(_covariant_calls(s, p))
    return calls


def _covariant_calls(s, p):
    """Finite-c and kernel forms on the state's grid, sized as in C10.

    The retarded history reaches back L / (2c), the horizon the retarded
    energy needs, in 64 steps.
    """
    grid = s.grid
    short = qfluid.DensityHistory(grid, capacity=5)
    for j in range(5):
        short.push(0.01 * j, s.lam)
    k_hist = 65
    dt_h = 0.5 * grid.length / p.c / (k_hist - 1)
    full = qfluid.DensityHistory(grid, capacity=k_hist)
    for j in range(k_hist):
        full.push(j * dt_h, s.lam)
    kern = qfluid.make_kernel("difference_of_gaussians", grid, width=0.04)
    table = qfluid.moments(kern, max_n=2)
    a = math.sqrt(abs(table.a2))
    rho = s.density()
    return {
        "covariant.dalembert_uq_us": lambda: qfluid.dalembert_uq(short, p),
        "covariant.retarded_energy_ms":
            lambda: qfluid.retarded_energy(full, kern, p),
        "kernels.nonlocal_energy_us":
            lambda: qfluid.nonlocal_energy(rho, kern, p),
        "kernels.series_energy_us":
            lambda: qfluid.series_energy(rho, table, a, 2, p),
    }


def fft_counts(fn) -> tuple[int, int]:
    """numpy.fft calls and transformed points of one call of ``fn``."""
    tracer = Tracer()
    tracer.count_fft()
    try:
        fn()
    finally:
        tracer.restore()
    return tracer.counts["fft_calls"], tracer.counts["fft_points"]


def micro_metrics(workload: str, built) -> tuple[dict, dict]:
    """Median, p99 and sample count per microtiming, plus FFT counts.

    Returns the metrics and, per microtiming, the printed detail.
    """
    calls = micro_inputs(workload, built)
    metrics, detail = {}, {}
    for name, scale in MICRO.items():
        base, unit = name.rsplit("_", 1)
        if name not in calls:
            metrics.update({name: 0.0, f"{name}_p99": 0.0, f"{base}_n": 0})
            detail[name] = "not reached by this workload"
            continue
        samples = [t * scale for t in microtime(calls[name])]
        pct, hi = tail(samples)
        metrics[name] = statistics.median(samples)
        metrics[f"{name}_p99"] = hi
        metrics[f"{base}_n"] = len(samples)
        detail[name] = (f"median {metrics[name]:.4g} {unit}, p{pct:g} "
                        f"{hi:.4g} {unit}, n={len(samples)}, {MICRO_WARMUP} "
                        "warm-up calls excluded")
    metrics["madelung.fft_calls_per_rhs"] = \
        fft_counts(calls["madelung.rhs_us"])[0]
    metrics["madelung.fft_points_per_step"] = \
        fft_counts(calls["madelung.step_us"])[1]
    metrics["schrodinger.fft_calls_per_step"] = (
        fft_counts(calls["schrodinger.oracle_step_us"])[0]
        if "schrodinger.oracle_step_us" in calls else 0)
    return metrics, detail


def op_metrics(spans: list[dict], res: dict) -> dict:
    """Per-layer numbers of one traced operation from its spans."""
    selfs = self_times(spans)
    layer_self = Counter()
    for s in spans:
        layer_self[s["layer"]] += selfs[s["id"]]

    def total(*names):
        return sum(duration(s) for s in spans if s["name"] in names)

    runs = [s for s in spans if s["name"] in ("cli.run", "verify.run")]
    diag_in_runs = sum(duration(s) for s in spans
                       if s["name"] == "madelung.diagnostics"
                       and s["parent"] in {r["id"] for r in runs})
    run_self = total("cli.run", "verify.run") - diag_in_runs
    steps = sum(r.get("steps", 0) for r in runs)
    write_s = total("cli.write_run", "cli.write_compare")
    counts = Counter()
    for s in spans:
        counts.update(s["counts"])
    out = {f"{layer}.self_s": layer_self[layer] for layer in LAYERS}
    out.update({
        "madelung.run_self_s": run_self,
        "madelung.steps_per_s": steps / run_self if run_self > 0 else 0.0,
        "madelung.diagnostics_calls":
            sum(s["name"] == "madelung.diagnostics" for s in spans),
        "madelung.action_ms": 1e3 * total("madelung.action"),
        "schrodinger.run_oracle_s": total("cli.run_oracle"),
        "schrodinger.compare_ms": 1e3 * total("cli.compare"),
        "output.write_s": write_s,
        "output.bytes_written": res["bytes_written"],
        "output.files_written": res["files_written"],
        "output.write_mb_per_s":
            res["bytes_written"] / 1e6 / write_s if write_s > 0 else 0.0,
        "verify.hydro_runs": sum(s["name"] == "verify.run" for s in spans),
        "verify.hydro_steps": sum(s.get("steps", 0) for s in spans
                                  if s["name"] == "verify.run"),
        "fft.calls_per_op": counts["fft_calls"],
        "fft.points_per_op": counts["fft_points"],
    })
    for suite in VERIFY_SUITES:
        out[f"verify.{suite}_s"] = total(f"verify.{suite}")
    return out


def setup_metrics(spans: list[dict]) -> dict:
    """Right-hand-side calls made inside traced ``build_initial_state``."""
    calls = sum(s["counts"].get("rhs_calls", 0) for s in spans
                if s["name"] == "scenario.build_initial_state")
    return {"scenario.refine_rhs_calls": calls}


def median_of(per_op: list[dict]) -> dict:
    """Per-metric median across traced operations; counts stay whole."""
    out = {}
    for key in per_op[0]:
        vals = [m[key] for m in per_op]
        exact = all(isinstance(v, int) for v in vals)
        out[key] = (statistics.median_low if exact else statistics.median)(vals)
    return out

