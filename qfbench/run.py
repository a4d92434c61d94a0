"""qfluid benchmark: one workload, end-to-end metrics or a traced run.

Run from the repository root:

    python3 qfbench/run.py --workload trap_compare --seed 1 --seconds 25 --trace 0

The program under test is the package in ``src/qfluid`` next to this
directory, driven in this one process through ``qfluid.cli.main(argv)``
and the names in ``qfluid.__all__``. Load is one process on one thread.

``--trace 0`` times the workload's operations untraced and reports the
end-to-end metrics declared in BENCHMARK.json: median wall and CPU time
per operation, median set-up time, and peak resident memory.
``--trace 1`` alternates traced and untraced operations, then microtimes
the public layer functions, and reports the per-layer metrics.

Every operation's output is checked; an operation fails on a non-zero exit
code or a failed check (see workloads.py). The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. The full result, with provenance and every sample, goes to
``.bench_out/results/``; a traced run also writes its spans there.
"""

from __future__ import annotations

import os

# One thread of load: keep any threaded numerical library single-threaded.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"

MIN_OPS = 2
# Set-up runs in batches: one before the first operation, which also warms
# the FFT plan cache, and one after every operation, so that its samples
# span the run as the operations do. A batch repeats set-up at least
# min_reps times and for at least its budget in seconds; setup_s is the
# median of the batch means.
FIRST_SETUP_BATCH = (11, 1.0)
SETUP_BATCH = (3, 0.3)
SETUP_MAX_REPS = 201


def import_qfluid():
    """Import the package from this checkout's src/, and only from there."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import qfluid
    except ImportError as e:
        sys.exit(f"error: cannot import qfluid from {src}: {e}")
    if Path(qfluid.__file__).resolve().parent != src / "qfluid":
        sys.exit(f"error: imported qfluid from {qfluid.__file__}, "
                 f"not from {src}")


def declared_units(trace: bool) -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def setup_batch(wl, min_reps: int, budget: float) -> dict:
    """Repeated set-up; per repetition, seconds in total, parse and build."""
    reps = []
    start = time.perf_counter()
    while len(reps) < SETUP_MAX_REPS and (
            len(reps) < min_reps or time.perf_counter() - start < budget):
        reps.append(wl.setup())
    return {
        "setup_s": [sum(b.total_s for b in rep) for rep in reps],
        "parse_ms": [1e3 * sum(b.parse_s for b in rep) for rep in reps],
        "build_initial_ms": [1e3 * sum(b.build_initial_s for b in rep)
                             for rep in reps],
    }


def run_ops(wl, seconds: float, work: str, batches: list[dict],
            tracer=None) -> list[dict]:
    """Operations until ``seconds`` would be exceeded, at least MIN_OPS.

    A set-up batch follows each operation and is appended to ``batches``.
    With a tracer, even-numbered operations are traced and odd ones are
    not, so both sides see the same drift of the machine.
    """
    ops = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(ops) % 2 == 0
        first_span = len(tracer.spans) if tracer else 0
        out = os.path.join(work, f"op{len(ops)}")
        t0 = time.perf_counter()
        if traced:
            tracer.install()
        try:
            res = wl.op(out, tracer if traced else None)
        except Exception:
            res = {"wall": None, "cpu": None,
                   "problems": [traceback.format_exc(limit=4)]}
        finally:
            if traced:
                tracer.restore()
        shutil.rmtree(out, ignore_errors=True)
        gc.collect()  # free this operation's trajectory before the next
        res.pop("stdout", None)
        res["traced"] = traced
        if traced:
            res["spans"] = tracer.spans[first_span:]
        ops.append(res)
        batches.append(setup_batch(wl, *SETUP_BATCH))
        elapsed = time.perf_counter() - start
        if len(ops) >= MIN_OPS and elapsed + (time.perf_counter() - t0) \
                > seconds:
            return ops


def summarize(samples: list[float]) -> str:
    import layers

    med = statistics.median(samples)
    t = layers.tail(samples)
    tail_text = (f"p{t[0]:g} {t[1]:.6g}" if t else
                 "no tail percentile (fewer than 11 samples)")
    return f"median {med:.6g}, {tail_text}, n={len(samples)}"


def end_to_end(batches: list[dict], ops: list[dict]) -> tuple[dict, dict]:
    walls = [op["wall"] for op in ops if op["wall"] is not None]
    cpus = [op["cpu"] for op in ops if op["cpu"] is not None]
    if not walls:
        sys.exit("error: no operation completed; nothing to report")
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    means = [statistics.fmean(b["setup_s"]) for b in batches]
    reps = sum(len(b["setup_s"]) for b in batches)
    metrics = {"wall_s": statistics.median(walls),
               "cpu_s": statistics.median(cpus),
               "setup_s": statistics.median(means),
               "peak_rss_mb": rss_mb}
    detail = {"wall_s": summarize(walls), "cpu_s": summarize(cpus),
              "setup_s": f"median of {len(means)} batch means, {reps} reps",
              "peak_rss_mb": "peak resident set of this process"}
    return metrics, detail


def per_layer(wl, first_batch: dict, ops: list[dict], tracer,
              setup_spans):
    import layers

    traced = [op for op in ops if op["traced"] and op["wall"] is not None]
    plain = [op for op in ops if not op["traced"] and op["wall"] is not None]
    if not traced:
        sys.exit("error: no traced operation completed; nothing to report")
    metrics = layers.median_of([layers.op_metrics(op["spans"], op)
                                for op in traced])
    metrics.update(layers.setup_metrics(setup_spans))
    for key in ("parse_ms", "build_initial_ms"):
        metrics[f"scenario.{key}"] = statistics.median(first_batch[key])
    micro, detail = layers.micro_metrics(wl.name, wl.built)
    metrics.update(micro)
    traced_wall = statistics.median(op["wall"] for op in traced)
    plain_wall = (statistics.median(op["wall"] for op in plain)
                  if plain else traced_wall)
    metrics["trace.overhead_s"] = traced_wall - plain_wall
    metrics["trace.absent_targets"] = len(tracer.absent)
    detail["trace.overhead_s"] = (f"traced wall {traced_wall:.6g} s over "
                                  f"{len(traced)} ops, untraced "
                                  f"{plain_wall:.6g} s over {len(plain)}")
    detail["trace.absent_targets"] = ", ".join(tracer.absent) or "none"
    return metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    trace = bool(args.trace)

    import_qfluid()
    import provenance
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: "
                     f"{', '.join(workloads.WORKLOADS)}")
    units = declared_units(trace)
    prov = provenance.provenance(ROOT, args.workload, args.seed, trace)
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT)
    tracer = spans.Tracer() if trace else None
    stem = OUT / "results" / (f"{args.workload}-seed{args.seed}"
                              f"-trace{args.trace}")
    try:
        wl = workloads.Workload(args.workload, args.seed, work)
        batches = [setup_batch(wl, *FIRST_SETUP_BATCH)]
        setup_spans = []
        if tracer:
            tracer.install()
            try:
                wl.setup(tracer)
            finally:
                tracer.restore()
            setup_spans = list(tracer.spans)
        ops = run_ops(wl, args.seconds, work, batches, tracer)
        if tracer:
            metrics, detail = per_layer(wl, batches[0], ops, tracer,
                                        setup_spans)
            tracer.dump(f"{stem}-spans.json")
        else:
            metrics, detail = end_to_end(batches, ops)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if set(metrics) != set(units):
        missing = sorted(set(units) - set(metrics))
        extra = sorted(set(metrics) - set(units))
        sys.exit(f"error: metrics differ from BENCHMARK.json: missing "
                 f"{missing}, undeclared {extra}")
    failed = [op for op in ops if op["problems"]]
    result = {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    with open(f"{stem}.json", "w", encoding="utf-8") as f:
        json.dump({"provenance": prov, **result, "detail": detail,
                   "ops": [{k: v for k, v in op.items() if k != "spans"}
                           for op in ops]}, f, indent=1)

    print("provenance " + json.dumps(prov, sort_keys=True))
    print(f"{args.workload} seed {args.seed}: {len(ops)} ops attempted, "
          f"{len(failed)} failed")
    for op in failed:
        print("  failed: " + "; ".join(op["problems"]))
    for name, unit in units.items():
        extra = f"  ({detail[name]})" if name in detail else ""
        print(f"  {name} = {metrics[name]:.6g} {unit}{extra}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
