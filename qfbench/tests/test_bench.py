"""Tests of the benchmark itself.

    python3 -m pytest qfbench/tests -q

The first test runs the benchmark end to end (about half a minute); the
others drive single operations on scenarios shrunk to a few steps.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "qfbench"), str(ROOT / "src")]

import qfluid  # noqa: E402
import compare  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _declared(section: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[section]}


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                           (1, "per_layer")])
def test_every_declared_metric_is_printed_with_its_unit(trace, section):
    proc = subprocess.run(
        [sys.executable, "qfbench/run.py", "--workload", "dense_record",
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 2
    declared = _declared(section)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for name, unit in declared.items():
        assert any(line.strip().startswith(f"{name} = ")
                   and line.split("(")[0].rstrip().endswith(f" {unit}")
                   for line in lines), name
    assert lines[0].startswith("provenance ")


def _small(workload: str, tmp_path) -> workloads.Workload:
    """A workload whose scenario is cut to a few steps."""
    wl = workloads.Workload(workload, 1, str(tmp_path))
    scn = qfluid.parse_scenario(wl.texts["scenario"], base_dir=str(tmp_path))
    dt = scn.solver.dt
    solver = dataclasses.replace(scn.solver, t_end=8 * dt)
    oracle = scn.oracle
    if workload == "trap_compare":
        solver = dataclasses.replace(solver, snapshot_stride=4)
        oracle = dataclasses.replace(oracle, t_end=8 * dt, snapshot_stride=8)
    scn = dataclasses.replace(scn, solver=solver, oracle=oracle)
    wl.texts["scenario"] = qfluid.serialize(scn)
    Path(wl.paths["scenario"]).write_text(wl.texts["scenario"],
                                          encoding="utf-8")
    wl.setup()
    return wl


def _corrupting(monkeypatch, corrupt):
    """Make the CLI corrupt its own output after writing it."""
    real = workloads.qfluid_main

    def main(argv):
        code = real(argv)
        corrupt(Path(argv[argv.index("--out") + 1]))
        return code
    monkeypatch.setattr(workloads, "qfluid_main", main)


def test_tampered_compare_value_fails_the_operation(tmp_path, monkeypatch):
    wl = _small("trap_compare", tmp_path)
    assert wl.op(str(tmp_path / "a"))["problems"] == []

    def tamper(out):
        path = out / "compare.csv"
        lines = path.read_text().splitlines()
        fields = lines[2].split(",")
        fields[1] = "2e-3"
        lines[2] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
    _corrupting(monkeypatch, tamper)
    problems = wl.op(str(tmp_path / "b"))["problems"]
    assert problems and "density L2" in problems[0]


def test_flipped_snapshot_byte_fails_the_operation(tmp_path, monkeypatch):
    wl = _small("dense_record", tmp_path)
    assert wl.op(str(tmp_path / "a"))["problems"] == []
    assert wl.op(str(tmp_path / "b"))["problems"] == []

    def flip(out):
        path = out / "snapshots" / "0003.csv"
        blob = bytearray(path.read_bytes())
        row = blob.index(b"\n") + 1
        end = blob.index(b",", blob.index(b",", row) + 1) - 1
        blob[end] = ord("0") + (blob[end] - ord("0") + 1) % 10
        path.write_bytes(bytes(blob))
    _corrupting(monkeypatch, flip)
    problems = wl.op(str(tmp_path / "c"))["problems"]
    assert any("differ from the first rep" in p for p in problems)


def test_verify_output_that_differs_from_expectation_fails():
    good = "[PASS] C1   bohm-identity  x\n[PASS] C2   euler  y\n"
    assert workloads.check_verify("identities", good) == []
    assert workloads.check_verify("identities",
                                  good.replace("[PASS] C2", "[FAIL] C2"))
    assert workloads.check_verify("identities", good.splitlines()[0])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_regenerates_identical_inputs(workload):
    assert (workloads.scenario_texts(workload, 7)
            == workloads.scenario_texts(workload, 7))


@pytest.mark.parametrize("workload",
                         ["trap_compare", "wide_grid", "dense_record"])
def test_seed_changes_inputs_but_not_work(workload):
    a = workloads.scenario_texts(workload, 7)["scenario"]
    b = workloads.scenario_texts(workload, 8)["scenario"]
    assert a != b
    sa, sb = (qfluid.parse_scenario(t) for t in (a, b))
    assert (sa.grid, sa.solver, sa.oracle) == (sb.grid, sb.solver, sb.oracle)


def test_absent_wrap_target_is_reported_and_tracing_goes_on(monkeypatch):
    monkeypatch.setattr(spans, "SPAN_TARGETS", spans.SPAN_TARGETS + (
        ("qfluid.cli", "no_such_function", "cli"),
        ("qfluid.no_such_module", "run", "madelung")))
    tracer = spans.Tracer()
    tracer.install()
    try:
        grid = qfluid.Grid(n=16, length=1.0)
        qfluid.derivative(qfluid.Field(grid, grid.x * 0.0), 1)
    finally:
        tracer.restore()
    assert tracer.absent == ["qfluid.cli.no_such_function",
                             "qfluid.no_such_module.run"]
    assert tracer.counts["fft_calls"] == 2
    assert qfluid.cli.run is qfluid.madelung.run


def test_results_from_different_machines_are_not_compared(tmp_path):
    prov = {"nproc": 2, "cpu_model": "A", "python": "3.11", "numpy": "2.4",
            "workload": "trap_compare", "traced": False}
    metrics = {"wall_s": {"value": 1.0, "unit": "s"}}
    paths = []
    for name, cpu in (("a", "A"), ("b", "B")):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({
            "provenance": {**prov, "cpu_model": cpu}, "metrics": metrics,
            "attempted": 2, "failed": 0}))
        paths.append(str(path))
    assert compare.main([paths[0], paths[0]]) == 0
    assert compare.main(paths) == 2
