"""A suite's preset runs, integrated in two lanes before its first check."""

import dataclasses
import os

import pytest

from qfluid import cli, presets, verify
from qfluid.madelung import SolverConfig
from qfluid.verify import READS, SUITES, RunCache, format_line, run_suite


def lines(suite):
    return [format_line(r) for r in run_suite(suite)]


def spy_integrations(monkeypatch, log):
    """Log ``pid name`` for each preset integrated, from either process,
    and ``filled`` when :meth:`RunCache.fill` returns."""
    integrate, fill = RunCache._integrate, RunCache.fill

    def spy(scn):
        with open(log, "a", encoding="utf-8") as f:
            f.write(f"{os.getpid()} {scn.name}\n")
        return integrate(scn)

    def spied_fill(self, names):
        fill(self, names)
        with open(log, "a", encoding="utf-8") as f:
            f.write("filled\n")

    monkeypatch.setattr(RunCache, "_integrate", staticmethod(spy))
    monkeypatch.setattr(RunCache, "fill", spied_fill)


def lanes(log):
    """The pid each preset was integrated in, checking that each was
    integrated once and all before the checks began."""
    *runs, last = log.read_text().splitlines()
    assert last == "filled"
    pids = dict(reversed(line.split()) for line in runs)
    assert len(runs) == len(pids)
    return pids


def test_action_suite_in_two_lanes_equals_one_process(tmp_path, monkeypatch):
    log = tmp_path / "integrated"
    spy_integrations(monkeypatch, log)
    forked = lines("action")
    # each declared preset once, before the first check: the child takes
    # the heaviest, the caller the two traveling runs
    pids = lanes(log)
    assert set(pids) == {name for fn in SUITES["action"]
                         for name in READS[fn]}
    me = str(os.getpid())
    assert pids["equilibrium"] != me
    assert pids["traveling"] == pids["traveling_action"] == me

    monkeypatch.delattr(os, "fork")
    assert lines("action") == forked
    assert all(line.startswith("[PASS]") for line in forked)


def test_a_failed_preset_fails_only_the_checks_that_read_it(tmp_path,
                                                           monkeypatch):
    # at 25 times its step the equilibrium drains to vacuum in 5 steps; its
    # 2400 steps put it in the child's lane
    suite = presets.suite

    def draining():
        scns = suite()
        eq = scns["equilibrium"]
        scns["equilibrium"] = dataclasses.replace(
            eq, solver=SolverConfig(dt=0.05, t_end=120.0,
                                    snapshot_stride=50))
        return scns

    monkeypatch.setattr(presets, "suite", draining)
    log = tmp_path / "integrated"
    spy_integrations(monkeypatch, log)
    forked = lines("action")
    assert lanes(log)["equilibrium"] != str(os.getpid())
    assert forked[0].startswith(
        "[FAIL] C?   check_onshell            error: preset 'equilibrium' "
        "aborted: vacuum: density floor crossed at t=0.25")
    assert forked[1].startswith("[PASS] C9")
    monkeypatch.delattr(os, "fork")
    assert lines("action") == forked


def test_one_preset_or_none_forks_nothing(monkeypatch):
    monkeypatch.setattr(os, "fork",
                        lambda: pytest.fail("one lane forked a child"))
    cache = RunCache()
    cache.fill(["traveling_action", "traveling_action"])
    setup, traj = cache.get("traveling_action")
    assert setup.scn.name == "traveling_action" and traj.status == "ok"
    assert all(line.startswith("[PASS]") for line in lines("identities"))


def test_get_fills_one_lane_and_holds_its_failure(monkeypatch):
    calls = []

    def aborts(scn):
        calls.append(scn.name)
        raise RuntimeError(f"preset {scn.name!r} aborted")

    monkeypatch.setattr(RunCache, "_integrate", staticmethod(aborts))
    monkeypatch.setattr(os, "fork",
                        lambda: pytest.fail("one preset forked a child"))
    cache = RunCache()
    for _ in range(2):
        with pytest.raises(RuntimeError, match="^preset 'trap' aborted$"):
            cache.get("trap")
    assert calls == ["trap"]


def test_reproducibility_prints_nothing_of_its_own(capsys):
    # its two runs' progress lines would change between identical calls
    result = verify.check_reproducibility(None)
    assert result.passed
    assert capsys.readouterr().out == ""


def test_reproducibility_reads_a_missing_file_as_not_identical(monkeypatch):
    run = cli.cmd_run

    def loses_a_snapshot(path, out):
        code = run(path, out)
        if out.endswith("b"):
            os.remove(os.path.join(out, "snapshots", "0007.csv"))
        return code

    monkeypatch.setattr(cli, "cmd_run", loses_a_snapshot)
    result = verify.check_reproducibility(None)
    assert not result.passed
    assert result.value == "files_identical=False (402 compared)"
