"""Every demo script runs to its end and writes nothing to stderr."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_demo_exits_zero(tmp_path):
    # all at once, each in a directory of its own: one after another they
    # take about 4 s, most of it demo 05's
    demos = sorted((ROOT / "demos").glob("0*.py"))
    assert len(demos) == 8
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    procs = []
    try:
        for demo in demos:
            cwd = tmp_path / demo.stem
            cwd.mkdir()
            procs.append((demo.name, subprocess.Popen(
                [sys.executable, str(demo)], cwd=cwd, env=env,
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)))
        errors = {name: proc.communicate(timeout=300)[1]
                  for name, proc in procs}
    finally:
        for _, proc in procs:
            proc.kill()
            proc.wait()
    # a numpy RuntimeWarning in a demo reaches its stderr, not this
    # process's warning filters
    failed = {name: errors[name].decode()[-2000:]
              for name, proc in procs if proc.returncode or errors[name]}
    assert not failed
