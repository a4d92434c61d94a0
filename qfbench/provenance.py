"""Where and on what a result was measured.

Every result carries this block. Results whose machine fields differ were
measured on different hardware or software and are never compared.
"""

from __future__ import annotations

import hashlib
import os
import platform
from pathlib import Path

import numpy as np

MACHINE_FIELDS = ("nproc", "cpu_model", "python", "numpy")


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit(root: Path) -> str | None:
    """Commit of a git checkout, read from .git without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text(encoding="utf-8").strip()
        return ref
    except OSError:
        return None


def source_digest(root: Path) -> str:
    """sha256 over the package sources, which a checkout without .git has."""
    h = hashlib.sha256()
    for path in sorted((root / "src" / "qfluid").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def provenance(root: Path, workload: str, seed: int, traced: bool) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": git_commit(root),
        "source_sha256": source_digest(root),
        "workload": workload,
        "seed": seed,
        "traced": traced,
    }


def machine_mismatch(a: dict, b: dict) -> list[str]:
    """Machine fields on which two provenance blocks differ."""
    return [f"{k}: {a.get(k)!r} != {b.get(k)!r}" for k in MACHINE_FIELDS
            if a.get(k) != b.get(k)]
