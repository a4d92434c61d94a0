"""Compare two benchmark result files, metric by metric.

    python3 qfbench/compare.py .bench_out/results/OLD.json NEW.json

Refuses (exit 2) when the two results were measured on different machines,
as told by the provenance machine fields, or are of different workloads or
tracing modes: such numbers say nothing about the code.
"""

from __future__ import annotations

import json
import sys

from provenance import MACHINE_FIELDS, machine_mismatch


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    old, new = (_load(path) for path in argv)
    reasons = machine_mismatch(old["provenance"], new["provenance"])
    for key in ("workload", "traced"):
        if old["provenance"][key] != new["provenance"][key]:
            reasons.append(f"{key}: {old['provenance'][key]!r} != "
                           f"{new['provenance'][key]!r}")
    if reasons:
        print("refused: results differ in " + "; ".join(reasons),
              file=sys.stderr)
        print(f"(machine fields: {', '.join(MACHINE_FIELDS)})",
              file=sys.stderr)
        return 2
    for name, m in old["metrics"].items():
        a = m["value"]
        b = new["metrics"].get(name, {}).get("value")
        if b is None:
            print(f"{name:40s} {a:14.6g} {'absent':>14s}")
            continue
        ratio = f"{b / a:8.3f}x" if a else ""
        print(f"{name:40s} {a:14.6g} {b:14.6g} {m['unit']:6s} {ratio}")
    print(f"failed ops: {old['failed']}/{old['attempted']} -> "
          f"{new['failed']}/{new['attempted']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
