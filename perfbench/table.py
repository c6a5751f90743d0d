"""Rebuild the ROADMAP baseline timing table from traced benchmark runs.

    python3 perfbench/run.py --workload construct --seed 1 --seconds 15 --trace 1
    python3 perfbench/run.py --workload identify --seed 1 --seconds 15 --trace 1
    python3 perfbench/table.py

Reads the newest spans files of the two workloads from perfbench/out/ and
prints the median self time of one call: `gen`, `verify_symbolic` and
`extend` at m = 5..8 from `construct`; `scramble` (per op, times 50),
`canon` (accepted designs only) and `analyze` at m = 5 from `identify`.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from math import comb
from pathlib import Path
from statistics import median

from spans import Tracer

OUT = Path(__file__).resolve().parent / "out"


def self_times(path: Path) -> dict:
    """Span name -> list of (self seconds, attrs)."""
    tracer = Tracer()
    tracer.spans = [json.loads(line) for line in path.read_text().splitlines()]
    out = defaultdict(list)
    for rec, self_s in tracer.self_times():
        out[rec["name"]].append((self_s, rec["attrs"]))
    return out


def newest(workload: str) -> Path:
    files = sorted(OUT.glob(f"spans-{workload}-seed*.jsonl"), key=lambda p: p.stat().st_mtime)
    if not files:
        raise SystemExit(f"no traced {workload} run in {OUT}")
    return files[-1]


def fmt(samples: list[float]) -> str:
    return f"{median(samples):.3g}" if samples else "—"


def main() -> int:
    construct = self_times(newest("construct"))
    identify = self_times(newest("identify"))

    def at_m(spans, name, m):
        return [s for s, a in spans[name] if a.get("m") == m]

    scramble = [s / a["ops"] * 50 for s, a in identify["equivalence.scramble"]]
    canon = [s for s, a in identify["equivalence.canonicalize"] if not a.get("rejected")]
    analyze = [s for s, _ in identify["analysis.structural_report"]]
    print("| m | p×n | gen | verify_symbolic | extend | scramble×50 | canon | analyze |")
    print("|---|-----|-----|-----------------|--------|-------------|-------|---------|")
    for m in range(5, 9):
        row = [
            str(m),
            f"{comb(2 * m, m - 1)}×{2 * m - 1}",
            fmt(at_m(construct, "generator.construct_g", m)),
            fmt(at_m(construct, "model.verify_symbolic", m)),
            fmt(at_m(construct, "generator.extend_g", m)),
        ]
        row += [fmt(scramble), fmt(canon), fmt(analyze)] if m == 5 else ["—"] * 3
        print("| " + " | ".join(row) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
