"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload oracle --seeds 1-10

Runs run.py once per seed with the run length from BENCHMARK.json and
prints, per metric, the median and the distance between the first and
third quartile as a share of the median, next to the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    values: dict[str, list[float]] = {m["name"]: [] for m in bench["end_to_end"]}
    for seed in args.seeds:
        cmd = [*bench["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']} of {result['attempted']} jobs failed")
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v[-1]:.4g}" for k, v in values.items()),
              flush=True)
    for m in bench["end_to_end"]:
        vals = values[m["name"]]
        q1, mid, q3 = quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        spread = (q3 - q1) / median(vals)
        flag = "ok" if spread < m["bound"] / 3 else "WIDE"
        print(f"{m['name']:<12} median {median(vals):.5g} {m['unit']:<4} "
              f"spread {spread:.3f}  bound {m['bound']}  {flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
