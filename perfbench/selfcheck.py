"""Self-check of the benchmark harness at tiny size; takes about a minute.

    python3 perfbench/selfcheck.py

For every workload:
  * a tiny untraced run and a tiny traced run print exactly the
    end-to-end and the per-layer metric names and units of BENCHMARK.json,
    and every job in them is correct;
  * a tiny run with one deliberately corrupted output reports
    failed_ratio > 0 and correct = false.
Finally, a copy of the benchmark without the codlib sources must exit
with a nonzero code and print no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, trace: int, *extra: str, cwd: Path = ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--tiny", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result(proc) -> dict:
    if proc.returncode != 0:
        raise SystemExit(f"run.py exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    errors = []
    for w in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            res = result(run(w, trace))
            got = {name: m["unit"] for name, m in res["metrics"].items()}
            if got != want[trace]:
                errors.append(f"{w} trace={trace}: metric names or units differ from BENCHMARK.json")
            if not res["correct"] or res["failed"]:
                errors.append(f"{w} trace={trace}: {res['failed']} of {res['attempted']} jobs failed")
        res = result(run(w, 0, "--corrupt"))
        if res["correct"] or not res["failed"] / res["attempted"] > 0:
            errors.append(f"{w}: a corrupted output did not raise failed_ratio above 0")
        print(f"{w}: checked", flush=True)

    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run("identify", 0, cwd=bare)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        errors.append("without src/codlib the benchmark did not fail cleanly")
    print("without sources: checked")

    for e in errors:
        print("FAIL", e)
    print("selfcheck " + ("failed" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
