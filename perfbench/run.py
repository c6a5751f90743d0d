"""Benchmark for codlib: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload identify --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  Each set-up and the measured run happen
in fresh worker processes that import codlib from this checkout's src/,
with PYTHONHASHSEED fixed and CODLIB_ORACLE_BUDGET cleared.  The last line
of stdout is the result; the lines before it name every metric with its
unit, the job counts and the environment.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("identify", "construct", "oracle", "cli")
SETUPS = 5  # set-ups per untraced run; setup_s is their median
DEADLINE_S = 170  # the whole run, set-ups included, ends before this
P90_MIN_JOBS = 100  # ten jobs beyond the 90th percentile


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def worker_env() -> dict:
    env = dict(os.environ)
    env.pop("CODLIB_ORACLE_BUDGET", None)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_worker(argv: list[str], deadline: float) -> dict:
    """Run one worker process to completion and return its JSON line."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *argv],
        stdout=subprocess.PIPE,
        env=worker_env(),
        cwd=ROOT,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the worker and any CLI child it runs
        proc.wait()
        raise SystemExit("error: worker did not finish before the deadline")
    if proc.returncode != 0:
        raise SystemExit(f"error: worker exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main() -> int:
    ap = argparse.ArgumentParser(description="codlib benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="self-check size: smaller jobs, two set-ups")
    ap.add_argument("--corrupt", action="store_true",
                    help="self-check: falsify one output; the run must report it failed")
    args = ap.parse_args()

    if not (ROOT / "src" / "codlib" / "__init__.py").is_file():
        print(f"error: no codlib sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    OUT.mkdir(exist_ok=True)

    base = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        base.append("--tiny")
    setups = []
    if not args.trace:
        for _ in range((2 if args.tiny else SETUPS) - 1):
            setups.append(run_worker(base + ["--setup-only"], deadline)["setup_s"])
    res = run_worker(base + (["--corrupt"] if args.corrupt else []), deadline)
    setups.append(res["setup_s"])

    plain = res["plain"]
    phases = [plain] + ([res["traced"]] if args.trace else [])
    attempted = sum(ph["jobs"] for ph in phases)
    failed = sum(ph["failed"] for ph in phases)
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": res["numpy"],
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
    }
    lines = ["env " + json.dumps(env, sort_keys=True)]
    for msg in res["warmup_problems"] + [p for ph in phases for p in ph["problems"]]:
        lines.append(f"problem: {msg}")

    times = plain["job_s"]
    end_to_end = {"setup_s": metric(median(setups), "s")}
    if not args.trace:
        costs = plain["job_probes"]
        end_to_end["jobs_per_kprobe"] = metric(1000 * plain["jobs"] / sum(costs), "1/kprobe")
        end_to_end["job_probes.p50"] = metric(median(costs), "probes")
    end_to_end["peak_rss_mb"] = metric(res["peak_rss_mb"], "MB")
    for name, m in end_to_end.items():
        lines.append(f"{name} {m['value']:.6g} {m['unit']}")
    lines.append(f"setup_s is the median of {len(setups)} set-ups: "
                 + " ".join(f"{s:.4f}" for s in setups))
    lines.append(f"jobs {plain['jobs']} in {plain['elapsed']:.3f} s untraced")
    lines.append(f"jobs_per_s {plain['jobs'] / plain['elapsed']:.6g} 1/s (wall time)")
    lines.append(f"job_s.p50 {median(times):.6g} s (wall time)")
    if not args.trace:
        probe = res["probe"]
        lines.append(f"probe {probe['samples']} samples, median {probe['median_s'] * 1000:.4f} ms")
    if len(times) >= P90_MIN_JOBS:
        lines.append(f"job_s.p90 {quantiles(times, n=10)[-1]:.6g} s ({len(times)} jobs)")
    else:
        lines.append(f"job_s.p90 not reported: {len(times)} jobs, "
                     f"needs {P90_MIN_JOBS} for ten beyond it")
    lines.append(f"failed_ratio {failed / attempted:.6g} ({failed} of {attempted} jobs)")

    metrics = end_to_end
    if args.trace:
        traced = res["traced"]
        lines.append(f"traced jobs {traced['jobs']} in {traced['elapsed']:.3f} s; "
                     f"spans in {res['spans_file']}")
        metrics = res["per_layer"]
        for name, m in metrics.items():
            lines.append(f"{name} {m['value']:.6g} {m['unit']}")

    record = {"env": env, "end_to_end": end_to_end, "per_layer": res.get("per_layer"),
              "attempted": attempted, "failed": failed, "setups_s": setups, "job_s": times,
              "job_probes": plain.get("job_probes"), "probe": res.get("probe"),
              "spans_file": res.get("spans_file")}
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    print("\n".join(lines))
    print(json.dumps({
        "correct": failed == 0 and not res["warmup_problems"],
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
