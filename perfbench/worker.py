"""One workload in its own process; started by run.py, not by hand.

Prints one JSON line on stdout: set-up time, job counts and times, the
process's peak RSS and, in a traced run, the per-layer metrics.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()  # set-up time counts from here, before any import

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def import_codlib():
    import codlib

    src = (ROOT / "src").resolve()
    if src not in Path(codlib.__file__).resolve().parents:
        raise SystemExit(f"codlib was imported from {codlib.__file__}, not from {src}")
    import numpy

    return numpy.__version__


def run_loop(workload, seconds: float, tracers: list, probe=None) -> list[dict]:
    """Closed loop, one client: the next job starts when the last one ends.

    With two tracers, each input runs once under each, back to back, so both
    phases see the same jobs and the same drift in machine speed.  A phase's
    elapsed time is the sum of its job times.  With a probe running, a job's
    time leaves out the probe runs inside it, and its cost in probes is that
    time divided by the median probe time sampled during the job.
    """
    phases = [{"jobs": 0, "failed": 0, "job_s": [], "problems": []} for _ in tracers]
    intervals = [[] for _ in tracers]
    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < seconds:
        for tracer, phase, at in zip(tracers, phases, intervals):
            tracer.job = i
            t0 = time.perf_counter()
            try:
                with tracer.span("job"):
                    bad = workload.job(i, tracer)
            except Exception as exc:  # a job that raises counts as failed; the loop goes on
                if not phase["problems"]:
                    traceback.print_exc()
                bad = [f"raised {type(exc).__name__}: {exc}"]
            at.append((t0, time.perf_counter()))
            phase["jobs"] += 1
            if bad:
                phase["failed"] += 1
                phase["problems"].extend(f"job {i}: {msg}" for msg in bad)
        i += 1
    for phase, at in zip(phases, intervals):
        if probe is None:
            phase["job_s"] = [t1 - t0 for t0, t1 in at]
        else:
            phase["job_s"] = [t1 - t0 - probe.busy_s(t0, t1) for t0, t1 in at]
            phase["job_probes"] = [
                s / probe.sample_s(t0, t1) for s, (t0, t1) in zip(phase["job_s"], at)
            ]
        phase["elapsed"] = sum(phase["job_s"])
        phase["problems"] = phase["problems"][:10]
    return phases


def peak_rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024  # ru_maxrss is in KiB on Linux


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--corrupt", action="store_true")
    args = ap.parse_args()

    numpy_version = import_codlib()
    from layers import per_layer
    from probe import Probe, loop_probe, start_probe
    from spans import NullTracer, Tracer
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir, args.tiny)
        warmup_problems = workload.warmup()
        setup_s = time.perf_counter() - T_START
        result = {"setup_s": setup_s, "numpy": numpy_version, "warmup_problems": warmup_problems}
        if args.setup_only:
            print(json.dumps(result))
            return 0

        workload.corrupt_next = args.corrupt
        tracer = Tracer()
        tracers = [NullTracer()] + ([tracer] if args.trace else [])
        if args.trace:  # per-layer times come raw, so no probe perturbs them
            phases = run_loop(workload, args.seconds, tracers)
        else:
            if args.workload == "cli":
                probe = Probe(start_probe(), periodic=False)
            else:
                probe = Probe(loop_probe(), periodic=True)
            with probe:
                workload.probe = probe
                phases = run_loop(workload, args.seconds, tracers, probe)
            result["probe"] = {"samples": len(probe.times), "median_s": median(probe.times)}
        result["plain"] = phases[0]
        result["peak_rss_mb"] = peak_rss_mb(
            resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
        )
        if args.trace:
            plain, traced = phases
            result["traced"] = traced
            spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
            tracer.write(spans_file)
            result["spans_file"] = str(spans_file.relative_to(ROOT))
            result["per_layer"] = per_layer(
                tracer.self_times(),
                traced["jobs"],
                plain["elapsed"] / traced["elapsed"],  # same jobs, so the jobs_per_s ratio
                peak_rss_mb(resource.RUSAGE_CHILDREN),
            )
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
