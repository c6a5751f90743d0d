"""Per-layer metrics from the spans of a traced phase.

Times are self times (a span's duration minus its children) summed per
span name and divided by the number of traced jobs, so a faster layer
shows as fewer seconds per job even though a closed loop fills the same
wall time with more jobs.  `<name>.s.m<M>` is the median self time of one
call at that m.  A metric a workload does not exercise reads 0.
"""

from __future__ import annotations

from collections import defaultdict
from statistics import median

PER_M = [
    "generator.construct_g",
    "model.verify_symbolic",
    "model.verify_numeric",
    "fileio.design_to_json",
    "fileio.design_from_json",
    "generator.extend_g",
]
M_RANGE = range(2, 9)
CLI_COMMANDS = [
    "generate",
    "verify",
    "scramble",
    "canonicalize",
    "equivalent",
    "analyze",
    "export",
    "extend",
]


def per_layer(self_times, jobs: int, overhead_ratio: float, child_rss_mb: float) -> dict:
    busy = defaultdict(float)
    calls = defaultdict(int)
    total = defaultdict(float)  # (span name, attribute) -> sum over spans
    per_m = defaultdict(list)
    for rec, self_s in self_times:
        name, attrs = rec["name"], rec["attrs"]
        busy[name] += self_s
        calls[name] += 1
        for key, value in attrs.items():
            total[name, key] += value
        if "m" in attrs:
            per_m[name, attrs["m"]].append(self_s)

    out = {}

    def put(metric, value, unit):
        out[metric] = {"value": value, "unit": unit}

    def per_job(value):
        return value / jobs if jobs else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    def seconds(name):
        put(f"{name}.s", per_job(busy[name]), "s/job")

    def call_count(name):
        put(f"{name}.calls", per_job(calls[name]), "1/job")

    def us_per_cell(name):
        put(f"{name}.us_per_cell", ratio(busy[name] * 1e6, total[name, "cells"]), "us/cell")

    canon = "equivalence.canonicalize"
    seconds(canon)
    call_count(canon)
    put(f"{canon}.rejected", per_job(total[canon, "rejected"]), "1/job")
    us_per_cell(canon)
    seconds("equivalence.scramble")
    put("equivalence.scramble.ops", per_job(total["equivalence.scramble", "ops"]), "1/job")

    seconds("analysis.structural_report")
    call_count("analysis.structural_report")

    seconds("model.verify_symbolic")
    call_count("model.verify_symbolic")
    us_per_cell("model.verify_symbolic")
    seconds("model.verify_numeric")

    for name in ("generator.construct_g", "generator.extend_g", "generator.check_certificate"):
        seconds(name)
    call_count("generator.construct_g")
    for key in ("certificate_len", "solution_count_log2"):
        put(f"generator.extend.{key}", per_job(total["generator.extend_g", key]), "1/job")

    to_json, from_json = "fileio.design_to_json", "fileio.design_from_json"
    for name in (to_json, from_json, "fileio.certificate_json"):
        seconds(name)
    bytes_out, bytes_in = total[to_json, "bytes_out"], total[from_json, "bytes_in"]
    put("fileio.bytes_out", per_job(bytes_out), "B/job")
    put("fileio.bytes_in", per_job(bytes_in), "B/job")
    put("fileio.write_mb_per_s", ratio(bytes_out / 1e6, busy[to_json]), "MB/s")
    put("fileio.read_mb_per_s", ratio(bytes_in / 1e6, busy[from_json]), "MB/s")

    oracle = "oracle.enumerate_cods"
    seconds(oracle)
    space = total[oracle, "space"]
    put("oracle.search_space", per_job(space), "1/job")
    put("oracle.valid", per_job(total[oracle, "valid"]), "1/job")
    put("oracle.classes", per_job(total[oracle, "classes"]), "1/job")
    put("oracle.valid_ratio", ratio(total[oracle, "valid"], space), "ratio")
    put("oracle.candidates_per_s", ratio(space, busy[oracle]), "1/s")

    for command in CLI_COMMANDS + ["startup"]:
        seconds(f"cli.{command}")
    mismatches = sum(total[f"cli.{c}", "exit_mismatch"] for c in CLI_COMMANDS + ["startup"])
    put("cli.exit_mismatch", per_job(mismatches), "1/job")
    put("cli.child_peak_rss_mb", child_rss_mb, "MB")

    for name in PER_M:
        for m in M_RANGE:
            samples = per_m[name, m]
            put(f"{name}.s.m{m}", median(samples) if samples else 0.0, "s")

    put("trace.overhead_ratio", overhead_ratio, "ratio")
    return out
