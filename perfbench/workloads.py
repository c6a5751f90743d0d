"""The four benchmark workloads.

Each workload makes all of its inputs from the workload seed when it is
built, runs an untimed warm-up, and then serves jobs: `job(i, tracer)`
runs job i and returns the list of problems found in its outputs (empty
when every output matches the reference).  Every call into codlib sits in
a span named `<module>.<function>`, or `cli.<command>` for a subprocess.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

from codlib import (
    CodMatrix,
    InvalidDesignError,
    SearchSpec,
    canonicalize,
    check_certificate,
    construct_g,
    enumerate_cods,
    extend_g,
    scramble,
    structural_report,
    verify_numeric,
    verify_symbolic,
)
from codlib.fileio import (
    certificate_from_json,
    certificate_to_json,
    design_from_json,
    design_to_json,
)

from spans import NullTracer

PINS = Path(__file__).resolve().parent / "pins.json"
N_INPUTS = 4096  # more jobs than any run reaches; job i uses input i mod N_INPUTS
CHILD_TIMEOUT_S = 60


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Workload:
    def __init__(self, seed: int, workdir: Path, tiny: bool):
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.tiny = tiny
        self.pins = json.loads(PINS.read_text())
        # Self-check only: the next checked output is falsified.
        self.corrupt_next = False
        self.probe = None  # set by the worker in an untraced run

    def check(self, got, want, what: str, problems: list) -> None:
        if self.corrupt_next:
            got = ("corrupted", got)
            self.corrupt_next = False
        if got != want:
            problems.append(f"{what}: got {got!r}, expected {want!r}")

    def check_digest(self, text: str, pin: str, what: str, problems: list) -> None:
        self.check(sha(text), pin, f"{what} digest", problems)

    def warmup(self) -> list[str]:
        return self.job(0, NullTracer())

    def job(self, i: int, tr) -> list[str]:
        raise NotImplementedError


def _flip_sign(cod: CodMatrix, pick: int) -> CodMatrix:
    """Negate the pick-th nonzero cell in row-major order."""
    rows = [list(row) for row in cod.cells]
    cells = [(r, c) for r, row in enumerate(rows) for c, e in enumerate(row) if e is not None]
    r, c = cells[pick % len(cells)]
    rows[r][c] = rows[r][c].negated()
    return CodMatrix.from_rows(cod.m, rows)


class Identify(Workload):
    """Scrambled G_9 through JSON, verification, analysis and canonicalize.

    Every eighth job has one sign flipped after scrambling; it must fail
    verification and be rejected by canonicalize.
    """

    M = 5

    def __init__(self, seed, workdir, tiny):
        super().__init__(seed, workdir, tiny)
        self.g = construct_g(self.M)
        self.cells = self.g.p * self.g.n
        self.inputs = [
            (
                self.rng.randrange(1 << 31),
                self.rng.randint(20, 50),
                i % 8 == 7,
                self.rng.randrange(1 << 31),
            )
            for i in range(N_INPUTS)
        ]

    def job(self, i, tr):
        seed, count, corrupt, pick = self.inputs[i % N_INPUTS]
        m, problems = self.M, []
        with tr.span("equivalence.scramble", ops=count):
            cod, _ = scramble(self.g, seed=seed, count=count)
        if corrupt:
            cod = _flip_sign(cod, pick)
        with tr.span("fileio.design_to_json", m=m) as a:
            text = design_to_json(cod)
        a["bytes_out"] = len(text)
        with tr.span("fileio.design_from_json", m=m, bytes_in=len(text)):
            back = design_from_json(text)
        if back != cod:
            problems.append("design JSON round trip changed the design")
        with tr.span("model.verify_symbolic", m=m, cells=self.cells):
            ok = verify_symbolic(back).ok
        with tr.span("analysis.structural_report"):
            report = structural_report(back)
        with tr.span("equivalence.canonicalize", cells=self.cells) as a:
            try:
                canon = canonicalize(back)
            except InvalidDesignError:
                canon = None
                a["rejected"] = True
        if corrupt:
            if ok or canon is not None:
                problems.append("sign-flipped design was not rejected")
            return problems
        if not (ok and report.ok and canon is not None):
            problems.append(f"valid design: verify={ok} structure={report.ok}")
            return problems
        with tr.span("fileio.design_to_json", m=m) as a:
            text = design_to_json(canon)
        a["bytes_out"] = len(text)
        self.check_digest(text, self.pins["canonical"][str(m)], "canonical G_9", problems)
        return problems


class Construct(Workload):
    """Sweep m = 2..8: construct, verify, JSON file round trip, extend."""

    def __init__(self, seed, workdir, tiny):
        super().__init__(seed, workdir, tiny)
        self.ms = range(2, 6 if tiny else 9)
        self.path = workdir / "design.json"
        self.inputs = [self.rng.randrange(1 << 31) for _ in range(N_INPUTS)]

    def warmup(self):
        return self.sweep(range(2, 5 if self.tiny else 7), self.inputs[0], NullTracer())

    def job(self, i, tr):
        return self.sweep(self.ms, self.inputs[i % N_INPUTS], tr)

    def sweep(self, ms, seed, tr):
        problems = []
        for m in ms:
            with tr.span("generator.construct_g", m=m):
                g = construct_g(m)
            cells = g.p * g.n
            with tr.span("model.verify_symbolic", m=m, cells=cells):
                ok = verify_symbolic(g).ok
            with tr.span("model.verify_numeric", m=m):
                ok_numeric = verify_numeric(g, trials=3, seed=seed)
            if not (ok and ok_numeric):
                problems.append(f"m={m}: verify symbolic={ok} numeric={ok_numeric}")
            with tr.span("fileio.design_to_json", m=m) as a:
                text = design_to_json(g)
            a["bytes_out"] = len(text)
            self.check_digest(text, self.pins["generate"][str(m)], f"generate m={m}", problems)
            self.path.write_text(text)
            text = self.path.read_text()
            with tr.span("fileio.design_from_json", m=m, bytes_in=len(text)):
                back = design_from_json(text)
            if back != g:
                problems.append(f"m={m}: design JSON file round trip changed the design")
            with tr.span("generator.extend_g", m=m) as a:
                ext = extend_g(m)
            a["solution_count_log2"] = ext.solution_count_log2 or 0
            a["certificate_len"] = len(ext.certificate.constraints) if ext.certificate else 0
            if m % 2 == 0:
                problems += self._check_extension(m, ext, tr)
            else:
                problems += self._check_certificate(m, ext, tr)
        return problems

    def _check_extension(self, m, ext, tr):
        if not ext.exists or ext.solution_count_log2 != 1:
            return [f"m={m}: expected an extension unique up to sign"]
        design = ext.design
        with tr.span("model.verify_symbolic", cells=design.p * design.n):
            ok = verify_symbolic(design).ok
        problems = [] if ok else [f"m={m}: extension fails verify_symbolic"]
        if m == 4:
            with tr.span("fileio.design_to_json") as a:
                text = design_to_json(design)
            a["bytes_out"] = len(text)
            self.check_digest(text, self.pins["extension"]["4"], "extension m=4", problems)
        return problems

    def _check_certificate(self, m, ext, tr):
        if ext.exists or len(ext.certificate.constraints) != 2 * m - 1:
            return [f"m={m}: expected a certificate of length {2 * m - 1}"]
        problems = []
        with tr.span("fileio.certificate_json"):
            text = certificate_to_json(m, ext.certificate)
        self.check_digest(text, self.pins["certificate"][str(m)], f"certificate m={m}", problems)
        with tr.span("fileio.certificate_json"):
            m_back, constraints = certificate_from_json(text)
        with tr.span("generator.check_certificate"):
            ok = check_certificate(m_back, constraints)
        if not ok:
            problems.append(f"m={m}: certificate fails check_certificate after JSON round trip")
        return problems


def search_space(spec: SearchSpec) -> int:
    """Candidates the flat enumeration scans, computed from the spec alone.

    Family mode searches 4 sign/conjugation choices for each of the k*n
    nonzero cells (every column holds each variable once); free mode lets
    each of the p*n cells be zero or one of 4k signed, conjugated variables.
    """
    if spec.mode == "family":
        return 4 ** (spec.k * spec.n)
    return (1 + 4 * spec.k) ** (spec.p * spec.n)


class Oracle(Workload):
    """[4,3,3] family enumeration plus the [2,2,2] and [1,2,1] free searches."""

    def __init__(self, seed, workdir, tiny):
        super().__init__(seed, workdir, tiny)
        # (spec, valid designs, classes) the enumeration must produce
        self.cases = [
            (SearchSpec(2, 2, 2, "free"), 64, 64),
            (SearchSpec(1, 2, 1, "free"), 0, 0),
        ]
        if not tiny:
            self.cases.insert(0, (SearchSpec(4, 3, 3, "family"), 512, 1))

    def warmup(self):
        return self.run(self.cases[-2:], NullTracer())

    def job(self, i, tr):
        return self.run(self.cases, tr)

    def run(self, cases, tr):
        problems = []
        for spec, want_valid, want_classes in cases:
            label = f"[{spec.p},{spec.n},{spec.k}] {spec.mode}"
            with tr.span("oracle.enumerate_cods", space=search_space(spec)) as a:
                classes = enumerate_cods(spec)
            valid = sum(c.count for c in classes)
            a["valid"], a["classes"] = valid, len(classes)
            got = (valid, len(classes))
            self.check(got, (want_valid, want_classes), f"{label} (valid, classes)", problems)
            if spec.mode == "family" and got == (want_valid, want_classes):
                with tr.span("fileio.design_to_json", m=2) as a:
                    text = design_to_json(classes[0].canonical)
                a["bytes_out"] = len(text)
                self.check_digest(text, self.pins["canonical"]["2"], f"{label} class", problems)
        return problems


class Cli(Workload):
    """The CLI chain at m <= 5, one `python -m codlib.cli` process at a time.

    The worker and every CLI process it starts share one CPU, so the probe
    samples, taken at the start and in the middle of a job, see the core the
    commands run on.
    """

    def __init__(self, seed, workdir, tiny):
        super().__init__(seed, workdir, tiny)
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self.inputs = [
            (
                self.rng.randrange(1 << 31),
                self.rng.randint(20, 50),
                self.rng.randrange(1 << 31),
                self.rng.randrange(1 << 31),
            )
            for _ in range(N_INPUTS)
        ]

    def cli(self, tr, span, args, want_rc, problems):
        with tr.span(f"cli.{span}") as a:
            proc = subprocess.run(
                [sys.executable, "-m", "codlib.cli", *args],
                cwd=self.workdir,
                capture_output=True,
                text=True,
                timeout=CHILD_TIMEOUT_S,
            )
            a["exit_mismatch"] = int(proc.returncode != want_rc)
        if proc.returncode != want_rc:
            tail = (proc.stderr.strip().splitlines() or [""])[-1]
            problems.append(
                f"{' '.join(args)}: exit {proc.returncode}, expected {want_rc} {tail}"
            )
        return proc

    def read(self, name: str) -> str:
        path = self.workdir / name
        return path.read_text() if path.exists() else ""

    def warmup(self):
        problems = []
        self.cli(NullTracer(), "startup", ["bounds", "-n", "9"], 0, problems)
        self.cli(NullTracer(), "generate", ["generate", "-m", "5", "-o", "g.json"], 0, problems)
        return problems

    def job(self, i, tr):
        seed, count, verify_seed, pick = self.inputs[i % N_INPUTS]
        pins, p = self.pins, []
        if self.probe:
            self.probe.sample()
        for name in ("g.json", "s.json", "s.ops", "c.json", "s.tex", "cert.json", "e4.json", "bad.json"):
            (self.workdir / name).unlink(missing_ok=True)
        self.cli(tr, "generate", ["generate", "-m", "5", "-o", "g.json"], 0, p)
        self.check_digest(self.read("g.json"), pins["generate"]["5"], "generate -m 5", p)
        self.cli(tr, "verify", ["verify", "g.json", "--numeric", "--trials", "3",
                                "--seed", str(verify_seed)], 0, p)
        self.cli(tr, "scramble", ["scramble", "g.json", "--seed", str(seed), "--count",
                                  str(count), "-o", "s.json", "--log", "s.ops"], 0, p)
        if len(self.read("s.ops").splitlines()) != count:
            p.append(f"scramble log does not hold {count} ops")
        self.cli(tr, "canonicalize", ["canonicalize", "s.json", "-o", "c.json"], 0, p)
        self.check_digest(self.read("c.json"), pins["canonical"]["5"], "canonicalize", p)
        self.cli(tr, "equivalent", ["equivalent", "g.json", "s.json"], 0, p)
        self.cli(tr, "analyze", ["analyze", "s.json"], 0, p)
        self.cli(tr, "export", ["export", "s.json", "--format", "latex", "-o", "s.tex"], 0, p)
        if not self.read("s.tex").startswith("\\begin{pmatrix}"):
            p.append("latex export has no pmatrix")
        if self.probe:
            self.probe.sample()
        self.cli(tr, "extend", ["extend", "-m", "5", "--certificate", "cert.json"], 1, p)
        self.check_digest(self.read("cert.json"), pins["certificate"]["5"], "certificate m=5", p)
        self.cli(tr, "verify", ["verify", "cert.json", "--certificate"], 0, p)
        self.cli(tr, "extend", ["extend", "-m", "4", "-o", "e4.json"], 0, p)
        self.check_digest(self.read("e4.json"), pins["extension"]["4"], "extension m=4", p)
        self.cli(tr, "verify", ["verify", "e4.json"], 0, p)
        doc = json.loads(self.read("s.json") or "{}")
        entries = doc.get("entries") or [{"sign": "+"}]
        entry = entries[pick % len(entries)]
        entry["sign"] = "-" if entry["sign"] == "+" else "+"
        (self.workdir / "bad.json").write_text(json.dumps(doc))
        self.cli(tr, "verify", ["verify", "bad.json"], 1, p)
        self.cli(tr, "equivalent", ["equivalent", "s.json", "bad.json"], 3, p)
        out = self.cli(tr, "startup", ["bounds", "-n", "9"], 0, p).stdout
        if out != "rate 3/5\ndelay 210\n":
            p.append(f"bounds -n 9 printed {out!r}")
        return p


WORKLOADS = {
    "identify": Identify,
    "construct": Construct,
    "oracle": Oracle,
    "cli": Cli,
}
