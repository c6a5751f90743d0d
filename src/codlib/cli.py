"""Command-line front end.

Exit codes: 0 success / true / design exists; 1 false / nonexistence
(certificate written); 2 usage error or unwritable output; 3 invalid or
malformed design; 4 internal error.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .bitvec import BitVec
from .errors import DesignError, InvalidDesignError, MalformedFileError, ParameterError

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_USAGE = 2
EXIT_INVALID = 3
EXIT_INTERNAL = 4


def _read_file(path: str, parse=None):
    """Parse the file `path` with `parse`, by default as a design."""
    from .fileio import design_from_json

    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise MalformedFileError(str(exc), path)
    return (parse or design_from_json)(text)


def _emit(docs: list[tuple[str, str | None]], status: str | None = None) -> None:
    """Write each (text, path) document, then the status line.

    A document without a path goes to stdout. Every path is checked before
    anything is written, so a bad directory, a directory path or a file named
    by two outputs leaves no file. The status line goes to stderr when a
    document went to stdout, so that stdout holds only the document, and to
    stdout otherwise.
    """
    paths = [path for _, path in docs if path is not None]
    seen = set()
    for path in paths:
        parent = Path(path).parent
        if not (parent.is_dir() and os.access(parent, os.W_OK)):
            raise ParameterError(f"cannot write {path}: {parent} is not a writable directory")
        if Path(path).is_dir():
            raise ParameterError(f"cannot write {path}: Is a directory")
        if Path(path).resolve() in seen:
            raise ParameterError(f"cannot write {path}: named by two outputs")
        seen.add(Path(path).resolve())
    for text, path in docs:
        if path is None:
            sys.stdout.write(text)
            continue
        try:
            Path(path).write_text(text)
        except OSError as exc:
            raise ParameterError(f"cannot write {path}: {exc.strerror or exc}")
    if status:
        print(status, file=sys.stdout if len(paths) == len(docs) else sys.stderr)


# Each command imports the modules it runs, so a process loads no others.


def _cmd_generate(args) -> int:
    from .fileio import design_to_json
    from .generator import construct_g

    _emit([(design_to_json(construct_g(args.m)), args.output)])
    return EXIT_OK


def _cmd_verify(args) -> int:
    if args.certificate:
        from .fileio import certificate_from_json
        from .generator import check_certificate

        ok = check_certificate(*_read_file(args.file, certificate_from_json))
        print("certificate valid" if ok else "certificate INVALID")
        return EXIT_OK if ok else EXIT_FALSE
    from .model import check_numeric_options, verify_numeric, verify_symbolic

    if args.numeric:  # a bad option fails before the file is read
        check_numeric_options(args.trials, args.seed)
    cod = _read_file(args.file)
    report = verify_symbolic(cod)
    if not report.ok:
        for where, residual in report.failures:
            print(_residual_line(where, residual))
        print("not orthogonal")
        return EXIT_FALSE
    print("symbolic: ok")
    if args.numeric:
        ok = verify_numeric(cod, trials=args.trials, seed=args.seed)
        print(f"numeric (trials={args.trials}, seed={args.seed}): {'ok' if ok else 'FAILED'}")
        if not ok:
            return EXIT_FALSE
    return EXIT_OK


def _residual_line(where: tuple[int, ...], residual: tuple) -> str:
    """`where`'s columns and up to three of its (monomial, coefficient) pairs.

    A monomial prints as its coefficient and its two factors, each a
    variable's bit string with `*` when the factor is conjugated.
    """
    terms = [
        f"{coef:+d} " + " ".join(
            f"{BitVec(length, mask)}{'*' if conj else ''}" for mask, length, conj in mono
        )
        for mono, coef in residual[:3]
    ]
    if len(residual) > 3:
        terms.append("...")
    label = "column" if len(where) == 1 else "columns"
    count = f"{len(residual)} monomial" + ("s" if len(residual) > 1 else "")
    return f"residual at {label} {','.join(map(str, where))}: {count}: {', '.join(terms)}"


def _cmd_canonicalize(args) -> int:
    from .equivalence import canonicalize
    from .fileio import design_to_json

    _emit([(design_to_json(canonicalize(_read_file(args.file))), args.output)])
    return EXIT_OK


def _cmd_equivalent(args) -> int:
    from .equivalence import equivalent

    a = _read_file(args.a)
    b = _read_file(args.b)
    if equivalent(a, b):
        print("equivalent")
        return EXIT_OK
    print("not equivalent")
    return EXIT_FALSE


def _cmd_extend(args) -> int:
    from .fileio import certificate_to_json, design_to_json
    from .generator import extend_g

    result = extend_g(args.m)
    if result.exists:
        text = design_to_json(result.design)
        status = f"extension exists; sign solutions: 2^{result.solution_count_log2}"
    else:
        text = certificate_to_json(args.m, result.certificate)
        count = len(result.certificate.constraints)
        status = (
            f"no extension for m={args.m}: odd-parity cycle of "
            f"{count} constraint{'s' * (count != 1)}"
        )
    _emit([(text, args.output)], status)
    return EXIT_OK if result.exists else EXIT_FALSE


BOUNDS_N_MAX = 10000  # the delay C(2m,m-1) stays below Python's 4300-digit str limit


def _cmd_bounds(args) -> int:
    from .analysis import max_rate, min_delay

    if args.n > BOUNDS_N_MAX:
        raise ParameterError(f"n must be <= {BOUNDS_N_MAX}, got {args.n}")
    print(f"rate {max_rate(args.n)}")
    print(f"delay {min_delay(args.n)}")
    return EXIT_OK


def _cmd_scramble(args) -> int:
    from .equivalence import scramble
    from .fileio import design_to_json, ops_to_text
    from .model import verify_symbolic

    cod = _read_file(args.file)
    out, ops = scramble(cod, seed=args.seed, count=args.count)
    if not verify_symbolic(out).ok:
        raise InvalidDesignError("scramble output fails verification")
    docs = [(design_to_json(out), args.output)]
    if args.log is not None:
        docs.append((ops_to_text(ops), args.log))
    _emit(docs, f"seed {args.seed}, {len(ops)} ops applied")
    return EXIT_OK


def _cmd_analyze(args) -> int:
    from .analysis import structural_report
    from .model import verify_symbolic

    cod = _read_file(args.file)
    rep = verify_symbolic(cod)
    print(f"[{cod.p},{cod.n},{cod.k}] m={cod.m}")
    print(f"orthogonal: {'yes' if rep.ok else 'NO'}")
    sr = structural_report(cod)
    for check in sr.checks:
        status = "pass" if check.ok else "FAIL"
        print(f"{check.name}: {status}")
        for w in check.witnesses[:5]:
            print(f"  witness: {w}")
    return EXIT_OK if rep.ok and sr.ok else EXIT_FALSE


def _cmd_export(args) -> int:
    from . import fileio

    cod = _read_file(args.file)
    render = getattr(fileio, f"design_to_{args.format}")
    _emit([(render(cod), args.output)])
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="codlib",
        description="Construct, verify, canonicalize and extend complex orthogonal designs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="build the standard design for a given m")
    p.add_argument("-m", type=int, required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("verify", help="check orthogonality, or validate a certificate")
    p.add_argument("file")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--numeric", action="store_true")
    mode.add_argument("--certificate", action="store_true",
                      help="treat FILE as an inconsistency certificate")
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("canonicalize", help="compute the unique standard form")
    p.add_argument("file")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_canonicalize)

    p = sub.add_parser("equivalent", help="compare two designs up to equivalence")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=_cmd_equivalent)

    p = sub.add_parser("extend", help="try to append the 2m-th column")
    p.add_argument("-m", type=int, required=True)
    p.add_argument("-o", "--output", "--certificate", dest="output",
                   help="where to write the design, or the certificate when none exists")
    p.set_defaults(func=_cmd_extend)

    p = sub.add_parser("bounds", help="rate and delay bounds for n antennas")
    p.add_argument("-n", type=int, required=True)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("scramble", help="apply seeded random equivalence operations")
    p.add_argument("file")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("-o", "--output")
    p.add_argument("--log", help="write the op log here")
    p.set_defaults(func=_cmd_scramble)

    p = sub.add_parser("analyze", help="structural report")
    p.add_argument("file")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("export", help="re-serialize a design")
    p.add_argument("file")
    p.add_argument("--format", choices=["json", "csv", "latex"], default="json")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_export)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DesignError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
