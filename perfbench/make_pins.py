"""Compute, check and pin the reference digests every benchmark job compares against.

    python3 perfbench/make_pins.py          # compare the pins with the code in src/
    python3 perfbench/make_pins.py --write  # (re)write perfbench/pins.json

Each pin is the sha256 of bytes codlib writes: the `generate` output
(`design_to_json(construct_g(m))`) for m = 2..8, the canonical JSON of G_3
and G_9, the m = 4 extension design and the m = 3, 5, 7 certificates.
Before a digest is pinned, the design or certificate behind it is checked
independently of the digest: every design passes `verify_symbolic`, the
extension exists exactly for even m, each certificate passes
`check_certificate`, and the single [4,3,3] class the oracle finds is
`canonicalize(construct_g(2))`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from codlib import (  # noqa: E402
    SearchSpec,
    canonicalize,
    check_certificate,
    construct_g,
    enumerate_cods,
    extend_g,
    verify_symbolic,
)
from codlib.fileio import certificate_to_json, design_to_json  # noqa: E402

PINS = HERE / "pins.json"


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def compute() -> dict:
    generate, canonical, extension, certificate = {}, {}, {}, {}
    for m in range(2, 9):
        g = construct_g(m)
        if not verify_symbolic(g).ok:
            raise SystemExit(f"construct_g({m}) fails verify_symbolic")
        generate[str(m)] = sha(design_to_json(g))
        if m in (2, 5):
            canonical[str(m)] = sha(design_to_json(canonicalize(g)))
        if m > 7:
            continue  # extend_g(8) is checked by the construct workload itself
        ext = extend_g(m)
        if ext.exists != (m % 2 == 0):
            raise SystemExit(f"extension existence wrong at m={m}")
        if ext.exists:
            if not verify_symbolic(ext.design).ok:
                raise SystemExit(f"extension at m={m} fails verify_symbolic")
            if m == 4:
                extension[str(m)] = sha(design_to_json(ext.design))
        else:
            if not check_certificate(m, ext.certificate.constraints):
                raise SystemExit(f"certificate at m={m} fails check_certificate")
            certificate[str(m)] = sha(certificate_to_json(m, ext.certificate))
    classes = enumerate_cods(SearchSpec(4, 3, 3, "family"))
    if len(classes) != 1 or sha(design_to_json(classes[0].canonical)) != canonical["2"]:
        raise SystemExit("oracle [4,3,3] class is not canonicalize(construct_g(2))")
    return {
        "generate": generate,
        "canonical": canonical,
        "extension": extension,
        "certificate": certificate,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--write", action="store_true", help="rewrite pins.json")
    args = ap.parse_args()
    pins = compute()
    if args.write:
        PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
        print(f"wrote {PINS}")
        return 0
    if json.loads(PINS.read_text()) != pins:
        print("pins.json does not match the code in src/", file=sys.stderr)
        return 1
    print("pins.json matches the code in src/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
