"""Output bytes against the cheap pins of perfbench/pins.json (read only)."""

import hashlib
import json
from pathlib import Path

import pytest

from codlib import canonicalize, construct_g, extend_g, scramble
from codlib.fileio import certificate_to_json, design_to_json

PINS = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "pins.json").read_text()
)


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_generate_matches_pin(m):
    assert sha(design_to_json(construct_g(m))) == PINS["generate"][str(m)]


@pytest.mark.parametrize("m", [2, 5])
def test_canonical_form_of_scrambled_g_matches_pin(m):
    scrambled, _ = scramble(construct_g(m), seed=m, count=40)
    assert sha(design_to_json(canonicalize(scrambled))) == PINS["canonical"][str(m)]


@pytest.mark.parametrize("m", [3, 5, 7])
def test_certificate_matches_pin(m):
    cert = extend_g(m).certificate
    assert sha(certificate_to_json(m, cert)) == PINS["certificate"][str(m)]


def test_extension_matches_pin():
    assert sha(design_to_json(extend_g(4).design)) == PINS["extension"]["4"]
