"""Output bytes against the cheap pins of perfbench/pins.json (read only)."""

import hashlib
import json
from pathlib import Path

import pytest

from codlib import canonicalize, construct_g, extend_g, scramble
from codlib.fileio import certificate_to_json, design_to_json, ops_to_text

PINS = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "pins.json").read_text()
)


# sha256 of the design and the op log of scramble(construct_g(m), seed,
# SCRAMBLE_COUNT[m]), keyed by (m, seed); m=5 at count 50 is the size the
# identify benchmark scrambles.  Canonical forms do not depend on the random
# stream; these pin it.
SCRAMBLE_COUNT = {3: 40, 5: 50}
SCRAMBLE_PINS = {
    (3, 1): ("6ccb45d0dd870769f4989e9bd7c4a61430fabededcd6ee17d0d2924b9348ebdd",
             "ccf91f7e7fd21bc44cfd9aebd7c2b081139db9850c3f2b3454ef9aa8aec9a602"),
    (3, 2): ("67f8fcc346026e90129e069ab452aefa4288aec8e78785765f6f03aaeb2cb90e",
             "a3151d0be93f483663cb9e243e232ddd0916b12b33b83657dae3b2d014911b80"),
    (3, 3): ("51142a3975f2bc52fb688c6614b65691d594534d177db82f9c4ae71ca975864f",
             "f7a1133d43143a1cc0fb2f022a8133bcc3bd32226914ae22985e5e364edea734"),
    (5, 1): ("9542ba80e56b5e47642a7ce6755e21ecd88342d68d93837b50b390dad5eca0eb",
             "c9f086cecd1f2aabd58f91d4ee6b0cfdc6a01140c45a3c7117439a7a5737dc2c"),
    (5, 2): ("9d75d1f80af8ee84748b7712276af4564eb48135d144e5f9eff967ff6d64939c",
             "9e06ac03ec444ad6680ac639efec38821bc2c570fb7643e9e9379bdfc75f4fd8"),
}


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("m, seed", sorted(SCRAMBLE_PINS))
def test_scramble_stream_matches_pin(m, seed):
    out, ops = scramble(construct_g(m), seed=seed, count=SCRAMBLE_COUNT[m])
    assert (sha(design_to_json(out)), sha(ops_to_text(ops))) == SCRAMBLE_PINS[m, seed]


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
