import shutil
import tempfile

import pytest
from hypothesis.configuration import set_hypothesis_home_dir

from codlib import BitVec, CodMatrix, Entry

# Hypothesis caches the constants it reads from the source in its home
# directory even without an example database; keep that out of the tree.
HYPOTHESIS_HOME = tempfile.mkdtemp(prefix="codlib-hypothesis-")
set_hypothesis_home_dir(HYPOTHESIS_HOME)


def pytest_unconfigure(config):
    shutil.rmtree(HYPOTHESIS_HOME, ignore_errors=True)


def make_eq3() -> CodMatrix:
    """The well-known [4,3,3] design with rows
    (z1, z2, z3), (-z2*, z1*, 0), (-z3*, 0, z1*), (0, z3*, -z2*)."""
    z1, z2, z3 = (BitVec.unit(4, i) for i in (1, 2, 3))
    t = lambda v, s=1, c=False: Entry(v, s, c)
    rows = [
        [t(z1), t(z2), t(z3)],
        [t(z2, -1, True), t(z1, 1, True), None],
        [t(z3, -1, True), None, t(z1, 1, True)],
        [None, t(z3, 1, True), t(z2, -1, True)],
    ]
    return CodMatrix.from_rows(2, rows)


@pytest.fixture
def eq3() -> CodMatrix:
    return make_eq3()
