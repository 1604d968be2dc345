import os
import sys
from pathlib import Path

import pytest

# a test run leaves no bytecode cache under src/, in this process or in the
# CLI subprocesses: a cache left in the tree would make a later cold start
# of the package (the benchmark's setup time) look faster than it is
sys.dont_write_bytecode = True
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"

from braidalg import builtin_sl
from braidalg.ncalg import RelationSet

# the CLI tests start `python -m braidalg` in a subprocess, which does not
# see the `pythonpath` setting of pytest
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)


@pytest.fixture(scope="session")
def sl2():
    return builtin_sl(2)


@pytest.fixture(scope="session")
def sl3():
    return builtin_sl(3)


@pytest.fixture(scope="session")
def sl4():
    return builtin_sl(4)


@pytest.fixture
def spanned_by_inputs(monkeypatch):
    """The vectors of each `RelationSet.spanned_by` call, in the order
    given, until the test undoes its monkeypatches."""
    given = []
    spanned_by = RelationSet.spanned_by.__func__

    def capture(cls, alphabet, vectors, names=None):
        given.append(list(vectors))
        return spanned_by(cls, alphabet, given[-1], names)

    monkeypatch.setattr(RelationSet, "spanned_by", classmethod(capture))
    return given
