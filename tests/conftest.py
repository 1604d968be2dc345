import os
from pathlib import Path

import pytest

from braidalg import builtin_sl

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
