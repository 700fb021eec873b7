"""Shared fixtures."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import oscillab

# address-space cap of the child processes below, which run inputs that
# once grew without bound: a regression then fails the test with a
# MemoryError instead of exhausting the machine's memory
CHILD_ADDRESS_SPACE = 2 << 30


@pytest.fixture
def bounded_python():
    """run(script) -> CompletedProcess of `python -c script` in a child
    process under RLIMIT_AS = CHILD_ADDRESS_SPACE, importing this
    checkout's oscillab."""
    src = str(Path(oscillab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    prelude = ("import resource\nresource.setrlimit(resource.RLIMIT_AS, "
               f"({CHILD_ADDRESS_SPACE}, {CHILD_ADDRESS_SPACE}))\n")

    def run(script: str):
        return subprocess.run([sys.executable, "-c", prelude + script],
                              capture_output=True, text=True, timeout=300,
                              env=env)
    return run
