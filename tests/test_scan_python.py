"""The engine tests of test_simcore.py, test_scan_reference.py and
test_engine_properties.py again, on the Python scan.

run_simulation scans on the compiled kernel (_scan.c) wherever a C compiler
builds it, and in Python where none does.  Here the loader is patched to
find no kernel, so every test below runs the Python loop that those
modules' own runs take only without a compiler."""

import pytest

from nanoflow import simcore
from test_engine_properties import *  # noqa: F401,F403
from test_scan_reference import *  # noqa: F401,F403
from test_simcore import *  # noqa: F401,F403


@pytest.fixture(autouse=True)
def python_scan(monkeypatch):
    monkeypatch.setattr(simcore, "_scan_kernel", lambda: None)
