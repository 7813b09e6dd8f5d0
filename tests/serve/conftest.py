"""Serving-layer fixtures.

The serve stack touches the process-wide fault plane, so every test
starts and ends with it clean, and obs reset, mirroring
``tests/faults/conftest.py``.
"""

import pytest

from repro import faults, obs


@pytest.fixture(autouse=True)
def clean_serve_state():
    faults.clear()
    obs.disable()
    obs.reset()
    yield
    faults.clear()
    obs.disable()
    obs.reset()
