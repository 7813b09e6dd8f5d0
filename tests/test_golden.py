"""Outputs pinned across commits: every key of tests/golden/digests.json
recomputes to the same digest (``tools/gen_golden.py`` regenerates it)."""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

from gen_golden import (  # noqa: E402
    DIGESTS,
    OUT,
    des_ladder,
    sweep_paper,
    tiering_memory_mode,
    tiering_policies,
)


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(OUT.read_text())


def test_every_key_has_a_generator(golden):
    assert set(golden) == set(DIGESTS)


@pytest.mark.parametrize("backend", ["auto", "compiled", "scalar", "vector"])
def test_des_ladder(golden, backend):
    """Every DES backend reproduces the perf ledger's des digest."""
    assert des_ladder(backend) == golden["des.ladder"]


def test_sweep_paper(golden):
    """The paper sweep plus the tiering group reproduce the perf
    ledger's sweep digest."""
    assert sweep_paper() == golden["sweep.paper"]


def test_tiering_policies(golden):
    assert tiering_policies() == golden["tiering.policies"]


def test_tiering_memory_mode(golden):
    assert tiering_memory_mode() == golden["tiering.memory_mode"]
