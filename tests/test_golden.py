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
    chaos_cross_plane,
    cxl_datapath,
    des_ladder,
    fabric_scheduler,
    kvserve_drill,
    machine_fingerprints,
    stream_pmem_arrays,
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


def test_cxl_datapath(golden):
    """Port and device stats, write-buffer order, media and every byte
    read of a seeded mix of CXL.mem port calls."""
    assert cxl_datapath() == golden["cxl.datapath"]


def test_kvserve_drill(golden):
    assert kvserve_drill() == golden["kvserve.drill"]


def test_chaos_cross_plane(golden):
    """Survivor digests and conservation audit of the cross-plane
    chaos plan."""
    assert chaos_cross_plane() == golden["chaos.cross_plane"]


def test_machine_fingerprints(golden):
    """Every preset's and every ablation variant's machine fingerprint
    (the sweep cache keys)."""
    assert machine_fingerprints() == golden["machine.fingerprints"]


def test_stream_pmem_arrays(golden):
    """STREAM-PMem array CRCs and flush counts on mem, file and cxl."""
    assert stream_pmem_arrays() == golden["stream_pmem.arrays"]


def test_fabric_scheduler(golden):
    """The default fabric spec's pooling sweep and noisy-neighbour
    solves."""
    assert fabric_scheduler() == golden["fabric.scheduler"]
