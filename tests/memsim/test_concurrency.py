"""Little's-law per-thread caps."""

import pytest

from repro.errors import SimulationError
from repro.machine.topology import Core
from repro.memsim.concurrency import thread_bandwidth_cap


CORE = Core(core_id=0, socket_id=0, freq_ghz=2.1, lfb_entries=16)


class TestCap:
    def test_higher_latency_lowers_cap(self):
        fast = thread_bandwidth_cap(CORE, 100.0)
        slow = thread_bandwidth_cap(CORE, 400.0)
        assert fast == pytest.approx(4 * slow)

    def test_smt_sharing_halves_cap(self):
        alone = thread_bandwidth_cap(CORE, 100.0, smt_sharers=1)
        shared = thread_bandwidth_cap(CORE, 100.0, smt_sharers=2)
        assert shared == pytest.approx(alone / 2)

    def test_more_lfbs_more_bandwidth(self):
        gold = Core(0, 0, 2.5, lfb_entries=10)
        spr = Core(1, 0, 2.1, lfb_entries=16)
        assert (thread_bandwidth_cap(spr, 100.0)
                > thread_bandwidth_cap(gold, 100.0))

    def test_single_thread_cannot_saturate_a_dimm(self):
        # the core mechanism behind STREAM's thread scaling: one SPR
        # thread against local DDR5 stays well under the 33 GB/s channel
        cap = thread_bandwidth_cap(CORE, 95.0)
        assert cap < 33.0

    def test_cxl_latency_needs_many_threads(self):
        # per-thread cap on the 430 ns FPGA path is a small fraction of
        # the device's 11.5 GB/s ceiling
        cap = thread_bandwidth_cap(CORE, 430.0)
        assert 11.5 / cap > 2.5


class TestValidation:
    def test_zero_latency_rejected(self):
        with pytest.raises(SimulationError):
            thread_bandwidth_cap(CORE, 0.0)

    def test_bad_smt_rejected(self):
        with pytest.raises(SimulationError):
            thread_bandwidth_cap(CORE, 100.0, smt_sharers=0)
        with pytest.raises(SimulationError):
            thread_bandwidth_cap(CORE, 100.0, smt_sharers=3)
