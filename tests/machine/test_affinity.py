"""close / spread thread placement."""

import gc
import weakref

import pytest

from repro.errors import AffinityError
from repro.machine.affinity import (
    AffinityMode,
    describe_placement,
    place_threads,
    place_threads_cached,
    smt_load,
)
from repro.machine.presets import setup1


class TestClose:
    def test_fills_first_socket_first(self, tb1):
        cores = place_threads(tb1.machine, 10, AffinityMode.CLOSE)
        assert all(c.socket_id == 0 for c in cores)

    def test_spills_to_second_socket(self, tb1):
        cores = place_threads(tb1.machine, 12, AffinityMode.CLOSE)
        assert [c.socket_id for c in cores].count(0) == 10
        assert [c.socket_id for c in cores].count(1) == 2

    def test_deterministic_core_order(self, tb1):
        cores = place_threads(tb1.machine, 3, AffinityMode.CLOSE)
        assert [c.core_id for c in cores] == [0, 1, 2]


class TestSpread:
    def test_alternates_sockets(self, tb1):
        cores = place_threads(tb1.machine, 4, AffinityMode.SPREAD)
        assert [c.socket_id for c in cores] == [0, 1, 0, 1]

    def test_even_split_at_full_count(self, tb1):
        cores = place_threads(tb1.machine, 20, AffinityMode.SPREAD)
        socks = [c.socket_id for c in cores]
        assert socks.count(0) == socks.count(1) == 10

    def test_single_socket_spread_degenerates_to_close(self, tb1):
        spread = place_threads(tb1.machine, 5, AffinityMode.SPREAD,
                               sockets=[0])
        close = place_threads(tb1.machine, 5, AffinityMode.CLOSE,
                              sockets=[0])
        assert [c.core_id for c in spread] == [c.core_id for c in close]


class TestLimits:
    def test_no_threads_rejected(self, tb1):
        with pytest.raises(AffinityError):
            place_threads(tb1.machine, 0)

    def test_overflow_without_smt_rejected(self, tb1):
        with pytest.raises(AffinityError):
            place_threads(tb1.machine, 21, AffinityMode.CLOSE)

    def test_socket_restriction_respected(self, tb1):
        cores = place_threads(tb1.machine, 8, AffinityMode.CLOSE,
                              sockets=[1])
        assert all(c.socket_id == 1 for c in cores)

    def test_socket_restriction_capacity(self, tb1):
        with pytest.raises(AffinityError):
            place_threads(tb1.machine, 11, AffinityMode.CLOSE, sockets=[1])

    def test_empty_socket_list_rejected(self, tb1):
        with pytest.raises(AffinityError):
            place_threads(tb1.machine, 1, sockets=[])


class TestSmt:
    def test_smt_doubles_capacity(self, tb1):
        cores = place_threads(tb1.machine, 40, AffinityMode.CLOSE,
                              allow_smt=True)
        assert len(cores) == 40

    def test_smt_fills_physical_cores_first(self, tb1):
        cores = place_threads(tb1.machine, 21, AffinityMode.CLOSE,
                              allow_smt=True)
        load = smt_load(cores)
        # exactly one core carries two threads
        assert sorted(load.values()).count(2) == 1

    def test_smt_overflow_rejected(self, tb1):
        with pytest.raises(AffinityError):
            place_threads(tb1.machine, 41, AffinityMode.CLOSE,
                          allow_smt=True)

    def test_smt_load_counts(self, tb1):
        cores = place_threads(tb1.machine, 2, AffinityMode.CLOSE)
        assert set(smt_load(cores).values()) == {1}


class TestDescribe:
    def test_run_compression(self, tb1):
        cores = place_threads(tb1.machine, 12, AffinityMode.CLOSE)
        text = describe_placement(cores)
        assert text == "s0:[0-9] s1:[10-11]"

    def test_single_core(self, tb1):
        cores = place_threads(tb1.machine, 1)
        assert describe_placement(cores) == "s0:[0]"


class TestCachedPlacement:
    def test_dropped_machine_is_collected(self):
        machine = setup1().machine
        place_threads_cached(machine, 4, sockets=[0])
        ref = weakref.ref(machine)
        del machine
        gc.collect()
        assert ref() is None
