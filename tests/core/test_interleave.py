"""Striped regions across multiple CXL devices."""

import numpy as np
import pytest

from repro import units
from repro.core.interleave import InterleavedRegion
from repro.cxl.device import MediaController, Type3Device
from repro.errors import PmemError
from repro.machine.dram import DDR4_1333

MB = 1 << 20


def _device(name: str, battery=True) -> Type3Device:
    media = MediaController("m", DDR4_1333, 2, 2, units.mib(32), 0.6, 130.0)
    return Type3Device(name, media, battery_backed=battery)


@pytest.fixture()
def devices():
    return [_device("exp0"), _device("exp1")]


@pytest.fixture()
def region(devices) -> InterleavedRegion:
    return InterleavedRegion(devices, 8 * MB, granularity=4096)


class TestStriping:
    def test_roundtrip_within_one_chunk(self, region):
        region.write(100, b"small")
        assert region.read(100, 5) == b"small"

    def test_roundtrip_across_chunks(self, region):
        data = bytes(range(256)) * 64      # 16 KiB spans 4 chunks
        region.write(4096 - 100, data)
        assert region.read(4096 - 100, len(data)) == data

    def test_data_actually_stripes(self, region, devices):
        region.write(0, b"A" * 4096)          # chunk 0 → exp0
        region.write(4096, b"B" * 4096)       # chunk 1 → exp1
        assert devices[0].memory.read(0, 1) == b"A"
        assert devices[1].memory.read(0, 1) == b"B"

    def test_every_device_receives_its_share(self, region, devices):
        region.write(0, b"\x42" * (8 * MB))
        for dev in devices:
            assert dev.memory.read(4 * MB - 1, 1) == b"\x42"

    def test_whole_region_roundtrip(self, region):
        rng = np.random.default_rng(3)
        data = rng.integers(0, 256, 64 * 1024, dtype=np.uint8).tobytes()
        region.write(1 * MB, data)
        assert region.read(1 * MB, len(data)) == data

    def test_four_way(self):
        devs = [_device(f"d{i}") for i in range(4)]
        region = InterleavedRegion(devs, 16 * MB)
        assert region.ways == 4
        region.write(0, bytes(range(200)))
        assert region.read(0, 200) == bytes(range(200))


class TestSemantics:
    def test_no_views(self, region):
        with pytest.raises(PmemError):
            region.view(0, 64)

    def test_persistence_composes_with_and(self, devices):
        region = InterleavedRegion(devices, 8 * MB)
        assert region.persistent
        weak = [_device("weak", battery=False)]
        weak[0].gpf_supported = False
        mixed = InterleavedRegion([_device("strong"), weak[0]], 8 * MB)
        assert not mixed.persistent

    def test_powered_off_member_blocks_access(self, region, devices):
        devices[1].power_fail()
        with pytest.raises(PmemError):
            region.read(0, 64)
        devices[1].power_on()
        region.read(0, 64)

    def test_persist_touches_only_affected_members(self, devices):
        for d in devices:
            d.battery_backed = False      # make flushes observable
        region = InterleavedRegion(devices, 8 * MB, granularity=4096)
        flushes0 = devices[0].stats["flushes"]
        flushes1 = devices[1].stats["flushes"]
        region.write(0, b"x" * 100)       # chunk 0 only → exp0
        region.persist(0, 100)
        assert devices[0].stats["flushes"] == flushes0 + 1
        assert devices[1].stats["flushes"] == flushes1

    def test_geometry_validation(self, devices):
        with pytest.raises(PmemError):
            InterleavedRegion(devices, 8 * MB + 1)
        with pytest.raises(PmemError):
            InterleavedRegion([], 8 * MB)
        with pytest.raises(PmemError):
            InterleavedRegion([devices[0], devices[0]], 8 * MB)

    def test_capacity_validation(self):
        small = _device("small")
        with pytest.raises(PmemError):
            InterleavedRegion([small, _device("other")], 256 * MB)

    def test_describe(self, region):
        text = region.describe()
        assert "2 devices" in text and "persistent" in text


class TestPoolOnStripe:
    def test_pmemobj_pool_stripes_transparently(self, region):
        """The punchline: the pool layer neither knows nor cares that its
        bytes live on two devices."""
        from repro.pmdk.containers import PersistentArray
        from repro.pmdk.pool import PmemObjPool

        pool = PmemObjPool.create(region, layout="striped")
        # no zero-copy views → use the API path
        oid = pool.alloc(8000)
        pool.write(oid, b"\x5a" * 8000)
        assert pool.read(oid, 8000) == b"\x5a" * 8000

        with pool.transaction() as tx:
            pool.tx_write(tx, oid, b"\xa5" * 4000)
        assert pool.read(oid, 4000) == b"\xa5" * 4000

    def test_pool_survives_member_power_cycle(self, region, devices):
        from repro.pmdk.pool import PmemObjPool

        pool = PmemObjPool.create(region, layout="striped")
        oid = pool.alloc(128)
        pool.write(oid, b"durable across the stripe")
        for dev in devices:
            dev.power_fail()
            dev.power_on()
        pool2 = PmemObjPool.open(region)
        from repro.pmdk.oid import PMEMoid
        assert pool2.read(PMEMoid(pool2.uuid, oid.offset), 25) == (
            b"durable across the stripe")
