"""Namespaces and the CxlRegion pmem adapter."""

import numpy as np
import pytest

from repro import units
from repro.core.namespace import (
    CxlPmemNamespace,
    CxlRegion,
    NamespaceLabel,
    read_labels,
    write_labels,
)
from repro.cxl.device import MediaController, Type3Device
from repro.errors import CxlError, PersistenceDomainError, PmemError
from repro.machine.dram import DDR4_1333


def _device(battery=True, gpf=True, cap=units.mib(64)) -> Type3Device:
    media = MediaController("m", DDR4_1333, 2, 2, cap // 2, 0.6, 130.0)
    return Type3Device("ns-dut", media, battery_backed=battery,
                       gpf_supported=gpf)


class TestLabels:
    def test_empty_lsa_means_no_namespaces(self):
        assert read_labels(_device()) == []

    def test_roundtrip(self):
        dev = _device()
        labels = [NamespaceLabel("a", 1 << 20, 1 << 20),
                  NamespaceLabel("b", 2 << 20, 2 << 20)]
        write_labels(dev, labels)
        assert read_labels(dev) == labels

    def test_corrupt_lsa_detected(self):
        dev = _device()
        from repro.cxl.mailbox import MailboxOpcode
        dev.mailbox.execute(MailboxOpcode.SET_LSA,
                            {"offset": 0, "data": b"{not json"})
        with pytest.raises(CxlError):
            read_labels(dev)

    def test_oversized_label_index_rejected(self):
        dev = _device()
        labels = [NamespaceLabel(f"ns-{i:04d}-{'x' * 60}", i << 20, 1 << 20)
                  for i in range(200)]
        with pytest.raises(CxlError):
            write_labels(dev, labels)


class TestCxlRegion:
    def test_rw_through_region(self):
        region = CxlRegion(_device(), 1 << 20, 1 << 20)
        region.write(100, b"on device")
        assert region.read(100, 9) == b"on device"

    def test_region_aliases_device_media(self):
        dev = _device()
        region = CxlRegion(dev, 1 << 20, 1 << 20)
        region.write(0, b"via region")
        assert dev.memory.read(1 << 20, 10) == b"via region"
        dev.memory.write((1 << 20) + 100, b"via device")
        assert region.read(100, 10) == b"via device"

    def test_sanitize_zeroes_the_mapped_window_in_place(self):
        from repro.cxl.mailbox import MailboxOpcode
        dev = _device()
        region = CxlRegion(dev, 1 << 20, 4096)
        region.write(0, b"\xab" * 64)
        assert dev.mailbox.execute(MailboxOpcode.SANITIZE).ok
        assert region.read(0, 64) == b"\x00" * 64
        assert dev.read_lines(1 << 20, 1) == b"\x00" * 64
        region.write(64, b"\xcd" * 64)     # still aliases device media
        assert dev.read_lines((1 << 20) + 64, 1) == b"\xcd" * 64

    def test_view_and_np_window(self):
        region = CxlRegion(_device(), 0, 4096)
        v = region.view(8, 8)
        v[:2] = b"ok"
        assert region.np_window()[8] == ord("o")

    def test_persistent_follows_device_capability(self):
        assert CxlRegion(_device(), 0, 4096).persistent
        assert not CxlRegion(_device(battery=False, gpf=False), 0,
                             4096).persistent

    def test_persist_without_battery_flushes_device(self):
        dev = _device(battery=False, gpf=True)
        region = CxlRegion(dev, 0, 4096)
        flushes = dev.stats["flushes"]
        region.persist(0, 64)
        assert dev.stats["flushes"] == flushes + 1

    def test_persist_with_battery_skips_device_flush(self):
        dev = _device(battery=True)
        region = CxlRegion(dev, 0, 4096)
        flushes = dev.stats["flushes"]
        region.persist(0, 64)
        assert dev.stats["flushes"] == flushes
        assert region.flush_count == 1

    def test_powered_off_device_rejects_access(self):
        dev = _device()
        region = CxlRegion(dev, 0, 4096)
        dev.power_fail()
        with pytest.raises(PmemError):
            region.read(0, 1)

    def test_bounds(self):
        region = CxlRegion(_device(), 0, 4096)
        with pytest.raises(PmemError):
            region.read(4090, 100)


class TestNamespaceObject:
    def test_region_cached(self):
        ns = CxlPmemNamespace(_device(),
                              NamespaceLabel("n", 1 << 20, 1 << 20))
        assert ns.region() is ns.region()

    def test_non_persistent_device_refuses_mapping(self):
        ns = CxlPmemNamespace(_device(battery=False, gpf=False),
                              NamespaceLabel("n", 1 << 20, 1 << 20))
        assert not ns.persistent
        with pytest.raises(PersistenceDomainError):
            ns.region()

    def test_volatile_partition_not_persistent(self):
        dev = _device(cap=units.gib(1))
        dev.set_partition(256 * 1024 * 1024)    # first 256 MiB volatile
        ns = CxlPmemNamespace(dev, NamespaceLabel("n", 0, 1 << 20))
        assert not ns.persistent

    def test_describe(self):
        ns = CxlPmemNamespace(_device(),
                              NamespaceLabel("scratch", 1 << 20, 1 << 20))
        text = ns.describe()
        assert "scratch" in text and "persistent" in text
