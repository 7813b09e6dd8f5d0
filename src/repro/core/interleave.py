"""Software-striped regions across multiple CXL devices.

CXL hosts stripe consecutive chunks of host physical address space across
several expanders through their HDM decoders (Section 1.3's pooling
story; the spec's interleave sets).  This module makes that functional:
an :class:`InterleavedRegion` presents one flat pmem region whose bytes
are routed — through a real :class:`repro.cxl.hdm.HdmDecoder` — to
windows on multiple Type-3 devices.

A pmemobj pool opened on an interleaved region stripes automatically, and
persistence holds only if *every* member device can guarantee it — the
region's ``persistent`` flag composes accordingly.
"""

from __future__ import annotations

from typing import Sequence

from repro.cxl.device import Type3Device
from repro.cxl.hdm import HdmDecoder
from repro.errors import CxlDecodeError, PmemError
from repro.pmdk.pmem import PmemRegion


class InterleavedRegion(PmemRegion):
    """One byte-addressable region striped over N device windows."""

    backend = "cxl-interleaved"

    def __init__(self, devices: Sequence[Type3Device], size: int,
                 base_dpa: int = 0, granularity: int = 4096) -> None:
        if len(devices) < 1:
            raise PmemError("need at least one device")
        names = [d.name for d in devices]
        if len(set(names)) != len(names):
            raise PmemError("duplicate devices in the interleave set")
        stride = len(devices) * granularity
        if size <= 0 or size % stride:
            raise PmemError(
                f"size must be a positive multiple of ways*granularity "
                f"({stride}), got {size}"
            )
        per_device = size // len(devices)
        for dev in devices:
            if base_dpa + per_device > dev.capacity_bytes:
                raise PmemError(
                    f"device {dev.name} cannot back {per_device} bytes at "
                    f"DPA {base_dpa:#x}"
                )
        try:
            self.decoder = HdmDecoder(
                base_hpa=0, size=size,
                targets=tuple(names), granularity=granularity)
        except CxlDecodeError as exc:
            raise PmemError(f"bad interleave geometry: {exc}") from exc
        self._windows = {
            dev.name: dev.memory.map_dense(base_dpa, per_device)
            for dev in devices
        }
        self._devices = {dev.name: dev for dev in devices}
        self._size = size
        self._closed = False

    @property
    def size(self) -> int:
        return self._size

    @property
    def persistent(self) -> bool:
        """Persistent only if every stripe member guarantees it."""
        return all(d.persistence_guaranteed
                   for d in self._devices.values())

    @property
    def ways(self) -> int:
        return self.decoder.ways

    def _alive(self) -> None:
        if self._closed:
            raise PmemError("interleaved region is closed")
        for dev in self._devices.values():
            if not dev.powered:
                raise PmemError(f"stripe member {dev.name} is powered off")

    def view(self, offset: int, length: int) -> memoryview:
        raise PmemError(
            "interleaved regions are scattered across devices; "
            "use read()/write()"
        )

    def _chunks(self, offset: int, length: int):
        """Split a span into (target, dpa, span-slice) pieces."""
        pos = offset
        end = offset + length
        g = self.decoder.granularity
        while pos < end:
            target, dpa = self.decoder.decode(pos)
            within = dpa % g
            take = min(end - pos, g - within)
            yield target, dpa, pos - offset, take
            pos += take

    def read(self, offset: int, length: int) -> bytes:
        self._alive()
        self._check(offset, length)
        out = bytearray(length)
        for target, dpa, rel, take in self._chunks(offset, length):
            window = self._windows[target]
            out[rel:rel + take] = window[dpa:dpa + take].tobytes()
        return bytes(out)

    def write(self, offset: int, data: bytes | bytearray | memoryview) -> None:
        import numpy as np

        from repro.pmdk.pmem import _byteslike
        self._alive()
        data = _byteslike(data)
        self._check(offset, len(data))
        for target, dpa, rel, take in self._chunks(offset, len(data)):
            window = self._windows[target]
            window[dpa:dpa + take] = np.frombuffer(
                data[rel:rel + take], dtype=np.uint8)
        self._mark_dirty(offset, len(data))

    def _flush(self, offset: int, length: int) -> None:  # pragma: no cover
        self._flush_ranges([(offset, length)])

    def _flush_ranges(self, ranges) -> None:
        # flush only the stripe members the ranges actually touch
        touched: set[str] = set()
        for offset, length in ranges:
            touched.update(
                t for t, _, _, _ in self._chunks(offset, max(length, 1)))
        for target in touched:
            dev = self._devices[target]
            if not dev.battery_backed:
                dev.flush()

    def close(self) -> None:
        self._closed = True

    def describe(self) -> str:
        return (f"interleaved region: {self._size >> 20} MiB across "
                f"{self.ways} devices "
                f"({', '.join(self._devices)}), "
                f"granularity {self.decoder.granularity} B, "
                f"{'persistent' if self.persistent else 'VOLATILE'}")
