"""Namespaces: DAX-style windows over CXL device memory.

A namespace is the unit system software hands to applications: a named,
byte-addressable slice of a Type-3 device's persistent partition.  Its
configuration lives as a *label* in the device's Label Storage Area (via
mailbox commands), so namespaces — like real LSA labels — survive reboots
independently of host state.

:class:`CxlRegion` adapts a namespace to the :class:`repro.pmdk.pmem.PmemRegion`
interface, which is the whole trick: a pmemobj pool opens on CXL memory
with zero code changes relative to a DAX file.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from repro.cxl.device import Type3Device
from repro.cxl.mailbox import MailboxOpcode
from repro.errors import CxlError, PersistenceDomainError, PmemError
from repro.pmdk.pmem import BufferRegion

LABEL_VERSION = 1


@dataclass(frozen=True)
class NamespaceLabel:
    """One namespace record in the device LSA."""

    name: str
    base_dpa: int
    size: int

    def to_dict(self) -> dict:
        return {"name": self.name, "base": self.base_dpa, "size": self.size}

    @classmethod
    def from_dict(cls, d: dict) -> "NamespaceLabel":
        return cls(str(d["name"]), int(d["base"]), int(d["size"]))


def read_labels(device: Type3Device) -> list[NamespaceLabel]:
    """Decode the LSA label index (empty LSA → no namespaces).

    Any malformed content — non-UTF8 bytes, non-JSON, JSON of the wrong
    shape, records with missing or mistyped fields — raises
    :class:`repro.errors.CxlError`; nothing else may escape, because the
    LSA is device-resident data that survives arbitrary torn writes.
    """
    resp = device.mailbox.execute(MailboxOpcode.GET_LSA)
    if not resp.ok:
        raise CxlError(f"GET_LSA failed: {resp.return_code.name}")
    raw: bytes = resp.payload["data"]
    text = raw.rstrip(b"\x00")
    if not text:
        return []
    try:
        doc = json.loads(text.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CxlError(f"corrupt LSA contents: {exc}") from exc
    if not isinstance(doc, dict):
        raise CxlError(
            f"corrupt LSA contents: expected an object, got "
            f"{type(doc).__name__}"
        )
    if doc.get("version") != LABEL_VERSION:
        raise CxlError(f"unsupported LSA label version {doc.get('version')}")
    entries = doc.get("namespaces", [])
    if not isinstance(entries, list):
        raise CxlError("corrupt LSA contents: namespaces is not a list")
    labels: list[NamespaceLabel] = []
    for entry in entries:
        try:
            label = NamespaceLabel.from_dict(entry)
        except (TypeError, KeyError, ValueError) as exc:
            raise CxlError(
                f"corrupt LSA namespace record {entry!r}: {exc}"
            ) from exc
        if label.size <= 0 or label.base_dpa < 0:
            raise CxlError(
                f"corrupt LSA namespace record: bad geometry {label}"
            )
        labels.append(label)
    return labels


def write_labels(device: Type3Device,
                 labels: list[NamespaceLabel]) -> None:
    """Serialize the label index back into the LSA."""
    doc = {"version": LABEL_VERSION,
           "namespaces": [lb.to_dict() for lb in labels]}
    data = json.dumps(doc).encode()
    resp = device.mailbox.execute(MailboxOpcode.IDENTIFY_MEMORY_DEVICE)
    lsa_size = int(resp.payload["lsa_size"])
    if len(data) > lsa_size:
        raise CxlError(
            f"label index of {len(data)} bytes exceeds LSA size {lsa_size}"
        )
    resp = device.mailbox.execute(
        MailboxOpcode.SET_LSA,
        {"offset": 0, "data": data.ljust(lsa_size, b"\x00")})
    if not resp.ok:
        raise CxlError(f"SET_LSA failed: {resp.return_code.name}")


class CxlRegion(BufferRegion):
    """A namespace exposed through the standard pmem region interface.

    Data lives in the device's media (a dense window of its sparse
    memory), so CXL.mem transactions and this region see the same bytes
    through the shared :class:`~repro.pmdk.pmem.BufferRegion` body.
    ``persist`` is meaningful: without battery backing it drives the
    device write-buffer flush, mirroring how a real host would have to
    rely on GPF; with a battery it is a no-op beyond ordering, which *is*
    the paper's performance argument for battery-backed CXL PMem.
    """

    backend = "cxl"

    def __init__(self, device: Type3Device, base_dpa: int, size: int,
                 name: str = "") -> None:
        if size <= 0:
            raise PmemError("namespace size must be positive")
        self.device = device
        self.base_dpa = base_dpa
        self.name = name or f"{device.name}:{base_dpa:#x}"
        self._window = device.memory.map_dense(base_dpa, size)
        super().__init__(self._window)

    @property
    def persistent(self) -> bool:
        return self.device.persistence_guaranteed

    def _alive(self) -> None:
        super()._alive()
        if not self.device.powered:
            raise PmemError(f"device {self.device.name} is powered off")

    def np_window(self) -> np.ndarray:
        """The whole namespace as a uint8 ndarray (zero copy)."""
        self._alive()
        return self._window

    def _flush(self, offset: int, length: int) -> None:
        """Stores land in the media window directly; durability only
        needs the device write buffer drained (handled per persist call
        in :meth:`_flush_ranges`)."""

    def _flush_ranges(self, ranges) -> None:
        if ranges and not self.device.battery_backed:
            # no battery: durability requires pushing the device write
            # buffer down to media, the expensive path — once per persist
            # call, however many coalesced spans it covers
            self.device.flush()

    def close(self) -> None:
        self._closed = True


class CxlPmemNamespace:
    """A named persistent-memory namespace on a CXL Type-3 device."""

    def __init__(self, device: Type3Device, label: NamespaceLabel) -> None:
        self.device = device
        self.label = label
        self._region: CxlRegion | None = None

    @property
    def name(self) -> str:
        return self.label.name

    @property
    def size(self) -> int:
        return self.label.size

    @property
    def base_dpa(self) -> int:
        return self.label.base_dpa

    @property
    def persistent(self) -> bool:
        return (self.device.persistence_guaranteed
                and self.device.is_persistent_dpa(self.label.base_dpa))

    def region(self) -> CxlRegion:
        """Map the namespace (cached; one mapping per namespace object)."""
        if not self.persistent:
            raise PersistenceDomainError(
                f"namespace {self.name} is not within a persistence domain "
                f"(battery={self.device.battery_backed}, "
                f"gpf={self.device.gpf_supported})"
            )
        if self._region is None or self._region._closed:
            self._region = CxlRegion(self.device, self.label.base_dpa,
                                     self.label.size, self.label.name)
        return self._region

    def describe(self) -> str:
        return (f"namespace {self.name}: dpa [{self.base_dpa:#x}, "
                f"{self.base_dpa + self.size:#x}) on {self.device.name}, "
                f"{'persistent' if self.persistent else 'VOLATILE'}")
