"""The CXL-as-PMem runtime: discovery, validation, namespace management.

This is the system-software layer the paper implies: after CXL.io
enumeration finds the Type-3 endpoints, the runtime

1. verifies each endpoint can actually serve as *persistent* memory
   (battery-backed or at least GPF-capable — Table 1's volatility
   property);
2. manages namespaces inside the persistent partition, with labels in the
   device LSA so they survive host restarts;
3. performs clean shutdown: Global Persistent Flush + the Set Shutdown
   State handshake, the CXL analogue of the ADR/Optane flush-on-fail
   machinery.
"""

from __future__ import annotations

from typing import Iterable

from repro.core.namespace import (
    CxlPmemNamespace,
    NamespaceLabel,
    read_labels,
    write_labels,
)
from repro.cxl.device import Type3Device
from repro.cxl.enumeration import CxlEndpointInfo, enumerate_endpoints
from repro.cxl.mailbox import MailboxOpcode
from repro.cxl.port import HostBridge
from repro.cxl.switch import take_extent
from repro.errors import CxlError, PersistenceDomainError

_ALIGN = 1 << 20     # namespaces are MiB-aligned


def _gaps(dev: Type3Device,
          labels: list[NamespaceLabel]) -> list[tuple[int, int]]:
    """The persistent partition's free ``(base, size)`` extents between
    ``labels``, each MiB-aligned at its base (DPA 0 is kept clear)."""
    gaps: list[tuple[int, int]] = []
    cursor = max(dev.persistent_base_dpa, _ALIGN)
    for lo, hi in sorted((lb.base_dpa, lb.base_dpa + lb.size)
                         for lb in labels) + [(dev.capacity_bytes, 0)]:
        cursor = (cursor + _ALIGN - 1) // _ALIGN * _ALIGN
        if lo > cursor:
            gaps.append((cursor, lo - cursor))
        cursor = max(cursor, hi)
    return gaps


class CxlPmemRuntime:
    """Manages every CXL persistent-memory endpoint below a set of bridges."""

    def __init__(self, bridges: Iterable[HostBridge]) -> None:
        self._bridges = list(bridges)
        self._endpoints: list[CxlEndpointInfo] = enumerate_endpoints(
            self._bridges)
        self._watched: list[tuple[object, object]] = []

    # ------------------------------------------------------------------
    # discovery
    # ------------------------------------------------------------------

    @property
    def endpoints(self) -> list[CxlEndpointInfo]:
        return list(self._endpoints)

    def rescan(self) -> list[CxlEndpointInfo]:
        self._endpoints = enumerate_endpoints(self._bridges)
        return self.endpoints

    def persistent_endpoints(self) -> list[CxlEndpointInfo]:
        """Endpoints that qualify as PMem (Table 1's volatility row)."""
        return [e for e in self._endpoints if e.persistent_capable]

    def watch_switch(self, switch) -> None:
        """Rescan automatically on switch ownership changes.

        Subscribes to the switch's bind/unbind events and re-enumerates
        whenever a binding for one of this runtime's sockets changes —
        so hot-added pool capacity shows up in :attr:`endpoints` without
        the caller having to remember :meth:`rescan`.  Undo with
        :meth:`unwatch`.
        """
        sockets = {b.socket_id for b in self._bridges}

        def _on_event(event) -> None:
            if event.host in sockets:
                self.rescan()

        switch.add_listener(_on_event)
        self._watched.append((switch, _on_event))

    def unwatch(self) -> None:
        """Unsubscribe from every switch watched via :meth:`watch_switch`."""
        for switch, cb in self._watched:
            switch.remove_listener(cb)
        self._watched.clear()

    def device(self, name: str) -> Type3Device:
        """Find a discovered device by name."""
        for ep in self._endpoints:
            if ep.device.name == name:
                return ep.device
        raise CxlError(f"no enumerated CXL device named {name!r}")

    # ------------------------------------------------------------------
    # namespaces
    # ------------------------------------------------------------------

    def namespaces(self, device: Type3Device | str) -> list[CxlPmemNamespace]:
        dev = self.device(device) if isinstance(device, str) else device
        return [CxlPmemNamespace(dev, lb) for lb in read_labels(dev)]

    def create_namespace(self, device: Type3Device | str, name: str,
                         size: int) -> CxlPmemNamespace:
        """Allocate a namespace in the device's persistent partition.

        Placement is first-fit between existing labels; the new label is
        written back to the LSA before the namespace is returned.

        Raises:
            PersistenceDomainError: the device cannot guarantee
                persistence, or the persistent partition is exhausted.
            CxlError: duplicate name / bad size.
        """
        dev = self.device(device) if isinstance(device, str) else device
        if size <= 0:
            raise CxlError("namespace size must be positive")
        size = (size + _ALIGN - 1) // _ALIGN * _ALIGN
        if not dev.persistence_guaranteed:
            raise PersistenceDomainError(
                f"device {dev.name} has neither battery backing nor GPF; "
                "it cannot host persistent namespaces"
            )
        labels = read_labels(dev)
        if any(lb.name == name for lb in labels):
            raise CxlError(f"namespace {name!r} already exists on {dev.name}")

        base = take_extent(_gaps(dev, labels), size)
        if base is None:
            raise PersistenceDomainError(
                f"persistent partition of {dev.name} cannot fit {size} "
                f"bytes (capacity {dev.capacity_bytes:#x})"
            )
        label = NamespaceLabel(name, base, size)
        write_labels(dev, labels + [label])
        return CxlPmemNamespace(dev, label)

    def open_namespace(self, device: Type3Device | str,
                       name: str) -> CxlPmemNamespace:
        for ns in self.namespaces(device):
            if ns.name == name:
                return ns
        dev_name = device if isinstance(device, str) else device.name
        raise CxlError(f"no namespace {name!r} on device {dev_name}")

    def delete_namespace(self, device: Type3Device | str, name: str) -> None:
        dev = self.device(device) if isinstance(device, str) else device
        labels = read_labels(dev)
        kept = [lb for lb in labels if lb.name != name]
        if len(kept) == len(labels):
            raise CxlError(f"no namespace {name!r} on device {dev.name}")
        write_labels(dev, kept)

    # ------------------------------------------------------------------
    # shutdown / power
    # ------------------------------------------------------------------

    def clean_shutdown(self) -> dict[str, int]:
        """GPF every device and record a clean shutdown state.

        Returns ``{device name: lines flushed}``.
        """
        flushed: dict[str, int] = {}
        for ep in self._endpoints:
            dev = ep.device
            if dev.gpf_supported:
                flushed[dev.name] = dev.global_persistent_flush()
            else:
                flushed[dev.name] = dev.flush()
            resp = dev.mailbox.execute(
                MailboxOpcode.SET_SHUTDOWN_STATE, {"state": "clean"})
            if not resp.ok:   # pragma: no cover - handler always succeeds
                raise CxlError(f"SET_SHUTDOWN_STATE failed on {dev.name}")
        return flushed

    def health_report(self) -> dict[str, dict]:
        """GET_HEALTH_INFO across the fleet."""
        out: dict[str, dict] = {}
        for ep in self._endpoints:
            resp = ep.device.mailbox.execute(MailboxOpcode.GET_HEALTH_INFO)
            out[ep.name] = dict(resp.payload)
        return out
