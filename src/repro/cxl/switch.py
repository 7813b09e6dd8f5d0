"""CXL 2.0 switching and memory pooling.

CXL 2.0 "expands the specification to memory pools using CXL switches on a
device level" (paper Section 1.3).  The two pieces modeled here:

* :class:`CxlSwitch` — an upstream-port/downstream-port crossbar with
  virtual PCI-to-PCI bridges (vPPBs); each vPPB binds one downstream
  resource to one host;
* :class:`MultiLogicalDevice` — an MLD: one physical Type-3 device
  partitioned into logical devices (LD-IDs), each independently bindable,
  which is how one expander serves several hosts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro import obs
from repro.cxl.device import Type3Device
from repro.cxl.spec import CxlVersion
from repro.errors import CxlError


def take_extent(free: list[tuple[int, int]], size: int) -> int | None:
    """First-fit ``size`` bytes out of ``free`` in place.

    ``free`` is a sorted, coalesced ``(base, size)`` extent list; the
    lowest extent that fits gives up its front.  Returns the base taken,
    or ``None`` when no extent is large enough.
    """
    for i, (base, extent) in enumerate(free):
        if extent < size:
            continue
        if extent == size:
            del free[i]
        else:
            free[i] = (base + size, extent - size)
        return base
    return None


def return_extent(free: list[tuple[int, int]], base: int, size: int) -> None:
    """Put ``[base, base + size)`` back into ``free`` in place, coalesced
    with its free neighbours so that the list stays sorted and maximal."""
    free.append((base, size))
    free.sort()
    merged: list[tuple[int, int]] = []
    for b, s in free:
        if merged and merged[-1][0] + merged[-1][1] == b:
            merged[-1] = (merged[-1][0], merged[-1][1] + s)
        else:
            merged.append((b, s))
    free[:] = merged


@dataclass(frozen=True)
class LogicalDevice:
    """One LD of a multi-logical device: a capacity slice of the parent."""

    parent: Type3Device
    ld_id: int
    base_dpa: int
    size: int

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise CxlError("logical device size must be positive")
        if self.base_dpa < 0 or self.base_dpa + self.size > self.parent.capacity_bytes:
            raise CxlError(
                f"LD {self.ld_id} range [{self.base_dpa:#x}, "
                f"{self.base_dpa + self.size:#x}) exceeds device capacity"
            )

    @property
    def name(self) -> str:
        return f"{self.parent.name}.ld{self.ld_id}"


class MultiLogicalDevice:
    """A Type-3 device partitioned into up to 16 logical devices.

    Dynamic capacity: :meth:`release` returns an LD's DPA extent (and
    its LD-ID) to a free list, so slices can be re-carved — the CXL 2.0
    "dynamic capacity add/release" half of pooling.  Carving is
    first-fit over the free extents and LD-IDs are the smallest unused
    id, so a fresh MLD still carves sequentially from DPA 0 with ids
    0, 1, 2, ... exactly as before.
    """

    MAX_LDS = 16

    def __init__(self, device: Type3Device) -> None:
        self.device = device
        self._lds: dict[int, LogicalDevice] = {}
        # sorted, coalesced (base_dpa, size) extents not owned by any LD
        self._free: list[tuple[int, int]] = [(0, device.capacity_bytes)]

    def carve(self, size: int) -> LogicalDevice:
        """Allocate a logical device of ``size`` bytes (first fit)."""
        if size <= 0:
            raise CxlError("logical device size must be positive")
        if len(self._lds) >= self.MAX_LDS:
            raise CxlError(f"MLD already has {self.MAX_LDS} logical devices")
        base = take_extent(self._free, size)
        if base is None:
            raise CxlError(
                f"cannot carve {size} bytes from {self.device.name}; "
                f"largest free extent is {self.largest_free_extent} "
                f"({self.unallocated_bytes} free in total)"
            )
        ld_id = min(set(range(self.MAX_LDS)) - set(self._lds))
        ld = LogicalDevice(self.device, ld_id, base, size)
        self._lds[ld_id] = ld
        return ld

    def release(self, ld: LogicalDevice) -> None:
        """Return ``ld``'s capacity (and LD-ID) to the pool.

        The freed extent is coalesced with its free neighbours, so a
        full release cycle restores one maximal extent and any size can
        be re-carved.

        Raises:
            CxlError: ``ld`` is not a live LD of this MLD (wrong parent,
                already released, or a stale handle after re-carving).
        """
        live = self._lds.get(ld.ld_id)
        if live is not ld:
            raise CxlError(
                f"cannot release {ld.name}: not a live LD of "
                f"{self.device.name} (already released or stale handle)"
            )
        del self._lds[ld.ld_id]
        return_extent(self._free, ld.base_dpa, ld.size)

    @property
    def logical_devices(self) -> dict[int, LogicalDevice]:
        return dict(self._lds)

    @property
    def unallocated_bytes(self) -> int:
        return sum(size for _, size in self._free)

    @property
    def largest_free_extent(self) -> int:
        return max((size for _, size in self._free), default=0)

    @property
    def free_extents(self) -> list[tuple[int, int]]:
        """Sorted, coalesced ``(base_dpa, size)`` free ranges."""
        return list(self._free)


@dataclass
class Vppb:
    """A virtual PCI-to-PCI bridge inside the switch."""

    vppb_id: int
    bound_host: int | None = None
    bound_target: Type3Device | LogicalDevice | None = None


@dataclass(frozen=True)
class BindEvent:
    """One switch ownership change, delivered to bind/unbind listeners.

    ``event`` is ``"bind"`` or ``"unbind"``; ``host`` and ``target``
    always describe the binding that was created or torn down (on
    unbind the vPPB itself is already empty when the event fires).
    """

    event: str
    switch: "CxlSwitch"
    vppb_id: int
    host: int
    target: Type3Device | LogicalDevice

    @property
    def target_device(self) -> Type3Device:
        """The physical device under the (possibly logical) target."""
        t = self.target
        return t.parent if isinstance(t, LogicalDevice) else t


class CxlSwitch:
    """A CXL 2.0 switch binding downstream resources to upstream hosts."""

    def __init__(self, name: str, version: CxlVersion = CxlVersion.CXL_2_0,
                 n_vppbs: int = 8) -> None:
        if not version.supports_switching:
            raise CxlError(f"CXL {version.label} does not support switching")
        if n_vppbs < 1:
            raise CxlError("switch needs at least one vPPB")
        self.name = name
        self.version = version
        self._vppbs = [Vppb(i) for i in range(n_vppbs)]
        self._hosts: set[int] = set()
        self._listeners: list[Callable[[BindEvent], None]] = []

    @property
    def vppbs(self) -> list[Vppb]:
        return list(self._vppbs)

    def connect_host(self, socket_id: int) -> None:
        """Attach a host upstream port."""
        if socket_id in self._hosts:
            raise CxlError(f"host {socket_id} already connected to {self.name}")
        self._hosts.add(socket_id)

    @property
    def hosts(self) -> frozenset[int]:
        return frozenset(self._hosts)

    # ------------------------------------------------------------------
    # ownership-change listeners (the fabric manager subscribes here)
    # ------------------------------------------------------------------

    def add_listener(self, callback: Callable[[BindEvent], None]) -> None:
        """Subscribe to :class:`BindEvent` notifications.

        Listeners fire *after* the switch state change, in subscription
        order — so a listener observing the switch always sees the
        post-event binding table.
        """
        self._listeners.append(callback)

    def remove_listener(self, callback: Callable[[BindEvent], None]) -> None:
        if callback in self._listeners:
            self._listeners.remove(callback)

    def _notify(self, event: str, vppb_id: int, host: int,
                target: Type3Device | LogicalDevice) -> None:
        ev = BindEvent(event, self, vppb_id, host, target)
        for cb in list(self._listeners):
            cb(ev)

    # ------------------------------------------------------------------
    # binding
    # ------------------------------------------------------------------

    def bind(self, vppb_id: int, host: int,
             target: Type3Device | LogicalDevice) -> Vppb:
        """Bind a device (or LD) to a host through a vPPB.

        A physical single-logical device may be bound to only one host at a
        time; logical devices of one MLD bind independently — that is the
        pooling capability.  Ownership is exclusive in *both* directions:
        a whole device cannot be bound while any LD carved from it is
        bound (the LD's DPA range would be double-mapped), and an LD
        cannot be bound while its parent device has a whole-device
        binding.
        """
        if host not in self._hosts:
            raise CxlError(f"host {host} is not connected to switch {self.name}")
        vppb = self._vppb(vppb_id)
        if vppb.bound_target is not None:
            raise CxlError(f"vPPB {vppb_id} already bound")
        if isinstance(target, Type3Device):
            for other in self._vppbs:
                if other.bound_target is target:
                    raise CxlError(
                        f"device {target.name} already bound via vPPB "
                        f"{other.vppb_id}; carve an MLD to share it"
                    )
                if (isinstance(other.bound_target, LogicalDevice)
                        and other.bound_target.parent is target):
                    raise CxlError(
                        f"cannot bind whole device {target.name}: its LD "
                        f"{other.bound_target.name} is bound via vPPB "
                        f"{other.vppb_id} (DPA ranges would be double-mapped)"
                    )
        else:
            for other in self._vppbs:
                if other.bound_target is target.parent:
                    raise CxlError(
                        f"cannot bind {target.name}: its parent device "
                        f"{target.parent.name} has a whole-device binding "
                        f"via vPPB {other.vppb_id}"
                    )
                if (isinstance(other.bound_target, LogicalDevice)
                        and other.bound_target.parent is target.parent
                        and other.bound_target.ld_id == target.ld_id):
                    raise CxlError(
                        f"LD {target.name} already bound via vPPB {other.vppb_id}"
                    )
        vppb.bound_host = host
        vppb.bound_target = target
        obs.inc("cxl.switch.binds")
        self._notify("bind", vppb_id, host, target)
        return vppb

    def unbind(self, vppb_id: int) -> None:
        """Tear down one vPPB binding and notify listeners.

        Raises:
            CxlError: the vPPB is not currently bound — a silent no-op
                here would hide double-release bugs from the fabric's
                capacity accounting.
        """
        vppb = self._vppb(vppb_id)
        if vppb.bound_target is None:
            raise CxlError(
                f"vPPB {vppb_id} on switch {self.name} is not bound"
            )
        host, target = vppb.bound_host, vppb.bound_target
        vppb.bound_host = None
        vppb.bound_target = None
        obs.inc("cxl.switch.unbinds")
        self._notify("unbind", vppb_id, host, target)

    def free_vppb(self) -> Vppb:
        """The lowest-numbered unbound vPPB.

        Raises:
            CxlError: every vPPB is bound.
        """
        for v in self._vppbs:
            if v.bound_target is None:
                return v
        raise CxlError(f"switch {self.name} has no free vPPB")

    def is_bound(self, target: Type3Device | LogicalDevice) -> bool:
        """Is this exact device/LD currently bound through any vPPB?"""
        return any(v.bound_target is target for v in self._vppbs)

    def _vppb(self, vppb_id: int) -> Vppb:
        if not 0 <= vppb_id < len(self._vppbs):
            raise CxlError(f"no vPPB {vppb_id} on switch {self.name}")
        return self._vppbs[vppb_id]

    def bindings_for_host(self, host: int) -> list[Vppb]:
        return [v for v in self._vppbs
                if v.bound_host == host and v.bound_target is not None]

    def pooled_capacity(self, host: int) -> int:
        """Total bytes of pooled memory visible to ``host``."""
        total = 0
        for v in self.bindings_for_host(host):
            t = v.bound_target
            total += t.size if isinstance(t, LogicalDevice) else t.capacity_bytes
        return total
