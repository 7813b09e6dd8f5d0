"""The fabric manager: dynamic pooled capacity across many hosts.

One :class:`FabricManager` owns a CXL 2.0 switch, the multi-logical
devices behind it and one :class:`FabricHost` per upstream socket.
:meth:`FabricManager.allocate` is the whole pooling story in one call:
carve an LD slice from the device with the most free capacity, bind it
to the requesting host through a free vPPB, and let the switch's bind
event program the host's HDM decoder — the decoders are *derived* from
switch ownership, never written directly, so they cannot drift from
what the host can actually reach.  After every ownership change the
manager re-runs CXL.io enumeration on the affected host's bridge and
cross-checks the decoder set against the endpoint list (targets and
capacities must match exactly).

:meth:`release` returns a slice's capacity to the pool (the MLD
free-list coalesces it for re-carving) and :meth:`detach_host` models a
host failure/removal: every vPPB the host held is unbound mid-workload,
its slices die with :class:`~repro.errors.HostDetachedError`, and the
freed capacity is immediately visible to the scheduler — the other
hosts' bindings, decoders and bytes are untouched (the chaos drill in
:mod:`repro.fabric.evaluate` proves byte-identity).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import obs
from repro.cxl.enumeration import enumerate_host
from repro.cxl.hdm import HdmDecoder, HdmDecoderSet
from repro.cxl.host import CxlMemPort
from repro.cxl.port import CxlSwitchRef, HostBridge
from repro.cxl.switch import (
    BindEvent,
    CxlSwitch,
    LogicalDevice,
    MultiLogicalDevice,
    Type3Device,
    return_extent,
    take_extent,
)
from repro.errors import FabricError, HostDetachedError

__all__ = ["FabricHost", "FabricManager", "PoolSlice",
           "SLICE_ALIGN", "HPA_BASE"]

#: pool slices are MiB-aligned (matches the runtime's namespace alignment)
SLICE_ALIGN = 1 << 20
#: per-host HPA window region for pooled memory ("above 4 TiB")
HPA_BASE = 4 << 40
#: span of HPA space each host reserves for pool windows
HPA_SPAN = 1 << 40

_log = obs.get_logger("fabric.manager")


@dataclass(frozen=True)
class PoolSlice:
    """One allocated pool slice: an LD bound to a host with a live HDM
    window.  The handle the scheduler and tenants hold."""

    slice_id: int
    tenant: str
    host: int
    vppb_id: int
    ld: LogicalDevice
    hpa_base: int
    size: int

    @property
    def device(self) -> Type3Device:
        return self.ld.parent

    @property
    def dpa_base(self) -> int:
        return self.ld.base_dpa

    @property
    def name(self) -> str:
        return self.ld.name


class FabricHost:
    """One upstream host: its bridge, its HDM decoders, its HPA windows."""

    def __init__(self, socket_id: int, bridge: HostBridge,
                 hpa_base: int = HPA_BASE, hpa_span: int = HPA_SPAN) -> None:
        self.socket_id = socket_id
        self.bridge = bridge
        self.decoders = HdmDecoderSet()
        # sorted, coalesced (base, size) free HPA extents
        self._hpa_free: list[tuple[int, int]] = [(hpa_base, hpa_span)]
        self._ports: dict[str, CxlMemPort] = {}

    def take_window(self, size: int) -> int:
        """First-fit an HPA window for a new decoder."""
        base = take_extent(self._hpa_free, size)
        if base is None:
            raise FabricError(
                f"host {self.socket_id} has no free HPA window of {size} bytes"
            )
        return base

    def free_window(self, base: int, size: int) -> None:
        """Return an HPA window to the free list, coalesced."""
        return_extent(self._hpa_free, base, size)

    def port_for(self, device: Type3Device) -> CxlMemPort:
        """The host's CXL.mem port to ``device`` (cached; one per pair)."""
        port = self._ports.get(device.name)
        if port is None:
            link = self.bridge.ports[0].link
            port = CxlMemPort(link, device)
            self._ports[device.name] = port
        return port

    @property
    def pooled_bytes(self) -> int:
        """Bytes of pool memory currently decoded for this host."""
        return self.decoders.total_capacity


class FabricManager:
    """Cluster-wide pooled-memory control plane over one CXL switch."""

    def __init__(self, switch: CxlSwitch, granularity: int = 256) -> None:
        self.switch = switch
        self.granularity = granularity
        self.testbed = None             # set by build()
        self._hosts: dict[int, FabricHost] = {}
        self._mlds: dict[str, MultiLogicalDevice] = {}
        self._slices: dict[int, PoolSlice] = {}
        self._detached: dict[int, int] = {}     # slice_id -> detached host
        self._next_slice = 0
        switch.add_listener(self._on_switch_event)

    # ------------------------------------------------------------------
    # topology assembly
    # ------------------------------------------------------------------

    @classmethod
    def build(cls, n_hosts: int = 4, battery_backed: bool = True,
              n_vppbs: int = 32) -> "FabricManager":
        """A ready pooling fabric on the multi-host testbed.

        Takes :func:`repro.machine.presets.multihost_cxl` (each host has
        its own CXL link, the device media is the shared resource),
        inserts a CXL 2.0 switch between the hosts' root ports and the
        device, and registers the device as an MLD.  The testbed rides
        on the manager (``.testbed``) for the scheduler's bandwidth
        model.
        """
        from repro.machine.presets import multihost_cxl

        tb = multihost_cxl(n_hosts, battery_backed=battery_backed)
        switch = CxlSwitch("fabric-sw", n_vppbs=n_vppbs)
        manager = cls(switch)
        manager.testbed = tb
        for bridge in tb.host_bridges:
            manager.attach_host(bridge)
        for device in tb.cxl_devices:
            manager.add_device(device)
        return manager

    def attach_host(self, bridge: HostBridge, port_id: int = 0) -> FabricHost:
        """Wire one host bridge below the fabric switch.

        The chosen root port is (re)attached to the switch and the host
        is connected upstream; an empty HDM decoder set starts tracking
        its bindings.
        """
        if bridge.socket_id in self._hosts:
            raise FabricError(
                f"host {bridge.socket_id} is already attached to the fabric"
            )
        port = bridge.port(port_id)
        if port.occupied:
            port.detach()
        port.attach(CxlSwitchRef(self.switch))
        if bridge.socket_id not in self.switch.hosts:
            self.switch.connect_host(bridge.socket_id)
        host = FabricHost(bridge.socket_id, bridge)
        self._hosts[bridge.socket_id] = host
        obs.inc("fabric.hosts_attached")
        return host

    def add_device(self, device: Type3Device) -> MultiLogicalDevice:
        """Register a Type-3 device as pooled capacity (wrapped in an MLD)."""
        if device.name in self._mlds:
            raise FabricError(f"device {device.name} already pooled")
        mld = MultiLogicalDevice(device)
        self._mlds[device.name] = mld
        obs.inc("fabric.devices_pooled")
        self._update_gauges()
        return mld

    # ------------------------------------------------------------------
    # switch-event-driven HDM programming
    # ------------------------------------------------------------------

    def _on_switch_event(self, ev: BindEvent) -> None:
        host = self._hosts.get(ev.host)
        if host is None:
            return                      # a host this fabric does not manage
        target = ev.target
        size = (target.size if isinstance(target, LogicalDevice)
                else target.capacity_bytes)
        if size % self.granularity:
            raise FabricError(
                f"cannot program an HDM window of {size} bytes for "
                f"{target.name}: not a multiple of granularity "
                f"{self.granularity}"
            )
        if ev.event == "bind":
            base = host.take_window(size)
            host.decoders.add(HdmDecoder(
                base, size, (target.name,), self.granularity))
            obs.inc("fabric.hdm_programmed")
        else:
            for dec in host.decoders.by_target(target.name):
                host.decoders.remove(dec.base_hpa)
                host.free_window(dec.base_hpa, dec.size)
                obs.inc("fabric.hdm_unprogrammed")
        self.verify_host(ev.host)

    def verify_host(self, socket_id: int) -> None:
        """Cross-check a host's decoders against CXL.io enumeration.

        The endpoint list below the host's bridge is ground truth; the
        decoder set must reference exactly those endpoints with exactly
        their capacities.

        Raises:
            FabricError: decoders and enumeration disagree (an ownership
                bug — precisely what the switch bind rules exist to
                prevent).
        """
        host = self._host(socket_id)
        endpoints = enumerate_host(host.bridge)
        enumerated = {ep.name: ep.capacity_bytes for ep in endpoints}
        decoded = {t: sum(d.size for d in host.decoders.by_target(t))
                   for t in host.decoders.targets}
        if enumerated != decoded:
            raise FabricError(
                f"host {socket_id} decoder/enumeration desync: "
                f"enumerated {sorted(enumerated.items())} but decoders "
                f"cover {sorted(decoded.items())}"
            )

    # ------------------------------------------------------------------
    # dynamic capacity
    # ------------------------------------------------------------------

    def allocate(self, socket_id: int, size: int,
                 tenant: str = "tenant0") -> PoolSlice:
        """Carve, bind and decode one pool slice for ``socket_id``.

        ``size`` is rounded up to :data:`SLICE_ALIGN`.  The slice comes
        from the registered device with the most free capacity (ties by
        name, deterministic).

        Raises:
            FabricError: unknown host, or no device can fit the slice.
            CxlError: no free vPPB on the switch.
        """
        host = self._host(socket_id)
        if size <= 0:
            raise FabricError("slice size must be positive")
        size = (size + SLICE_ALIGN - 1) // SLICE_ALIGN * SLICE_ALIGN
        mld = self._pick_mld(size)
        ld = mld.carve(size)
        try:
            vppb = self.switch.free_vppb()
            self.switch.bind(vppb.vppb_id, socket_id, ld)
        except Exception:
            mld.release(ld)
            raise
        decoder = host.decoders.by_target(ld.name)[0]
        sl = PoolSlice(self._next_slice, tenant, socket_id, vppb.vppb_id,
                       ld, decoder.base_hpa, size)
        self._next_slice += 1
        self._slices[sl.slice_id] = sl
        obs.inc("fabric.allocations")
        obs.inc("fabric.bytes_allocated", size)
        self._update_gauges()
        _log.info("allocated pool slice",
                  extra=obs.kv(slice=sl.name, host=socket_id, tenant=tenant,
                               bytes=size))
        return sl

    def release(self, sl: PoolSlice) -> None:
        """Unbind a slice and return its capacity to the pool.

        Raises:
            HostDetachedError: the slice died with its host; its
                capacity is already back in the pool.
            FabricError: stale/unknown slice handle (double release).
        """
        self._check_live(sl)
        self.switch.unbind(sl.vppb_id)      # fires the unbind event
        self._mlds[sl.device.name].release(sl.ld)
        del self._slices[sl.slice_id]
        obs.inc("fabric.releases")
        self._update_gauges()

    def detach_host(self, socket_id: int) -> list[PoolSlice]:
        """Surprise-remove one host: unbind everything it holds.

        Every slice the host held is released back to the pool and its
        handle goes dead (later IO raises
        :class:`~repro.errors.HostDetachedError`).  Other hosts are
        untouched.  Returns the slices that died.
        """
        self._host(socket_id)
        dead = [sl for sl in self._slices.values() if sl.host == socket_id]
        for sl in sorted(dead, key=lambda s: s.slice_id):
            self.switch.unbind(sl.vppb_id)
            self._mlds[sl.device.name].release(sl.ld)
            del self._slices[sl.slice_id]
            self._detached[sl.slice_id] = socket_id
        # any manual (non-slice) bindings the host holds go too
        for vppb in self.switch.bindings_for_host(socket_id):
            self.switch.unbind(vppb.vppb_id)
        obs.inc("fabric.host_detaches")
        self._update_gauges()
        _log.warning("host detached from fabric",
                     extra=obs.kv(host=socket_id, slices_lost=len(dead)))
        return sorted(dead, key=lambda s: s.slice_id)

    # ------------------------------------------------------------------
    # slice IO (through the host's CXL.mem port: wire accounting + faults)
    # ------------------------------------------------------------------

    def write(self, sl: PoolSlice, offset: int, data: bytes) -> None:
        """Write tenant bytes into a slice (bounds-checked, fault-exposed)."""
        self._check_span(sl, offset, len(data))
        port = self._hosts[sl.host].port_for(sl.device)
        port.write(sl.dpa_base + offset, data)

    def read(self, sl: PoolSlice, offset: int, length: int) -> bytes:
        self._check_span(sl, offset, length)
        port = self._hosts[sl.host].port_for(sl.device)
        return port.read(sl.dpa_base + offset, length)

    def _check_span(self, sl: PoolSlice, offset: int, length: int) -> None:
        self._check_live(sl)
        if offset < 0 or length < 0 or offset + length > sl.size:
            raise FabricError(
                f"span [{offset}, {offset + length}) outside slice "
                f"{sl.name} of {sl.size} bytes"
            )

    def _check_live(self, sl: PoolSlice) -> None:
        if sl.slice_id in self._detached:
            raise HostDetachedError(
                f"slice {sl.name} died when host {self._detached[sl.slice_id]} "
                "was detached from the fabric",
                host=self._detached[sl.slice_id],
            )
        if self._slices.get(sl.slice_id) is not sl:
            raise FabricError(
                f"stale slice handle {sl.name} (already released)"
            )

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------

    def _host(self, socket_id: int) -> FabricHost:
        try:
            return self._hosts[socket_id]
        except KeyError:
            raise FabricError(
                f"host {socket_id} is not attached to the fabric; "
                f"have {sorted(self._hosts)}"
            ) from None

    def _pick_mld(self, size: int) -> MultiLogicalDevice:
        fits = [(m.largest_free_extent, name) for name, m in
                self._mlds.items() if m.largest_free_extent >= size
                and len(m.logical_devices) < m.MAX_LDS]
        if not fits:
            raise FabricError(
                f"no pooled device can fit a {size}-byte slice "
                f"({self.free_bytes} bytes free across the pool)"
            )
        fits.sort(key=lambda t: (-t[0], t[1]))
        return self._mlds[fits[0][1]]

    @property
    def hosts(self) -> dict[int, FabricHost]:
        return dict(self._hosts)

    @property
    def mlds(self) -> dict[str, MultiLogicalDevice]:
        return dict(self._mlds)

    def slices(self, tenant: str | None = None,
               host: int | None = None) -> list[PoolSlice]:
        out = [sl for sl in self._slices.values()
               if (tenant is None or sl.tenant == tenant)
               and (host is None or sl.host == host)]
        return sorted(out, key=lambda s: s.slice_id)

    @property
    def capacity_bytes(self) -> int:
        return sum(m.device.capacity_bytes for m in self._mlds.values())

    @property
    def free_bytes(self) -> int:
        return sum(m.unallocated_bytes for m in self._mlds.values())

    @property
    def allocated_bytes(self) -> int:
        return self.capacity_bytes - self.free_bytes

    def utilization(self) -> float:
        cap = self.capacity_bytes
        return self.allocated_bytes / cap if cap else 0.0

    def _update_gauges(self) -> None:
        obs.gauge("fabric.pool.free_bytes", self.free_bytes)
        obs.gauge("fabric.pool.utilization", round(self.utilization(), 6))

    def describe(self) -> str:
        lines = [f"fabric on switch {self.switch.name}: "
                 f"{len(self._hosts)} host(s), {len(self._mlds)} device(s), "
                 f"{len(self._slices)} live slice(s), "
                 f"{self.free_bytes // (1 << 20)} MiB free"]
        for sl in self.slices():
            lines.append(
                f"  slice {sl.slice_id}: {sl.name} -> host {sl.host} "
                f"(tenant {sl.tenant}, {sl.size // (1 << 20)} MiB, "
                f"HPA {sl.hpa_base:#x})")
        return "\n".join(lines)
