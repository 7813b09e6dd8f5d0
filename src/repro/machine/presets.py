"""The paper's testbeds as ready-made machine models.

* :func:`setup1` — Section 2.1 Setup #1: two Sapphire Rapids sockets
  (BIOS-limited to 10 cores each), one 64 GB DDR5-4800 DIMM per socket,
  and the CXL prototype — two 8 GB DDR4-1333 modules on a PCIe Gen5 x16
  FPGA card behind socket 0's root port (Figure 2).
* :func:`setup2` — Setup #2: two Xeon Gold 5215 sockets, six 16 GB
  DDR4-2666 DIMMs per socket (Figure 3).
* :func:`setup1_variant` — the future-work prototype upgrades from
  Section 2.2: faster media (DDR4-3200 / DDR5-5600), more channels, a
  better controller, or a CXL 3.0 link; :func:`ablation_variants` names
  the upgrade matrix the ablation command sweeps.
* :func:`setup1_switched` — Setup #1 with the card behind a one-port
  CXL 2.0 switch (the latency price of pool-ability).
* :func:`multihost_cxl` — several single-socket hosts, each with its
  own link to one shared card (the multi-node future-work item).
* :func:`setup1_with_dcpmm` — Setup #1 plus an emulated Optane DCPMM
  node; :func:`optane_reference` — the published DCPMM numbers the
  paper compares against.

The card, the CXL NUMA node it exposes and its root-port wiring are
written once (``_fpga_card``, ``_add_cxl_node``, ``_attach``) and every
Setup #1 shape goes through one function (``_setup1_testbed``), so
recalibrating the prototype is one edit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro import units
from repro.calibration import (
    SETUP1_CALIBRATION,
    SETUP2_CALIBRATION,
    CalibrationProfile,
    OptaneReference,
)
from repro.errors import TopologyError

if TYPE_CHECKING:  # pragma: no cover - break the machine<->cxl import cycle
    from repro.cxl.device import Type3Device
    from repro.cxl.link import CxlLink
    from repro.cxl.port import HostBridge
    from repro.cxl.spec import CxlVersion
    from repro.cxl.switch import CxlSwitch
from repro.machine.cache import CacheHierarchy, CacheLevel
from repro.machine.dram import (
    DDR4_1333,
    DDR4_2666,
    DDR5_4800,
    DimmSpec,
    DramSpeedGrade,
)
from repro.machine.interconnect import UpiLink
from repro.machine.topology import (
    Core,
    Machine,
    MemoryController,
    NodeKind,
    NumaNode,
    Socket,
)


@dataclass
class Testbed:
    """A machine model plus its CXL wiring (host bridges and devices)."""

    name: str
    machine: Machine
    host_bridges: list[HostBridge] = field(default_factory=list)
    cxl_devices: list[Type3Device] = field(default_factory=list)
    cxl_links: dict[str, CxlLink] = field(default_factory=dict)
    description: str = ""

    @property
    def calibration(self) -> CalibrationProfile:
        return self.machine.metadata["calibration"]  # type: ignore[return-value]


def _cores(socket_id: int, n: int, base_id: int, freq: float,
           lfb: int) -> tuple[Core, ...]:
    return tuple(
        Core(core_id=base_id + i, socket_id=socket_id, freq_ghz=freq,
             lfb_entries=lfb)
        for i in range(n)
    )


def _spr_caches() -> CacheHierarchy:
    return CacheHierarchy.from_levels([
        CacheLevel(1, units.kib(48), 1.2, 1000.0),
        CacheLevel(2, units.mib(2), 4.0, 600.0),
        CacheLevel(3, units.mib(105), 33.0, 400.0, shared=True),
    ])


def _gold_caches() -> CacheHierarchy:
    return CacheHierarchy.from_levels([
        CacheLevel(1, units.kib(32), 1.3, 800.0),
        CacheLevel(2, units.mib(1), 4.5, 450.0),
        CacheLevel(3, int(units.mib(13.75)), 20.0, 250.0, shared=True),
    ])


def _spr_socket(sid: int) -> Socket:
    """One Sapphire Rapids socket: 10 cores, one 64 GB DDR5-4800 DIMM."""
    return Socket(
        socket_id=sid,
        model="Intel Xeon 4th Gen (Sapphire Rapids), 2.1 GHz",
        cores=_cores(sid, 10, sid * 10, 2.1, lfb=16),
        caches=_spr_caches(),
        controller=MemoryController(
            name=f"spr{sid}-ddr5",
            channels=1,
            dimms=(DimmSpec(DDR5_4800, units.gib(64)),),
            effective_stream_gbps=33.0,
            idle_latency_ns=126.0,
        ),
    )


def _fpga_card(battery_backed: bool, grade: DramSpeedGrade = DDR4_1333,
               channels: int | None = None,
               controller_efficiency: float | None = None,
               media_name: str = "fpga-ddr4") -> Type3Device:
    """The FPGA CXL card (Figure 2 / Section 2.2): one 8 GB module per
    channel behind a soft memory controller.  ``None`` keeps the card as
    built: two channels, and 0.635 controller efficiency ("current
    implementation constraints")."""
    from repro.cxl.device import MediaController, Type3Device

    if channels is None:
        channels = 2
    media = MediaController(
        name=media_name,
        grade=grade,
        channels=channels,
        modules=channels,
        module_capacity=units.gib(8),
        controller_efficiency=(0.635 if controller_efficiency is None
                               else controller_efficiency),
        media_latency_ns=130.0,
    )
    return Type3Device("cxl0", media, battery_backed=battery_backed,
                       gpf_supported=True)


def _cxl_link(name: str, version: CxlVersion | None = None,
              latency_ns: float | None = None) -> CxlLink:
    """The card's x16 link; ``None`` keeps the prototype's CXL 2.0 over
    PCIe Gen5 and its 330 ns one-way latency."""
    from repro.cxl.link import CxlLink
    from repro.cxl.spec import CxlVersion

    return CxlLink(CxlVersion.CXL_2_0 if version is None else version,
                   lanes=16,
                   latency_ns=330.0 if latency_ns is None else latency_ns,
                   name=name)


def _add_cxl_node(machine: Machine, node_id: int, home_socket: int,
                  card: Type3Device, resources: tuple[str, ...],
                  latency_ns: float, label: str) -> None:
    """Expose ``card`` to ``home_socket`` as a CXL NUMA node whose
    ``cxl0-hdm`` controller mirrors the card's media."""
    media = card.media
    machine.add_node(NumaNode(
        node_id=node_id,
        kind=NodeKind.CXL,
        home_socket=home_socket,
        controller=MemoryController(
            name="cxl0-hdm",
            channels=media.channels,
            dimms=tuple(DimmSpec(media.grade, media.module_capacity)
                        for _ in range(media.modules)),
            effective_stream_gbps=media.effective_stream_gbps,
            idle_latency_ns=media.media_latency_ns,
        ),
        persistent=card.battery_backed,
        extra_resources=resources,
        extra_latency_ns=latency_ns,
        label=label,
    ))


def _attach(socket_id: int, link: CxlLink,
            target: Type3Device | CxlSwitch) -> HostBridge:
    """Socket ``socket_id``'s host bridge with ``target`` (a device or a
    switch) on root port 0 over ``link``."""
    from repro.cxl.port import HostBridge, RootPort

    bridge = HostBridge(socket_id=socket_id)
    bridge.add_port(RootPort(port_id=0, link=link))
    bridge.port(0).attach(target)
    return bridge


def _setup1_testbed(name: str, machine_name: str, card: Type3Device,
                    link: CxlLink, label: str, description: str,
                    switch_latency_ns: float | None = None) -> Testbed:
    """Setup #1's two SPR sockets with ``card`` behind socket 0's root
    port — directly, or through a one-port CXL 2.0 switch that costs
    ``switch_latency_ns`` each way."""
    upi = UpiLink(src=0, dst=1, gt_per_s=16.0, links=3,
                  effective_stream_gbps=22.0, hop_latency_ns=90.0)
    machine = Machine(machine_name, (_spr_socket(0), _spr_socket(1)), (upi,))
    machine.add_dram_nodes()
    link_gbps = link.effective_data_gbps(0.6)
    machine.add_resource("cxl0.link", link_gbps)
    resources: tuple[str, ...] = ("cxl0.link",)
    latency_ns = link.latency_ns
    target: Type3Device | CxlSwitch = card
    if switch_latency_ns is not None:
        from repro.cxl.spec import CxlVersion
        from repro.cxl.switch import CxlSwitch

        # switch fabric: plenty of bandwidth, but a real resource
        machine.add_resource("cxl0.switch", 2 * link_gbps)
        resources += ("cxl0.switch",)
        latency_ns += 2 * switch_latency_ns
        target = CxlSwitch("pool-switch", CxlVersion.CXL_2_0)
        target.connect_host(0)
        target.bind(0, 0, card)
    machine.add_resource("cxl0.mc", card.media.effective_stream_gbps)
    _add_cxl_node(machine, 2, 0, card, resources + ("cxl0.mc",), latency_ns,
                  label)
    machine.metadata["calibration"] = SETUP1_CALIBRATION
    return Testbed(
        name=name,
        machine=machine,
        host_bridges=[_attach(0, link, target)],
        cxl_devices=[card],
        cxl_links={"cxl0.link": link},
        description=description,
    )


def setup1(battery_backed: bool = True) -> Testbed:
    """The paper's Setup #1: dual SPR + DDR5-4800 + CXL-DDR4 FPGA prototype.

    Calibrated anchors (see :mod:`repro.calibration`): the single DDR5-4800
    DIMM per socket sustains 33 GB/s of actual streaming traffic; the UPI
    path sustains 22 GB/s; the FPGA's soft memory controller ceilings the
    CXL device at 11.5 GB/s regardless of the 63 GB/s link.
    """
    return _setup1_testbed(
        "setup1", "setup1-spr-cxl", _fpga_card(battery_backed),
        _cxl_link("cxl0.link"), "node2:CXL-DDR4",
        "2x Sapphire Rapids (10 cores each), 64GB DDR5-4800 per socket, "
        "CXL DDR4 FPGA prototype on socket0 PCIe Gen5 x16",
    )


def setup2() -> Testbed:
    """The paper's Setup #2: dual Xeon Gold 5215, 6-channel DDR4-2666."""
    sockets = []
    for sid in (0, 1):
        mc = MemoryController(
            name=f"gold{sid}-ddr4",
            channels=6,
            dimms=tuple(DimmSpec(DDR4_2666, units.gib(16)) for _ in range(6)),
            effective_stream_gbps=102.0,
            idle_latency_ns=102.0,
        )
        sockets.append(Socket(
            socket_id=sid,
            model="Intel Xeon Gold 5215, 2.5 GHz",
            cores=_cores(sid, 10, sid * 10, 2.5, lfb=10),
            caches=_gold_caches(),
            controller=mc,
        ))

    upi = UpiLink(src=0, dst=1, gt_per_s=10.4, links=2,
                  effective_stream_gbps=11.0, hop_latency_ns=95.0)
    machine = Machine("setup2-gold-ddr4", sockets, (upi,))
    machine.add_dram_nodes()
    machine.metadata["calibration"] = SETUP2_CALIBRATION
    return Testbed(
        name="setup2",
        machine=machine,
        description="2x Xeon Gold 5215 (10 cores each), 96GB DDR4-2666 x6ch per socket",
    )


def setup1_variant(media_grade: DramSpeedGrade | None = None,
                   channels: int | None = None,
                   controller_efficiency: float | None = None,
                   version: "CxlVersion | None" = None,
                   link_latency_ns: float | None = None,
                   battery_backed: bool = True) -> Testbed:
    """Setup #1 with the future-work prototype upgrades applied.

    The paper lists (Section 2.2): a higher-speed FPGA supporting DDR4-3200
    or DDR5-5600 media, more CXL IP slices, one→four DDR channels, and (via
    CXL 3.0) a PCIe Gen6 link.  Any combination can be requested; the rest
    of the machine is unchanged, so ablation benches isolate one knob at a
    time.
    """
    if channels is not None and channels < 1:
        raise TopologyError("channel count must be >= 1")
    grade = media_grade or DDR4_1333
    card = _fpga_card(battery_backed, grade, channels, controller_efficiency,
                      media_name=f"fpga-{grade.name.lower()}")
    link = _cxl_link("cxl0.link", version, link_latency_ns)
    return _setup1_testbed(
        "setup1-variant", "setup1-spr-cxl-variant", card, link,
        f"node2:CXL-{grade.name}",
        f"Setup #1 variant: {card.media.name} x{card.media.channels}ch "
        f"over CXL {link.version.label}",
    )


def ablation_variants() -> dict[str, dict]:
    """The Section-2.2 prototype-upgrade ablation matrix.

    Maps a display name to the :func:`setup1_variant` keyword arguments
    that build it — shared by the ``streamer ablation`` command and any
    bench that sweeps the proposed upgrades, so the set of variants is
    defined exactly once.
    """
    from repro.machine.dram import DDR4_3200, DDR5_5600

    return {
        "baseline (DDR4-1333 x2ch)": {},
        "media DDR4-3200": {"media_grade": DDR4_3200},
        "media DDR5-5600": {"media_grade": DDR5_5600},
        "channels 4": {"channels": 4},
    }


def optane_reference() -> OptaneReference:
    """Published Optane DCPMM bandwidth the paper benchmarks against."""
    return OptaneReference()


def setup1_with_dcpmm() -> Testbed:
    """Setup #1 plus an emulated Optane DCPMM DIMM on socket 0.

    The paper compares against *published* DCPMM numbers (6.6 GB/s max
    read, 2.3 GB/s max write for a single module).  This preset puts an
    asymmetric-media node with exactly those capacities into the Setup #1
    machine (node 3), so the comparison can be made as full thread-scaling
    curves rather than two constants.  DCPMM idle latency is set to the
    commonly measured ~350 ns.
    """
    base = setup1()
    machine = base.machine

    dcpmm_mc = MemoryController(
        name="dcpmm0",
        channels=1,
        dimms=(DimmSpec(DDR4_2666, units.gib(128)),),   # DDR-T on a DDR4 bus
        effective_stream_gbps=6.6,
        idle_latency_ns=350.0,
        write_stream_gbps=2.3,
    )
    machine.add_asymmetric_resource("dcpmm0.media", dcpmm_mc)
    machine.add_node(NumaNode(
        node_id=3,
        kind=NodeKind.PMEM,
        home_socket=0,
        controller=dcpmm_mc,
        persistent=True,
        extra_resources=("dcpmm0.media",),
        extra_latency_ns=0.0,
        label="node3:DCPMM",
    ))
    base.name = "setup1-dcpmm"
    base.description += " + emulated Optane DCPMM DIMM (node3)"
    return base


def multihost_cxl(n_hosts: int = 2, battery_backed: bool = True) -> Testbed:
    """Several single-socket hosts sharing one CXL memory device.

    The paper's first future-work item: "explore the scalability of
    CXL-enabled memory in larger HPC clusters, with more than one node
    accessing the CXL memory."  Each host gets its own CXL link to the
    device (the prototype already exposes its memory to two NUMA nodes;
    a CXL 2.0 switch generalizes that), but the FPGA media controller is
    one shared resource — which is exactly the contention this preset
    lets the benches measure.

    Hosts are sockets 0..n-1 with their own DDR5 and no UPI between them
    (they are separate nodes, coherent only within themselves).  Host i's
    view of the far memory is NUMA node ``100 + i``.
    """
    if n_hosts < 1:
        raise TopologyError("need at least one host")
    machine = Machine(f"multihost-cxl-{n_hosts}",
                      [_spr_socket(sid) for sid in range(n_hosts)])
    machine.add_dram_nodes()
    card = _fpga_card(battery_backed)
    machine.add_resource("cxl0.mc", card.media.effective_stream_gbps)

    bridges = []
    links = {}
    for sid in range(n_hosts):
        link = _cxl_link(f"cxl.h{sid}.link")
        machine.add_resource(link.name, link.effective_data_gbps(0.6))
        links[link.name] = link
        _add_cxl_node(machine, 100 + sid, sid, card, (link.name, "cxl0.mc"),
                      link.latency_ns,
                      f"node{100 + sid}:CXL-shared(host{sid})")
        bridges.append(_attach(sid, link, card))

    machine.metadata["calibration"] = SETUP1_CALIBRATION
    return Testbed(
        name=f"multihost-cxl-{n_hosts}",
        machine=machine,
        host_bridges=bridges,
        cxl_devices=[card],
        cxl_links=links,
        description=(f"{n_hosts} single-socket SPR hosts sharing one CXL "
                     "DDR4 device (per-host links, shared media)"),
    )


def setup1_switched(switch_latency_ns: float = 60.0) -> Testbed:
    """Setup #1 with the expander behind a CXL 2.0 switch.

    CXL 2.0 pooling (Section 1.3) inserts a switch between host and
    device.  The switch costs a store-and-forward latency hop each way
    and becomes another shared resource; bandwidth-wise a single-device
    pool is unaffected (the switch fabric far outruns one x16 link).
    This preset quantifies the latency price of pool-ability — compare
    against plain :func:`setup1` in the ablation bench.
    """
    return _setup1_testbed(
        "setup1-switched", "setup1-switched", _fpga_card(True),
        _cxl_link("cxl0.link"), "node2:CXL-DDR4(switched)",
        "Setup #1 with the expander behind a CXL 2.0 switch "
        f"(+{switch_latency_ns:.0f} ns per hop)",
        switch_latency_ns=switch_latency_ns,
    )
