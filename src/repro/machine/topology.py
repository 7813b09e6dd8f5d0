"""Machine topology graph and access-path routing.

A :class:`Machine` is the explicit model of one of the paper's testbeds:
sockets holding cores and caches, memory controllers driving DIMM channels,
UPI links between the sockets, and (for Setup #1) a CXL-attached memory
expander appearing as a far NUMA node.

The central operation is :meth:`Machine.route`: given the socket a thread
runs on and the NUMA node it targets, produce the :class:`AccessPath` —
the ordered list of shared bandwidth resources the traffic crosses plus the
composed idle latency.  Everything the bandwidth solver
(:mod:`repro.memsim.bwmodel`) needs about the hardware is in those paths.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.errors import TopologyError
from repro.machine.cache import CacheHierarchy
from repro.machine.dram import DimmSpec
from repro.machine.interconnect import UpiLink


class NodeKind(enum.Enum):
    """What backs a NUMA node."""

    DRAM = "dram"           # socket-local DIMMs
    CXL = "cxl"             # CXL Type-3 expander (far memory)
    PMEM = "pmem"           # DIMM-attached persistent memory (DCPMM)


@dataclass(frozen=True)
class Core:
    """A physical core. SMT siblings share the core's fill buffers."""

    core_id: int
    socket_id: int
    freq_ghz: float
    lfb_entries: int
    smt: int = 2

    def __post_init__(self) -> None:
        if self.lfb_entries < 1:
            raise ValueError("a core needs at least one line-fill buffer")
        if self.smt < 1:
            raise ValueError("smt must be >= 1")


@dataclass(frozen=True)
class MemoryController:
    """An integrated (or device) memory controller and its DIMM channels.

    ``effective_stream_gbps`` is the streaming-effective capacity this
    controller contributes to the bandwidth solver; it already folds in
    channel count, speed grade and controller efficiency.
    """

    name: str
    channels: int
    dimms: tuple[DimmSpec, ...]
    effective_stream_gbps: float
    idle_latency_ns: float
    #: write-path capacity for asymmetric media (Optane DCPMM reads ~3x
    #: faster than it writes); ``None`` means symmetric
    write_stream_gbps: float | None = None

    def __post_init__(self) -> None:
        if self.channels < 1:
            raise ValueError("a memory controller needs >= 1 channel")
        if not self.dimms:
            raise ValueError("a memory controller needs >= 1 DIMM")
        if self.effective_stream_gbps <= 0:
            raise ValueError("effective_stream_gbps must be positive")
        if self.idle_latency_ns <= 0:
            raise ValueError("idle_latency_ns must be positive")
        if self.write_stream_gbps is not None and self.write_stream_gbps <= 0:
            raise ValueError("write_stream_gbps must be positive when set")

    @property
    def is_asymmetric(self) -> bool:
        return self.write_stream_gbps is not None

    def blended_stream_gbps(self, read_fraction: float) -> float:
        """Capacity for a given read/write mix (harmonic blend).

        Symmetric controllers ignore the mix.  For asymmetric media the
        sustainable mixed-stream rate follows from time-sharing the read
        and write pipelines: ``1 / (rf/read_bw + (1-rf)/write_bw)``.
        """
        if not self.is_asymmetric:
            return self.effective_stream_gbps
        if not 0.0 <= read_fraction <= 1.0:
            raise ValueError(f"read_fraction must be in [0,1], got {read_fraction}")
        r = self.effective_stream_gbps
        w = self.write_stream_gbps
        denom = read_fraction / r + (1.0 - read_fraction) / w
        return 1.0 / denom if denom > 0 else r

    @property
    def capacity_bytes(self) -> int:
        return sum(d.capacity_bytes for d in self.dimms)


@dataclass(frozen=True)
class Socket:
    """A CPU socket: cores, cache hierarchy and its memory controller."""

    socket_id: int
    model: str
    cores: tuple[Core, ...]
    caches: CacheHierarchy
    controller: MemoryController

    def __post_init__(self) -> None:
        if not self.cores:
            raise TopologyError(f"socket {self.socket_id} has no cores")
        for core in self.cores:
            if core.socket_id != self.socket_id:
                raise TopologyError(
                    f"core {core.core_id} claims socket {core.socket_id}, "
                    f"but lives in socket {self.socket_id}"
                )

    @property
    def n_cores(self) -> int:
        return len(self.cores)


@dataclass(frozen=True)
class NumaNode:
    """A NUMA node as the OS would expose it.

    For DRAM/PMEM nodes ``home_socket`` is the socket whose controller backs
    the node.  CXL nodes are CPU-less far nodes: ``home_socket`` names the
    socket whose root port the expander hangs off (traffic from the other
    socket additionally crosses UPI, exactly as in the paper's Figure 9
    data-flow diagrams).

    ``extra_resources`` lists bandwidth resources beyond the backing
    controller that all traffic to this node crosses (the CXL link, the
    FPGA transaction layer); ``extra_latency_ns`` is their summed latency.
    """

    node_id: int
    kind: NodeKind
    home_socket: int
    controller: MemoryController
    persistent: bool = False
    extra_resources: tuple[str, ...] = ()
    extra_latency_ns: float = 0.0
    label: str = ""

    @property
    def capacity_bytes(self) -> int:
        return self.controller.capacity_bytes

    @property
    def idle_latency_ns(self) -> float:
        """Idle load-to-use latency from the home socket."""
        return self.controller.idle_latency_ns + self.extra_latency_ns


@dataclass(frozen=True)
class AccessPath:
    """Resolved route from an initiating socket to a NUMA node.

    Attributes:
        src_socket: where the thread runs.
        node_id: target NUMA node.
        resources: names of shared bandwidth resources crossed, in order.
        latency_ns: composed idle round-trip latency.
        crosses_upi: True when the route uses a socket-to-socket link.
        crosses_cxl: True when the route ends in a CXL expander.
    """

    src_socket: int
    node_id: int
    resources: tuple[str, ...]
    latency_ns: float
    crosses_upi: bool
    crosses_cxl: bool

    def describe(self) -> str:
        """Human-readable arrow form, mirroring the paper's Figure 9."""
        hops = " -> ".join(self.resources)
        return f"socket{self.src_socket} -> {hops} (≈{self.latency_ns:.0f} ns)"


class Machine:
    """A complete testbed: sockets + NUMA nodes + interconnect.

    Resources (for the bandwidth solver) are registered under stable string
    names:

    * ``"s{K}.mc"`` — socket K's memory controller,
    * ``"upi.{A}->{B}"`` — the UPI direction A→B,
    * any ``NumaNode.extra_resources`` entries (e.g. ``"cxl0.link"``,
      ``"cxl0.mc"``) registered via :meth:`add_resource`.
    """

    def __init__(self, name: str, sockets: Iterable[Socket],
                 upi_links: Iterable[UpiLink] = ()) -> None:
        self.name = name
        self._sockets: dict[int, Socket] = {}
        for s in sockets:
            if s.socket_id in self._sockets:
                raise TopologyError(f"duplicate socket id {s.socket_id}")
            self._sockets[s.socket_id] = s
        if not self._sockets:
            raise TopologyError("a machine needs at least one socket")

        self._nodes: dict[int, NumaNode] = {}
        self._upi: dict[tuple[int, int], UpiLink] = {}
        self._resources: dict[str, float] = {}
        self._asymmetric: dict[str, MemoryController] = {}
        #: free-form annotations (presets stash the calibration profile here)
        self.metadata: dict[str, object] = {}
        #: memoized :meth:`route` results; bounded by sockets × nodes
        self._route_cache: dict[tuple[int, int], AccessPath] = {}
        #: bumped on every topology mutation so plan/route caches keyed on
        #: this machine can detect staleness
        self._topology_version = 0

        for sid, sock in self._sockets.items():
            self._resources[f"s{sid}.mc"] = sock.controller.effective_stream_gbps

        for link in upi_links:
            self._register_upi(link)
            self._register_upi(link.reversed())

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def _invalidate_caches(self) -> None:
        """Topology changed: drop memoized routes, bump the version."""
        self._route_cache.clear()
        self._topology_version += 1

    @property
    def topology_version(self) -> int:
        """Monotonic counter of topology mutations (cache-key component)."""
        return self._topology_version

    def _register_upi(self, link: UpiLink) -> None:
        key = (link.src, link.dst)
        if link.src not in self._sockets or link.dst not in self._sockets:
            raise TopologyError(f"UPI link {key} references unknown socket")
        if key in self._upi:
            raise TopologyError(f"duplicate UPI link {key}")
        self._upi[key] = link
        self._resources[link.name] = link.effective_stream_gbps
        self._invalidate_caches()

    def add_resource(self, name: str, capacity_gbps: float) -> None:
        """Register an extra shared bandwidth resource (CXL link, device MC)."""
        if capacity_gbps <= 0:
            raise TopologyError(f"resource {name!r} needs positive capacity")
        if name in self._resources:
            raise TopologyError(f"duplicate resource {name!r}")
        self._resources[name] = capacity_gbps
        self._invalidate_caches()

    def add_asymmetric_resource(self, name: str,
                                controller: MemoryController) -> None:
        """Register a resource whose capacity depends on the read/write
        mix (Optane-style media).  The nominal capacity is the read rate;
        the simulator re-blends it per kernel."""
        if not controller.is_asymmetric:
            raise TopologyError(
                f"controller {controller.name} is symmetric; use add_resource"
            )
        self.add_resource(name, controller.effective_stream_gbps)
        self._asymmetric[name] = controller

    @property
    def asymmetric_resources(self) -> Mapping[str, MemoryController]:
        """Resources whose capacity must be blended per access mix."""
        return dict(self._asymmetric)

    def add_node(self, node: NumaNode) -> None:
        """Attach a NUMA node. Its ``extra_resources`` must be registered first."""
        if node.node_id in self._nodes:
            raise TopologyError(f"duplicate NUMA node id {node.node_id}")
        if node.home_socket not in self._sockets:
            raise TopologyError(
                f"node {node.node_id} homed on unknown socket {node.home_socket}"
            )
        for res in node.extra_resources:
            if res not in self._resources:
                raise TopologyError(
                    f"node {node.node_id} references unregistered resource {res!r}"
                )
        if node.kind is NodeKind.DRAM:
            # DRAM nodes share the socket controller resource by construction.
            expected = self._sockets[node.home_socket].controller
            if node.controller is not expected:
                raise TopologyError(
                    f"DRAM node {node.node_id} must use socket "
                    f"{node.home_socket}'s controller"
                )
        self._nodes[node.node_id] = node
        self._invalidate_caches()

    def add_dram_nodes(self) -> None:
        """Create one DRAM NUMA node per socket (ids follow socket ids)."""
        for sid, sock in sorted(self._sockets.items()):
            self.add_node(NumaNode(
                node_id=sid,
                kind=NodeKind.DRAM,
                home_socket=sid,
                controller=sock.controller,
                label=f"node{sid}:{sock.controller.dimms[0].grade.name}",
            ))

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------

    @property
    def sockets(self) -> Mapping[int, Socket]:
        return dict(self._sockets)

    @property
    def nodes(self) -> Mapping[int, NumaNode]:
        return dict(self._nodes)

    @property
    def resources(self) -> Mapping[str, float]:
        """Resource name → streaming-effective capacity in GB/s."""
        return dict(self._resources)

    def socket(self, socket_id: int) -> Socket:
        try:
            return self._sockets[socket_id]
        except KeyError:
            raise TopologyError(f"no socket {socket_id} in {self.name}") from None

    def node(self, node_id: int) -> NumaNode:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise TopologyError(f"no NUMA node {node_id} in {self.name}") from None

    def upi(self, src: int, dst: int) -> UpiLink:
        try:
            return self._upi[(src, dst)]
        except KeyError:
            raise TopologyError(f"no UPI link {src}->{dst} in {self.name}") from None

    def core(self, core_id: int) -> Core:
        for sock in self._sockets.values():
            for c in sock.cores:
                if c.core_id == core_id:
                    return c
        raise TopologyError(f"no core {core_id} in {self.name}")

    @property
    def n_cores(self) -> int:
        return sum(s.n_cores for s in self._sockets.values())

    def cxl_nodes(self) -> list[NumaNode]:
        return [n for n in self._nodes.values() if n.kind is NodeKind.CXL]

    def persistent_nodes(self) -> list[NumaNode]:
        return [n for n in self._nodes.values() if n.persistent]

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------

    def route(self, src_socket: int, node_id: int) -> AccessPath:
        """Resolve the access path from ``src_socket`` to NUMA ``node_id``.

        Routes mirror the paper's Figure 9 data flows:

        * local DRAM:   core → socket MC;
        * remote DRAM:  core → UPI → remote socket MC;
        * CXL (home):   core → CXL link → device MC;
        * CXL (other):  core → UPI → home socket → CXL link → device MC.

        Results are memoized per (src_socket, node_id); the cache is
        invalidated whenever the topology mutates.
        """
        cached = self._route_cache.get((src_socket, node_id))
        if cached is not None:
            return cached
        sock = self.socket(src_socket)
        node = self.node(node_id)

        resources: list[str] = []
        latency = 0.0
        crosses_upi = False

        if src_socket != node.home_socket:
            link = self.upi(src_socket, node.home_socket)
            resources.append(link.name)
            latency += link.hop_latency_ns
            crosses_upi = True

        if node.extra_resources:
            # CXL expanders and DIMM-attached PMem carry their own
            # bandwidth-limiting resources instead of the socket iMC
            resources.extend(node.extra_resources)
        else:
            resources.append(f"s{node.home_socket}.mc")

        latency += node.idle_latency_ns
        latency -= sock.caches.latency_shave_ns()
        latency = max(latency, 10.0)

        path = AccessPath(
            src_socket=src_socket,
            node_id=node_id,
            resources=tuple(resources),
            latency_ns=latency,
            crosses_upi=crosses_upi,
            crosses_cxl=node.kind is NodeKind.CXL,
        )
        self._route_cache[(src_socket, node_id)] = path
        return path

    def fingerprint(self) -> dict[str, object]:
        """Content fingerprint of everything that feeds the bandwidth model.

        Used as a component of on-disk sweep-cache keys: two machines with
        equal fingerprints produce identical simulation results, so any
        change to capacities, latencies, node wiring, core parameters or
        the calibration profile invalidates cached sweeps.
        """
        cal = self.metadata.get("calibration")
        cal_fp: object = None
        if cal is not None:
            cal_fp = {
                k: (dict(v) if isinstance(v, Mapping) else v)
                for k, v in vars(cal).items()
            }
        return {
            "name": self.name,
            "resources": dict(sorted(self._resources.items())),
            "asymmetric": {
                name: (mc.effective_stream_gbps, mc.write_stream_gbps)
                for name, mc in sorted(self._asymmetric.items())
            },
            "sockets": {
                sid: {
                    "cores": [(c.core_id, c.freq_ghz, c.lfb_entries, c.smt)
                              for c in sorted(s.cores,
                                              key=lambda c: c.core_id)],
                    "llc_bytes": s.caches.llc.size_bytes,
                    "llc_latency_ns": s.caches.llc.latency_ns,
                    "llc_bw_gbps": s.caches.llc.bandwidth_gbps,
                    "mc_gbps": s.controller.effective_stream_gbps,
                    "mc_latency_ns": s.controller.idle_latency_ns,
                }
                for sid, s in sorted(self._sockets.items())
            },
            "nodes": {
                nid: {
                    "kind": n.kind.value,
                    "home_socket": n.home_socket,
                    "persistent": n.persistent,
                    "extra_resources": list(n.extra_resources),
                    "idle_latency_ns": n.idle_latency_ns,
                    "capacity_bytes": n.capacity_bytes,
                }
                for nid, n in sorted(self._nodes.items())
            },
            "upi": {
                f"{a}->{b}": (l.effective_stream_gbps, l.hop_latency_ns)
                for (a, b), l in sorted(self._upi.items())
            },
            "calibration": cal_fp,
        }

    def distance_matrix(self) -> dict[tuple[int, int], float]:
        """ACPI-SLIT-style relative latency matrix (socket → node)."""
        out: dict[tuple[int, int], float] = {}
        base = min(
            self.route(sid, nid).latency_ns
            for sid in self._sockets
            for nid in self._nodes
        )
        for sid in self._sockets:
            for nid in self._nodes:
                out[(sid, nid)] = round(
                    10.0 * self.route(sid, nid).latency_ns / base, 1
                )
        return out

    def describe(self) -> str:
        """Multi-line summary of the machine (sockets, nodes, resources)."""
        lines = [f"Machine: {self.name}"]
        for sid in sorted(self._sockets):
            s = self._sockets[sid]
            lines.append(
                f"  socket{sid}: {s.model}, {s.n_cores} cores @ "
                f"{s.cores[0].freq_ghz} GHz, LLC "
                f"{s.caches.llc.size_bytes / 1e6:.0f} MB"
            )
        for nid in sorted(self._nodes):
            n = self._nodes[nid]
            pers = " persistent" if n.persistent else ""
            lines.append(
                f"  node{nid}: {n.kind.value}{pers} "
                f"({n.controller.name}, {n.capacity_bytes / 1e9:.0f} GB, "
                f"{n.controller.effective_stream_gbps:.1f} GB/s effective)"
            )
        for name, cap in sorted(self._resources.items()):
            lines.append(f"  resource {name}: {cap:.1f} GB/s")
        return "\n".join(lines)
