"""CXL link layer: PHY rates and effective data bandwidth.

The prototype card connects over PCIe Gen5 x16 — "a theoretical bandwidth
of up to 64 GB/s" in each direction (paper Section 2.2).  The link is never
the prototype's bottleneck (the FPGA memory controller is), which the model
makes explicit: ``CxlLink.effective_data_gbps`` stays well above the
device's media bandwidth for the paper's configuration, and the ablation
bench flips that relationship for hypothetical faster devices.  So the
link models no credit flow control: the backpressure a slow device puts on
the host is the outstanding-request bound of :mod:`repro.memsim`
(Little's-law per-thread caps and the DES's closed-loop MLP).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import units
from repro.cxl.flit import stream_efficiency
from repro.cxl.spec import CxlVersion
from repro.errors import CxlLinkError


@dataclass(frozen=True)
class CxlLink:
    """A CXL link: version (PHY binding) + lane count + latency.

    ``latency_ns`` is the one-way adder contributed by the link and the
    endpoint's transaction layers; for the FPGA prototype this dominates
    the far-memory latency (soft-IP transaction layer + R-Tile + PCIe
    round trip).
    """

    version: CxlVersion
    lanes: int
    latency_ns: float
    name: str = "cxl.link"

    def __post_init__(self) -> None:
        if self.lanes not in (1, 2, 4, 8, 16):
            raise CxlLinkError(f"invalid lane count {self.lanes}")
        if self.latency_ns < 0:
            raise CxlLinkError("link latency must be non-negative")

    @property
    def raw_gbps(self) -> float:
        """Raw unidirectional PHY bandwidth in GB/s.

        >>> CxlLink(CxlVersion.CXL_2_0, 16, 100.0).raw_gbps  # doctest: +ELLIPSIS
        63.0...
        """
        per_lane = units.pcie_lane_gbps(
            self.version.gt_per_s, self.version.encoding_efficiency
        )
        return per_lane * self.lanes

    def effective_data_gbps(self, read_fraction: float = 0.5) -> float:
        """Cacheline-payload bandwidth after flit framing overheads."""
        return self.raw_gbps * stream_efficiency(read_fraction)
