"""Socket-to-socket interconnect (Intel UPI) model.

Cross-socket STREAM traffic in the paper — "remote memory accessed through
the UPI" — is bottlenecked by the UPI links between the two sockets, and on
the older Xeon Gold 5215 additionally by the home agent servicing remote
streams.  We model a UPI connection as a single aggregate resource with a
streaming-effective capacity plus a per-hop latency adder.
"""

from __future__ import annotations

from dataclasses import dataclass, field


def upi_raw_bandwidth(gt_per_s: float, links: int, bytes_per_transfer: float = 2.0) -> float:
    """Raw unidirectional UPI bandwidth in GB/s.

    Each UPI link moves ``bytes_per_transfer`` bytes per transfer per
    direction (20-lane links carrying 16 data bits plus overhead ≈ 2 B).

    >>> upi_raw_bandwidth(10.4, links=2)   # Xeon Gold 5215
    41.6
    >>> upi_raw_bandwidth(16.0, links=3)   # Sapphire Rapids
    96.0
    """
    if gt_per_s <= 0 or links < 1:
        raise ValueError("UPI rate must be positive and links >= 1")
    return gt_per_s * bytes_per_transfer * links


@dataclass(frozen=True)
class UpiLink:
    """An aggregate UPI connection between two sockets.

    Attributes:
        src: initiating socket id.
        dst: target socket id.
        gt_per_s: transfer rate per link (10.4 GT/s on Gold, 16 on SPR).
        links: number of physical UPI links aggregated.
        effective_stream_gbps: streaming-effective capacity for one-way
            memory traffic.  This is far below the raw link rate because
            remote stream bandwidth is limited by the home-agent / snoop
            pipeline, not the wire; the value is calibrated against measured
            cross-socket STREAM numbers (see
            :mod:`repro.calibration`).
        hop_latency_ns: latency added by crossing this connection.
    """

    src: int
    dst: int
    gt_per_s: float
    links: int
    effective_stream_gbps: float
    hop_latency_ns: float
    name: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise ValueError("a UPI link must connect two distinct sockets")
        if self.effective_stream_gbps <= 0:
            raise ValueError("effective_stream_gbps must be positive")
        if self.hop_latency_ns < 0:
            raise ValueError("hop_latency_ns must be non-negative")
        if self.effective_stream_gbps > self.raw_gbps:
            raise ValueError(
                "effective stream bandwidth cannot exceed the raw link rate "
                f"({self.effective_stream_gbps} > {self.raw_gbps})"
            )
        if not self.name:
            object.__setattr__(self, "name", f"upi.{self.src}->{self.dst}")

    @property
    def raw_gbps(self) -> float:
        """Raw unidirectional bandwidth of the aggregated links."""
        return upi_raw_bandwidth(self.gt_per_s, self.links)

    def reversed(self) -> "UpiLink":
        """The same connection seen from the other socket."""
        return UpiLink(
            src=self.dst,
            dst=self.src,
            gt_per_s=self.gt_per_s,
            links=self.links,
            effective_stream_gbps=self.effective_stream_gbps,
            hop_latency_ns=self.hop_latency_ns,
        )
