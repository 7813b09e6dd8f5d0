"""Unit helpers used across the machine, CXL and bandwidth models.

Conventions (identical to the paper and to STREAM):

* bandwidth is expressed in **GB/s** using decimal giga (1e9 bytes/second),
  matching STREAM's ``1.0E-09 * bytes / seconds`` reporting;
* capacities are expressed in **bytes** (helpers for KiB/MiB/GiB are binary);
* latencies are expressed in **nanoseconds**;
* transfer rates of serial links are expressed in **GT/s** (giga-transfers
  per second).

Keeping the conversions in one place avoids the classic GiB-vs-GB drift that
makes bandwidth models silently disagree with benchmark output.
"""

from __future__ import annotations

# ---------------------------------------------------------------------------
# byte sizes
# ---------------------------------------------------------------------------

KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB

KB = 1000
MB = 1000 * KB
GB = 1000 * MB

#: Size of one CPU cache line / one CXL.mem data payload, in bytes.
CACHELINE = 64


def kib(n: float) -> int:
    """``n`` KiB expressed in bytes."""
    return int(n * KIB)


def mib(n: float) -> int:
    """``n`` MiB expressed in bytes."""
    return int(n * MIB)


def gib(n: float) -> int:
    """``n`` GiB expressed in bytes."""
    return int(n * GIB)


def parse_size(text: str) -> int:
    """Bytes in ``text``, an integer with an optional binary ``k``, ``m``
    or ``g`` suffix in either case (``512k``, ``16M``).

    Raises:
        ValueError: ``text`` is not such a size.
    """
    body = text.strip().lower()
    mult = 1
    for suffix, m in (("k", KIB), ("m", MIB), ("g", GIB)):
        if body.endswith(suffix):
            body, mult = body[:-1], m
            break
    try:
        return int(body) * mult
    except ValueError:
        raise ValueError(f"cannot parse size {text!r}: expected an integer "
                         "with an optional k, m or g suffix") from None


# ---------------------------------------------------------------------------
# bandwidth
# ---------------------------------------------------------------------------

def gbps(bytes_per_second: float) -> float:
    """Convert bytes/second into the STREAM-style GB/s (decimal)."""
    return bytes_per_second / 1e9


def bytes_per_second(gb_per_s: float) -> float:
    """Convert GB/s (decimal) into bytes/second."""
    return gb_per_s * 1e9


def mts_to_gbps(megatransfers: float, bus_bytes: int = 8) -> float:
    """Peak bandwidth of a DDR channel.

    ``megatransfers`` is the DDR speed grade (e.g. 3200 for DDR4-3200) and
    ``bus_bytes`` the channel width (8 bytes for a standard 64-bit channel).

    >>> round(mts_to_gbps(3200), 1)
    25.6
    """
    return megatransfers * 1e6 * bus_bytes / 1e9


def pcie_lane_gbps(gt_per_s: float, encoding_efficiency: float) -> float:
    """Raw per-lane bandwidth of a PCIe PHY in GB/s.

    ``gt_per_s`` is the transfer rate (32 for Gen5, 64 for Gen6) and
    ``encoding_efficiency`` accounts for line coding (128b/130b for Gen4/5,
    PAM4+FLIT for Gen6 ~ 0.985 after FEC).
    """
    return gt_per_s * encoding_efficiency / 8.0


# ---------------------------------------------------------------------------
# time
# ---------------------------------------------------------------------------

NS_PER_S = 1e9


def seconds(ns: float) -> float:
    """Nanoseconds → seconds."""
    return ns / NS_PER_S


def nanoseconds(s: float) -> float:
    """Seconds → nanoseconds."""
    return s * NS_PER_S


def bw_from_concurrency(outstanding: float, latency_ns: float,
                        request_bytes: int = CACHELINE) -> float:
    """Little's-law bandwidth bound, in GB/s.

    A core that can keep ``outstanding`` memory requests in flight against a
    memory with round-trip ``latency_ns`` cannot exceed
    ``outstanding * request_bytes / latency`` of throughput, no matter how
    fast the memory device is.  This is the mechanism that makes a single
    STREAM thread unable to saturate a DIMM, and makes high-latency (CXL)
    memory need more threads to reach the same saturation.

    >>> round(bw_from_concurrency(10, 100.0), 2)   # 10 LFBs, 100 ns
    6.4
    """
    if latency_ns <= 0:
        raise ValueError(f"latency must be positive, got {latency_ns}")
    return outstanding * request_bytes / latency_ns  # bytes/ns == GB/s


def fmt_gbps(value: float) -> str:
    """Human-readable bandwidth (aligned, two decimals)."""
    return f"{value:8.2f} GB/s"


def fmt_bytes(n: int) -> str:
    """Human-readable byte size using binary units."""
    if n >= GIB:
        return f"{n / GIB:.1f} GiB"
    if n >= MIB:
        return f"{n / MIB:.1f} MiB"
    if n >= KIB:
        return f"{n / KIB:.1f} KiB"
    return f"{n} B"
