"""The STREAM kernels, stated once for every layer, and their traffic.

STREAM reports bandwidth from the bytes its kernels *logically* touch:
Copy/Scale count two arrays per element, Add/Triad three.  The memory
system moves more: a cacheable store first reads the target line into the
cache (write-allocate / read-for-ownership), so Copy actually moves three
lines per two counted, Add/Triad four per three.  Non-temporal stores
eliminate the extra read.

The simulator allocates *actual* bus traffic, then converts to the
STREAM-reported figure via :func:`reported_fraction` — exactly the
relationship between "measured with counters" and "reported by STREAM" on
real hardware.
"""

from __future__ import annotations

from dataclasses import dataclass

#: element size used throughout the paper (STREAM_TYPE double)
ELEMENT_BYTES = 8


@dataclass(frozen=True)
class KernelTraffic:
    """Per-element byte accounting of one STREAM kernel."""

    name: str
    reads: int         # arrays read per element
    writes: int        # arrays written per element
    flops: int         # floating-point ops per element
    written: str       # the array (a, b or c) the kernel stores to

    @property
    def counted_bytes(self) -> int:
        """Bytes per element STREAM uses in its bandwidth formula."""
        return (self.reads + self.writes) * ELEMENT_BYTES

    def actual_bytes(self, nt_stores: bool = False) -> int:
        """Bytes per element that actually cross the memory interface.

        Each cacheable store adds one write-allocate read of the target
        line; ``nt_stores`` removes it.
        """
        wa = 0 if nt_stores else self.writes
        return (self.reads + self.writes + wa) * ELEMENT_BYTES

    def read_fraction(self, nt_stores: bool = False) -> float:
        """Fraction of actual traffic that is reads (drives flit packing)."""
        wa = 0 if nt_stores else self.writes
        return (self.reads + wa) / (self.reads + self.writes + wa)


KERNEL_TRAFFIC: dict[str, KernelTraffic] = {k.name: k for k in (
    KernelTraffic("copy", reads=1, writes=1, flops=0, written="c"),
    KernelTraffic("scale", reads=1, writes=1, flops=1, written="b"),
    KernelTraffic("add", reads=2, writes=1, flops=1, written="c"),
    KernelTraffic("triad", reads=2, writes=1, flops=2, written="a"),
)}

#: Kernel execution order in STREAM's timing loop: the table's key order.
KERNEL_ORDER = tuple(KERNEL_TRAFFIC)


def kernel(name: str) -> KernelTraffic:
    """Lookup with a helpful error for typos."""
    try:
        return KERNEL_TRAFFIC[name.lower()]
    except KeyError:
        raise KeyError(
            f"unknown STREAM kernel {name!r}; expected one of {KERNEL_ORDER}"
        ) from None


def reported_fraction(name: str, nt_stores: bool = False) -> float:
    """STREAM-reported bytes per actual bus byte for ``name``.

    >>> reported_fraction("copy")
    0.6666666666666666
    >>> reported_fraction("triad")
    0.75
    >>> reported_fraction("triad", nt_stores=True)
    1.0
    """
    k = kernel(name)
    return k.counted_bytes / k.actual_bytes(nt_stores)
