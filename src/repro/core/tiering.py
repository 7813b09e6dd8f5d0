"""Memory Mode: DRAM as a cache in front of CXL far memory.

Optane's *Memory Mode* made the DIMM capacity transparent by using DRAM
as a direct cache in front of it; the CXL analogue (DRAM caching a far
CXL node) is the natural way to consume a big expander without NUMA-aware
code.  The paper's Table 1 characterizes this mode (volatile, coherent
expansion, several factors below DRAM bandwidth); this module makes the
mode executable:

* :class:`PageCache` — an LRU page cache with hit/miss accounting,
  one access at a time (also the oracle of the runtime tiering
  engine's stamp-based LRU, :class:`repro.tiering.policy.LruCache`);
* :class:`MemoryModeTier` — drives the cache with an access trace and
  converts the observed hit rate into the *effective* NUMA policy and
  latency that the bandwidth simulator understands;
* trace generators for the canonical behaviours (streaming = no reuse,
  Zipf = hot working set).

The translation to the simulator is deliberately simple: a hit rate ``h``
splits steady-state traffic ``h : (1-h)`` between the near and far nodes
(cache fills are part of the far share), i.e. a weighted-interleave
policy — which is how Memory-Mode bandwidth actually composes once the
cache is warm.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from repro.errors import SimulationError
from repro.machine.numa import NumaPolicy
from repro.machine.topology import Machine


class PageCache:
    """An LRU page cache (the DRAM 'near memory' directory), one
    access at a time in an ``OrderedDict``."""

    def __init__(self, capacity_pages: int) -> None:
        if capacity_pages < 1:
            raise SimulationError("cache needs at least one page")
        self.capacity_pages = capacity_pages
        self._lru: OrderedDict[int, None] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def access(self, page: int) -> bool:
        """Touch a page; returns True on hit."""
        if page in self._lru:
            self._lru.move_to_end(page)
            self.hits += 1
            return True
        self.misses += 1
        self._lru[page] = None
        if len(self._lru) > self.capacity_pages:
            self._lru.popitem(last=False)
            self.evictions += 1
        return False

    def pages(self) -> list[int]:
        """Resident page ids, LRU-oldest first."""
        return list(self._lru)

    @property
    def resident_pages(self) -> int:
        return len(self._lru)

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


# ---------------------------------------------------------------------------
# trace generators
# ---------------------------------------------------------------------------

def sequential_trace(n_pages: int, length: int) -> Iterator[int]:
    """Pure streaming: every access walks forward (worst case for a cache
    smaller than the footprint — STREAM's behaviour)."""
    for i in range(length):
        yield i % n_pages


def zipf_trace(n_pages: int, length: int, alpha: float = 1.2,
               seed: int = 0) -> Iterator[int]:
    """Skewed reuse: a hot subset dominates (typical in-memory workloads)."""
    if alpha <= 1.0:
        raise SimulationError("zipf alpha must be > 1")
    rng = np.random.default_rng(seed)
    raw = rng.zipf(alpha, size=length)
    for v in raw:
        yield int(v - 1) % n_pages


def strided_trace(n_pages: int, length: int, stride: int) -> Iterator[int]:
    """Fixed-stride walker (stencil-like reuse pattern)."""
    if stride < 1:
        raise SimulationError("stride must be >= 1")
    page = 0
    for _ in range(length):
        yield page
        page = (page + stride) % n_pages


# ---------------------------------------------------------------------------
# the tier
# ---------------------------------------------------------------------------

@dataclass
class TierProfile:
    """Outcome of running a trace through the tier."""

    hit_rate: float
    accesses: int
    evictions: int
    near_node: int
    far_node: int

    def describe(self) -> str:
        return (f"memory-mode tier: {self.hit_rate:.1%} DRAM hit rate over "
                f"{self.accesses} accesses ({self.evictions} evictions)")


def near_far_policy(near_node: int, far_node: int,
                    near_fraction: float) -> NumaPolicy:
    """A near/far traffic split as a NUMA policy.

    ``near_fraction`` of the accesses go to ``near_node`` and the rest
    to ``far_node``: a weighted interleave that degenerates to
    BIND(near) at 1 and BIND(far) at 0.  Memory Mode's hit rate and a
    tiering policy's near-access fraction both map through here.
    """
    if near_fraction >= 1.0:
        return NumaPolicy.bind(near_node)
    if near_fraction <= 0.0:
        return NumaPolicy.bind(far_node)
    return NumaPolicy.weighted({near_node: near_fraction,
                                far_node: 1.0 - near_fraction})


class MemoryModeTier:
    """DRAM (near) caching a CXL node (far), at page granularity."""

    def __init__(self, machine: Machine, near_node: int, far_node: int,
                 near_capacity_bytes: int, page_bytes: int = 4096) -> None:
        if page_bytes < 64 or page_bytes & (page_bytes - 1):
            raise SimulationError("page size must be a power of two >= 64")
        machine.node(near_node)
        machine.node(far_node)
        if near_node == far_node:
            raise SimulationError("near and far node must differ")
        self.machine = machine
        self.near_node = near_node
        self.far_node = far_node
        self.page_bytes = page_bytes
        self.cache = PageCache(max(1, near_capacity_bytes // page_bytes))

    def run_trace(self, trace: Iterable[int]) -> TierProfile:
        """Feed page accesses through the cache, one at a time."""
        for page in trace:
            self.cache.access(page)
        return self.profile()

    def profile(self) -> TierProfile:
        return TierProfile(
            hit_rate=self.cache.hit_rate,
            accesses=self.cache.accesses,
            evictions=self.cache.evictions,
            near_node=self.near_node,
            far_node=self.far_node,
        )

    # -- translation into the bandwidth/latency model -----------------------

    def effective_policy(self) -> NumaPolicy:
        """The steady-state traffic split (see :func:`near_far_policy`)."""
        return near_far_policy(self.near_node, self.far_node,
                               self.cache.hit_rate)

    def effective_latency_ns(self, src_socket: int) -> float:
        """Average access latency seen by a thread on ``src_socket``."""
        h = self.cache.hit_rate
        near = self.machine.route(src_socket, self.near_node).latency_ns
        far = self.machine.route(src_socket, self.far_node).latency_ns
        return h * near + (1.0 - h) * far
