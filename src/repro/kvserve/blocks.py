"""KV-cache blocks over the battery-backed CXL pool.

The persistence pitch of the paper, applied to the killer workload: an
LLM decode worker's KV-cache blocks are offloaded to pooled CXL memory,
where they outlive the worker that produced them.  Three pieces:

* :class:`KvPool` — fixed-slot block storage carved from the multi-host
  pooling fabric (one :class:`~repro.fabric.manager.PoolSlice` per
  host).  Every payload byte moves through the owning host's real
  CXL.mem port, so wire accounting, RAS retries and injected faults all
  apply; transfer time is modelled from the link parameters (near reads
  from a worker's own host, far reads across the fabric).
* :class:`KvBlock` / :class:`BlockState` — the four-state lifecycle from
  the CXL memory-aware MoE fault-tolerance design::

      local -> in_transit -> pooled -> evicted

  ``local`` blocks live only in their producer worker's memory (they
  die with it); ``in_transit`` blocks are mid-offload; ``pooled``
  blocks are in CXL memory and hold **no** local payload copy — every
  later read genuinely comes back over the fabric; ``evicted`` blocks
  retain metadata (chain key, content digest) so recovery can prove a
  recomputed payload is the original.
* :class:`KvBlockStore` — the conservation-audited state machine over
  all blocks, with prefix sharing (blocks are keyed by a chained prefix
  hash, so identical prompt prefixes map to one pooled block with a
  refcount) and heat tracking (pool slots are
  :class:`~repro.tiering.heat.HeatTracker` pages; eviction takes the
  coldest unreferenced slot, and an injected
  :class:`~repro.errors.MigrationAbortError` mid-eviction must leave
  the block fully pooled).

:meth:`KvBlockStore.check_conservation` is the audit: every block in
exactly one state, payload residency matching that state, pool slot
occupancy matching the pooled set, and lifecycle counters balancing.
Chaos tests call it after every drill.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from enum import Enum

from repro import faults, obs
from repro.errors import HostDetachedError, KvCacheError, MigrationAbortError
from repro.fabric.manager import FabricManager, PoolSlice
from repro.tiering.heat import HeatTracker

__all__ = [
    "BlockState", "BlockLocation", "KvBlock", "KvPool", "KvBlockStore",
    "block_payload",
]

_log = obs.get_logger("kvserve.blocks")


class BlockState(str, Enum):
    """Where one KV block lives in the memory hierarchy."""

    LOCAL = "local"              # producer worker's memory only
    IN_TRANSIT = "in_transit"    # being offloaded to the CXL pool
    POOLED = "pooled"            # in CXL memory, worker-independent
    EVICTED = "evicted"          # removed from pool, metadata retained


def block_payload(key: str, size: int) -> bytes:
    """The deterministic KV bytes for chain key ``key``.

    A real decode is a deterministic function of the tokens it has
    seen; this models that by expanding the block's chained prefix hash
    into ``size`` bytes of SHAKE-256 output, so a shorter payload of
    one key is a prefix of a longer one.  Any worker recomputing a
    block therefore produces bit-identical bytes — which is what lets
    the recovery drills demand sha256 equality between a pool-recovered
    run and an uninterrupted one.
    """
    return hashlib.shake_256(bytes.fromhex(key)).digest(size)


@dataclass(frozen=True)
class BlockLocation:
    """One pool slot: which host's slice, which slot, at what offset."""

    host: int
    slot: int           # slot index within the host's slice
    page: int           # global heat-tracker page id for this slot


@dataclass
class KvBlock:
    """One KV-cache block (``block_tokens`` tokens of KV state).

    ``key`` is the chained prefix hash identifying the block's content
    (two sequences sharing a prompt prefix produce the same keys for
    the shared full blocks).  ``holders`` is the refcount: the sequence
    ids currently mapping this block.  ``payload`` is populated only in
    the LOCAL / IN_TRANSIT states; a POOLED block's bytes live in CXL
    memory alone.
    """

    key: str
    size: int
    tokens: int
    state: BlockState
    producer: int                       # worker id that computed it
    digest: str                         # sha256 of the payload
    payload: bytes | None = None
    loc: BlockLocation | None = None
    holders: frozenset = frozenset()

    @property
    def refcount(self) -> int:
        return len(self.holders)


class KvPool:
    """Fixed-slot KV-block storage over per-host fabric slices.

    Args:
        manager: the pooling fabric (slices are allocated through its
            real carve→bind→decode control plane).
        block_bytes: payload size of every slot.
        slots_per_host: slot capacity of each host's slice.
        near_latency_ns / far_factor / pool_gbps: the modelled transfer
            cost — ``latency + bytes / bandwidth``, scaled by
            ``far_factor`` when the reading worker sits on a different
            host than the slot.
    """

    def __init__(self, manager: FabricManager, block_bytes: int,
                 slots_per_host: int, *, near_latency_ns: float = 400.0,
                 far_factor: float = 2.0, pool_gbps: float = 16.0,
                 tenant: str = "kvcache") -> None:
        if block_bytes < 1:
            raise KvCacheError("block_bytes must be >= 1")
        if slots_per_host < 1:
            raise KvCacheError("slots_per_host must be >= 1")
        self.manager = manager
        self.block_bytes = block_bytes
        self.slots_per_host = slots_per_host
        self.near_latency_ns = near_latency_ns
        self.far_factor = far_factor
        self.pool_gbps = pool_gbps
        self._slices: dict[int, PoolSlice] = {}
        self._free: dict[int, list[int]] = {}   # host -> free slot stack
        self._dead_hosts: set[int] = set()
        for host in sorted(manager.hosts):
            sl = manager.allocate(host, slots_per_host * block_bytes,
                                  tenant=tenant)
            self._slices[host] = sl
            self._free[host] = list(range(slots_per_host - 1, -1, -1))

    @property
    def hosts(self) -> list[int]:
        """Hosts whose slices are still alive, ascending."""
        return [h for h in sorted(self._slices) if h not in self._dead_hosts]

    @property
    def total_slots(self) -> int:
        return self.slots_per_host * len(self._slices)

    def free_slots(self, host: int | None = None) -> int:
        if host is not None:
            return 0 if host in self._dead_hosts else len(self._free[host])
        return sum(len(f) for h, f in self._free.items()
                   if h not in self._dead_hosts)

    def page_of(self, host: int, slot: int) -> int:
        """The global heat-tracker page id of one slot."""
        return sorted(self._slices).index(host) * self.slots_per_host + slot

    def _transfer_ns(self, nbytes: int, near: bool) -> float:
        ns = self.near_latency_ns + nbytes / self.pool_gbps
        return ns if near else ns * self.far_factor

    def store(self, payload: bytes, prefer_host: int) -> tuple[
            BlockLocation, float]:
        """Write one block into a free slot; returns (location, ns).

        Prefers a slot on ``prefer_host`` (the producing worker's host
        writes near); falls back to the live host with the most free
        slots, ties by ascending host id.

        Raises:
            KvCacheError: every live slice is full (evict first).
        """
        if len(payload) != self.block_bytes:
            raise KvCacheError(
                f"payload is {len(payload)} bytes; slots hold "
                f"{self.block_bytes}")
        host = prefer_host
        if host in self._dead_hosts or not self._free.get(host):
            candidates = [(len(self._free[h]), -h) for h in self.hosts
                          if self._free[h]]
            if not candidates:
                raise KvCacheError(
                    f"KV pool exhausted: 0 of {self.total_slots} slots free")
            host = -max(candidates)[1]
        slot = self._free[host].pop()
        sl = self._slices[host]
        sl_offset = slot * self.block_bytes
        try:
            self.manager.write(sl, sl_offset, payload)
        except Exception:
            self._free[host].append(slot)
            raise
        obs.inc("kvserve.pool.writes")
        loc = BlockLocation(host, slot, self.page_of(host, slot))
        return loc, self._transfer_ns(len(payload), near=host == prefer_host)

    def read(self, loc: BlockLocation, via_host: int) -> tuple[bytes, float]:
        """Read one block back from the fabric; returns (payload, ns).

        Raises:
            HostDetachedError: the slot's owning host left the fabric.
        """
        if loc.host in self._dead_hosts:
            raise HostDetachedError(
                f"KV slot {loc.slot} died with host {loc.host}",
                host=loc.host)
        sl = self._slices[loc.host]
        payload = self.manager.read(sl, loc.slot * self.block_bytes,
                                    self.block_bytes)
        obs.inc("kvserve.pool.reads")
        return payload, self._transfer_ns(len(payload),
                                          near=loc.host == via_host)

    def free(self, loc: BlockLocation) -> None:
        if loc.host in self._dead_hosts:
            return                      # the slice is already gone
        if loc.slot in self._free[loc.host]:
            raise KvCacheError(f"double free of slot {loc} ")
        self._free[loc.host].append(loc.slot)

    def mark_host_dead(self, host: int) -> None:
        """The fabric detached ``host``: its slots are gone for good."""
        if host in self._slices:
            self._dead_hosts.add(host)
            self._free[host] = []

    def used_slots(self) -> int:
        live = [h for h in self._slices if h not in self._dead_hosts]
        return (self.slots_per_host * len(live)
                - sum(len(self._free[h]) for h in live))


class KvBlockStore:
    """The conservation-audited block state machine with prefix sharing.

    One store serves every worker in a cluster: blocks are keyed by
    their chained prefix hash, so the second sequence to prefill an
    identical prompt prefix *shares* the already-pooled block (refcount
    bump, zero compute, zero pool writes) instead of recomputing it —
    the radix-tree trick from CXL-SpecKV collapsed onto a hash chain.
    """

    def __init__(self, pool: KvPool, heat_decay: float = 0.5) -> None:
        self.pool = pool
        self.blocks: dict[str, KvBlock] = {}
        self.heat = HeatTracker(pool.total_slots, decay=heat_decay)
        self.counters: dict[str, int] = {
            k: 0 for k in (
                "created", "shared_hits", "offloads", "evictions",
                "aborted_evictions", "lost_local", "lost_pooled", "freed")}

    # ------------------------------------------------------------------
    # lookup / sharing
    # ------------------------------------------------------------------

    def get(self, key: str) -> KvBlock | None:
        return self.blocks.get(key)

    def acquire(self, key: str, holder: int) -> KvBlock:
        """Map an existing block into ``holder`` (refcount bump)."""
        block = self._require(key)
        if block.state is BlockState.EVICTED:
            raise KvCacheError(
                f"cannot acquire evicted block {key[:12]}; restore it first")
        if holder not in block.holders:
            block.holders = block.holders | {holder}
            self.counters["shared_hits"] += 1
            obs.inc("kvserve.blocks.shared")
        return block

    def release(self, key: str, holder: int) -> None:
        block = self._require(key)
        block.holders = block.holders - {holder}

    def release_all(self, holder: int) -> None:
        for block in self.blocks.values():
            if holder in block.holders:
                block.holders = block.holders - {holder}

    # ------------------------------------------------------------------
    # lifecycle transitions
    # ------------------------------------------------------------------

    def add_local(self, key: str, payload: bytes, tokens: int,
                  producer: int, holder: int) -> KvBlock:
        """A worker computed a fresh block: enters the LOCAL state."""
        if key in self.blocks:
            raise KvCacheError(
                f"block {key[:12]} already exists; acquire() to share it")
        block = KvBlock(
            key=key, size=len(payload), tokens=tokens,
            state=BlockState.LOCAL, producer=producer,
            digest=hashlib.sha256(payload).hexdigest(),
            payload=payload, holders=frozenset({holder}))
        self.blocks[key] = block
        self.counters["created"] += 1
        obs.inc("kvserve.blocks.created")
        return block

    def offload(self, key: str, prefer_host: int) -> float:
        """LOCAL → IN_TRANSIT → POOLED; returns the modelled write ns.

        The payload crosses the fabric while the block is IN_TRANSIT;
        once pooled, the local copy is dropped — later reads genuinely
        come back over CXL.

        Raises:
            KvCacheError: the block is not LOCAL, or the pool is full.
        """
        block = self._require(key)
        if block.state is not BlockState.LOCAL:
            raise KvCacheError(
                f"offload of {key[:12]} from state {block.state.value!r} "
                "(must be local)")
        block.state = BlockState.IN_TRANSIT
        try:
            loc, ns = self.pool.store(block.payload, prefer_host)
        except Exception:
            block.state = BlockState.LOCAL      # offload never started
            raise
        block.loc = loc
        block.state = BlockState.POOLED
        block.payload = None
        self.counters["offloads"] += 1
        self.heat.touch(loc.page)
        obs.inc("kvserve.blocks.offloaded")
        return ns

    def read_pooled(self, key: str, via_host: int) -> tuple[bytes, float]:
        """Fetch a pooled block's bytes back over the fabric.

        Verifies the payload against the block's recorded sha256 — a
        scrubbed-poison read (zeroed lines) must surface as a typed
        integrity failure, never as silently wrong KV state.
        """
        block = self._require(key)
        if block.state is not BlockState.POOLED:
            raise KvCacheError(
                f"read_pooled of {key[:12]} in state {block.state.value!r}")
        payload, ns = self.pool.read(block.loc, via_host)
        if hashlib.sha256(payload).hexdigest() != block.digest:
            raise KvCacheError(
                f"integrity failure reading block {key[:12]} from pool "
                f"slot {block.loc}: payload digest mismatch")
        self.heat.touch(block.loc.page)
        return payload, ns

    def evict_cold(self, n: int = 1) -> list[str]:
        """Evict up to ``n`` of the coldest unreferenced pooled blocks.

        POOLED → EVICTED: the slot returns to the pool's free list and
        only metadata (key, digest) survives.  The eviction consults
        :func:`repro.faults.on_migration` (direction ``"demote"``)
        between choosing the victim and freeing its slot, so an
        injected :class:`~repro.errors.MigrationAbortError` interrupts
        a genuinely in-flight demotion — the block must stay fully
        POOLED, which :meth:`check_conservation` verifies.
        """
        by_page = {b.loc.page: b for b in self.blocks.values()
                   if b.state is BlockState.POOLED and not b.holders}
        evicted: list[str] = []
        if not by_page:
            return evicted
        for page in self.heat.hottest(self.heat.n_pages)[::-1]:
            if len(evicted) >= n:
                break
            block = by_page.get(int(page))
            if block is None:
                continue
            try:
                faults.on_migration(block.loc.page, "demote")
            except MigrationAbortError:
                self.counters["aborted_evictions"] += 1
                obs.inc("kvserve.blocks.eviction_aborted")
                raise
            self.pool.free(block.loc)
            block.loc = None
            block.state = BlockState.EVICTED
            self.counters["evictions"] += 1
            obs.inc("kvserve.blocks.evicted")
            evicted.append(block.key)
        return evicted

    def restore(self, key: str, payload: bytes, producer: int) -> KvBlock:
        """EVICTED → LOCAL: a worker recomputed an evicted block.

        The recomputed payload must match the retained digest — the
        metadata kept across eviction exists precisely to prove this.
        """
        block = self._require(key)
        if block.state is not BlockState.EVICTED:
            raise KvCacheError(
                f"restore of {key[:12]} in state {block.state.value!r}")
        if hashlib.sha256(payload).hexdigest() != block.digest:
            raise KvCacheError(
                f"restored payload for {key[:12]} does not match the "
                "retained digest")
        block.payload = payload
        block.state = BlockState.LOCAL
        block.producer = producer
        return block

    def drop_local_of_worker(self, worker: int) -> list[str]:
        """A worker died: its un-offloaded blocks are gone.

        LOCAL / IN_TRANSIT blocks produced by ``worker`` never reached
        the persistence domain — they are removed outright (counted as
        ``lost_local``); their holders must recompute.  POOLED blocks
        are untouched: that survival is the whole point.
        """
        lost = [k for k, b in self.blocks.items()
                if b.producer == worker
                and b.state in (BlockState.LOCAL, BlockState.IN_TRANSIT)]
        for key in lost:
            del self.blocks[key]
            self.counters["lost_local"] += 1
            self.counters["freed"] += 1
        return lost

    def invalidate_host(self, host: int) -> list[str]:
        """A fabric host detached: pooled blocks on its slice died.

        POOLED → EVICTED (metadata retained) for every block whose slot
        lived on ``host``; the pool marks the host dead so its slots
        are never re-used.
        """
        self.pool.mark_host_dead(host)
        dead = [k for k, b in self.blocks.items()
                if b.state is BlockState.POOLED and b.loc.host == host]
        for key in dead:
            block = self.blocks[key]
            block.loc = None
            block.state = BlockState.EVICTED
            self.counters["lost_pooled"] += 1
            obs.inc("kvserve.blocks.lost_pooled")
        return dead

    # ------------------------------------------------------------------
    # audit
    # ------------------------------------------------------------------

    def by_state(self) -> dict[str, int]:
        out = {s.value: 0 for s in BlockState}
        for block in self.blocks.values():
            out[block.state.value] += 1
        return out

    def pooled_bytes(self) -> int:
        return sum(b.size for b in self.blocks.values()
                   if b.state is BlockState.POOLED)

    def check_conservation(self) -> dict:
        """Audit the state machine; raises on any violation.

        Invariants:

        * every block is in exactly one of the four states;
        * payload residency matches the state (LOCAL/IN_TRANSIT hold
          bytes, POOLED/EVICTED do not — pooled bytes live in CXL);
        * location residency matches the state (only POOLED blocks own
          a pool slot, and no two blocks share one);
        * pool slot occupancy equals the POOLED block count;
        * lifecycle counters balance: ``created`` equals live blocks
          plus ``freed``.

        Returns the audit document (state counts + counters) on success.

        Raises:
            KvCacheError: any invariant is violated.
        """
        states = self.by_state()
        seen_pages: set[int] = set()
        for key, block in self.blocks.items():
            has_payload = block.payload is not None
            wants_payload = block.state in (BlockState.LOCAL,
                                            BlockState.IN_TRANSIT)
            if has_payload != wants_payload:
                raise KvCacheError(
                    f"conservation: block {key[:12]} in state "
                    f"{block.state.value!r} has payload={has_payload}")
            has_loc = block.loc is not None
            if has_loc != (block.state is BlockState.POOLED):
                raise KvCacheError(
                    f"conservation: block {key[:12]} in state "
                    f"{block.state.value!r} has loc={block.loc}")
            if has_loc:
                if block.loc.page in seen_pages:
                    raise KvCacheError(
                        f"conservation: pool slot {block.loc} is "
                        "double-mapped")
                seen_pages.add(block.loc.page)
        if self.pool.used_slots() != states["pooled"]:
            raise KvCacheError(
                f"conservation: pool reports {self.pool.used_slots()} used "
                f"slots but {states['pooled']} blocks are pooled")
        if self.counters["created"] != len(self.blocks) + \
                self.counters["freed"]:
            raise KvCacheError(
                f"conservation: created {self.counters['created']} != "
                f"{len(self.blocks)} live + {self.counters['freed']} freed")
        return {"states": states, "counters": dict(self.counters),
                "pooled_bytes": self.pooled_bytes(),
                "heat_epoch": self.heat.epoch}

    def _require(self, key: str) -> KvBlock:
        block = self.blocks.get(key)
        if block is None:
            raise KvCacheError(f"unknown block {key[:12]}")
        return block
