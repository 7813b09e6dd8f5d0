"""The disaggregated KV-cache serving engine.

A cluster of simulated decode workers over one pooling fabric: every
sequence's KV blocks are computed locally, immediately offloaded to the
battery-backed CXL pool (local → in_transit → pooled), and thereby
outlive the worker that produced them.  When a
:class:`~repro.faults.plan.WorkerKillSpec` kills a worker mid-stream,
the router re-places its sequences by pooled-block locality and link
health, and recovery *replays from pooled blocks* — reading the KV
bytes back over the fabric — instead of re-running prefill.

Determinism is the load-bearing property: token streams and KV payloads
are pure functions of (sequence, position), the prefetcher draws from a
seeded RNG, and routing is tie-broken by worker id, so the same spec +
fault plan reproduces the same run bit-for-bit.  Each sequence folds
every KV byte it materializes into a running sha256; the recovery
drills in :mod:`repro.workloads.kvcache` demand those digests be
identical between a killed-and-recovered run and an uninterrupted one.

Time is modelled, not measured: compute charges
(:class:`KvCostModel`), pool transfers (near/far over the fabric) and
re-routing overhead accumulate per worker, and the engine's wall clock
advances by the slowest worker each round (workers run in parallel).
That makes recovery-latency and tokens/s comparisons exact on any
machine.
"""

from __future__ import annotations

import hashlib
import random
import struct
from dataclasses import dataclass, field
from functools import cached_property

from repro import faults, obs
from repro.errors import (
    HostDetachedError,
    KvCacheError,
    MigrationAbortError,
    WorkerKilledError,
)
from repro.fabric.manager import FabricManager
from repro.kvserve.blocks import (
    BlockState,
    KvBlockStore,
    KvPool,
    block_payload,
)
from repro.kvserve.routing import Router

__all__ = ["KvCostModel", "DecodeWorker", "Prefetcher", "Sequence",
           "KvServeEngine", "RECOVERY_MODES"]

_log = obs.get_logger("kvserve.engine")

#: how a killed worker's sequences come back
RECOVERY_MODES = ("pooled", "reprefill")

_CHAIN_ROOT = b"kv-root"


@dataclass(frozen=True)
class KvCostModel:
    """Modelled per-operation costs (ns) — the basis of every latency
    and tokens/s number the engine reports.

    ``prefill_ns_per_token`` dominates ``decode_ns_per_token`` the way
    prompt processing dominates single-token decode; recovery-from-pool
    beats re-prefill exactly when reading a block back over CXL is
    cheaper than recomputing its tokens at prefill cost.
    """

    prefill_ns_per_token: float = 1500.0
    decode_ns_per_token: float = 800.0
    route_ns: float = 2500.0            # scheduler re-placement, per seq
    pool_latency_ns: float = 400.0      # near-read latency floor
    pool_gbps: float = 16.0             # pool transfer bandwidth
    far_factor: float = 2.0             # cross-host read multiplier

    def __post_init__(self) -> None:
        for name in ("prefill_ns_per_token", "decode_ns_per_token",
                     "route_ns", "pool_latency_ns", "pool_gbps"):
            if getattr(self, name) <= 0:
                raise KvCacheError(f"{name} must be > 0")
        if self.far_factor < 1.0:
            raise KvCacheError("far_factor must be >= 1")


@dataclass
class DecodeWorker:
    """One decode worker: a process on a fabric host."""

    worker_id: int
    host: int
    alive: bool = True
    active: dict = field(default_factory=dict)      # seq_id -> Sequence
    busy_ns: float = 0.0
    tokens_decoded: int = 0


class Prefetcher:
    """Seeded next-block prefetcher for sequential pool replays.

    During a multi-block fetch the prefetcher speculatively issues the
    next block's read while the current one is being consumed; a
    correct prediction hides the read latency (only the transfer time
    remains on the critical path), a misprediction pays full cost.
    Prediction accuracy is a seeded draw — the CXL-SpecKV speculation
    model with its noise made reproducible.
    """

    def __init__(self, accuracy: float = 0.95, seed: int = 0) -> None:
        if not 0.0 <= accuracy <= 1.0:
            raise KvCacheError("prefetch accuracy must be in [0, 1]")
        self.accuracy = accuracy
        self.rng = random.Random(seed)
        self.hits = 0
        self.misses = 0

    def charge(self, index: int, transfer_ns: float,
               latency_ns: float) -> float:
        """The ns this read adds to a sequential replay's critical path.

        ``index`` is the read's position in the replay (read 0 can
        never have been prefetched).
        """
        if index > 0 and self.rng.random() < self.accuracy:
            self.hits += 1
            obs.inc("kvserve.prefetch.hits")
            return transfer_ns          # latency hidden by the prefetch
        self.misses += 1
        obs.inc("kvserve.prefetch.misses")
        return latency_ns + transfer_ns


@dataclass
class Sequence:
    """One serving request: prompt prefill then token-by-token decode.

    ``block_keys`` is the chained-hash spine of the sequence's sealed
    blocks; ``tail`` holds the tokens of the open (un-sealed) block,
    which exist only in the worker's local memory and die with it.
    """

    seq_id: int
    group: int
    n_prompt: int
    n_decode: int
    shared_prefix_tokens: int
    produced: int = 0                   # positions materialized so far
    block_keys: list = field(default_factory=list)
    tail: list = field(default_factory=list)
    worker: int = -1
    done: bool = False
    digest: str | None = None
    recoveries: int = 0
    _sha: "hashlib._Hash" = field(default_factory=hashlib.sha256,
                                  repr=False)

    @property
    def total_tokens(self) -> int:
        return self.n_prompt + self.n_decode

    @cached_property
    def tokens(self) -> tuple[int, ...]:
        """Every token of the sequence, from two SHAKE-256 streams read
        as little-endian u64s: the group's stream for the shared prefix,
        the sequence's own stream from there on.

        Extendable output is prefix-stable (``digest(n)`` is a prefix of
        ``digest(m)`` for n < m), so token ``p`` is word ``p`` of its
        scope's stream however many tokens were asked for.
        """
        prefix, total = self.shared_prefix_tokens, self.total_tokens
        shared = hashlib.shake_256(f"tok:g{self.group}".encode())
        own = hashlib.shake_256(f"tok:s{self.seq_id}".encode())
        return (struct.unpack(f"<{prefix}Q", shared.digest(8 * prefix))
                + struct.unpack_from(f"<{total - prefix}Q",
                                     own.digest(8 * total), 8 * prefix))

    def token_at(self, position: int) -> int:
        """The deterministic token at ``position`` (worker-independent):
        ``tokens[position]``."""
        return self.tokens[position]


def _chain_key(prev_key: str | None, tokens: list) -> str:
    prev = bytes.fromhex(prev_key) if prev_key else _CHAIN_ROOT
    blob = struct.pack(f"<{len(tokens)}Q", *tokens)
    return hashlib.sha256(prev + blob).hexdigest()


class KvServeEngine:
    """The cluster: fabric + pool + block store + workers + router.

    Args:
        n_hosts / workers_per_host: cluster shape (workers are placed
            round-robin across hosts: worker ``w`` on host
            ``w % n_hosts``).
        block_tokens / kv_bytes_per_token: KV block geometry.
        slots_per_host: per-host pool slice capacity, in blocks.
        cost: the modelled cost constants.
        recovery_mode: ``"pooled"`` replays a killed worker's sequences
            from CXL pooled blocks; ``"reprefill"`` is the baseline
            that recomputes everything at prefill cost.
        evict_low_water: free-slot threshold below which the engine
            demotes cold unreferenced blocks at round boundaries.
    """

    def __init__(self, *, n_hosts: int = 2, workers_per_host: int = 2,
                 block_tokens: int = 16, kv_bytes_per_token: int = 64,
                 slots_per_host: int = 64,
                 cost: KvCostModel | None = None,
                 recovery_mode: str = "pooled",
                 prefetch_accuracy: float = 0.95,
                 evict_low_water: int = 2,
                 seed: int = 0) -> None:
        if recovery_mode not in RECOVERY_MODES:
            raise KvCacheError(
                f"unknown recovery mode {recovery_mode!r}; "
                f"have {RECOVERY_MODES}")
        if block_tokens < 1 or kv_bytes_per_token < 1:
            raise KvCacheError("block geometry must be >= 1 token/byte")
        self.block_tokens = block_tokens
        self.kv_bytes_per_token = kv_bytes_per_token
        self.block_bytes = block_tokens * kv_bytes_per_token
        self.cost = cost or KvCostModel()
        self.recovery_mode = recovery_mode
        self.evict_low_water = evict_low_water
        self.seed = seed

        self.manager = FabricManager.build(n_hosts)
        self.pool = KvPool(self.manager, self.block_bytes, slots_per_host,
                           near_latency_ns=self.cost.pool_latency_ns,
                           far_factor=self.cost.far_factor,
                           pool_gbps=self.cost.pool_gbps)
        self.store = KvBlockStore(self.pool)
        self.router = Router()
        self.prefetcher = Prefetcher(prefetch_accuracy, seed)
        self.workers: dict[int, DecodeWorker] = {
            w: DecodeWorker(w, w % n_hosts)
            for w in range(n_hosts * workers_per_host)}
        self.sequences: dict[int, Sequence] = {}
        self.wall_ns = 0.0
        self.step = 0
        self.prefill_shared_tokens = 0
        self.prefill_computed_tokens = 0
        self.recovery_events: list[dict] = []
        self.detach_events: list[dict] = []
        self.eviction_aborts = 0
        # (sequence, killed worker) pairs awaiting re-routing
        self._orphans: list[tuple[Sequence, int]] = []

    # ------------------------------------------------------------------
    # workload assembly
    # ------------------------------------------------------------------

    def add_sequence(self, n_prompt: int, n_decode: int, group: int = 0,
                     shared_prefix_tokens: int = 0) -> Sequence:
        if n_prompt < 1 or n_decode < 1:
            raise KvCacheError("sequences need >= 1 prompt and decode token")
        if not 0 <= shared_prefix_tokens <= n_prompt:
            raise KvCacheError(
                "shared_prefix_tokens must be within the prompt")
        seq = Sequence(len(self.sequences), group, n_prompt, n_decode,
                       shared_prefix_tokens)
        self.sequences[seq.seq_id] = seq
        return seq

    # ------------------------------------------------------------------
    # the run
    # ------------------------------------------------------------------

    def run(self) -> dict:
        """Prefill every sequence, decode to completion, audit, report."""
        with obs.span("kvserve.run"):
            self._prefill_all()
            while any(not s.done for s in self.sequences.values()):
                self._decode_round()
            self.store.check_conservation()
        return self.report()

    def _prefill_all(self) -> None:
        round_cost: dict[int, float] = {}
        for seq in sorted(self.sequences.values(), key=lambda s: s.seq_id):
            score = self.router.place(seq.block_keys, self.store,
                                      self.workers.values())
            worker = self.workers[score.worker]
            seq.worker = worker.worker_id
            worker.active[seq.seq_id] = seq
            ns = self._prefill(seq, worker)
            worker.busy_ns += ns
            round_cost[worker.worker_id] = \
                round_cost.get(worker.worker_id, 0.0) + ns
        if round_cost:
            self.wall_ns += max(round_cost.values())

    def _prefill(self, seq: Sequence, worker: DecodeWorker) -> float:
        """Materialize the prompt: share pooled prefix blocks, compute
        the rest.  Returns the modelled ns."""
        ns = 0.0
        read_index = 0
        while seq.produced < seq.n_prompt:
            take = min(self.block_tokens, seq.n_prompt - seq.produced)
            tokens = seq.tokens[seq.produced:seq.produced + take]
            seq.produced += take
            if take < self.block_tokens:
                seq.tail = list(tokens)     # partial prompt block stays open
                break
            prev = seq.block_keys[-1] if seq.block_keys else None
            key = _chain_key(prev, tokens)
            seq.block_keys.append(key)
            existing = self.store.get(key)
            if existing is not None and existing.state is not \
                    BlockState.EVICTED:
                self.store.acquire(key, seq.seq_id)
                if existing.payload is not None:
                    payload = existing.payload      # still on this side
                else:
                    payload, read_ns = self._read_block(key, worker,
                                                        read_index)
                    ns += read_ns
                    read_index += 1
                self.prefill_shared_tokens += take
                seq._sha.update(payload)
                continue
            payload = block_payload(key, self.block_bytes)
            ns += take * self.cost.prefill_ns_per_token
            self.prefill_computed_tokens += take
            if existing is not None:    # evicted: prove the recompute
                self.store.restore(key, payload, worker.worker_id)
                self.store.acquire(key, seq.seq_id)
            else:
                self.store.add_local(key, payload, take, worker.worker_id,
                                     seq.seq_id)
            seq._sha.update(payload)
            ns += self._offload(key, worker)
        return ns

    def _read_block(self, key: str, worker: DecodeWorker,
                    read_index: int) -> tuple[bytes, float]:
        """One pooled read on a sequential replay's critical path."""
        block = self.store.get(key)
        near = block.loc is not None and block.loc.host == worker.host
        payload, transfer = self.store.read_pooled(key, worker.host)
        latency = self.cost.pool_latency_ns * (
            1.0 if near else self.cost.far_factor)
        return payload, self.prefetcher.charge(
            read_index, transfer - latency, latency)

    def _decode_round(self) -> None:
        """One global decode step: fault hooks, orphan resume, one token
        per live sequence, then pool maintenance."""
        self.step += 1
        faults.on_fabric_step(self._detach)
        faults.on_decode_step(self._kill)
        round_cost: dict[int, float] = {}
        self._resume_orphans(round_cost)
        for worker in self.workers.values():
            if not worker.alive:
                continue
            ns = 0.0
            for seq in sorted(worker.active.values(),
                              key=lambda s: s.seq_id):
                if seq.done:
                    continue
                ns += self._decode_one(seq, worker)
                if seq.produced >= seq.total_tokens:
                    self._finish(seq, worker)
            worker.busy_ns += ns
            round_cost[worker.worker_id] = \
                round_cost.get(worker.worker_id, 0.0) + ns
        if round_cost:
            self.wall_ns += max(round_cost.values())
        self._maintain_pool()

    def _decode_one(self, seq: Sequence, worker: DecodeWorker) -> float:
        seq.tail.append(seq.token_at(seq.produced))
        seq.produced += 1
        worker.tokens_decoded += 1
        ns = self.cost.decode_ns_per_token
        if len(seq.tail) == self.block_tokens:
            ns += self._seal_tail(seq, worker)
        return ns

    def _seal_tail(self, seq: Sequence, worker: DecodeWorker) -> float:
        prev = seq.block_keys[-1] if seq.block_keys else None
        key = _chain_key(prev, seq.tail)
        seq.block_keys.append(key)
        tokens = len(seq.tail)
        seq.tail = []
        payload = block_payload(key, self.block_bytes)
        seq._sha.update(payload)
        if self.store.get(key) is not None:
            self.store.acquire(key, seq.seq_id)
            return 0.0
        self.store.add_local(key, payload, tokens, worker.worker_id,
                             seq.seq_id)
        return self._offload(key, worker)

    def _offload(self, key: str, worker: DecodeWorker) -> float:
        try:
            return self.store.offload(key, worker.host)
        except KvCacheError:
            pass
        # pool full: demote the coldest unreferenced blocks and retry;
        # an injected abort leaves its victim pooled, so go again once
        for _ in range(2):
            try:
                self.store.evict_cold(max(self.evict_low_water, 1))
                break
            except MigrationAbortError:
                self.eviction_aborts += 1
        return self.store.offload(key, worker.host)

    def _finish(self, seq: Sequence, worker: DecodeWorker) -> None:
        tail_key = _chain_key(seq.block_keys[-1] if seq.block_keys
                              else None, seq.tail)
        tail_bytes = len(seq.tail) * self.kv_bytes_per_token
        if tail_bytes:
            seq._sha.update(block_payload(tail_key, tail_bytes))
        seq.digest = seq._sha.hexdigest()
        seq.done = True
        worker.active.pop(seq.seq_id, None)
        self.store.release_all(seq.seq_id)
        obs.inc("kvserve.sequences_done")

    def _maintain_pool(self) -> None:
        if self.pool.free_slots() >= self.evict_low_water:
            self.store.heat.end_epoch()
            return
        try:
            self.store.evict_cold(self.evict_low_water)
        except MigrationAbortError:
            self.eviction_aborts += 1   # block stayed pooled; carry on
        self.store.heat.end_epoch()

    # ------------------------------------------------------------------
    # faults: worker kill, host detach, recovery
    # ------------------------------------------------------------------

    def _kill(self, worker_id: int) -> None:
        worker = self.workers.get(worker_id)
        if worker is None:
            raise KvCacheError(
                f"worker_kill targets unknown worker {worker_id}; "
                f"have {sorted(self.workers)}")
        if not worker.alive:
            return
        worker.alive = False
        self.store.drop_local_of_worker(worker_id)
        for seq in sorted(worker.active.values(), key=lambda s: s.seq_id):
            self._orphans.append((seq, worker_id))
        worker.active = {}
        obs.inc("kvserve.workers_killed")
        _log.warning("decode worker killed",
                     extra=obs.kv(worker=worker_id, step=self.step))

    def _detach(self, host: int) -> None:
        self.manager.detach_host(host)
        lost = self.store.invalidate_host(host)
        for worker in self.workers.values():
            if worker.host == host and worker.alive:
                self._kill(worker.worker_id)
        self.detach_events.append(
            {"host": host, "step": self.step, "blocks_lost": len(lost)})

    def _resume_orphans(self, round_cost: dict[int, float]) -> None:
        orphans, self._orphans = self._orphans, []
        for seq, dead_worker in orphans:
            event = self._resume(seq, dead_worker)
            round_cost[event["to_worker"]] = \
                round_cost.get(event["to_worker"], 0.0) + event["ns"]
            self.recovery_events.append(event)

    def _resume(self, seq: Sequence, dead_worker: int) -> dict:
        """Re-route one orphaned sequence and rebuild its KV state."""
        score = self.router.place(seq.block_keys, self.store,
                                  self.workers.values())
        worker = self.workers[score.worker]
        seq.worker = worker.worker_id
        seq.recoveries += 1
        worker.active[seq.seq_id] = seq
        ns = self.cost.route_ns
        seq._sha = hashlib.sha256()
        tokens_from_pool = 0
        tokens_recomputed = 0
        prefix_reprefill = 0
        read_index = 0
        for i, key in enumerate(seq.block_keys):
            block = self.store.get(key)
            if block is None:
                raise KvCacheError(
                    f"sequence {seq.seq_id} lost block {key[:12]} without "
                    "metadata — the persistence domain failed")
            use_pool = (self.recovery_mode == "pooled"
                        and block.state is BlockState.POOLED)
            if use_pool:
                try:
                    payload, read_ns = self._read_block(key, worker,
                                                        read_index)
                except (HostDetachedError, KvCacheError):
                    use_pool = False
                else:
                    ns += read_ns
                    read_index += 1
                    tokens_from_pool += block.tokens
            if not use_pool:
                payload = block_payload(key, self.block_bytes)
                ns += block.tokens * self.cost.prefill_ns_per_token
                tokens_recomputed += block.tokens
                if i * self.block_tokens < seq.shared_prefix_tokens:
                    prefix_reprefill += min(
                        block.tokens,
                        seq.shared_prefix_tokens - i * self.block_tokens)
                if block.state is BlockState.EVICTED:
                    self.store.restore(key, payload, worker.worker_id)
                    ns += self._offload(key, worker)
            seq._sha.update(payload)
        # the open tail died in the worker's local memory: recompute it
        sealed = len(seq.block_keys) * self.block_tokens
        seq.tail = list(seq.tokens[sealed:seq.produced])
        ns += len(seq.tail) * self.cost.prefill_ns_per_token
        tokens_recomputed += len(seq.tail)
        worker.busy_ns += ns
        event = {
            "seq": seq.seq_id, "from_worker": dead_worker,
            "to_worker": worker.worker_id, "step": self.step,
            "mode": self.recovery_mode, "ns": ns,
            "tokens_from_pool": tokens_from_pool,
            "tokens_recomputed": tokens_recomputed,
            "prefix_reprefill_tokens": prefix_reprefill,
            "score": {"locality": score.locality,
                      "link_health": score.link_health,
                      "load": score.load, "total": score.total},
        }
        obs.inc("kvserve.recoveries")
        obs.instant("kvserve.recovery", meta={k: event[k] for k in
                                              ("seq", "to_worker", "mode")})
        return event

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------

    def kill_worker(self, worker_id: int) -> None:
        """Kill a worker directly (the fault hook does this in drills).

        Raises:
            WorkerKilledError: the worker is already dead.
        """
        worker = self.workers.get(worker_id)
        if worker is None:
            raise KvCacheError(f"unknown worker {worker_id}")
        if not worker.alive:
            raise WorkerKilledError(
                f"worker {worker_id} is already dead", worker=worker_id)
        self._kill(worker_id)

    def digests(self) -> dict[int, str]:
        """Per-sequence sha256 over every KV byte it materialized."""
        missing = [s.seq_id for s in self.sequences.values()
                   if s.digest is None]
        if missing:
            raise KvCacheError(
                f"sequences {missing} have not finished; run() first")
        return {s.seq_id: s.digest for s in self.sequences.values()}

    def report(self) -> dict:
        decode_tokens = sum(s.n_decode for s in self.sequences.values()
                            if s.done)
        wall_s = self.wall_ns / 1e9
        recovery_ns = sum(e["ns"] for e in self.recovery_events)
        return {
            "wall_ns": self.wall_ns,
            "decode_tokens": decode_tokens,
            "tokens_per_s": (decode_tokens / wall_s if wall_s else 0.0),
            "steps": self.step,
            "prefill": {
                "computed_tokens": self.prefill_computed_tokens,
                "shared_tokens": self.prefill_shared_tokens,
            },
            "prefetch": {"hits": self.prefetcher.hits,
                         "misses": self.prefetcher.misses},
            "recovery": {
                "events": self.recovery_events,
                "total_ns": recovery_ns,
                "tokens_from_pool": sum(e["tokens_from_pool"]
                                        for e in self.recovery_events),
                "tokens_recomputed": sum(e["tokens_recomputed"]
                                         for e in self.recovery_events),
                "prefix_reprefill_tokens": sum(
                    e["prefix_reprefill_tokens"]
                    for e in self.recovery_events),
            },
            "detaches": list(self.detach_events),
            "eviction_aborts": self.eviction_aborts,
            "workers": {
                w.worker_id: {"host": w.host, "alive": w.alive,
                              "busy_ns": w.busy_ns,
                              "tokens_decoded": w.tokens_decoded}
                for w in self.workers.values()},
            "blocks": self.store.check_conservation(),
        }
