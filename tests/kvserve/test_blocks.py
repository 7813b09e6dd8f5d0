"""KV block store: lifecycle, sharing, eviction, conservation."""

import hashlib

import pytest

from repro.errors import HostDetachedError, KvCacheError
from repro.fabric.manager import FabricManager
from repro.kvserve.blocks import (
    BlockState,
    KvBlockStore,
    KvPool,
    block_payload,
)

BLOCK = 1024


@pytest.fixture()
def pool() -> KvPool:
    return KvPool(FabricManager.build(2), BLOCK, slots_per_host=4)


@pytest.fixture()
def store(pool) -> KvBlockStore:
    return KvBlockStore(pool)


def _key(tag: str) -> str:
    return hashlib.sha256(tag.encode()).hexdigest()


def _add(store, tag: str, holder: int = 0, producer: int = 0):
    key = _key(tag)
    store.add_local(key, block_payload(key, BLOCK), 16, producer, holder)
    return key


class TestPayload:
    def test_deterministic_and_sized(self):
        key = _key("a")
        assert block_payload(key, 100) == block_payload(key, 100)
        assert len(block_payload(key, 100)) == 100
        assert block_payload(key, 64) != block_payload(_key("b"), 64)

    def test_payload_is_the_prefix_stable_shake256_expansion(self):
        key = _key("a")
        longest = block_payload(key, BLOCK)
        for n in (1, 31, 32, 33, 100, BLOCK):
            assert block_payload(key, n) == \
                hashlib.shake_256(bytes.fromhex(key)).digest(n)
            assert block_payload(key, n) == longest[:n]


class TestLifecycle:
    def test_offload_pools_and_drops_local_copy(self, store):
        key = _add(store, "a")
        ns = store.offload(key, prefer_host=0)
        block = store.get(key)
        assert ns > 0
        assert block.state is BlockState.POOLED
        assert block.payload is None
        assert block.loc is not None and block.loc.host == 0

    def test_read_pooled_round_trips_over_the_fabric(self, store):
        key = _add(store, "a")
        store.offload(key, 0)
        payload, ns = store.read_pooled(key, via_host=0)
        assert payload == block_payload(key, BLOCK)
        assert ns > 0
        _, far_ns = store.read_pooled(key, via_host=1)
        assert far_ns > ns     # cross-host read costs far_factor more

    def test_read_detects_corrupted_pool_bytes(self, store):
        key = _add(store, "a")
        store.offload(key, 0)
        block = store.get(key)
        sl = store.pool._slices[block.loc.host]
        store.pool.manager.write(sl, block.loc.slot * BLOCK, b"\0" * BLOCK)
        with pytest.raises(KvCacheError, match="integrity"):
            store.read_pooled(key, 0)

    def test_offload_requires_local_state(self, store):
        key = _add(store, "a")
        store.offload(key, 0)
        with pytest.raises(KvCacheError, match="must be local"):
            store.offload(key, 0)

    def test_add_local_rejects_duplicates(self, store):
        key = _add(store, "a")
        with pytest.raises(KvCacheError, match="already exists"):
            store.add_local(key, block_payload(key, BLOCK), 16, 0, 1)


class TestSharing:
    def test_acquire_bumps_refcount_and_counts_hits(self, store):
        key = _add(store, "a", holder=0)
        store.offload(key, 0)
        block = store.acquire(key, 7)
        assert block.holders == frozenset({0, 7})
        assert store.counters["shared_hits"] == 1
        store.release(key, 7)
        assert store.get(key).holders == frozenset({0})

    def test_release_all_drops_one_holder_everywhere(self, store):
        keys = [_add(store, t, holder=5) for t in ("a", "b")]
        store.release_all(5)
        assert all(not store.get(k).holders for k in keys)

    def test_acquire_evicted_refuses(self, store):
        key = _add(store, "a")
        store.offload(key, 0)
        store.release(key, 0)
        store.evict_cold()
        with pytest.raises(KvCacheError, match="restore"):
            store.acquire(key, 1)


class TestEviction:
    def test_evicts_only_unreferenced_blocks(self, store):
        held = _add(store, "held", holder=1)
        store.offload(held, 0)
        free = _add(store, "free", holder=2)
        store.offload(free, 0)
        store.release(free, 2)
        evicted = store.evict_cold(n=5)
        assert evicted == [free]
        assert store.get(held).state is BlockState.POOLED
        assert store.get(free).state is BlockState.EVICTED
        assert store.get(free).loc is None

    def test_evicts_coldest_first(self, store):
        cold = _add(store, "cold")
        store.offload(cold, 0)
        hot = _add(store, "hot")
        store.offload(hot, 0)
        store.release_all(0)
        store.heat.end_epoch()
        for _ in range(4):
            store.read_pooled(hot, 0)
        store.heat.end_epoch()
        assert store.evict_cold(n=1) == [cold]

    def test_restore_verifies_the_retained_digest(self, store):
        key = _add(store, "a")
        store.offload(key, 0)
        store.release(key, 0)
        store.evict_cold()
        with pytest.raises(KvCacheError, match="digest"):
            store.restore(key, b"\1" * BLOCK, producer=3)
        block = store.restore(key, block_payload(key, BLOCK), producer=3)
        assert block.state is BlockState.LOCAL
        assert block.producer == 3

    def test_pool_exhaustion_is_typed(self, store):
        for i in range(8):      # 2 hosts x 4 slots
            store.offload(_add(store, f"b{i}", holder=9), i % 2)
        with pytest.raises(KvCacheError, match="exhausted"):
            store.offload(_add(store, "overflow"), 0)


class TestWorkerAndHostLoss:
    def test_worker_death_loses_local_keeps_pooled(self, store):
        pooled = _add(store, "pooled", producer=4)
        store.offload(pooled, 0)
        local = _add(store, "local", producer=4)
        lost = store.drop_local_of_worker(4)
        assert lost == [local]
        assert store.get(local) is None
        assert store.get(pooled).state is BlockState.POOLED
        assert store.counters["lost_local"] == 1
        store.check_conservation()

    def test_host_detach_evicts_that_hosts_blocks(self, store):
        on0 = _add(store, "on0")
        store.offload(on0, 0)
        on1 = _add(store, "on1")
        store.offload(on1, 1)
        dead = store.invalidate_host(0)
        assert dead == [on0]
        assert store.get(on0).state is BlockState.EVICTED
        assert store.get(on1).state is BlockState.POOLED
        store.check_conservation()

    def test_reads_from_dead_host_raise(self, store):
        key = _add(store, "a")
        store.offload(key, 0)
        loc = store.get(key).loc
        store.pool.mark_host_dead(0)
        with pytest.raises(HostDetachedError):
            store.pool.read(loc, 0)


class TestConservation:
    def test_audit_passes_through_the_lifecycle(self, store):
        key = _add(store, "a")
        store.check_conservation()
        store.offload(key, 0)
        doc = store.check_conservation()
        assert doc["states"]["pooled"] == 1
        assert doc["counters"]["created"] == 1

    def test_audit_catches_payload_residency_violations(self, store):
        key = _add(store, "a")
        store.offload(key, 0)
        store.get(key).payload = b"ghost"
        with pytest.raises(KvCacheError, match="conservation"):
            store.check_conservation()

    def test_audit_catches_counter_imbalance(self, store):
        _add(store, "a")
        store.counters["created"] = 5
        with pytest.raises(KvCacheError, match="conservation"):
            store.check_conservation()
