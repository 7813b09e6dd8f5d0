"""The KV serving engine: prefix sharing, determinism, kill recovery."""

import hashlib
import struct

import pytest

from repro import faults
from repro.errors import KvCacheError, WorkerKilledError
from repro.faults.plan import FaultPlan, HostDetachSpec, WorkerKillSpec
from repro.kvserve import KvServeEngine, Sequence


def _engine(**kw) -> KvServeEngine:
    kw.setdefault("n_hosts", 2)
    kw.setdefault("workers_per_host", 2)
    kw.setdefault("block_tokens", 8)
    kw.setdefault("kv_bytes_per_token", 32)
    kw.setdefault("slots_per_host", 64)
    return KvServeEngine(**kw)


def _small_workload(engine, n_seqs=4, prompt=24, decode=10, prefix=16):
    for i in range(n_seqs):
        engine.add_sequence(prompt, decode, group=0,
                            shared_prefix_tokens=prefix)


def _xof_words(scope: str, n: int) -> list[int]:
    raw = hashlib.shake_256(f"tok:{scope}".encode()).digest(8 * n)
    return [int.from_bytes(raw[8 * i:8 * i + 8], "little") for i in range(n)]


def _expected_tokens(seq) -> list[int]:
    """The group's stream for the shared prefix, the sequence's own
    stream (read at the same positions) after it."""
    prefix = seq.shared_prefix_tokens
    return (_xof_words(f"g{seq.group}", prefix)
            + _xof_words(f"s{seq.seq_id}", seq.total_tokens)[prefix:])


def _expected_chain(tokens, block: int) -> list[str]:
    """SHA-256 chain keys of every full block of ``tokens``."""
    keys, prev = [], b"kv-root"
    for start in range(0, len(tokens) - block + 1, block):
        prev = hashlib.sha256(prev + struct.pack(
            f"<{block}Q", *tokens[start:start + block])).digest()
        keys.append(prev.hex())
    return keys


class TestTokens:
    def test_tokens_are_the_two_scope_xof_expansion(self):
        engine = _engine()
        _small_workload(engine)
        engine.add_sequence(24, 10, group=1, shared_prefix_tokens=0)
        engine.add_sequence(16, 4, group=2, shared_prefix_tokens=16)
        for seq in engine.sequences.values():
            assert list(seq.tokens) == _expected_tokens(seq)
        # a longer sequence extends the same stream
        longer = Sequence(1, 0, 24, 90, 16)
        assert longer.tokens[:34] == engine.sequences[1].tokens

    def test_a_position_reads_the_same_first_or_last(self):
        expected = _expected_tokens(Sequence(1, 0, 24, 10, 16))
        for p in range(34):
            first = Sequence(1, 0, 24, 10, 16).token_at(p)
            seq = Sequence(1, 0, 24, 10, 16)
            for q in range(34):
                if q != p:
                    seq.token_at(q)
            assert first == seq.token_at(p) == expected[p]

    def test_kill_and_resume_rebuild_the_same_chain(self):
        engine = _engine()
        _small_workload(engine)
        plan = FaultPlan(faults=[WorkerKillSpec(worker=0, at_step=3)])
        with faults.use_plan(plan):
            report = engine.run()
        resumed = {e["seq"] for e in report["recovery"]["events"]}
        assert resumed
        for seq in engine.sequences.values():
            tokens = _expected_tokens(seq)
            assert list(seq.tokens) == tokens
            assert seq.block_keys == _expected_chain(tokens, 8)

    def test_one_group_shares_exactly_its_prefix(self):
        engine = _engine()
        a, b = (engine.add_sequence(24, 10, group=0, shared_prefix_tokens=16)
                for _ in range(2))
        c = engine.add_sequence(24, 10, group=1, shared_prefix_tokens=16)
        assert a.tokens[:16] == b.tokens[:16] == tuple(_xof_words("g0", 16))
        assert all(x != y for x, y in zip(a.tokens[16:], b.tokens[16:]))
        assert all(x != y for x, y in zip(a.tokens, c.tokens))


class TestCleanRun:
    def test_all_sequences_complete_with_digests(self):
        engine = _engine()
        _small_workload(engine)
        report = engine.run()
        assert all(s.done for s in engine.sequences.values())
        assert len(engine.digests()) == 4
        assert report["tokens_per_s"] > 0
        assert report["blocks"]["states"]["local"] == 0

    def test_shared_prefixes_map_to_one_pooled_block(self):
        engine = _engine()
        _small_workload(engine, n_seqs=3, prefix=16)     # 2 shared blocks
        engine.run()
        # seqs 1 and 2 reuse seq 0's two prefix blocks
        assert engine.prefill_shared_tokens == 2 * 2 * 8
        assert engine.store.counters["shared_hits"] >= 4

    def test_runs_are_deterministic(self):
        reports = []
        for _ in range(2):
            engine = _engine()
            _small_workload(engine)
            reports.append((engine.run()["wall_ns"],
                            tuple(engine.digests().values())))
        assert reports[0] == reports[1]

    def test_digests_require_a_finished_run(self):
        engine = _engine()
        _small_workload(engine)
        with pytest.raises(KvCacheError, match="run"):
            engine.digests()


class TestValidation:
    def test_bad_geometry_rejected(self):
        with pytest.raises(KvCacheError):
            _engine(block_tokens=0)
        with pytest.raises(KvCacheError):
            _engine(recovery_mode="teleport")

    def test_bad_sequences_rejected(self):
        engine = _engine()
        with pytest.raises(KvCacheError):
            engine.add_sequence(0, 5)
        with pytest.raises(KvCacheError):
            engine.add_sequence(8, 4, shared_prefix_tokens=9)


class TestWorkerKill:
    def _run_with_kill(self, mode="pooled", worker=0, at_step=3):
        engine = _engine(recovery_mode=mode)
        _small_workload(engine)
        plan = FaultPlan(faults=[WorkerKillSpec(worker=worker,
                                                at_step=at_step)])
        with faults.use_plan(plan):
            report = engine.run()
        return engine, report

    def test_kill_orphans_and_recovers_every_sequence(self):
        engine, report = self._run_with_kill()
        assert not engine.workers[0].alive
        assert report["recovery"]["events"]
        assert all(s.done for s in engine.sequences.values())
        for event in report["recovery"]["events"]:
            assert event["to_worker"] != 0

    def test_recovered_digests_match_an_uninterrupted_run(self):
        clean = _engine()
        _small_workload(clean)
        clean.run()
        for mode in ("pooled", "reprefill"):
            engine, _ = self._run_with_kill(mode=mode)
            assert engine.digests() == clean.digests()

    def test_pooled_recovery_reads_blocks_not_recomputes(self):
        _, pooled = self._run_with_kill(mode="pooled")
        _, reprefill = self._run_with_kill(mode="reprefill")
        assert pooled["recovery"]["tokens_from_pool"] > 0
        assert reprefill["recovery"]["tokens_from_pool"] == 0
        assert pooled["recovery"]["total_ns"] < \
            reprefill["recovery"]["total_ns"]
        assert pooled["recovery"]["prefix_reprefill_tokens"] == 0

    def test_kill_of_unknown_worker_is_typed(self):
        engine = _engine()
        _small_workload(engine)
        plan = FaultPlan(faults=[WorkerKillSpec(worker=99, at_step=1)])
        with faults.use_plan(plan), \
                pytest.raises(KvCacheError, match="unknown worker"):
            engine.run()

    def test_direct_double_kill_is_typed(self):
        engine = _engine()
        engine.kill_worker(1)
        with pytest.raises(WorkerKilledError):
            engine.kill_worker(1)

    def test_prefetcher_sees_the_replay(self):
        engine, report = self._run_with_kill()
        stats = report["prefetch"]
        assert stats["hits"] + stats["misses"] >= \
            len(report["recovery"]["events"])


class TestHostDetach:
    def test_detach_kills_its_workers_and_rebuilds_blocks(self):
        engine = _engine()
        _small_workload(engine)
        plan = FaultPlan(faults=[HostDetachSpec(host=1, at_step=3)])
        with faults.use_plan(plan):
            report = engine.run()
        assert report["detaches"] == [
            {"host": 1, "step": 3,
             "blocks_lost": report["detaches"][0]["blocks_lost"]}]
        assert all(not w.alive for w in engine.workers.values()
                   if w.host == 1)
        assert all(s.done for s in engine.sequences.values())
        clean = _engine()
        _small_workload(clean)
        clean.run()
        assert engine.digests() == clean.digests()
