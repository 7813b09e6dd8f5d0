"""STREAM-PMem: Listing 2, executable."""

import numpy as np
import pytest

from repro.core.runtime import CxlPmemRuntime
from repro.errors import BenchmarkError
from repro.machine.presets import setup1
from repro.stream.config import StreamConfig
from repro.stream.pmem_stream import LAYOUT, StreamPmem, pool_size_for
from repro.stream.validation import check_stream_results


@pytest.fixture()
def cfg() -> StreamConfig:
    return StreamConfig(array_size=20_000, ntimes=3)


@pytest.fixture()
def rt() -> CxlPmemRuntime:
    return CxlPmemRuntime(setup1().host_bridges)


class TestLifecycle:
    def test_create_allocates_three_arrays(self, cfg, tmp_path):
        sp = StreamPmem.create(f"file://{tmp_path}/s.pool", cfg)
        assert len(sp.arrays) == 3
        a, b, c = (arr.as_ndarray() for arr in sp.arrays)
        assert np.all(a == 2.0) and np.all(b == 2.0) and np.all(c == 0.0)
        sp.close()

    def test_open_reattaches_by_root(self, cfg, tmp_path):
        uri = f"file://{tmp_path}/s.pool"
        sp = StreamPmem.create(uri, cfg)
        oids = [arr.oid.offset for arr in sp.arrays]
        sp.close()
        sp2 = StreamPmem.open(uri, cfg)
        assert [arr.oid.offset for arr in sp2.arrays] == oids
        sp2.close()

    def test_open_wrong_size_rejected(self, cfg, tmp_path):
        uri = f"file://{tmp_path}/s.pool"
        StreamPmem.create(uri, cfg).close()
        other = StreamConfig(array_size=999, ntimes=3)
        with pytest.raises(BenchmarkError):
            StreamPmem.open(uri, other)

    def test_open_empty_pool_rejected(self, cfg, tmp_path):
        from repro.core.provider import pool_from_uri
        uri = f"file://{tmp_path}/empty.pool"
        pool_from_uri(uri, layout="stream-pmem",
                      size=pool_size_for(cfg), create=True).close()
        with pytest.raises(BenchmarkError):
            StreamPmem.open(uri, cfg)

    def test_pool_size_estimate_sufficient(self, cfg):
        assert pool_size_for(cfg) > 3 * cfg.array_bytes


class TestRun:
    def test_run_validates_results(self, cfg, tmp_path):
        sp = StreamPmem.create(f"file://{tmp_path}/s.pool", cfg)
        result = sp.run()
        assert result.persistent
        for k in ("copy", "scale", "add", "triad"):
            assert result.best_rate_gbps(k) > 0
        sp.close()

    def test_results_persist_across_reopen(self, cfg, tmp_path):
        uri = f"file://{tmp_path}/s.pool"
        sp = StreamPmem.create(uri, cfg)
        sp.run()
        sp.close()
        sp2 = StreamPmem.open(uri, cfg)
        a, b, c = (arr.as_ndarray() for arr in sp2.arrays)
        check_stream_results(a, b, c, cfg)    # final state was durable
        sp2.close()

    def test_mem_backend_flagged_volatile(self, cfg):
        sp = StreamPmem.create("mem://8m", cfg)
        assert sp.run().persistent is False

    def test_cxl_backend_runs_and_flushes(self, cfg, rt):
        sp = StreamPmem.create("cxl://cxl0/sp-test", cfg, runtime=rt)
        result = sp.run(persist_each_iteration=True)
        assert result.backend == "cxl"
        assert result.persistent
        assert result.flushes >= 3       # one persist per array

    def test_context_manager(self, cfg, tmp_path):
        with StreamPmem.create(f"file://{tmp_path}/cm.pool", cfg) as sp:
            sp.run()


class TestTransactionalMode:
    def test_transactional_run_validates(self, tmp_path):
        cfg = StreamConfig(array_size=1000, ntimes=3)
        sp = StreamPmem.create(f"file://{tmp_path}/tx.pool", cfg)
        result = sp.run_transactional()
        for k in ("copy", "scale", "add", "triad"):
            assert result.best_rate_gbps(k) > 0
        sp.close()

    def test_each_kernel_snapshots_the_array_it_writes(self, monkeypatch):
        from repro.pmdk.containers import PersistentArray
        from repro.pmdk.tx import Transaction

        cfg = StreamConfig(array_size=1000, ntimes=3)
        sp = StreamPmem.create("mem://8m", cfg)
        names = {arr.oid.offset: n for n, arr in zip("abc", sp.arrays)}
        txs: list[list[str]] = []
        begin, snapshot = Transaction.begin, PersistentArray.snapshot

        def traced_begin(tx):
            txs.append([])
            return begin(tx)

        def traced_snapshot(arr, tx):
            txs[-1].append(names[arr.oid.offset])
            snapshot(arr, tx)

        monkeypatch.setattr(Transaction, "begin", traced_begin)
        monkeypatch.setattr(PersistentArray, "snapshot", traced_snapshot)
        sp.run_transactional()
        assert txs == [["c"], ["b"], ["c"], ["a"]] * cfg.ntimes

    def test_kernel_times_include_their_transaction(self, monkeypatch):
        import types

        from repro.pmdk.containers import PersistentArray
        from repro.pmdk.tx import Transaction
        from repro.stream import native

        clock = [0.0]
        snapshot, commit = PersistentArray.snapshot, Transaction.commit

        def slow_snapshot(arr, tx):
            clock[0] += 1.0
            snapshot(arr, tx)

        def slow_commit(tx):
            clock[0] += 2.0
            commit(tx)

        sp = StreamPmem.create("mem://8m", StreamConfig(array_size=1000,
                                                        ntimes=3))
        monkeypatch.setattr(native, "time", types.SimpleNamespace(
            perf_counter=lambda: clock[0]))
        monkeypatch.setattr(PersistentArray, "snapshot", slow_snapshot)
        monkeypatch.setattr(Transaction, "commit", slow_commit)
        times = sp.run_transactional().native.times
        assert times == {k: [3.0] * 3 for k in ("copy", "scale", "add",
                                                  "triad")}

    def test_compiled_crc_leaves_the_log_bytes_unchanged(self, monkeypatch):
        """The undo log's CRC through the compiled fold and through zlib
        writes the same region, log area included, with the same flushes
        (chunks of 4,100 bytes, so each entry also has a zlib tail)."""
        import zlib

        from repro.pmdk import crc_jit, tx

        if not crc_jit.available():
            pytest.skip("no compiled CRC provider")
        monkeypatch.setattr(tx, "LOG_CHUNK", 4100)
        sp = StreamPmem.create("mem://8m", StreamConfig(array_size=3000,
                                                        ntimes=2))
        region = sp.pool.region
        before = region.read(0, region.size)

        def run():
            region.write(0, before)
            region.persist()
            flushes = sp.run_transactional().flushes
            return region.read(0, region.size), flushes

        compiled_run = run()
        monkeypatch.setattr(crc_jit, "crc32", zlib.crc32)
        assert run() == compiled_run

    def test_transactional_slower_than_direct(self, tmp_path):
        cfg = StreamConfig(array_size=2000, ntimes=4)
        sp = StreamPmem.create(f"file://{tmp_path}/tx2.pool", cfg)
        direct = sp.run()
        sp.initiate()
        tx = sp.run_transactional()
        # undo logging costs real time
        assert (tx.best_rate_gbps("triad")
                < direct.best_rate_gbps("triad"))
        sp.close()

    def test_oversized_arrays_rejected(self, cfg, tmp_path):
        # 20k elements = 160 KB per array < 256 KiB log... use a bigger one
        big = StreamConfig(array_size=100_000, ntimes=3)
        sp = StreamPmem.create(f"file://{tmp_path}/big.pool", big)
        with pytest.raises(BenchmarkError):
            sp.run_transactional()
        sp.close()

    def test_crashed_transactional_kernel_is_atomic(self):
        """The guarantee run_transactional buys: a crash inside one
        kernel's transaction leaves the destination array at its
        pre-kernel contents (asserted via the API path, since crash
        regions have no zero-copy views)."""
        from repro.errors import CrashInjected
        from repro.pmdk.check import check_pool
        from repro.pmdk.containers import PersistentArray
        from repro.pmdk.crash import CrashController, CrashRegion
        from repro.pmdk.pmem import VolatileRegion
        from repro.pmdk.pool import PmemObjPool

        n = 500
        backing = VolatileRegion(4 << 20)
        region = CrashRegion(backing)
        pool = PmemObjPool.create(region, layout=LAYOUT)
        a = PersistentArray.create(pool, n, "float64")
        c = PersistentArray.create(pool, n, "float64")
        a.write(np.full(n, 2.0))
        c.write(np.zeros(n))
        region.flush_all()

        region.controller = ctrl = CrashController(crash_at=3,
                                                   survivor_prob=0.5,
                                                   seed=11)
        ctrl.attach(region)
        with pytest.raises(CrashInjected):
            with pool.transaction() as tx:
                # the copy kernel, transactionally: c <- a
                c.write(a.read(), tx=tx)

        pool2 = PmemObjPool.open(backing)
        assert check_pool(backing).ok
        got = PersistentArray.from_oid(pool2, c.oid).read()
        assert np.array_equal(got, np.zeros(n)) or np.array_equal(
            got, np.full(n, 2.0))
