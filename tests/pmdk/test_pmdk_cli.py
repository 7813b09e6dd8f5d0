"""The pmempool-style CLI (python -m repro.pmdk)."""

import hashlib
import os

import pytest

from repro.pmdk.__main__ import main
from repro.pmdk.alloc import HEADER_SIZE, STATE_FREE, _pack_header
from repro.pmdk.pmem import map_file
from repro.pmdk.pool import PRIMARY_HEADER_OFF, PmemObjPool


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _interrupt_a_transaction(path: str) -> None:
    """Leave ``path`` with an uncommitted transaction whose store has
    landed, as a process that died mid-transaction would."""
    pool = PmemObjPool.open(path)
    oid = pool.alloc(64)
    pool.write(oid, b"original")
    tx = pool.transaction()
    tx.begin()
    pool.tx_write(tx, oid, b"mutation")
    pool.region.close()             # persists; the transaction stays open


@pytest.fixture()
def pool_file(tmp_path):
    path = str(tmp_path / "cli.pool")
    rc = main(["create", path, "1m", "--layout", "cli-test"])
    assert rc == 0
    return path


class TestCreate:
    def test_create_prints_summary(self, tmp_path, capsys):
        path = str(tmp_path / "new.pool")
        assert main(["create", path, "512k"]) == 0
        out = capsys.readouterr().out
        assert "created pool" in out and "free" in out

    def test_create_over_existing_pool_fails(self, pool_file, capsys):
        assert main(["create", pool_file, "1m"]) == 1
        assert "error" in capsys.readouterr().err

    def test_create_over_torn_primary_fails(self, pool_file, capsys):
        region = map_file(pool_file)
        region.write(PRIMARY_HEADER_OFF + 8, b"\xff" * 8)
        region.close()
        before = _sha256(pool_file)
        assert main(["create", pool_file, "1m"]) == 1
        assert "already contains a pool" in capsys.readouterr().err
        assert _sha256(pool_file) == before

    def test_create_over_existing_pool_leaves_it_whole(self, pool_file,
                                                        capsys):
        pool = PmemObjPool.open(pool_file)
        pool.write(pool.root(64), b"kept")
        uuid = pool.uuid
        pool.close()
        size, before = os.path.getsize(pool_file), _sha256(pool_file)
        assert main(["create", pool_file, "512k"]) == 1
        assert repr(pool_file) in capsys.readouterr().err
        assert os.path.getsize(pool_file) == size
        assert _sha256(pool_file) == before
        pool = PmemObjPool.open(pool_file)
        assert pool.uuid == uuid and pool.read(pool.root_oid, 4) == b"kept"
        pool.close()

    def test_create_never_overwrites_a_file(self, tmp_path, capsys):
        path = tmp_path / "notes.txt"
        path.write_bytes(b"notes" * 20)
        assert main(["create", str(path), "1m"]) == 1
        assert "already exists" in capsys.readouterr().err
        assert path.read_bytes() == b"notes" * 20

    def test_bad_size_is_a_readable_error(self, tmp_path, capsys):
        assert main(["create", str(tmp_path / "bad.pool"), "12q"]) == 1
        assert "cannot parse size '12q'" in capsys.readouterr().err

    def test_size_suffixes(self, tmp_path):
        import os
        path = str(tmp_path / "sized.pool")
        assert main(["create", path, "2m"]) == 0
        assert os.path.getsize(path) == 2 << 20


class TestInfo:
    def test_info_fields(self, pool_file, capsys):
        pool = PmemObjPool.open(pool_file)
        pool.free(pool.alloc_many(2, 100)[0])
        pool.root(64)
        used, free = pool.used_bytes, pool.free_bytes
        pool.close()
        assert main(["info", pool_file]) == 0
        out = capsys.readouterr().out
        assert "layout:   'cli-test'" in out
        assert "uuid:" in out
        assert f"used:     {used} bytes" in out
        assert f"free:     {free} bytes" in out
        assert "root:     yes" in out

    def test_info_never_writes(self, pool_file, tmp_path, capsys):
        _interrupt_a_transaction(pool_file)
        torn = str(tmp_path / "torn.pool")
        assert main(["create", torn, "1m", "--layout", "cli-test"]) == 0
        region = map_file(torn)
        region.write(PRIMARY_HEADER_OFF, b"\xff" * 64)
        region.close()
        capsys.readouterr()
        for path, issue in ((pool_file, "interrupted transaction"),
                            (torn, "primary header")):
            before = _sha256(path)
            rc = main(["info", path])
            assert _sha256(path) == before
            assert rc == 1
            out = capsys.readouterr().out
            assert "layout:   'cli-test'" in out and issue in out

    def test_info_missing_file(self, tmp_path, capsys):
        assert main(["info", str(tmp_path / "nope")]) == 1
        assert "error" in capsys.readouterr().err

    def test_info_garbage_file(self, tmp_path, capsys):
        path = str(tmp_path / "garbage")
        with open(path, "wb") as fh:
            fh.write(b"\xff" * 4096)
        assert main(["info", path]) == 1


class TestCheck:
    def test_healthy_pool_passes(self, pool_file, capsys):
        assert main(["check", pool_file]) == 0
        assert "consistent" in capsys.readouterr().out

    def test_interrupted_transaction_needs_repair(self, pool_file, capsys):
        _interrupt_a_transaction(pool_file)
        before = _sha256(pool_file)
        assert main(["check", pool_file]) == 1
        assert "interrupted transaction" in capsys.readouterr().out
        assert _sha256(pool_file) == before

        assert main(["check", pool_file, "--repair"]) == 0
        assert "repaired: transaction rolled_back" in capsys.readouterr().out
        assert main(["check", pool_file]) == 0

    def test_repair_lists_the_chunk_headers_open_rewrote(self, pool_file,
                                                         capsys):
        # objects whose chunk headers read FREE in place, unmerged
        pool = PmemObjPool.open(pool_file)
        pool.alloc(64)
        for oid in pool.alloc_many(8, 64)[:-1]:
            info = pool.heap._read_header(oid.offset - HEADER_SIZE)
            pool.region.write(info.offset, _pack_header(
                STATE_FREE, info.size, info.prev_size))
        pool.close()
        assert main(["check", pool_file]) == 1
        assert capsys.readouterr().out.count("issue: chunk header at") == 2
        assert main(["check", pool_file, "--repair"]) == 0
        assert "repaired: 2 chunk headers rewritten" in \
            capsys.readouterr().out
        assert main(["check", pool_file]) == 0

    def test_torn_header_detected_then_repaired(self, pool_file, capsys):
        from repro.pmdk.pmem import map_file
        region = map_file(pool_file)
        region.write(PRIMARY_HEADER_OFF, b"\xff" * 64)
        region.close()

        main(["check", pool_file])
        first = capsys.readouterr().out
        assert "primary header" in first

        assert main(["check", pool_file, "--repair"]) == 0
        repaired = capsys.readouterr().out
        assert "restored from backup" in repaired

        assert main(["check", pool_file]) == 0
        assert "consistent" in capsys.readouterr().out
