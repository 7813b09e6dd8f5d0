"""libpmem layer: regions, persist semantics, file durability."""

import os

import pytest

from repro.errors import PmemError
from repro.pmdk.pmem import (
    FileRegion,
    VolatileRegion,
    map_file,
    memcpy_persist,
)


class TestVolatileRegion:
    def test_basic_rw(self):
        r = VolatileRegion(4096)
        r.write(100, b"hello")
        assert r.read(100, 5) == b"hello"

    def test_zero_initialized(self):
        assert VolatileRegion(128).read(0, 128) == b"\x00" * 128

    def test_not_persistent(self):
        assert VolatileRegion(128).persistent is False

    def test_view_is_writable_and_aliases(self):
        r = VolatileRegion(4096)
        v = r.view(10, 4)
        v[0] = 0x41
        assert r.read(10, 1) == b"A"

    def test_bounds_enforced(self):
        r = VolatileRegion(100)
        with pytest.raises(PmemError):
            r.read(90, 20)
        with pytest.raises(PmemError):
            r.write(99, b"ab")
        with pytest.raises(PmemError):
            r.view(-1, 10)

    def test_persist_accepts_any_valid_range(self):
        r = VolatileRegion(128)
        r.persist(0, 128)       # must not raise — emulation contract

    def test_closed_region_rejects_use(self):
        r = VolatileRegion(128)
        r.close()
        with pytest.raises(PmemError):
            r.read(0, 1)

    def test_zero_size_rejected(self):
        with pytest.raises(PmemError):
            VolatileRegion(0)


class TestFileRegion:
    def test_create_and_reopen(self, tmp_path):
        path = str(tmp_path / "r.pmem")
        r = map_file(path, 8192, create=True)
        r.write(1000, b"durable")
        r.persist(1000, 7)
        r.close()

        r2 = map_file(path)
        assert r2.size == 8192
        assert r2.read(1000, 7) == b"durable"
        r2.close()

    def test_persistent_flag(self, tmp_path):
        r = map_file(str(tmp_path / "x"), 4096, create=True)
        assert r.persistent
        r.close()

    def test_open_missing_file(self, tmp_path):
        with pytest.raises(PmemError):
            map_file(str(tmp_path / "missing"))

    def test_size_mismatch_on_open(self, tmp_path):
        path = str(tmp_path / "r.pmem")
        map_file(path, 4096, create=True).close()
        with pytest.raises(PmemError):
            map_file(path, 8192)

    def test_create_without_size(self, tmp_path):
        with pytest.raises(PmemError):
            FileRegion(str(tmp_path / "r"), create=True)

    def test_create_truncates_to_size(self, tmp_path):
        path = str(tmp_path / "r.pmem")
        map_file(path, 12288, create=True).close()
        assert os.path.getsize(path) == 12288

    def test_create_sizes_an_empty_file(self, tmp_path):
        path = tmp_path / "r.pmem"
        path.touch()
        map_file(str(path), 4096, create=True).close()
        assert os.path.getsize(path) == 4096

    def test_create_refuses_a_file_that_is_not_empty(self, tmp_path):
        path = tmp_path / "r.pmem"
        path.write_bytes(b"data" * 1024)
        with pytest.raises(PmemError, match="already exists"):
            map_file(str(path), 1024, create=True)
        assert path.read_bytes() == b"data" * 1024

    def test_view_aliases_mapping(self, tmp_path):
        r = map_file(str(tmp_path / "r"), 4096, create=True)
        v = r.view(0, 8)
        v[:3] = b"xyz"
        assert r.read(0, 3) == b"xyz"
        r.close()

    def test_double_close_is_noop(self, tmp_path):
        r = map_file(str(tmp_path / "r"), 4096, create=True)
        r.close()
        r.close()

    def test_persist_page_alignment_handled(self, tmp_path):
        r = map_file(str(tmp_path / "r"), 16384, create=True)
        r.write(5000, b"q" * 3000)
        r.persist(5000, 3000)        # straddles page boundaries
        r.close()

    def test_zero_length_persist(self, tmp_path):
        r = map_file(str(tmp_path / "r"), 4096, create=True)
        r.persist(0, 0)
        r.close()


class TestMemcpyPersist:
    def test_store_and_flush(self, tmp_path):
        path = str(tmp_path / "r.pmem")
        r = map_file(path, 4096, create=True)
        memcpy_persist(r, 64, b"atomic-ish")
        r.close()
        r2 = map_file(path)
        assert r2.read(64, 10) == b"atomic-ish"
        r2.close()
