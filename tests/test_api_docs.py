"""The API-doc generator produces a complete reference."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

from gen_api_docs import OUT, generate  # noqa: E402


@pytest.fixture(scope="module")
def api_md() -> str:
    return generate()


def test_every_subpackage_documented(api_md):
    for pkg in ("repro.core.runtime", "repro.cxl.device",
                "repro.pmdk.pool", "repro.machine.topology",
                "repro.memsim.engine", "repro.stream.pmem_stream",
                "repro.streamer.runner", "repro.workloads.nvmesr"):
        assert f"## `{pkg}`" in api_md, pkg


def test_key_classes_present(api_md):
    for cls in ("CxlPmemRuntime", "Type3Device", "PmemObjPool",
                "Transaction", "StreamPmem", "StreamerRunner",
                "PersistentHeap", "PmemFileStore"):
        assert f"### `{cls}`" in api_md, cls


def test_methods_carry_summaries(api_md):
    assert "`create_namespace(" in api_md
    assert "`add_range(" in api_md


def test_no_private_modules_leak(api_md):
    assert "## `repro.streamer.__main__`" not in api_md
    assert "._" not in api_md.split("\n", 1)[0]


def test_generated_file_is_current_or_regenerable(api_md):
    """docs/API.md exists and was produced by this generator."""
    out = Path(__file__).resolve().parent.parent / "docs" / "API.md"
    assert out.exists()
    assert out.read_text().startswith("# API reference")


def test_api_md_is_current(api_md):
    """docs/API.md is exactly what the generator renders now
    (``python tools/gen_api_docs.py`` regenerates it)."""
    assert api_md == OUT.read_text()
