"""Property tests: the device write buffer against line-at-a-time oracles.

``Type3Device.write_lines`` walks a span line by line, popping the
oldest buffered line whenever the buffer overflows, and writes the
popped lines to media after the walk, in pop order, one media write per
run of consecutive addresses.  ``read_lines`` overlays buffered lines by
looking each line of the span up in the buffer; ``flush`` and a partial
``power_fail`` drain through the same run writer.  Each must leave, or
return, what the one-line-at-a-time reference does.
"""

from __future__ import annotations

import random

from hypothesis import example, given, settings, strategies as st

from repro import units
from repro.cxl.device import MediaController, Type3Device
from repro.cxl.spec import CACHELINE_BYTES
from repro.machine.dram import DDR4_1333

LINES = 2048
MAX_SPAN = 1100
REGION = (LINES + MAX_SPAN) * CACHELINE_BYTES

prefills = st.lists(st.integers(0, LINES - 1), max_size=700)
spans = st.tuples(st.integers(0, LINES - 1), st.integers(1, MAX_SPAN))


def _device() -> Type3Device:
    media = MediaController("m", DDR4_1333, 2, 2, units.mib(32), 0.6, 130.0)
    return Type3Device("dut", media)


def _state(dev: Type3Device):
    return (list(dev._write_buffer.items()), dev.memory.read(0, REGION),
            dev.stats)


def _span_data(start: int, n: int) -> bytes:
    return random.Random(start * MAX_SPAN + n).randbytes(n * CACHELINE_BYTES)


def _loaded(prefill, writes) -> Type3Device:
    """A device after ``prefill`` one-line writes and the span writes."""
    dev = _device()
    for line in prefill:
        dev.write_lines(line * CACHELINE_BYTES,
                        bytes([line % 251]) * CACHELINE_BYTES)
    for start, n in writes:
        dev.write_lines(start * CACHELINE_BYTES, _span_data(start, n))
    return dev


def _scan_read(dev: Type3Device, dpa: int, count: int) -> bytes:
    """The reference read: media overlaid by a scan of the whole buffer."""
    end = dpa + count * CACHELINE_BYTES
    data = bytearray(dev.memory.read(dpa, count * CACHELINE_BYTES))
    for addr, line in dev._write_buffer.items():
        if dpa <= addr < end:
            off = addr - dpa
            data[off:off + CACHELINE_BYTES] = line
    return bytes(data)


@given(prefill=prefills, start=st.integers(0, LINES - 1),
       n=st.integers(1, MAX_SPAN))
@example(prefill=[], start=0, n=Type3Device.WRITE_BUFFER_LINES)
@example(prefill=list(range(600)), start=1000, n=700)
@example(prefill=list(range(600)), start=500, n=700)
# line 1005 is popped with its prefill bytes, rewritten by the span and
# popped again: only pop-order media writes leave the span's bytes
@example(prefill=[1005] + list(range(511)), start=1000, n=1100)
@settings(max_examples=40, deadline=None)
def test_span_write_matches_line_writes(prefill, start, n):
    span, lines = _loaded(prefill, []), _loaded(prefill, [])
    data = _span_data(start, n)
    span.write_lines(start * CACHELINE_BYTES, data)
    for i in range(n):
        off = i * CACHELINE_BYTES
        lines.write_lines(start * CACHELINE_BYTES + off,
                          data[off:off + CACHELINE_BYTES])
    assert _state(span) == _state(lines)


@given(prefill=prefills, writes=st.lists(spans, max_size=3),
       reads=st.lists(spans, min_size=1, max_size=6))
@example(prefill=list(range(600)), writes=[(500, 700)],
         reads=[(0, MAX_SPAN), (1100, 100)])
@settings(max_examples=40, deadline=None)
def test_read_overlays_buffer_like_a_full_scan(prefill, writes, reads):
    dev = _loaded(prefill, writes)
    for start, n in reads:
        dpa = start * CACHELINE_BYTES
        assert dev.read_lines(dpa, n) == _scan_read(dev, dpa, n)


@given(prefill=prefills, writes=st.lists(spans, max_size=2),
       holdup=st.floats(0.0, 1.0))
@example(prefill=[1005] + list(range(511)), writes=[(1000, 1100)],
         holdup=0.5)
@example(prefill=list(range(40)), writes=[], holdup=1.0)
@settings(max_examples=40, deadline=None)
def test_drains_match_line_writes_in_buffer_order(prefill, writes, holdup):
    flushed, drained, ref_flush, ref_drain = (
        _loaded(prefill, writes) for _ in range(4))
    n = len(ref_flush._write_buffer)
    drain = int(n * holdup)
    # the references write one buffered line at a time, oldest first
    for addr, line in ref_flush._write_buffer.items():
        ref_flush.memory.write(addr, line)
    for addr in list(ref_drain._write_buffer)[:drain]:
        ref_drain.memory.write(addr, ref_drain._write_buffer[addr])

    assert flushed.flush() == n
    assert drained.power_fail(holdup_fraction=holdup) == n - drain
    assert flushed.dirty_lines == drained.dirty_lines == 0
    assert (flushed.memory.read(0, REGION)
            == ref_flush.memory.read(0, REGION))
    assert (drained.memory.read(0, REGION)
            == ref_drain.memory.read(0, REGION))
