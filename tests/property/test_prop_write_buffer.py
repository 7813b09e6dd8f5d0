"""Property test: a span write equals the same lines written one by one.

``Type3Device.write_lines`` serves a span either line by line or, when
the span is at least as large as the write buffer and touches no
buffered line, by draining the buffer and writing media in bulk.  Both
must leave what writing the span one line at a time leaves.
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


def _device() -> Type3Device:
    media = MediaController("m", DDR4_1333, 2, 2, units.mib(32), 0.6, 130.0)
    return Type3Device("dut", media)


def _state(dev: Type3Device):
    return (list(dev._write_buffer.items()), dev.memory.read(0, REGION),
            dev.stats)


@given(prefill=st.lists(st.integers(0, LINES - 1), max_size=700),
       start=st.integers(0, LINES - 1), n=st.integers(1, MAX_SPAN))
@example(prefill=[], start=0, n=Type3Device.WRITE_BUFFER_LINES)
@example(prefill=list(range(600)), start=1000, n=700)
@example(prefill=list(range(600)), start=500, n=700)
@settings(max_examples=40, deadline=None)
def test_span_write_matches_line_writes(prefill, start, n):
    span, lines = _device(), _device()
    for dev in (span, lines):
        for line in prefill:
            dev.write_lines(line * CACHELINE_BYTES,
                            bytes([line % 251]) * CACHELINE_BYTES)
    data = random.Random(start * MAX_SPAN + n).randbytes(
        n * CACHELINE_BYTES)
    span.write_lines(start * CACHELINE_BYTES, data)
    for i in range(n):
        off = i * CACHELINE_BYTES
        lines.write_lines(start * CACHELINE_BYTES + off,
                          data[off:off + CACHELINE_BYTES])
    assert _state(span) == _state(lines)
