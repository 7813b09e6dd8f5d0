"""Property test: the transaction's snapshot index against a scan.

``Transaction._covered`` answers "does one earlier snapshot hold all of
this range?" from a sorted index of the snapshots.  The scan it
replaced, ``any(o <= off and off + n <= o + ln for o, ln in
snapshots)``, is the oracle: before every ``add_ranges`` call both must
agree on every range of the stream, and the call must snapshot exactly
the ranges the scan calls uncovered, each checked against earlier calls
only, never against the call's other ranges.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.pmdk.alloc import PersistentHeap
from repro.pmdk.pmem import VolatileRegion
from repro.pmdk.tx import Transaction, UndoLog

LOG_SIZE = 256 * 1024
SPAN = 1024          # snapshots start in [LOG_SIZE, LOG_SIZE + SPAN)
MAX_LEN = 512
HEAP_OFF = LOG_SIZE + SPAN + MAX_LEN
HEAP_SIZE = 64 * 1024

ranges = st.tuples(st.integers(0, SPAN - 1), st.integers(1, MAX_LEN))
calls = st.lists(st.lists(ranges, min_size=1, max_size=4),
                 min_size=1, max_size=25)


def _scan(snapshots, offset: int, length: int) -> bool:
    return any(o <= offset and offset + length <= o + n
               for o, n in snapshots)


def _tx() -> Transaction:
    region = VolatileRegion(HEAP_OFF + HEAP_SIZE)
    log = UndoLog(region, 0, LOG_SIZE)
    log.format()
    return Transaction(log, PersistentHeap.format(region, HEAP_OFF,
                                                  HEAP_SIZE))


@given(calls=calls)
@settings(max_examples=150, deadline=None)
def test_covered_index_matches_the_scan(calls):
    tx = _tx()
    probes = [r for call in calls for r in call]
    snapshots: list[tuple[int, int]] = []
    with tx:
        for call in calls:
            for off, n in probes:
                assert tx._covered(LOG_SIZE + off, n) == \
                    _scan(snapshots, off, n)
            snapshots += [(o, n) for o, n in call
                          if not _scan(snapshots, o, n)]
            tx.add_ranges([(LOG_SIZE + o, n) for o, n in call])
            assert tx._snapshots == [(LOG_SIZE + o, n) for o, n in snapshots]
    # committing clears the index with the snapshots
    assert not any(tx._covered(LOG_SIZE + o, n) for o, n in probes)
