"""A functional PMDK: persistent pools, allocator, transactions.

This package reimplements, in Python, the PMDK pieces the paper's
STREAM-PMem port relies on (Listings 1–2 and Section 3.1):

* :mod:`repro.pmdk.pmem` — the libpmem layer: byte-addressable persistent
  regions (file-backed, volatile, or CXL-device-backed) with
  ``persist``/``drain`` semantics;
* :mod:`repro.pmdk.pool` — libpmemobj pools: header, layout name, root
  object, ``pmemobj_create``/``open`` equivalents;
* :mod:`repro.pmdk.alloc` — the crash-consistent persistent heap;
* :mod:`repro.pmdk.oid` — ``PMEMoid`` persistent pointers;
* :mod:`repro.pmdk.tx` — undo-log transactions ("either all of the
  modifications are successfully applied or none of them take effect");
* :mod:`repro.pmdk.containers` — persistent arrays and lists built on top;
* :mod:`repro.pmdk.crash` — the store-buffer crash-injection harness;
* :mod:`repro.pmdk.check` — the ``pmempool check`` equivalent.

Unlike the bandwidth model, nothing here is simulated: pools written
through this package survive process restarts and arbitrary injected
crashes, and recovery genuinely repairs them.
"""

from repro.pmdk.dirty import DirtyTracker, coalesce_ranges
from repro.pmdk.pmem import (
    FileRegion,
    PmemRegion,
    VolatileRegion,
    map_file,
    memcpy_persist,
)
from repro.pmdk.oid import OID_NULL, PMEMoid
from repro.pmdk.pool import PmemObjPool
from repro.pmdk.tx import Transaction
from repro.pmdk.containers import PersistentArray, PersistentList
from repro.pmdk.crash import CrashController, CrashRegion
from repro.pmdk.check import CheckReport, check_pool
from repro.pmdk.pmemlog import PmemLog
from repro.pmdk.pmemblk import PmemBlk
from repro.pmdk.fs import FileStat, PmemFileStore

__all__ = [
    "CheckReport",
    "CrashController",
    "CrashRegion",
    "DirtyTracker",
    "FileRegion",
    "OID_NULL",
    "PMEMoid",
    "PersistentArray",
    "PersistentList",
    "FileStat",
    "PmemBlk",
    "PmemFileStore",
    "PmemLog",
    "PmemObjPool",
    "PmemRegion",
    "Transaction",
    "VolatileRegion",
    "check_pool",
    "coalesce_ranges",
    "map_file",
    "memcpy_persist",
]
