"""CXL devices. The Type-3 memory expander is the paper's prototype.

The expander holds *real* backing memory (sparse, page-granular, with
dense-mappable windows used by the persistent-memory namespaces in
:mod:`repro.core`), serves CXL.mem reads and writes as spans of whole
cachelines, and models the persistence domain: a device-side write buffer
that is covered by the battery ("potentially backed by battery, like
previous battery-backed DIMMs" — paper Section 1.4) or not, a Global
Persistent Flush, and power-fail semantics.
"""

from __future__ import annotations

import enum
from collections import OrderedDict
from dataclasses import dataclass
from itertools import islice
from typing import Any, Iterable, Iterator, Mapping

import numpy as np

from repro.cxl.mailbox import Mailbox, MailboxOpcode
from repro.cxl.spec import CACHELINE_BYTES, DeviceType
from repro.errors import CxlError, CxlPoisonError
from repro import obs
from repro.machine.dram import DramSpeedGrade, population_effective_gbps

_PAGE = 4096


class SparseMemory:
    """Sparse byte-addressable memory with dense-mappable windows.

    Pages materialize on first write; :meth:`map_dense` carves a contiguous
    NumPy-backed window (used for zero-copy persistent-memory namespaces)
    that takes over the bytes of any pages it overlaps.
    """

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise CxlError("memory capacity must be positive")
        self.capacity = capacity
        self._pages: dict[int, np.ndarray] = {}
        self._dense: list[tuple[int, np.ndarray]] = []   # sorted by start

    def _check_range(self, offset: int, length: int) -> None:
        if offset < 0 or length < 0 or offset + length > self.capacity:
            raise CxlError(
                f"range [{offset:#x}, {offset + length:#x}) outside "
                f"capacity {self.capacity:#x}"
            )

    def map_dense(self, offset: int, size: int) -> np.ndarray:
        """Return a dense uint8 window over ``[offset, offset+size)``.

        The window aliases device media: transaction-level reads/writes and
        the returned array see each other's data.
        """
        self._check_range(offset, size)
        if size == 0:
            raise CxlError("dense window must be non-empty")
        for start, arr in self._dense:          # sorted, disjoint
            if start <= offset < start + len(arr):
                if offset + size <= start + len(arr):
                    rel = offset - start
                    return arr[rel:rel + size]
                raise CxlError(
                    "requested window straddles a dense segment edge")
            if offset < start + len(arr) and start < offset + size:
                raise CxlError("dense windows may not partially overlap")
        window = np.zeros(size, dtype=np.uint8)
        # absorb previously-written sparse pages; a page the window only
        # partly covers stays, holding the bytes outside the window
        first_page = offset // _PAGE
        last_page = (offset + size - 1) // _PAGE
        for pno in range(first_page, last_page + 1):
            page = self._pages.get(pno)
            if page is None:
                continue
            pstart = pno * _PAGE
            lo = max(pstart, offset)
            hi = min(pstart + _PAGE, offset + size)
            window[lo - offset:hi - offset] = page[lo - pstart:hi - pstart]
            if hi - lo == _PAGE:
                del self._pages[pno]
        self._dense.append((offset, window))
        self._dense.sort(key=lambda s: s[0])
        return window

    def _pieces(self, offset: int, length: int
                ) -> Iterator[tuple[int, int, int, np.ndarray | None]]:
        """Split ``[offset, offset+length)`` at dense-window and page
        edges: yield ``(pos, take, start, arr)``, ``take`` bytes at
        ``pos`` held by ``arr`` (the window, the page, or ``None`` for a
        page never written) whose first byte is at ``start``."""
        pos, end = offset, offset + length
        while pos < end:
            start = pos - pos % _PAGE
            arr, stop = self._pages.get(start // _PAGE), start + _PAGE
            for wstart, window in self._dense:      # sorted, disjoint
                if pos < wstart:                    # the page ends early
                    stop = min(stop, wstart)
                    break
                if pos < wstart + len(window):
                    start, arr, stop = wstart, window, wstart + len(window)
                    break
            take = min(end, stop) - pos
            yield pos, take, start, arr
            pos += take

    def read(self, offset: int, length: int) -> bytes:
        self._check_range(offset, length)
        out = bytearray(length)
        for pos, take, start, arr in self._pieces(offset, length):
            if arr is not None:
                out[pos - offset:pos - offset + take] = (
                    arr[pos - start:pos - start + take].data)
        return bytes(out)

    def write(self, offset: int, data: bytes | bytearray | memoryview) -> None:
        data = bytes(data)
        self._check_range(offset, len(data))
        for pos, take, start, arr in self._pieces(offset, len(data)):
            if arr is None:
                arr = self._pages[start // _PAGE] = np.zeros(
                    _PAGE, dtype=np.uint8)
            arr[pos - start:pos - start + take] = np.frombuffer(
                data, np.uint8, count=take, offset=pos - offset)

    def zero(self) -> None:
        """Zero every byte in place: dense windows keep aliasing media
        (a mapped namespace reads the zeros), sparse pages are dropped."""
        for _, arr in self._dense:
            arr.fill(0)
        self._pages.clear()

    @property
    def resident_bytes(self) -> int:
        """Bytes of actually materialized storage."""
        return len(self._pages) * _PAGE + sum(len(a) for _, a in self._dense)


@dataclass(frozen=True)
class MediaController:
    """The device-side memory controller driving the media DIMMs.

    For the paper's prototype: two DDR4-1333 modules behind the FPGA soft
    memory controller, whose implementation efficiency — not the CXL link —
    sets the bandwidth ceiling.
    """

    name: str
    grade: DramSpeedGrade
    channels: int
    modules: int
    module_capacity: int
    controller_efficiency: float
    media_latency_ns: float

    def __post_init__(self) -> None:
        if self.modules < 1 or self.channels < 1:
            raise CxlError("media controller needs modules and channels")
        if self.module_capacity <= 0:
            raise CxlError("module capacity must be positive")
        if not 0 < self.controller_efficiency <= 1:
            raise CxlError("controller_efficiency must be in (0, 1]")

    @property
    def capacity_bytes(self) -> int:
        return self.modules * self.module_capacity

    @property
    def effective_stream_gbps(self) -> float:
        return population_effective_gbps(
            self.channels, self.grade, self.controller_efficiency
        )


class ShutdownState(enum.Enum):
    CLEAN = "clean"
    DIRTY = "dirty"


class Type3Device:
    """A CXL Type-3 memory expander with a persistence-domain model.

    Write path: an inbound ``MemWr`` lands in the device write buffer.  If
    the device is ``battery_backed``, the buffer is *inside* the
    persistence domain, so data is durable on arrival — this is the paper's
    central claim ("the CXL memory was located outside of the node, in an
    FPGA device, potentially backed by battery").  Without a battery, data
    is durable only once flushed to media (Global Persistent Flush or
    explicit flush); a power failure drops whatever still sits in the
    buffer.
    """

    WRITE_BUFFER_LINES = 512

    def __init__(self, name: str, media: MediaController,
                 battery_backed: bool = True,
                 gpf_supported: bool = True,
                 lsa_bytes: int = 4096,
                 serial: int = 0xC0FFEE) -> None:
        self.name = name
        self.media = media
        self.battery_backed = battery_backed
        self.gpf_supported = gpf_supported
        self.serial = serial
        self.device_type = DeviceType.TYPE3

        from repro.cxl.config import build_config_space
        from repro.cxl.spec import CxlVersion
        self.config_space = build_config_space(
            device_id=serial & 0xFFFF,
            device_type=DeviceType.TYPE3,
            version=CxlVersion.CXL_2_0,
            gpf_supported=gpf_supported,
        )

        self.memory = SparseMemory(media.capacity_bytes)
        # dpa -> cacheline, oldest first; popitem(last=False) pops the
        # oldest in O(1), where a dict's first key is found by walking
        # past the entries popped before it
        self._write_buffer: OrderedDict[int, bytes] = OrderedDict()
        self._lsa = bytearray(lsa_bytes)
        self._shutdown_state = ShutdownState.CLEAN
        self._poison: set[int] = set()
        self._quarantined: set[int] = set()         # scrubbed (data lost)
        self._powered = True

        # partition: volatile first, persistent after
        self._volatile_bytes = 0
        self._persistent_bytes = media.capacity_bytes

        self.stats = {"reads": 0, "writes": 0, "flushes": 0, "gpf": 0,
                      "scrubs": 0}

        self.mailbox = Mailbox()
        self._register_mailbox_handlers()

    # ------------------------------------------------------------------
    # capacity & partitions
    # ------------------------------------------------------------------

    @property
    def capacity_bytes(self) -> int:
        return self.media.capacity_bytes

    @property
    def volatile_bytes(self) -> int:
        return self._volatile_bytes

    @property
    def persistent_bytes(self) -> int:
        return self._persistent_bytes

    @property
    def persistent_base_dpa(self) -> int:
        """DPA where the persistent partition starts."""
        return self._volatile_bytes

    def set_partition(self, volatile_bytes: int) -> None:
        """Repartition capacity (256 MiB alignment, like real devices)."""
        align = 256 * 1024 * 1024
        if volatile_bytes % align and volatile_bytes != 0:
            raise CxlError(f"partition must be {align}-byte aligned")
        if not 0 <= volatile_bytes <= self.capacity_bytes:
            raise CxlError("volatile partition exceeds device capacity")
        self._volatile_bytes = volatile_bytes
        self._persistent_bytes = self.capacity_bytes - volatile_bytes

    def is_persistent_dpa(self, dpa: int) -> bool:
        return dpa >= self._volatile_bytes

    # ------------------------------------------------------------------
    # CXL.mem line transfers
    # ------------------------------------------------------------------

    def _check_power(self) -> None:
        if not self._powered:
            raise CxlError(f"device {self.name} is powered off")

    def _line_addr(self, addr: int) -> int:
        if addr % CACHELINE_BYTES:
            raise CxlError(f"unaligned cacheline address {addr:#x}")
        if not 0 <= addr < self.capacity_bytes:
            raise CxlError(
                f"DPA {addr:#x} outside device capacity {self.capacity_bytes:#x}"
            )
        return addr

    def _write_runs(self, lines: Iterable[tuple[int, bytes]]) -> None:
        """Write ``(dpa, line)`` pairs to media in the given order, one
        media write per run of consecutive addresses (a later write of
        the same line wins)."""
        runs: list[tuple[int, list[bytes]]] = []
        nxt = -1
        for addr, line in lines:
            if addr != nxt:
                runs.append((addr, []))
            runs[-1][1].append(line)
            nxt = addr + CACHELINE_BYTES
        for start, run in runs:
            self.memory.write(start, b"".join(run))

    def _check_span(self, dpa: int, nbytes: int) -> int:
        self._check_power()
        self._line_addr(dpa)
        end = dpa + nbytes
        if end > self.capacity_bytes:
            raise CxlError(
                f"batched span [{dpa:#x}, {end:#x}) outside device "
                f"capacity {self.capacity_bytes:#x}"
            )
        return end

    def read_lines(self, dpa: int, count: int) -> bytes:
        """MemRd of ``count`` consecutive cachelines starting at ``dpa``.

        Coherent with the write buffer: buffered lines overlay media.  A
        poisoned line fails the whole span:

        Raises:
            CxlPoisonError: any line in the span is poisoned (no line is
                serviced, the read is not counted).
            CxlError: unaligned/out-of-range span or the device is off.
        """
        if count < 0:
            raise CxlError(f"negative line count {count}")
        if count == 0:
            self._check_power()
            return b""
        end = self._check_span(dpa, count * CACHELINE_BYTES)
        if self._poison:
            hit = sorted(a for a in self._poison if dpa <= a < end)
            if hit:
                obs.inc("cxl.device.poison_served", len(hit))
                # scrub-on-read: quarantine + zero every poisoned line in
                # the span so the retried read succeeds with clean data
                for addr in hit:
                    self.scrub_line(addr)
                raise CxlPoisonError(
                    f"{len(hit)} poisoned line(s) at DPA "
                    f"{', '.join(hex(a) for a in hit)} in batched read "
                    f"[{dpa:#x}, {end:#x})",
                    dpas=tuple(hit),
                )
        self.stats["reads"] += count
        data = bytearray(self.memory.read(dpa, count * CACHELINE_BYTES))
        wb = self._write_buffer
        for addr in range(dpa, end, CACHELINE_BYTES):
            if addr in wb:
                data[addr - dpa:addr - dpa + CACHELINE_BYTES] = wb[addr]
        return bytes(data)

    def write_lines(self, dpa: int, data: bytes | bytearray | memoryview) -> None:
        """MemWr of whole cachelines starting at ``dpa``.

        Each line lands in the write buffer (a rewritten line keeps its
        place), lifts any poison or quarantine on it, and evicts the
        oldest buffered line once more than :data:`WRITE_BUFFER_LINES`
        are buffered.  The evicted lines reach media after the walk, in
        eviction order, one media write per run of consecutive
        addresses; nothing touches media during the walk, so that is
        what writing each line as it is evicted leaves.
        """
        data = bytes(data)
        n, rem = divmod(len(data), CACHELINE_BYTES)
        if rem:
            raise CxlError(
                f"write_lines takes whole {CACHELINE_BYTES}-byte lines, "
                f"got {len(data)} bytes"
            )
        if n == 0:
            self._check_power()
            return
        end = self._check_span(dpa, len(data))
        self.stats["writes"] += n
        if self._poison:
            self._poison -= {a for a in self._poison if dpa <= a < end}
        if self._quarantined:
            self._quarantined -= {
                a for a in self._quarantined if dpa <= a < end}
        wb = self._write_buffer
        keep = self.WRITE_BUFFER_LINES
        evicted = []
        for off in range(0, len(data), CACHELINE_BYTES):
            wb[dpa + off] = data[off:off + CACHELINE_BYTES]
            if len(wb) > keep:
                evicted.append(wb.popitem(last=False))
        self._write_runs(evicted)

    # ------------------------------------------------------------------
    # persistence domain
    # ------------------------------------------------------------------

    @property
    def dirty_lines(self) -> int:
        """Cachelines in the write buffer not yet written to media."""
        return len(self._write_buffer)

    @property
    def persistence_guaranteed(self) -> bool:
        """Whether an acknowledged write is durable against power loss."""
        return self.battery_backed or self.gpf_supported

    def flush(self) -> int:
        """Drain the write buffer to media; returns lines flushed."""
        self._check_power()
        n = len(self._write_buffer)
        self._write_runs(self._write_buffer.items())
        self._write_buffer.clear()
        self.stats["flushes"] += 1
        return n

    def global_persistent_flush(self) -> int:
        """CXL Global Persistent Flush (host-initiated, pre-power-loss)."""
        if not self.gpf_supported:
            raise CxlError(f"device {self.name} does not support GPF")
        self.stats["gpf"] += 1
        return self.flush()

    def power_fail(self, gpf_energy_ok: bool = True,
                   holdup_fraction: float | None = None) -> int:
        """Sudden power loss.  Returns the number of lines *lost*.

        Three outcomes, mirroring the CXL persistence-domain options:

        * battery backed — the buffer drains on battery power; no loss;
        * GPF supported and the platform's hold-up energy sufficed
          (``gpf_energy_ok``) — the Global Persistent Flush runs as the
          power fails; no loss;
        * neither — unflushed lines vanish, shutdown state goes dirty.

        ``holdup_fraction`` overrides those outcomes with a *partial*
        drain drill: the fraction of the write buffer the failing
        battery could carry to media.  Lines drain oldest-first (the
        buffer's eviction order), so exactly
        ``floor(holdup_fraction * dirty)`` oldest lines become durable
        and the rest are dropped — the drill
        :class:`~repro.core.battery.PowerDomain` runs for a degraded
        battery.
        """
        self._check_power()
        if holdup_fraction is not None:
            if not 0.0 <= holdup_fraction <= 1.0:
                raise CxlError("holdup_fraction must be in [0, 1]")
            n = len(self._write_buffer)
            drain = min(n, int(n * holdup_fraction))
            self._write_runs(islice(self._write_buffer.items(), drain))
            lost = n - drain
            self._write_buffer.clear()
            self.stats["flushes"] += 1
            self._shutdown_state = (
                ShutdownState.DIRTY if lost else ShutdownState.CLEAN
            )
            self._powered = False
            obs.inc("cxl.device.power_fail_partial")
            return lost
        if self.battery_backed or (self.gpf_supported and gpf_energy_ok):
            lost = 0
            if not self.battery_backed:
                self.stats["gpf"] += 1
            self.flush()
            self._shutdown_state = ShutdownState.CLEAN
        else:
            lost = len(self._write_buffer)
            self._write_buffer.clear()
            self._shutdown_state = (
                ShutdownState.DIRTY if lost else ShutdownState.CLEAN
            )
        self._powered = False
        return lost

    def power_on(self) -> None:
        self._powered = True

    @property
    def powered(self) -> bool:
        return self._powered

    @property
    def shutdown_state(self) -> ShutdownState:
        return self._shutdown_state

    def mark_clean_shutdown(self) -> None:
        self.flush()
        self._shutdown_state = ShutdownState.CLEAN

    def inject_poison(self, dpa: int) -> None:
        """Mark a cacheline poisoned (media error)."""
        self._poison.add(self._line_addr(dpa))
        obs.inc("cxl.device.poison_injected")

    def scrub_line(self, dpa: int) -> None:
        """Quarantine and zero one poisoned cacheline.

        Models the RAS scrub cycle: the line's content is declared lost
        (zeroed on media, dropped from the write buffer), the poison flag
        clears, and the line lands on the quarantine list until a host
        write supplies fresh data.  Reads after a scrub succeed — data
        loss stays contained to the line instead of wedging the pool.
        """
        addr = self._line_addr(dpa)
        self._write_buffer.pop(addr, None)
        self.memory.write(addr, b"\x00" * CACHELINE_BYTES)
        self._poison.discard(addr)
        self._quarantined.add(addr)
        self.stats["scrubs"] += 1
        obs.inc("cxl.device.scrubs")

    @property
    def quarantined_lines(self) -> frozenset[int]:
        """DPAs scrubbed after poison and not yet rewritten."""
        return frozenset(self._quarantined)

    # ------------------------------------------------------------------
    # mailbox command handlers
    # ------------------------------------------------------------------

    def _register_mailbox_handlers(self) -> None:
        mb = self.mailbox
        mb.register(MailboxOpcode.IDENTIFY_MEMORY_DEVICE, self._cmd_identify)
        mb.register(MailboxOpcode.GET_PARTITION_INFO, self._cmd_get_partition)
        mb.register(MailboxOpcode.SET_PARTITION_INFO, self._cmd_set_partition)
        mb.register(MailboxOpcode.GET_LSA, self._cmd_get_lsa)
        mb.register(MailboxOpcode.SET_LSA, self._cmd_set_lsa)
        mb.register(MailboxOpcode.GET_HEALTH_INFO, self._cmd_health)
        mb.register(MailboxOpcode.GET_SHUTDOWN_STATE, self._cmd_get_shutdown)
        mb.register(MailboxOpcode.SET_SHUTDOWN_STATE, self._cmd_set_shutdown)
        mb.register(MailboxOpcode.SANITIZE, self._cmd_sanitize)

    def _cmd_identify(self, payload: Mapping[str, Any]) -> dict[str, Any]:
        return {
            "fw_revision": "repro-1.0",
            "serial": self.serial,
            "total_capacity": self.capacity_bytes,
            "volatile_only_capacity": 0,
            "persistent_only_capacity": 0,
            "partition_alignment": 256 * 1024 * 1024,
            "lsa_size": len(self._lsa),
            "device_type": int(self.device_type),
            "battery_backed": self.battery_backed,
            "gpf_supported": self.gpf_supported,
        }

    def _cmd_get_partition(self, payload: Mapping[str, Any]) -> dict[str, Any]:
        return {
            "active_volatile": self._volatile_bytes,
            "active_persistent": self._persistent_bytes,
        }

    def _cmd_set_partition(self, payload: Mapping[str, Any]) -> dict[str, Any]:
        self.set_partition(int(payload["volatile_bytes"]))
        return self._cmd_get_partition({})

    def _cmd_get_lsa(self, payload: Mapping[str, Any]) -> dict[str, Any]:
        offset = int(payload.get("offset", 0))
        length = int(payload.get("length", len(self._lsa) - offset))
        if offset < 0 or length < 0 or offset + length > len(self._lsa):
            raise ValueError("LSA range out of bounds")
        return {"data": bytes(self._lsa[offset:offset + length])}

    def _cmd_set_lsa(self, payload: Mapping[str, Any]) -> dict[str, Any]:
        offset = int(payload.get("offset", 0))
        data = payload["data"]
        if offset < 0 or offset + len(data) > len(self._lsa):
            raise ValueError("LSA range out of bounds")
        self._lsa[offset:offset + len(data)] = data
        return {"written": len(data)}

    def _cmd_health(self, payload: Mapping[str, Any]) -> dict[str, Any]:
        return {
            "health_status": "ok" if not self._poison else "degraded",
            "media_errors": len(self._poison),
            "quarantined_lines": len(self._quarantined),
            "dirty_shutdown_count": int(
                self._shutdown_state is ShutdownState.DIRTY
            ),
            "temperature_c": 45,
        }

    def _cmd_get_shutdown(self, payload: Mapping[str, Any]) -> dict[str, Any]:
        return {"state": self._shutdown_state.value}

    def _cmd_set_shutdown(self, payload: Mapping[str, Any]) -> dict[str, Any]:
        state = ShutdownState(payload["state"])
        self._shutdown_state = state
        return {"state": state.value}

    def _cmd_sanitize(self, payload: Mapping[str, Any]) -> dict[str, Any]:
        self._write_buffer.clear()
        self.memory.zero()
        self._poison.clear()
        self._quarantined.clear()
        return {"sanitized": True}
