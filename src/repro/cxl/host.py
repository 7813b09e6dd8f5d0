"""Host-side CXL.mem master: the read/write engine over a link.

This is the piece that sits in the CPU's uncore on real silicon (and in
the R-Tile hard IP on the prototype): it turns load/store traffic into
CXL.mem messages and packs them into flits.

:class:`CxlMemPort` is functional — its calls really move bytes to/from
the device — and keeps the wire statistics (flits, payload bytes,
efficiency) the ablation benches report.  Every access is a span of
whole cachelines: :meth:`CxlMemPort.read_lines` /
:meth:`CxlMemPort.write_lines` issue it in chunks of :data:`CHUNK_LINES`,
one device call per chunk, and ``read_line``/``write_line`` are
one-line spans.  The wire is accounted per 16-message flit batch from
three counters, exactly as :class:`repro.cxl.flit.FlitPacker` would pack
the Req/RwD and NDR/DRS messages the spans stand for.

The port models no flow control: each device call returns before the
next chunk starts, so no tag or credit would ever be short.  The
outstanding-request bound that shapes bandwidth lives in the memory
simulator — the Little's-law per-thread caps of
:mod:`repro.memsim.concurrency` and the DES's closed-loop MLP windows.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro import faults, obs
from repro.cxl.device import Type3Device
from repro.cxl.flit import USABLE_HALF_SLOTS, class_half_slots
from repro.cxl.link import CxlLink
from repro.cxl.spec import CACHELINE_BYTES, FLIT_BYTES
from repro.cxl.transaction import M2SReq, M2SRwD, S2MDRS, S2MNDR
from repro.errors import (
    CxlError,
    CxlPoisonError,
    CxlTimeoutError,
    CxlTransientError,
)

#: lines per device call of a span: the burst that 64 tags and 32
#: request credits allow a port with nothing else in flight
CHUNK_LINES = 32

#: flit half-slots one message of each class fills: its header plus two
#: per data slot
_REQ, _RWD, _NDR, _DRS = (
    header + 2 * data for header, data in
    map(class_half_slots, (M2SReq, M2SRwD, S2MNDR, S2MDRS)))


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff for transient CXL datapath faults.

    A failed operation is retried up to ``max_retries`` times; attempt
    ``k`` (1-based) waits ``base_delay_ns * backoff_factor**(k-1)``
    capped at ``max_delay_ns``, plus/minus up to ``jitter_frac`` of the
    delay (seeded — deterministic).  The delay is *modelled*, not slept:
    it accumulates in :attr:`PortStats.backoff_ns` like the flit model
    accumulates wire bytes.

    ``error_budget`` is the port-wide cap on transient errors absorbed
    over the port's lifetime; once spent, the next transient error
    escalates immediately to :class:`~repro.errors.CxlTimeoutError` —
    a link that flaps forever must not be retried forever.
    """

    max_retries: int = 4
    base_delay_ns: float = 500.0
    backoff_factor: float = 2.0
    max_delay_ns: float = 64_000.0
    jitter_frac: float = 0.1
    error_budget: int = 64
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise CxlError("max_retries must be >= 0")
        if self.base_delay_ns < 0 or self.max_delay_ns < self.base_delay_ns:
            raise CxlError("need 0 <= base_delay_ns <= max_delay_ns")
        if self.backoff_factor < 1.0:
            raise CxlError("backoff_factor must be >= 1")
        if not 0.0 <= self.jitter_frac <= 1.0:
            raise CxlError("jitter_frac must be in [0, 1]")
        if self.error_budget < 0:
            raise CxlError("error_budget must be >= 0")

    def delay_ns(self, attempt: int, rng: random.Random) -> float:
        """Backoff before retry ``attempt`` (1-based), jitter applied."""
        base = min(self.base_delay_ns * self.backoff_factor ** (attempt - 1),
                   self.max_delay_ns)
        if self.jitter_frac:
            base *= 1.0 + self.jitter_frac * (2.0 * rng.random() - 1.0)
        return base


@dataclass
class PortStats:
    """Wire accounting for one port."""

    reads: int = 0
    writes: int = 0
    poisoned_reads: int = 0
    retries: int = 0
    timeouts: int = 0
    backoff_ns: float = 0.0
    m2s_flits: int = 0
    s2m_flits: int = 0
    m2s_wire_bytes: int = 0
    s2m_wire_bytes: int = 0
    payload_bytes: int = 0

    @property
    def total_wire_bytes(self) -> int:
        return self.m2s_wire_bytes + self.s2m_wire_bytes

    def efficiency(self) -> float:
        """Payload bytes per wire byte on the busier direction."""
        busier = max(self.m2s_wire_bytes, self.s2m_wire_bytes)
        return self.payload_bytes / busier if busier else 0.0


class CxlMemPort:
    """A host CXL.mem port bound to one Type-3 device.

    The port issues spans in :data:`CHUNK_LINES`-line chunks and charges
    flits per 16-message batch — so its statistics reflect realistic
    wire behaviour rather than one-flit-per-message accounting.
    """

    def __init__(self, link: CxlLink, device: Type3Device,
                 retry: RetryPolicy | None = None) -> None:
        self.link = link
        self.device = device
        self.retry = retry or RetryPolicy()
        self.stats = PortStats()
        self._retry_rng = random.Random(self.retry.seed)
        self._transient_errors = 0
        # the open flit batch: its messages, and the half-slots they fill
        # in each direction
        self._open = 0
        self._m2s_half = 0
        self._s2m_half = 0

    # ------------------------------------------------------------------
    # transient-fault absorption (timeout detection + retry/backoff)
    # ------------------------------------------------------------------

    def _device_call(self, op: str, dpa: int, nlines: int, fn):
        """Issue one device access, riding out transient faults.

        With no fault plan installed this is a single plan check plus
        the call — the fault-free datapath stays byte-identical.  Under
        an active plan, each attempt first consults the plan (which may
        inject a timeout / link-down), then calls the device; transient
        errors are retried per :class:`RetryPolicy` with the modelled
        backoff accumulated in :attr:`PortStats.backoff_ns`.

        Raises:
            CxlTimeoutError: retries or the port error budget exhausted.
        """
        if not faults.enabled():
            return fn()
        policy = self.retry
        attempt = 0
        while True:
            try:
                faults.on_cxl_op(op, self.device.name, self.link.name,
                                 dpa, nlines,
                                 inject_poison=self.device.inject_poison)
                return fn()
            except CxlTransientError as exc:
                self._transient_errors += 1
                if self._transient_errors > policy.error_budget:
                    self.stats.timeouts += 1
                    obs.inc("cxl.timeouts")
                    raise CxlTimeoutError(
                        f"port error budget ({policy.error_budget}) "
                        f"exhausted on {op} at DPA {dpa:#x}: {exc}",
                        attempts=attempt + 1, budget_exhausted=True,
                    ) from exc
                attempt += 1
                if attempt > policy.max_retries:
                    self.stats.timeouts += 1
                    obs.inc("cxl.timeouts")
                    raise CxlTimeoutError(
                        f"{op} at DPA {dpa:#x} failed after "
                        f"{policy.max_retries} retries: {exc}",
                        attempts=attempt,
                    ) from exc
                self.stats.retries += 1
                self.stats.backoff_ns += policy.delay_ns(
                    attempt, self._retry_rng)
                obs.inc("cxl.retries")

    @property
    def error_budget_left(self) -> float:
        """Fraction of the port-wide transient-error budget remaining.

        1.0 is a pristine link, 0.0 a port whose next transient error
        escalates to :class:`~repro.errors.CxlTimeoutError`.  The RAS
        health signal the KV-cache router folds into its CXL-aware
        placement score.
        """
        budget = self.retry.error_budget
        if budget <= 0:
            return 0.0
        return max(0.0, (budget - self._transient_errors) / budget)

    # ------------------------------------------------------------------
    # single-line operations
    # ------------------------------------------------------------------

    def read_line(self, dpa: int) -> bytes:
        """Read one 64-byte cacheline: a one-line :meth:`read_lines`."""
        return self.read_lines(dpa, 1)

    def write_line(self, dpa: int, data: bytes) -> None:
        """Write one 64-byte cacheline: a one-line :meth:`write_lines`."""
        if len(data) != CACHELINE_BYTES:
            raise CxlError(
                f"write_line takes {CACHELINE_BYTES} bytes, got {len(data)}"
            )
        self.write_lines(dpa, data)

    # ------------------------------------------------------------------
    # span operations
    # ------------------------------------------------------------------

    def read_lines(self, dpa: int, count: int) -> bytes:
        """Read ``count`` consecutive cachelines starting at ``dpa``.

        Issues the span in :data:`CHUNK_LINES`-line chunks; each chunk is
        one bulk device access, and each of its lines adds a Req/DRS pair
        to the open flit batch.

        Raises:
            CxlPoisonError: a poisoned line anywhere in the current
                chunk fails that whole chunk (earlier chunks were
                already delivered; the chunk's lines are not counted
                as reads or on the wire).
            CxlError: unaligned or out-of-capacity span.
        """
        if count < 0:
            raise CxlError(f"negative line count {count}")
        out = bytearray()
        for first in range(0, count, CHUNK_LINES):
            n = min(CHUNK_LINES, count - first)
            addr = dpa + first * CACHELINE_BYTES
            try:
                data = self._device_call(
                    "read", addr, n,
                    lambda a=addr, c=n: self.device.read_lines(a, c))
            except CxlPoisonError:
                self.stats.poisoned_reads += 1
                obs.inc("cxl.poison_reads")
                raise
            self._account(_REQ, _DRS, n)
            self.stats.reads += n
            self.stats.payload_bytes += n * CACHELINE_BYTES
            obs.inc("cxl.reads", n)
            out += data
        return bytes(out)

    def write_lines(self, dpa: int, data: bytes) -> None:
        """Write whole consecutive cachelines starting at ``dpa``.

        Issued in :data:`CHUNK_LINES`-line chunks; each line adds an
        RwD/NDR pair to the open flit batch.
        """
        if len(data) % CACHELINE_BYTES:
            raise CxlError(
                f"write_lines takes whole {CACHELINE_BYTES}-byte lines, "
                f"got {len(data)} bytes"
            )
        step = CHUNK_LINES * CACHELINE_BYTES
        for pos in range(0, len(data), step):
            chunk = data[pos:pos + step]
            n = len(chunk) // CACHELINE_BYTES
            self._device_call(
                "write", dpa + pos, n,
                lambda a=dpa + pos, c=chunk: self.device.write_lines(a, c))
            self._account(_RWD, _NDR, n)
            self.stats.writes += n
            self.stats.payload_bytes += len(chunk)
            obs.inc("cxl.writes", n)

    # ------------------------------------------------------------------
    # byte-granular operations
    # ------------------------------------------------------------------

    def read(self, dpa: int, length: int) -> bytes:
        """Cacheline-spanning read (unaligned edges handled).

        A zero-length read returns ``b""`` without touching the device.
        """
        if length < 0:
            raise CxlError("negative read length")
        if length == 0:
            return b""
        first = dpa // CACHELINE_BYTES * CACHELINE_BYTES
        last = (dpa + length + CACHELINE_BYTES - 1) // CACHELINE_BYTES \
            * CACHELINE_BYTES
        raw = self.read_lines(first, (last - first) // CACHELINE_BYTES)
        start = dpa - first
        return raw[start:start + length]

    def write(self, dpa: int, data: bytes) -> None:
        """Cacheline-spanning write (read-modify-write at the edges)."""
        end = dpa + len(data)
        pos = dpa
        within = pos % CACHELINE_BYTES
        if within and pos < end:
            line = pos - within
            take = min(end - pos, CACHELINE_BYTES - within)
            current = bytearray(self.read_line(line))
            current[within:within + take] = data[:take]
            self.write_line(line, bytes(current))
            pos += take
        body_lines = (end - pos) // CACHELINE_BYTES
        if body_lines:
            nbytes = body_lines * CACHELINE_BYTES
            self.write_lines(pos, data[pos - dpa:pos - dpa + nbytes])
            pos += nbytes
        if pos < end:
            take = end - pos
            current = bytearray(self.read_line(pos))
            current[:take] = data[pos - dpa:]
            self.write_line(pos, bytes(current))

    # ------------------------------------------------------------------
    # flit accounting
    # ------------------------------------------------------------------

    #: messages per flit batch
    _BATCH = 16

    def _account(self, m2s: int, s2m: int, count: int) -> None:
        """Add ``count`` message pairs, filling ``m2s`` and ``s2m``
        half-slots each, to the open batch; close it at every
        ``_BATCH`` messages."""
        while count:
            take = min(count, self._BATCH - self._open)
            self._open += take
            self._m2s_half += take * m2s
            self._s2m_half += take * s2m
            count -= take
            if self._open == self._BATCH:
                self._close_batch()

    def _close_batch(self) -> None:
        """Charge the open batch its flits in each direction.

        Every M2S header is 2 half-slots and every S2M header 1, so no
        header meets a flit with too little room and greedy packing
        never pads: a batch fills exactly ``ceil(half-slots /
        USABLE_HALF_SLOTS)`` flits per direction.
        """
        s = self.stats
        m2s = -(-self._m2s_half // USABLE_HALF_SLOTS)
        s2m = -(-self._s2m_half // USABLE_HALF_SLOTS)
        s.m2s_flits += m2s
        s.s2m_flits += s2m
        s.m2s_wire_bytes += m2s * FLIT_BYTES
        s.s2m_wire_bytes += s2m * FLIT_BYTES
        self._open = self._m2s_half = self._s2m_half = 0
        if obs.metrics_enabled():
            obs.inc("cxl.flits.m2s", m2s)
            obs.inc("cxl.flits.s2m", s2m)
            obs.inc("cxl.wire_bytes.m2s", m2s * FLIT_BYTES)
            obs.inc("cxl.wire_bytes.s2m", s2m * FLIT_BYTES)
            obs.gauge("cxl.wire_efficiency", s.efficiency())

    def flush_flits(self) -> None:
        """Close the open flit batch early and account its wire bytes."""
        if self._open:
            self._close_batch()

    def describe(self) -> str:
        s = self.stats
        return (f"port to {self.device.name}: {s.reads} reads, "
                f"{s.writes} writes, {s.m2s_flits}+{s.s2m_flits} flits, "
                f"wire efficiency {s.efficiency():.2f}")
