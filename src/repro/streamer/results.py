"""Result records and persistence for STREAMer sweeps."""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, fields
from typing import Iterable, Iterator

from repro.errors import BenchmarkError


@dataclass(frozen=True)
class ResultRecord:
    """One measured point: a (group, series, kernel, threads) cell."""

    group: str
    series: str
    label: str
    kernel: str
    mode: str
    testbed: str
    n_threads: int
    gbps: float

    def key(self) -> tuple:
        return (self.group, self.series, self.kernel, self.n_threads)


@dataclass(frozen=True)
class FailureRecord:
    """One sweep task the self-healing runner could not complete.

    ``attempts`` counts executions actually tried (0 for a task skipped
    because its series was already quarantined); ``quarantined`` marks
    tasks whose series was benched as a deterministic failer.
    """

    group: str
    series: str
    kernel: str
    testbed: str
    error_type: str
    message: str
    attempts: int
    quarantined: bool


#: field-name tuples for the flat-record fast path in ResultSet.to_json
_RECORD_FIELDS = tuple(f.name for f in fields(ResultRecord))
_FAILURE_FIELDS = tuple(f.name for f in fields(FailureRecord))
#: sort_keys order, precomputed (the wire format sorts keys)
_RECORD_FIELDS_SORTED = tuple(sorted(_RECORD_FIELDS))
_FAILURE_FIELDS_SORTED = tuple(sorted(_FAILURE_FIELDS))

_escape_str = json.encoder.encode_basestring_ascii


def _scalar_json(v) -> str:
    """One scalar exactly as ``json.dumps`` renders it."""
    if isinstance(v, str):
        return _escape_str(v)
    if v is True:
        return "true"
    if v is False:
        return "false"
    if isinstance(v, float):
        if v != v:
            return "NaN"
        if v == float("inf"):
            return "Infinity"
        if v == float("-inf"):
            return "-Infinity"
        return float.__repr__(v)
    return repr(v)          # int


def _rows_json(rows, names) -> str:
    """A list of flat records exactly as ``json.dumps(..., indent=0,
    sort_keys=True)`` renders it (one line per token, zero-width
    indent)."""
    if not rows:
        return "[]"
    blocks = []
    for r in rows:
        kv = ",\n".join(f'"{n}": {_scalar_json(getattr(r, n))}'
                        for n in names)
        blocks.append("{\n" + kv + "\n}")
    return "[\n" + ",\n".join(blocks) + "\n]"


class ResultSet:
    """An ordered, queryable collection of result records.

    ``failures`` carries the tasks a self-healing sweep gave up on; a
    fault-free run leaves it empty, and serialization only emits the
    section when it is populated — so fault-free output stays
    byte-identical with or without the failure machinery.
    """

    def __init__(self, records: Iterable[ResultRecord] = (),
                 failures: Iterable[FailureRecord] = ()) -> None:
        self._records: list[ResultRecord] = list(records)
        self.failures: list[FailureRecord] = list(failures)

    def add_failure(self, failure: FailureRecord) -> None:
        self.failures.append(failure)

    @property
    def complete(self) -> bool:
        """True when no sweep task was lost to a failure."""
        return not self.failures

    def add(self, record: ResultRecord) -> None:
        self._records.append(record)

    def extend(self, records: Iterable[ResultRecord]) -> None:
        self._records.extend(records)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[ResultRecord]:
        return iter(self._records)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def filter(self, group: str | None = None, series: str | None = None,
               kernel: str | None = None,
               n_threads: int | None = None) -> "ResultSet":
        out = [
            r for r in self._records
            if (group is None or r.group == group)
            and (series is None or r.series == series)
            and (kernel is None or r.kernel == kernel)
            and (n_threads is None or r.n_threads == n_threads)
        ]
        return ResultSet(out)

    def series_curve(self, series: str, kernel: str) -> list[tuple[int, float]]:
        """The (threads, GB/s) points of one trend, thread-ordered."""
        pts = [(r.n_threads, r.gbps) for r in self._records
               if r.series == series and r.kernel == kernel]
        return sorted(pts)

    def value(self, series: str, kernel: str, n_threads: int) -> float:
        """One cell; raises if absent or ambiguous."""
        hits = [r.gbps for r in self._records
                if r.series == series and r.kernel == kernel
                and r.n_threads == n_threads]
        if not hits:
            raise BenchmarkError(
                f"no result for series={series} kernel={kernel} "
                f"threads={n_threads}"
            )
        if len(hits) > 1:
            raise BenchmarkError(
                f"{len(hits)} results for series={series} kernel={kernel} "
                f"threads={n_threads}"
            )
        return hits[0]

    def max_value(self, series: str, kernel: str) -> float:
        curve = self.series_curve(series, kernel)
        if not curve:
            raise BenchmarkError(f"empty series {series}/{kernel}")
        return max(v for _, v in curve)

    def saturation(self, series: str, kernel: str) -> float:
        """Value at the highest measured thread count."""
        curve = self.series_curve(series, kernel)
        if not curve:
            raise BenchmarkError(f"empty series {series}/{kernel}")
        return curve[-1][1]

    def groups(self) -> list[str]:
        return sorted({r.group for r in self._records})

    def kernels(self) -> list[str]:
        return sorted({r.kernel for r in self._records})

    def series_in(self, group: str, kernel: str) -> list[str]:
        seen: dict[str, None] = {}
        for r in self._records:
            if r.group == group and r.kernel == kernel:
                seen.setdefault(r.series)
        return list(seen)

    # ------------------------------------------------------------------
    # CSV round trip
    # ------------------------------------------------------------------

    _COLUMNS = [f.name for f in fields(ResultRecord)]

    def _csv_rows(self) -> Iterator[list]:
        yield list(self._COLUMNS)
        for r in self._records:
            # repr() is the shortest string that round-trips the float
            # exactly (float(repr(x)) == x), so to_csv → from_csv is
            # bit-exact for every gbps value.
            yield [repr(v) if isinstance(v, float) else v
                   for v in (getattr(r, c) for c in self._COLUMNS)]

    def to_csv(self, path: str | None = None) -> str:
        buf = io.StringIO()
        csv.writer(buf).writerows(self._csv_rows())
        if path is not None:
            # newline="" hands line-ending control to the csv module —
            # without it text-mode translation doubles the \r on Windows
            # (\r\r\n), breaking the byte-identical round trip.
            with open(path, "w", newline="") as fh:
                csv.writer(fh).writerows(self._csv_rows())
        return buf.getvalue()

    # ------------------------------------------------------------------
    # JSON round trip (sweep-cache storage format)
    # ------------------------------------------------------------------

    def to_json(self) -> str:
        """Serialize to a JSON document (stable record order).

        The ``failures`` key appears only when failures exist, keeping
        fault-free documents byte-identical to pre-failure-aware ones.
        """
        # hand-rolled emitter: json.dumps with an indent falls back to
        # the pure-Python encoder (the C accelerator requires
        # indent=None), which dominates the serving hot path at
        # hundreds of records.  The schema is fixed and flat, so we can
        # emit the byte-identical document directly;
        # tests/streamer/test_results.py diffs it against the reference
        # json.dumps rendering.
        sections = []
        if self.failures:       # sort_keys: "failures" < "records"
            sections.append('"failures": '
                            + _rows_json(self.failures,
                                         _FAILURE_FIELDS_SORTED))
        sections.append('"records": '
                        + _rows_json(self._records, _RECORD_FIELDS_SORTED))
        return "{\n" + ",\n".join(sections) + "\n}"

    @classmethod
    def from_json(cls, text: str) -> "ResultSet":
        """Inverse of :meth:`to_json`.

        Raises:
            BenchmarkError: malformed document.
        """
        try:
            doc = json.loads(text)
            records = [ResultRecord(
                group=str(row["group"]),
                series=str(row["series"]),
                label=str(row["label"]),
                kernel=str(row["kernel"]),
                mode=str(row["mode"]),
                testbed=str(row["testbed"]),
                n_threads=int(row["n_threads"]),
                gbps=float(row["gbps"]),
            ) for row in doc["records"]]
            failures = [FailureRecord(
                group=str(row["group"]),
                series=str(row["series"]),
                kernel=str(row["kernel"]),
                testbed=str(row["testbed"]),
                error_type=str(row["error_type"]),
                message=str(row["message"]),
                attempts=int(row["attempts"]),
                quarantined=bool(row["quarantined"]),
            ) for row in doc.get("failures", [])]
        except (ValueError, KeyError, TypeError) as exc:
            raise BenchmarkError(f"malformed ResultSet JSON: {exc}") from exc
        return cls(records, failures)

    @classmethod
    def from_csv(cls, source: str) -> "ResultSet":
        """Load from CSV text or a file path."""
        if "\n" not in source:
            with open(source) as fh:
                source = fh.read()
        reader = csv.DictReader(io.StringIO(source))
        records = []
        for row in reader:
            records.append(ResultRecord(
                group=row["group"],
                series=row["series"],
                label=row["label"],
                kernel=row["kernel"],
                mode=row["mode"],
                testbed=row["testbed"],
                n_threads=int(row["n_threads"]),
                gbps=float(row["gbps"]),
            ))
        return cls(records)
