"""STREAM configuration.

Mirrors the knobs of the original benchmark: ``STREAM_ARRAY_SIZE``,
``NTIMES``, ``STREAM_TYPE`` and ``OFFSET``.  The paper runs 100M elements
(2.4 GB total) and the classic 10 repetitions; tests and examples use much
smaller arrays, which is exactly what the original's compile-time knobs
were for.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import BenchmarkError
from repro.memsim.traffic import KERNEL_TRAFFIC

#: the paper's configuration ("STREAM executions with 100M array elements")
PAPER_ARRAY_SIZE = 100_000_000
#: STREAM's default repetition count; rates are the best over NTIMES-1
DEFAULT_NTIMES = 10
#: scalar used by Scale and Triad in the reference implementation
STREAM_SCALAR = 3.0


@dataclass(frozen=True)
class StreamConfig:
    """One benchmark configuration."""

    array_size: int = 1_000_000
    ntimes: int = DEFAULT_NTIMES
    dtype: str = "float64"
    offset: int = 0
    scalar: float = STREAM_SCALAR

    def __post_init__(self) -> None:
        if self.array_size < 16:
            raise BenchmarkError(
                f"array_size must be >= 16, got {self.array_size}"
            )
        if self.ntimes < 2:
            raise BenchmarkError(
                "ntimes must be >= 2 (STREAM discards the first iteration)"
            )
        if self.offset < 0:
            raise BenchmarkError("offset must be non-negative")
        dt = np.dtype(self.dtype)
        if dt.kind != "f":
            raise BenchmarkError(
                f"STREAM_TYPE must be a float type, got {self.dtype}"
            )

    @classmethod
    def paper(cls) -> "StreamConfig":
        """The configuration used throughout the paper's evaluation."""
        return cls(array_size=PAPER_ARRAY_SIZE)

    @property
    def np_dtype(self) -> np.dtype:
        return np.dtype(self.dtype)

    @property
    def element_bytes(self) -> int:
        return self.np_dtype.itemsize

    @property
    def array_bytes(self) -> int:
        return self.array_size * self.element_bytes

    @property
    def working_set_bytes(self) -> int:
        """Total footprint of the three arrays."""
        return 3 * self.array_bytes

    def counted_bytes(self, kernel: str) -> int:
        """Bytes STREAM counts for one full pass of ``kernel``."""
        try:
            k = KERNEL_TRAFFIC[kernel]
        except KeyError:
            raise BenchmarkError(f"unknown kernel {kernel!r}") from None
        return (k.reads + k.writes) * self.array_bytes

    def describe(self) -> str:
        return (f"STREAM n={self.array_size:,} ({self.working_set_bytes / 1e6:.1f} MB), "
                f"ntimes={self.ntimes}, dtype={self.dtype}")
