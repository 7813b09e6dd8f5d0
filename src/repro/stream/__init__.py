"""STREAM and STREAM-PMem.

* :mod:`repro.stream.config` — benchmark configuration (array size,
  repetitions, dtype — the paper runs 100M doubles);
* :mod:`repro.stream.kernels` — the four kernels as in-place NumPy
  operations on array views (no hidden temporaries);
* :mod:`repro.stream.validation` — the ``checkSTREAMresults`` epsilon
  check, ported;
* :mod:`repro.stream.native` — measures the *host* machine: single-process
  timed loops plus a multiprocess shared-memory runner (the OpenMP
  analogue);
* :mod:`repro.stream.pmem_stream` — STREAM-PMem: the three arrays live in
  a pmemobj pool on any backend URI (Listing 2 of the paper, executable);
* :mod:`repro.stream.simulated` — STREAM against the modelled testbeds,
  which is what regenerates the paper's figures.
"""

from repro.stream.config import StreamConfig
from repro.stream.kernels import KERNELS, run_kernel
from repro.stream.validation import check_stream_results, expected_values
from repro.stream.native import NativeResult, run_parallel, run_single
from repro.stream.pmem_stream import StreamPmem
from repro.stream.simulated import simulate_sweep, sweep_result_table

__all__ = [
    "KERNELS",
    "NativeResult",
    "StreamConfig",
    "StreamPmem",
    "check_stream_results",
    "expected_values",
    "run_kernel",
    "run_parallel",
    "run_single",
    "simulate_sweep",
    "sweep_result_table",
]
