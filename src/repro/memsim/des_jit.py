"""Compiled backend of the *scalar* DES event loop.

The vectorized backend (:mod:`repro.memsim.des_fast`) wins on
single-route setups once the closed-loop window is wide enough to
amortize NumPy's per-batch overhead; below
:data:`repro.memsim.des.DES_VECTORIZE_THRESHOLD` requests, and on every
multi-route setup, the event loop runs — and
:func:`repro.memsim.des._run_scalar` pays ~1 µs of interpreter overhead
per event.  This module holds that exact event loop once, as the C99
function ``des_run``: station advance, FIFO admission, smooth-WRR route
selection and the (time, seq)-ordered completion heap, over flat int64
arrays built from the same :class:`repro.memsim.des._Setup` the other
backends share.

Bit-for-bit equality with ``_run_scalar`` holds by construction:

* the heap key ``(completion tick, seq)`` is a strict total order
  (sequence numbers are unique), so *any* correct min-heap pops events
  in exactly the scalar backend's order;
* station admission, busy-tick clamping and warm-window accounting are
  the same integer arithmetic;
* route selection re-runs the smooth weighted round-robin recurrence
  ``argmin_r (count_r + 1) / frac_r`` in float64 — the identical IEEE
  division :func:`repro.memsim.des._route_pattern` performs — instead
  of materializing pattern arrays.

The one provider is the system C compiler (see :mod:`repro.compiled`).
The built library is accepted only after a self-check: its ``_Counts``
must equal ``_run_scalar``'s on :func:`_check_setup`'s hand-built setup
at two warm-up ticks.  With no compiler, a failed build or a mismatch,
:func:`available` is False and dispatch stays on the interpreted tiers.
"""

from __future__ import annotations

import ctypes
from dataclasses import fields

import numpy as np

from repro import compiled
from repro.errors import SimulationError
from repro.memsim.des import _Counts, _Flow, _Setup, _run_scalar

# ---------------------------------------------------------------------------
# the kernel (built by repro.compiled.cc_build)
# ---------------------------------------------------------------------------

_C_SOURCE = r"""
#include <stdint.h>

void des_run(int64_t n_prime, const int64_t *prime_tid,
             const int64_t *flow_ptr, const int64_t *flow_station,
             const int64_t *flow_service, const int64_t *flow_latency,
             const int64_t *tf_ptr, const int64_t *tf_ids,
             const double *fracs, int64_t max_routes,
             int64_t sim_t, int64_t warm_t,
             int64_t *next_free, int64_t *busy,
             int64_t *completed, int64_t *completed_warm, int64_t *issued,
             int64_t *route_counts,
             int64_t *heap_time, int64_t *heap_seq, int64_t *heap_tid,
             int64_t *heap_issue, int64_t *out)
{
    int64_t heap_n = 0, seq = 0;
    int64_t latency_sum = 0, latency_count = 0;
    int64_t prime_idx = 0;
    for (;;) {
        int64_t tid, now;
        if (prime_idx < n_prime) {
            tid = prime_tid[prime_idx++];
            now = 0;
        } else {
            if (heap_n == 0 || heap_time[0] > sim_t)
                break;
            now = heap_time[0];
            tid = heap_tid[0];
            int64_t issued_at = heap_issue[0];
            heap_n--;
            if (heap_n > 0) {
                int64_t lt = heap_time[heap_n], ls = heap_seq[heap_n];
                int64_t ltid = heap_tid[heap_n], lis = heap_issue[heap_n];
                int64_t i = 0;
                for (;;) {
                    int64_t c = 2 * i + 1;
                    if (c >= heap_n)
                        break;
                    int64_t r = c + 1;
                    if (r < heap_n &&
                        (heap_time[r] < heap_time[c] ||
                         (heap_time[r] == heap_time[c] &&
                          heap_seq[r] < heap_seq[c])))
                        c = r;
                    if (heap_time[c] < lt ||
                        (heap_time[c] == lt && heap_seq[c] < ls)) {
                        heap_time[i] = heap_time[c];
                        heap_seq[i] = heap_seq[c];
                        heap_tid[i] = heap_tid[c];
                        heap_issue[i] = heap_issue[c];
                        i = c;
                    } else {
                        break;
                    }
                }
                heap_time[i] = lt;
                heap_seq[i] = ls;
                heap_tid[i] = ltid;
                heap_issue[i] = lis;
            }
            completed[tid]++;
            if (now >= warm_t) {
                completed_warm[tid]++;
                latency_sum += now - issued_at;
                latency_count++;
            }
        }

        issued[tid]++;
        int64_t base = tf_ptr[tid];
        int64_t nroutes = tf_ptr[tid + 1] - base;
        int64_t fid;
        if (nroutes == 1) {
            fid = tf_ids[base];
        } else {
            int64_t rbase = tid * max_routes;
            int64_t best = 0;
            double best_cost =
                (double)(route_counts[rbase] + 1) / fracs[rbase];
            for (int64_t r = 1; r < nroutes; r++) {
                double cost =
                    (double)(route_counts[rbase + r] + 1) / fracs[rbase + r];
                if (cost < best_cost) {
                    best = r;
                    best_cost = cost;
                }
            }
            route_counts[rbase + best]++;
            fid = tf_ids[base + best];
        }
        int64_t t = now;
        for (int64_t j = flow_ptr[fid]; j < flow_ptr[fid + 1]; j++) {
            int64_t s = flow_station[j];
            int64_t start = next_free[s];
            if (t > start)
                start = t;
            int64_t dep = start + flow_service[j];
            next_free[s] = dep;
            if (start < sim_t)
                busy[s] += (dep < sim_t ? dep : sim_t) - start;
            t = dep;
        }
        int64_t ct = t + flow_latency[fid];
        int64_t i = heap_n++;
        while (i > 0) {
            int64_t p = (i - 1) >> 1;
            if (heap_time[p] < ct ||
                (heap_time[p] == ct && heap_seq[p] < seq))
                break;
            heap_time[i] = heap_time[p];
            heap_seq[i] = heap_seq[p];
            heap_tid[i] = heap_tid[p];
            heap_issue[i] = heap_issue[p];
            i = p;
        }
        heap_time[i] = ct;
        heap_seq[i] = seq;
        heap_tid[i] = tid;
        heap_issue[i] = now;
        seq++;
    }
    out[0] = latency_sum;
    out[1] = latency_count;
}
"""


_I64P = ctypes.POINTER(ctypes.c_int64)


def _bind(lib: ctypes.CDLL):
    """Declare ``des_run``'s C signature on ``lib`` and return it."""
    fn = lib.des_run
    fn.restype = None
    fn.argtypes = [
        ctypes.c_int64, _I64P,                   # n_prime, prime_tid
        _I64P, _I64P, _I64P, _I64P,              # flow tables
        _I64P, _I64P, ctypes.POINTER(ctypes.c_double),
        ctypes.c_int64,                          # thread tables, fracs
        ctypes.c_int64, ctypes.c_int64,          # sim_t, warm_t
        _I64P, _I64P, _I64P, _I64P, _I64P, _I64P,  # state/outputs
        _I64P, _I64P, _I64P, _I64P, _I64P,       # heap arrays, out
    ]
    return fn


def _run(fn, setup: _Setup) -> _Counts:
    """Flatten ``setup`` into ``des_run``'s arrays and run ``fn``."""
    flows = setup.flows
    n_threads = len(setup.thread_flows)
    n_stations = len(setup.station_names)
    flow_ptr = np.zeros(len(flows) + 1, dtype=np.int64)
    for i, f in enumerate(flows):
        flow_ptr[i + 1] = flow_ptr[i] + len(f.stations)
    flow_station = np.array(
        [s for f in flows for s in f.stations], dtype=np.int64)
    flow_service = np.array(
        [svc for f in flows for svc in f.service], dtype=np.int64)
    flow_latency = np.array([f.latency for f in flows], dtype=np.int64)
    tf_ptr = np.zeros(n_threads + 1, dtype=np.int64)
    for t, tf in enumerate(setup.thread_flows):
        tf_ptr[t + 1] = tf_ptr[t] + len(tf)
    tf_ids = np.array(
        [fid for tf in setup.thread_flows for fid in tf], dtype=np.int64)
    max_routes = max(len(tf) for tf in setup.thread_flows)
    fracs = np.ones(n_threads * max_routes, dtype=np.float64)
    for t, fr in enumerate(setup.thread_fracs):
        if fr is not None:
            fracs[t * max_routes:t * max_routes + len(fr)] = fr
    mlp = np.asarray(setup.mlp, dtype=np.int64)
    prime_tid = np.repeat(np.arange(n_threads, dtype=np.int64), mlp)
    n_out = int(mlp.sum())

    next_free = np.zeros(n_stations, dtype=np.int64)
    busy = np.zeros(n_stations, dtype=np.int64)
    completed = np.zeros(n_threads, dtype=np.int64)
    completed_warm = np.zeros(n_threads, dtype=np.int64)
    issued = np.zeros(n_threads, dtype=np.int64)
    route_counts = np.zeros(n_threads * max_routes, dtype=np.int64)
    heap_time = np.zeros(n_out, dtype=np.int64)
    heap_seq = np.zeros(n_out, dtype=np.int64)
    heap_tid = np.zeros(n_out, dtype=np.int64)
    heap_issue = np.zeros(n_out, dtype=np.int64)
    out = np.zeros(2, dtype=np.int64)

    def p(a):
        return a.ctypes.data_as(_I64P)

    fn(n_out, p(prime_tid), p(flow_ptr), p(flow_station), p(flow_service),
       p(flow_latency), p(tf_ptr), p(tf_ids),
       fracs.ctypes.data_as(ctypes.POINTER(ctypes.c_double)), max_routes,
       setup.sim_ticks, setup.warmup_ticks, p(next_free), p(busy),
       p(completed), p(completed_warm), p(issued), p(route_counts),
       p(heap_time), p(heap_seq), p(heap_tid), p(heap_issue), p(out))

    return _Counts(
        completed=completed,
        completed_warm=completed_warm,
        issued=issued,
        busy=busy,
        latency_sum=int(out[0]),
        latency_count=int(out[1]),
    )


# ---------------------------------------------------------------------------
# provider resolution + self-check against the scalar oracle
# ---------------------------------------------------------------------------

def _check_setup(warmup_ticks: int) -> _Setup:
    """A tiny heterogeneous setup that drives every kernel branch.

    Thread 1 splits 3:1 over two routes, so the weighted round-robin
    meets equal costs; thread 2 repeats thread 0's route, which makes
    two completions share a tick on the heap; the routes share stations.
    """
    flows = [_Flow(0, (0, 1), (3, 5), 11, 19),
             _Flow(1, (0, 2), (3, 7), 4, 14),
             _Flow(1, (2,), (7,), 9, 16)]
    return _Setup(station_names=["s0", "s1", "s2"], flows=flows,
                  thread_flows=[(0,), (1, 2), (0,)],
                  thread_fracs=[None, (0.75, 0.25), None],
                  mlp=[3, 2, 3], sim_ns=400.0, warmup_ns=float(warmup_ticks),
                  sim_ticks=400, warmup_ticks=warmup_ticks, ratio=1.0,
                  eff=1.0)


def _counts_equal(a: _Counts, b: _Counts) -> bool:
    return all(np.array_equal(getattr(a, f.name), getattr(b, f.name))
               for f in fields(_Counts))


def _self_check(fn) -> bool:
    """Does ``fn`` reproduce the scalar oracle?  Checked at two warm-up
    ticks, one of them a completion tick."""
    return all(_counts_equal(_run(fn, setup), _run_scalar(setup))
               for setup in map(_check_setup, (24, 100)))


_resolved = False
_fn = None


def _resolve() -> None:
    global _resolved, _fn
    if _resolved:
        return
    _resolved = True
    lib = compiled.cc_build("des", _C_SOURCE)
    if lib is not None:
        try:
            fn = _bind(lib)
            if _self_check(fn):
                _fn = fn
        except Exception:
            pass


def available() -> bool:
    """Is the compiled DES kernel usable in this process?"""
    _resolve()
    return _fn is not None


def provider() -> str | None:
    """``"cc"`` or ``None``."""
    return "cc" if available() else None


# ---------------------------------------------------------------------------
# the backend entry point (same contract as des_fast.run_vector)
# ---------------------------------------------------------------------------

def run_compiled(setup: _Setup) -> _Counts:
    """Run ``setup`` through the compiled event loop; returns the
    scalar backend's ``_Counts``, identical integers by construction.

    Raises :class:`~repro.errors.SimulationError` when the kernel is
    unavailable — dispatch callers check :func:`available` first.
    """
    _resolve()
    if _fn is None:
        raise SimulationError(
            "compiled DES backend unavailable (no C compiler, or the "
            "kernel failed its self-check); use des_backend='scalar' or "
            "'auto'"
        )
    return _run(_fn, setup)
