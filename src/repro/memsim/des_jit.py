"""Compiled backend of the *scalar* DES event loop.

The vectorized backend (:mod:`repro.memsim.des_fast`) wins on
single-route setups once the closed-loop window is wide enough to
amortize NumPy's per-batch overhead; below
:data:`repro.memsim.des.DES_VECTORIZE_THRESHOLD` requests, and on every
multi-route setup, the event loop runs — and pays ~1 µs of interpreter
overhead per event.  This module compiles that exact event loop: station
advance, FIFO admission, smooth-WRR route selection and the
(time, seq)-ordered completion heap, over flat int64 arrays built from
the same :class:`repro.memsim.des._Setup` the other backends share.

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

Two providers (see :mod:`repro.compiled`): the numba ``@njit`` build of
:func:`_des_kernel` below, or the embedded C translation compiled with
the system toolchain.  Either is accepted only after a self-check run
against the pure-Python kernel; with no provider, ``available()`` is
False and dispatch stays on the interpreted scalar path.
"""

from __future__ import annotations

import ctypes

import numpy as np

from repro import compiled
from repro.errors import SimulationError

# ---------------------------------------------------------------------------
# the kernel, in numba-compatible pure Python (the reference the
# providers are checked against — and the numba provider's source)
# ---------------------------------------------------------------------------


def _des_kernel(prime_tid, flow_ptr, flow_station, flow_service,
                flow_latency, tf_ptr, tf_ids, fracs, max_routes,
                sim_t, warm_t, next_free, busy, completed, completed_warm,
                issued, route_counts, heap_time, heap_seq, heap_tid,
                heap_issue, out):
    """One full scalar DES run over flat arrays (mutates the outputs).

    ``prime_tid`` lists the t=0 priming issues in scalar order
    (thread-major, ``mlp[t]`` entries each); the heap arrays have
    capacity ``len(prime_tid)`` — the closed-loop window never grows.
    ``out[0]``/``out[1]`` receive the warm latency sum / count.
    """
    n_prime = prime_tid.shape[0]
    heap_n = 0
    seq = 0
    latency_sum = 0
    latency_count = 0
    prime_idx = 0
    while True:
        if prime_idx < n_prime:
            # priming phase: issue without completing anything
            tid = prime_tid[prime_idx]
            now = 0
            prime_idx += 1
        else:
            if heap_n == 0 or heap_time[0] > sim_t:
                break
            # pop the (time, seq)-minimal completion
            now = heap_time[0]
            tid = heap_tid[0]
            issued_at = heap_issue[0]
            heap_n -= 1
            if heap_n > 0:
                lt = heap_time[heap_n]
                ls = heap_seq[heap_n]
                ltid = heap_tid[heap_n]
                lis = heap_issue[heap_n]
                i = 0
                while True:
                    c = 2 * i + 1
                    if c >= heap_n:
                        break
                    r = c + 1
                    if r < heap_n and (
                            heap_time[r] < heap_time[c]
                            or (heap_time[r] == heap_time[c]
                                and heap_seq[r] < heap_seq[c])):
                        c = r
                    if (heap_time[c] < lt
                            or (heap_time[c] == lt and heap_seq[c] < ls)):
                        heap_time[i] = heap_time[c]
                        heap_seq[i] = heap_seq[c]
                        heap_tid[i] = heap_tid[c]
                        heap_issue[i] = heap_issue[c]
                        i = c
                    else:
                        break
                heap_time[i] = lt
                heap_seq[i] = ls
                heap_tid[i] = ltid
                heap_issue[i] = lis
            completed[tid] += 1
            if now >= warm_t:
                completed_warm[tid] += 1
                latency_sum += now - issued_at
                latency_count += 1

        # issue one request for `tid` at `now` (closed-loop reissue or
        # priming) — route selection, station admission, heap push
        issued[tid] += 1
        base = tf_ptr[tid]
        nroutes = tf_ptr[tid + 1] - base
        if nroutes == 1:
            fid = tf_ids[base]
        else:
            rbase = tid * max_routes
            best = 0
            best_cost = (route_counts[rbase] + 1) / fracs[rbase]
            for r in range(1, nroutes):
                cost = (route_counts[rbase + r] + 1) / fracs[rbase + r]
                if cost < best_cost:
                    best = r
                    best_cost = cost
            route_counts[rbase + best] += 1
            fid = tf_ids[base + best]
        t = now
        for j in range(flow_ptr[fid], flow_ptr[fid + 1]):
            s = flow_station[j]
            start = next_free[s]
            if t > start:
                start = t
            dep = start + flow_service[j]
            next_free[s] = dep
            if start < sim_t:
                end = dep if dep < sim_t else sim_t
                busy[s] += end - start
            t = dep
        ct = t + flow_latency[fid]
        i = heap_n
        heap_n += 1
        while i > 0:
            p = (i - 1) >> 1
            if (heap_time[p] < ct
                    or (heap_time[p] == ct and heap_seq[p] < seq)):
                break
            heap_time[i] = heap_time[p]
            heap_seq[i] = heap_seq[p]
            heap_tid[i] = heap_tid[p]
            heap_issue[i] = heap_issue[p]
            i = p
        heap_time[i] = ct
        heap_seq[i] = seq
        heap_tid[i] = tid
        heap_issue[i] = now
        seq += 1

    out[0] = latency_sum
    out[1] = latency_count


# ---------------------------------------------------------------------------
# the same kernel as C99 (built by repro.compiled.cc_build)
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


def _cc_runner(lib: ctypes.CDLL):
    """Wrap the C ``des_run`` with the Python kernel's signature."""
    i64p = ctypes.POINTER(ctypes.c_int64)
    f64p = ctypes.POINTER(ctypes.c_double)
    fn = lib.des_run
    fn.restype = None
    fn.argtypes = [
        ctypes.c_int64, i64p,                    # n_prime, prime_tid
        i64p, i64p, i64p, i64p,                  # flow tables
        i64p, i64p, f64p, ctypes.c_int64,        # thread tables, fracs
        ctypes.c_int64, ctypes.c_int64,          # sim_t, warm_t
        i64p, i64p, i64p, i64p, i64p, i64p,      # state/outputs
        i64p, i64p, i64p, i64p, i64p,            # heap arrays, out
    ]

    def p(a):
        return a.ctypes.data_as(i64p)

    def run(prime_tid, flow_ptr, flow_station, flow_service, flow_latency,
            tf_ptr, tf_ids, fracs, max_routes, sim_t, warm_t, next_free,
            busy, completed, completed_warm, issued, route_counts,
            heap_time, heap_seq, heap_tid, heap_issue, out):
        fn(len(prime_tid), p(prime_tid), p(flow_ptr), p(flow_station),
           p(flow_service), p(flow_latency), p(tf_ptr), p(tf_ids),
           fracs.ctypes.data_as(f64p), max_routes, sim_t, warm_t,
           p(next_free), p(busy), p(completed), p(completed_warm),
           p(issued), p(route_counts), p(heap_time), p(heap_seq),
           p(heap_tid), p(heap_issue), p(out))

    return run


# ---------------------------------------------------------------------------
# provider resolution + self-check
# ---------------------------------------------------------------------------

def _self_check_inputs():
    """A tiny heterogeneous scenario: one single-route and one two-route
    thread over three partially shared stations."""
    flow_ptr = np.array([0, 2, 4, 5], dtype=np.int64)
    flow_station = np.array([0, 1, 0, 2, 2], dtype=np.int64)
    flow_service = np.array([3, 5, 3, 7, 7], dtype=np.int64)
    flow_latency = np.array([11, 4, 9], dtype=np.int64)
    tf_ptr = np.array([0, 1, 3], dtype=np.int64)
    tf_ids = np.array([0, 1, 2], dtype=np.int64)
    max_routes = 2
    fracs = np.array([1.0, 1.0, 0.75, 0.25], dtype=np.float64)
    prime_tid = np.array([0, 0, 0, 1, 1], dtype=np.int64)
    return (prime_tid, flow_ptr, flow_station, flow_service, flow_latency,
            tf_ptr, tf_ids, fracs, max_routes, 400, 100)


def _run_on_fresh(run, args):
    (prime_tid, flow_ptr, flow_station, flow_service, flow_latency,
     tf_ptr, tf_ids, fracs, max_routes, sim_t, warm_t) = args
    n_threads = len(tf_ptr) - 1
    n_stations = int(flow_station.max()) + 1
    n_out = len(prime_tid)
    state = [np.zeros(n_stations, dtype=np.int64),     # next_free
             np.zeros(n_stations, dtype=np.int64),     # busy
             np.zeros(n_threads, dtype=np.int64),      # completed
             np.zeros(n_threads, dtype=np.int64),      # completed_warm
             np.zeros(n_threads, dtype=np.int64),      # issued
             np.zeros(n_threads * max_routes, dtype=np.int64)]
    heap = [np.zeros(n_out, dtype=np.int64) for _ in range(4)]
    out = np.zeros(2, dtype=np.int64)
    run(prime_tid, flow_ptr, flow_station, flow_service, flow_latency,
        tf_ptr, tf_ids, fracs, max_routes, sim_t, warm_t,
        *state, *heap, out)
    return state + [out]


def _self_check(run) -> bool:
    args = _self_check_inputs()
    want = _run_on_fresh(_des_kernel, args)
    got = _run_on_fresh(run, args)
    return all(np.array_equal(w, g) for w, g in zip(want, got))


_resolved = False
_provider: str | None = None
_run = None


def _resolve() -> None:
    global _resolved, _provider, _run
    if _resolved:
        return
    _resolved = True
    njit = compiled.numba_njit()
    if njit is not None:
        try:
            fn = njit(_des_kernel)
            if _self_check(fn):
                _provider, _run = "numba", fn
                return
        except Exception:
            pass
    lib = compiled.cc_build("des", _C_SOURCE)
    if lib is not None:
        try:
            run = _cc_runner(lib)
            if _self_check(run):
                _provider, _run = "cc", run
        except Exception:
            pass


def available() -> bool:
    """Is a compiled DES kernel usable in this process?"""
    _resolve()
    return _run is not None


def provider() -> str | None:
    """``"numba"``, ``"cc"`` or ``None``."""
    _resolve()
    return _provider


# ---------------------------------------------------------------------------
# the backend entry point (same contract as des_fast.run_vector)
# ---------------------------------------------------------------------------

def run_compiled(setup) -> "object":
    """Run ``setup`` (a :class:`repro.memsim.des._Setup`) through the
    compiled event loop; returns the scalar backend's ``_Counts``,
    identical integers by construction.

    Raises :class:`~repro.errors.SimulationError` when no provider is
    available — dispatch callers check :func:`available` first.
    """
    from repro.memsim.des import _Counts

    _resolve()
    if _run is None:
        raise SimulationError(
            "compiled DES backend unavailable (no numba and no C compiler); "
            "use des_backend='scalar' or 'auto'"
        )

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

    _run(prime_tid, flow_ptr, flow_station, flow_service, flow_latency,
         tf_ptr, tf_ids, fracs, max_routes, setup.sim_ticks,
         setup.warmup_ticks, next_free, busy, completed, completed_warm,
         issued, route_counts, heap_time, heap_seq, heap_tid, heap_issue,
         out)

    return _Counts(
        completed=completed,
        completed_warm=completed_warm,
        issued=issued,
        busy=busy,
        latency_sum=int(out[0]),
        latency_count=int(out[1]),
    )
