"""Property tests: the batched DES backend vs the scalar oracle.

Two families:

* end-to-end — on random small topologies, placements, single-route
  (BIND) policies and window lengths, the vectorized backend's
  :class:`DesResult` (per-thread rates, mean latency, station
  utilizations, accounting counters) equals the scalar oracle's
  *exactly* (multi-route policies run on the event loops; see
  ``test_prop_compiled.py``);
* admission algebra — the closed-form FIFO scan the vector backend uses
  (:func:`repro.memsim.des_fast.fifo_departures`) matches the sequential
  recurrence bit for bit, and batch admission of tied arrivals is stable
  under any permutation of event storage order (the ``(time, seq)``
  lexsort fixes the processing order, so departures per sequence number
  cannot depend on how events happen to sit in the pending arrays).
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.machine.affinity import place_threads
from repro.machine.numa import NumaPolicy
from repro.machine.presets import setup1, setup2
from repro.memsim.des import simulate_stream_des
from repro.memsim.des_fast import fifo_departures

_MACHINES = {"setup1": setup1().machine, "setup2": setup2().machine}
_NODES = {"setup1": (0, 1, 2), "setup2": (0, 1)}


# ---------------------------------------------------------------------------
# end-to-end: vector backend == scalar oracle (single-route)
# ---------------------------------------------------------------------------

@st.composite
def _configs(draw):
    tb_key = draw(st.sampled_from(sorted(_MACHINES)))
    policy = NumaPolicy.bind(draw(st.sampled_from(_NODES[tb_key])))
    n_threads = draw(st.integers(1, 6))
    sockets = draw(st.sampled_from([[0], [1], [0, 1]]))
    kernel = draw(st.sampled_from(["copy", "scale", "add", "triad"]))
    app_direct = tb_key == "setup1" and draw(st.booleans())
    sim_ns = draw(st.floats(5_000.0, 40_000.0))
    warmup_ns = sim_ns * draw(st.floats(0.0, 0.8))
    return (tb_key, policy, n_threads, sockets, kernel, app_direct,
            sim_ns, warmup_ns)


@given(_configs())
@settings(max_examples=50, deadline=None)
def test_vector_matches_scalar_exactly(config):
    (tb_key, policy, n, sockets, kernel,
     app_direct, sim_ns, warmup_ns) = config
    m = _MACHINES[tb_key]
    cores = place_threads(m, n, sockets=sockets)
    scalar, vector = (
        simulate_stream_des(m, kernel, cores, policy,
                            app_direct=app_direct, sim_ns=sim_ns,
                            warmup_ns=warmup_ns, des_backend=backend)
        for backend in ("scalar", "vector")
    )
    assert scalar == vector


# ---------------------------------------------------------------------------
# admission algebra: the closed-form FIFO scan
# ---------------------------------------------------------------------------

@st.composite
def _batches(draw):
    n = draw(st.integers(1, 48))
    # a narrow time range forces plenty of tied arrivals
    times = draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))
    services = draw(st.lists(st.integers(1, 9), min_size=n, max_size=n))
    next_free = draw(st.integers(0, 12))
    return times, services, next_free


@given(_batches())
@settings(max_examples=200, deadline=None)
def test_closed_form_matches_sequential_fifo(batch):
    times, services, next_free = batch
    order = sorted(range(len(times)), key=lambda i: times[i])
    a = np.array([times[i] for i in order], dtype=np.int64)
    s = np.array([services[i] for i in order], dtype=np.int64)
    dep = fifo_departures(a, s, next_free)
    free = next_free
    for i in range(len(a)):
        free = max(int(a[i]), free) + int(s[i])
        assert int(dep[i]) == free


def _departures_by_seq(times, services, perm, next_free):
    """Admit events stored in ``perm`` order; return departures per seq."""
    t = np.array([times[i] for i in perm], dtype=np.int64)
    s = np.array([services[i] for i in perm], dtype=np.int64)
    seq = np.array(perm, dtype=np.int64)
    order = np.lexsort((seq, t))          # the epoch loop's admission order
    dep = fifo_departures(t[order], s[order], next_free)
    out = np.empty(len(t), dtype=np.int64)
    out[seq[order]] = dep
    return out


@st.composite
def _tied_events(draw):
    n = draw(st.integers(2, 40))
    times = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    services = draw(st.lists(st.integers(1, 9), min_size=n, max_size=n))
    perm = draw(st.permutations(range(n)))
    next_free = draw(st.integers(0, 8))
    return times, services, perm, next_free


@given(_tied_events())
@settings(max_examples=200, deadline=None)
def test_tied_admission_is_permutation_stable(ev):
    times, services, perm, next_free = ev
    identity = list(range(len(times)))
    base = _departures_by_seq(times, services, identity, next_free)
    shuffled = _departures_by_seq(times, services, perm, next_free)
    assert np.array_equal(base, shuffled)
