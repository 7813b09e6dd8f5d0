"""Batched (epoch) backend of the discrete-event simulator.

The scalar DES in :mod:`repro.memsim.des` pops one heapq event per
completed cacheline.  This module advances the *whole closed-loop
window* per epoch with NumPy, producing bit-identical integer state
when every thread keeps to one route (BIND / LOCAL policies;
interleaved and weighted policies run on the compiled or scalar event
loop, which schedule routes per request):

1. **Safe epoch window.**  Every pending completion in
   ``[t_min, horizon)`` can be processed as one batch, provided no
   reissue triggered by the batch can complete inside the window.  Two
   universal lower bounds on any new completion give the horizon:
   ``t_min + min_flow(total)`` (a request cannot finish faster than its
   emptiest route), and per flow ``max_j(next_free[s_j] + tail_j)`` —
   a reissue admitted behind the current queues cannot beat the
   backlog.  In a closed loop the second bound usually covers the whole
   pending set, so epochs approach one full MLP window per NumPy pass.

2. **Closed-form FIFO admission.**  Within a batch sorted by
   ``(time, seq)`` — the exact scalar processing order — a station's
   sequential recurrence ``D_i = max(A_i, D_{i-1}) + s_i`` has the
   closed form ``D = S + max(cummax(A - (S - s)), next_free)`` with
   ``S = cumsum(s)``.  In the integer tick domain this is exact, so the
   scan reproduces the scalar backend bit for bit.

3. **Level ordering.**  A station's *level* is its maximum position
   over all routes; route structure (``[upi?] + node resources``)
   guarantees levels strictly increase along every route, so advancing
   the batch level by level performs every station admission in the
   same global order as the scalar walk (verified at setup; violations
   raise :class:`~repro.errors.SimulationError`).

4. **In-place generations.**  The loop is closed — each processed
   completion yields exactly one reissue for the same thread — so the
   pending set is a fixed-size structure-of-arrays.  When an epoch
   consumes the whole window (the steady state), the reissues simply
   *become* the next pending generation, stored in processing order:
   sequence numbers are then implied by slot order, ties resolve with
   one stable single-key argsort, and no scatter/gather bookkeeping
   happens at all.  Partial windows (end of simulation, strongly
   heterogeneous routes) fall back to explicit sequence arrays.

Accounting (per-thread completions, warm-window counts, latency sums,
per-station in-window busy ticks) happens as ``bincount`` / masked-sum
reductions over each batch, with closed forms on the saturated fast
path (a batch fully inside the window charges exactly its service sum).
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.errors import SimulationError

#: sentinel for "flow has no station at this level"
_NO_STATION = -1


def fifo_departures(arrivals: np.ndarray, services: np.ndarray,
                    next_free: int) -> np.ndarray:
    """Closed form of the FIFO recurrence ``D_i = max(A_i, D_{i-1}) + s_i``.

    ``arrivals`` must already be in admission order — sorted by
    ``(time, seq)`` — and all quantities in integer ticks; the scan is
    then exact and bit-identical to the sequential recurrence, seeded by
    the station's ``next_free``.
    """
    cum = np.cumsum(services)
    hwm = np.maximum.accumulate(arrivals - cum + services)
    return cum + np.maximum(hwm, next_free)


def run_vector(setup) -> "object":
    """Run ``setup`` (a :class:`repro.memsim.des._Setup`) batched.

    Returns the same :class:`repro.memsim.des._Counts` the scalar
    backend produces — identical integers, by construction.

    Raises:
        SimulationError: a thread splits its requests over several
            routes (interleaved / weighted policy), or station levels
            are not strictly increasing along a route.
    """
    from repro.memsim.des import _Counts

    flows = setup.flows
    n_threads = len(setup.thread_flows)
    n_stations = len(setup.station_names)
    n_flows = len(flows)
    sim_t = setup.sim_ticks
    warm_t = setup.warmup_ticks

    # --- static tables ----------------------------------------------------
    if any(len(tf) > 1 for tf in setup.thread_flows):
        raise SimulationError(
            "the vector DES backend runs single-route setups only; "
            "interleaved and weighted policies need des_backend="
            "'compiled' or 'scalar'"
        )
    level = [0] * n_stations
    for f in flows:
        for pos, s in enumerate(f.stations):
            level[s] = max(level[s], pos)
    for f in flows:
        levels = [level[s] for s in f.stations]
        if any(b <= a for a, b in zip(levels, levels[1:])):
            raise SimulationError(
                "station levels are not strictly increasing along a route; "
                "this topology needs des_backend='scalar'"
            )
    n_levels = max(level) + 1 if n_stations else 0
    depth = max(len(f.stations) for f in flows)

    flow_station = np.full((n_levels, n_flows), _NO_STATION, dtype=np.int64)
    flow_service = np.zeros((n_levels, n_flows), dtype=np.int64)
    for fi, f in enumerate(flows):
        for s, svc in zip(f.stations, f.service):
            flow_station[level[s], fi] = s
            flow_service[level[s], fi] = svc
    flow_latency = np.array([f.latency for f in flows], dtype=np.int64)
    l_min = min(f.total for f in flows)
    level_stations = [
        [s for s in range(n_stations) if level[s] == lvl]
        for lvl in range(n_levels)
    ]
    # a level every flow passes through one shared station needs no masks
    uniform_level = [
        len(level_stations[lvl]) == 1
        and bool((flow_station[lvl] != _NO_STATION).all())
        for lvl in range(n_levels)
    ]

    # Horizon helper: a reissue on flow f admitted behind station s_j's
    # backlog completes no earlier than next_free[s_j] + (services from j
    # on) + latency.  Unused (flow, depth) slots get a -inf-ish tail so
    # the max over j ignores them.
    bound_station = np.zeros((n_flows, depth), dtype=np.int64)
    bound_tail = np.full((n_flows, depth), np.iinfo(np.int64).min // 2,
                         dtype=np.int64)
    for fi, f in enumerate(flows):
        tail = f.latency
        for j in range(len(f.stations) - 1, -1, -1):
            tail += f.service[j]
            bound_station[fi, j] = f.stations[j]
            bound_tail[fi, j] = tail

    lat_const = (int(flow_latency[0])
                 if int(flow_latency.min()) == int(flow_latency.max())
                 else None)
    thread_flow = np.array([tf[0] for tf in setup.thread_flows],
                           dtype=np.int64)

    # --- mutable state ----------------------------------------------------
    next_free = np.zeros(n_stations, dtype=np.int64)
    busy = np.zeros(n_stations, dtype=np.int64)
    completed = np.zeros(n_threads, dtype=np.int64)
    completed_warm = np.zeros(n_threads, dtype=np.int64)
    issued = np.zeros(n_threads, dtype=np.int64)
    latency_sum = 0
    latency_count = 0

    def serve(s: int, arrivals: np.ndarray, svc: np.ndarray) -> np.ndarray:
        """Closed-form FIFO admission of a batch at station ``s``."""
        dep = fifo_departures(arrivals, svc, int(next_free[s]))
        last = int(dep[-1])
        if last <= sim_t:
            # every service fully inside the window
            busy[s] += int(svc.sum())
        else:
            in_window = np.minimum(dep, sim_t) - dep + svc
            busy[s] += int(in_window[in_window > 0].sum())
        next_free[s] = last
        return dep

    def advance(btid: np.ndarray, bt: np.ndarray,
                counts: np.ndarray | None = None) -> np.ndarray:
        """Issue one request per (thread, time) pair, in batch order.

        Performs station admission and busy accounting; bumps per-thread
        issue counters (``counts`` is the precomputed per-thread event
        count when the caller knows it); returns the new completion
        times.
        """
        nonlocal issued
        flow = thread_flow[btid]
        issued += (np.bincount(btid, minlength=n_threads)
                   if counts is None else counts)

        t_cur = bt
        owned = False
        for lvl in range(n_levels):
            if uniform_level[lvl]:
                t_cur = serve(level_stations[lvl][0], t_cur,
                              flow_service[lvl][flow])
                owned = True
                continue
            st_f = flow_station[lvl][flow]
            svc_f = flow_service[lvl][flow]
            for s in level_stations[lvl]:
                mask = st_f == s
                if not mask.any():
                    continue
                if mask.all():
                    t_cur = serve(s, t_cur, svc_f)
                    owned = True
                else:
                    idx = np.flatnonzero(mask)
                    dep = serve(s, t_cur[idx], svc_f[idx])
                    if not owned:
                        t_cur = t_cur.copy()
                        owned = True
                    t_cur[idx] = dep
        if lat_const is not None:
            return t_cur + lat_const
        return t_cur + flow_latency[flow]

    # --- prime: thread-major MLP windows at t=0 (scalar issue order) ------
    mlp = np.asarray(setup.mlp, dtype=np.int64)
    n_out = int(mlp.sum())
    pend_tid = np.repeat(np.arange(n_threads, dtype=np.int64), mlp)
    pend_issue = np.zeros(n_out, dtype=np.int64)
    pend_time = advance(pend_tid, pend_issue)
    # Sequence bookkeeping: right after a whole-generation rewrite the
    # slots are in processing order, so seqs are implied (seq_next - n_out
    # + slot); pend_seq is materialized only when a partial epoch breaks
    # that invariant.
    pend_seq: np.ndarray | None = None
    seq_next = n_out

    # --- uniform closed-loop fast path ------------------------------------
    # One shared station per level, one distinct (stations, service,
    # latency) profile: FIFO departures are non-decreasing in batch
    # order, so a whole-window epoch *provably* stays sorted in slot
    # order — no sort, no gathers, scalar service costs, and telescoping
    # latency sums.  Ends at the first window the simulation horizon
    # cuts; the general loop below finishes the tail.
    uniform_fast = (
        n_levels > 0
        and all(uniform_level)
        and len({(f.stations, f.service, f.latency) for f in flows}) == 1
    )
    n_fast_windows = 0
    if uniform_fast:
        f0 = flows[0]
        lvl_station = [int(flow_station[lvl][0]) for lvl in range(n_levels)]
        lvl_svc = [int(flow_service[lvl][0]) for lvl in range(n_levels)]
        ar = np.arange(1, n_out + 1, dtype=np.int64)
        cum_full = [svc * ar for svc in lvl_svc]
        cum_prev = [cum - svc for cum, svc in zip(cum_full, lvl_svc)]
        cum_last = [svc * n_out for svc in lvl_svc]
        h_pairs = [(f0.stations[j], int(bound_tail[0, j]))
                   for j in range(len(f0.stations))]
        nf = [int(x) for x in next_free]
        prev_sum = int(pend_issue.sum())
        n_windows = 0
        n_warm_windows = 0
        while True:
            tmin = int(pend_time[0])
            if tmin > sim_t:
                break
            tmax = int(pend_time[-1])
            if tmax > sim_t:
                break                      # partial window → general loop
            flow_bound = max(nf[s] + tail for s, tail in h_pairs)
            if tmax >= max(tmin + l_min, flow_bound):
                break                      # horizon inside the window
            bt = pend_time
            n_windows += 1
            cur_sum = int(bt.sum())
            if tmin >= warm_t:
                n_warm_windows += 1
                latency_sum += cur_sum - prev_sum
                latency_count += n_out
            elif tmax >= warm_t:
                warm = bt >= warm_t
                completed_warm += np.bincount(pend_tid[warm],
                                              minlength=n_threads)
                latency_sum += int((bt[warm] - pend_issue[warm]).sum())
                latency_count += int(np.count_nonzero(warm))
            t_cur = bt
            for lvl in range(n_levels):
                s = lvl_station[lvl]
                hwm = np.maximum.accumulate(t_cur - cum_prev[lvl])
                dep = cum_full[lvl] + np.maximum(hwm, nf[s])
                last = int(dep[-1])
                if last <= sim_t:
                    busy[s] += cum_last[lvl]
                else:
                    in_w = np.minimum(dep, sim_t) - dep + lvl_svc[lvl]
                    busy[s] += int(in_w[in_w > 0].sum())
                nf[s] = last
                t_cur = dep
            pend_issue = bt
            pend_time = t_cur + lat_const
            prev_sum = cur_sum
            seq_next += n_out
        if n_windows:
            completed += n_windows * mlp
            issued += n_windows * mlp
            completed_warm += n_warm_windows * mlp
        next_free[:] = nf
        n_fast_windows = n_windows

    # --- epoch loop -------------------------------------------------------
    n_epochs = 0
    while True:
        if pend_seq is None:
            order = np.argsort(pend_time, kind="stable")
        else:
            order = np.lexsort((pend_seq, pend_time))
        bt = pend_time[order]
        tmin = int(bt[0])
        if tmin > sim_t:
            break
        n_epochs += 1
        flow_bound = (next_free[bound_station] + bound_tail).max(axis=1)
        horizon = max(tmin + l_min, int(flow_bound.min()))
        tmax = int(bt[-1])
        k = n_out
        if tmax >= horizon:
            k = int(np.searchsorted(bt, horizon, side="left"))
        if tmax > sim_t:
            k = min(k, int(np.searchsorted(bt, sim_t, side="right")))

        if k == n_out:
            # whole-window epoch: the reissues become the next generation.
            # A full generation is the entire closed-loop window, so it
            # holds exactly mlp[t] events per thread — no bincount needed.
            btid = pend_tid[order]
            bissue = pend_issue[order]
            completed += mlp
            if tmin >= warm_t:
                completed_warm += mlp
                latency_sum += int(bt.sum()) - int(bissue.sum())
                latency_count += n_out
            elif tmax >= warm_t:
                warm = bt >= warm_t
                completed_warm += np.bincount(btid[warm],
                                              minlength=n_threads)
                latency_sum += int((bt[warm] - bissue[warm]).sum())
                latency_count += int(np.count_nonzero(warm))
            pend_time = advance(btid, bt, counts=mlp)
            pend_tid = btid
            pend_issue = bt
            pend_seq = None
            seq_next += n_out
        else:
            # partial window: scatter into the untouched pending slots
            if pend_seq is None:
                pend_seq = np.arange(seq_next - n_out, seq_next,
                                     dtype=np.int64)
            batch = order[:k]
            bt = bt[:k]
            btid = pend_tid[batch]
            bissue = pend_issue[batch]
            completed += np.bincount(btid, minlength=n_threads)
            warm = bt >= warm_t
            if warm.any():
                completed_warm += np.bincount(btid[warm],
                                              minlength=n_threads)
                latency_sum += int((bt[warm] - bissue[warm]).sum())
                latency_count += int(np.count_nonzero(warm))
            pend_time[batch] = advance(btid, bt)
            pend_issue[batch] = bt
            pend_seq[batch] = np.arange(seq_next, seq_next + k,
                                        dtype=np.int64)
            seq_next += k

    # one obs call per run: closed-loop windows advanced (fast-path full
    # windows + general epochs), the vector backend's unit of progress
    obs.inc("des.windows", n_fast_windows + n_epochs)

    return _Counts(
        completed=completed,
        completed_warm=completed_warm,
        issued=issued,
        busy=busy,
        latency_sum=latency_sum,
        latency_count=latency_count,
    )
