"""Thread affinity: the paper's ``close`` and ``spread`` placements.

Group 1.(c) of the evaluation runs STREAM-PMem with OpenMP's two standard
proximity policies (``OMP_PROC_BIND``):

* ``close``  — fill an entire socket before spilling to the next one;
* ``spread`` — alternate sockets, balancing threads across the machine.

Placement is deterministic: physical cores first, SMT siblings only after
every physical core in the allowed set is occupied (matching how OpenMP
runtimes place threads with granularity=core).
"""

from __future__ import annotations

import enum
import weakref
from typing import Sequence

from repro.errors import AffinityError
from repro.machine.topology import Core, Machine


class AffinityMode(enum.Enum):
    CLOSE = "close"
    SPREAD = "spread"


def _socket_core_lists(machine: Machine,
                       sockets: Sequence[int]) -> list[list[Core]]:
    lists: list[list[Core]] = []
    for sid in sockets:
        sock = machine.socket(sid)
        lists.append(sorted(sock.cores, key=lambda c: c.core_id))
    return lists


def place_threads(machine: Machine, n_threads: int,
                  mode: AffinityMode = AffinityMode.CLOSE,
                  sockets: Sequence[int] | None = None,
                  allow_smt: bool = False) -> list[Core]:
    """Pin ``n_threads`` onto cores of ``machine``.

    Returns the core for each thread, in thread order.  With
    ``allow_smt=False`` (the paper's configuration — it sweeps up to the
    physical core count) placement fails once physical cores run out; with
    ``allow_smt=True`` each core accepts up to ``core.smt`` threads.

    Raises:
        AffinityError: not enough core slots for the request.
    """
    if n_threads < 1:
        raise AffinityError(f"need at least one thread, got {n_threads}")
    if sockets is None:
        sockets = sorted(machine.sockets)
    if not sockets:
        raise AffinityError("empty socket list")

    per_socket = _socket_core_lists(machine, sockets)
    slots_per_core = max(c.smt for cores in per_socket for c in cores) if allow_smt else 1
    capacity = sum(
        (min(c.smt, slots_per_core) if allow_smt else 1)
        for cores in per_socket for c in cores
    )
    if n_threads > capacity:
        raise AffinityError(
            f"{n_threads} threads requested but only {capacity} slots on "
            f"sockets {list(sockets)} (allow_smt={allow_smt})"
        )

    order: list[Core] = []
    if mode is AffinityMode.CLOSE:
        for cores in per_socket:
            order.extend(cores)
    elif mode is AffinityMode.SPREAD:
        # Round-robin across sockets: s0c0, s1c0, s0c1, s1c1, ...
        idx = [0] * len(per_socket)
        remaining = sum(len(cores) for cores in per_socket)
        while remaining:
            for k, cores in enumerate(per_socket):
                if idx[k] < len(cores):
                    order.append(cores[idx[k]])
                    idx[k] += 1
                    remaining -= 1
    else:  # pragma: no cover - exhaustive enum
        raise AffinityError(f"unknown affinity mode {mode}")

    placement: list[Core] = []
    pass_no = 0
    while len(placement) < n_threads:
        pass_no += 1
        if pass_no > 1 and not allow_smt:
            raise AffinityError("ran out of physical cores")  # pragma: no cover
        for core in order:
            if len(placement) == n_threads:
                break
            if pass_no <= (core.smt if allow_smt else 1):
                placement.append(core)
    return placement


#: machine -> {(n, mode, sockets, allow_smt): placement}; weakly keyed,
#: so a machine's memo goes with it
_PLACEMENT_CACHE: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def place_threads_cached(machine: Machine, n_threads: int,
                         mode: AffinityMode = AffinityMode.CLOSE,
                         sockets: Sequence[int] | None = None,
                         allow_smt: bool = False) -> list[Core]:
    """Memoized :func:`place_threads` (placement is deterministic).

    A machine's cores are fixed at construction, so entries never go
    stale.  Sweep drivers hit the same (machine, n, mode, sockets)
    placements once per kernel; this collapses that to one computation.
    """
    memo = _PLACEMENT_CACHE.setdefault(machine, {})
    key = (n_threads, mode,
           tuple(sockets) if sockets is not None else None, allow_smt)
    cached = memo.get(key)
    if cached is None:
        cached = tuple(place_threads(machine, n_threads, mode,
                                     sockets=sockets, allow_smt=allow_smt))
        memo[key] = cached
    return list(cached)


def smt_load(placement: Sequence[Core]) -> dict[int, int]:
    """Number of threads sharing each core in a placement."""
    load: dict[int, int] = {}
    for core in placement:
        load[core.core_id] = load.get(core.core_id, 0) + 1
    return load


def describe_placement(placement: Sequence[Core]) -> str:
    """Compact description, e.g. ``s0:[0-4] s1:[10-11]``."""
    by_socket: dict[int, list[int]] = {}
    for core in placement:
        by_socket.setdefault(core.socket_id, []).append(core.core_id)
    parts = []
    for sid in sorted(by_socket):
        ids = sorted(set(by_socket[sid]))
        runs: list[str] = []
        start = prev = ids[0]
        for i in ids[1:]:
            if i == prev + 1:
                prev = i
                continue
            runs.append(f"{start}-{prev}" if start != prev else f"{start}")
            start = prev = i
        runs.append(f"{start}-{prev}" if start != prev else f"{start}")
        parts.append(f"s{sid}:[{','.join(runs)}]")
    return " ".join(parts)
