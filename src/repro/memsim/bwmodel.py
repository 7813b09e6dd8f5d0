"""Max-min fair bandwidth allocation (progressive filling / water-filling).

Threads are *flows*; memory controllers, UPI directions and the CXL path
are capacitated *resources*.  Every flow also carries its own rate cap (the
concurrency limit).  The solver raises all unfrozen flow rates together
until either a resource saturates (freezing every flow crossing it) or a
flow hits its cap — the classic progressive-filling construction of the
max-min fair allocation, extended with per-flow resource *weights* so a
UPI-crossing flow can load the target memory controller more than 1:1
(directory/snoop amplification).

Progressive filling over plain dicts is the only implementation: the
flow sets the sweep and the fabric build (at most 34 flows) solve as
fast this way as on a NumPy flows×resources matrix (MODEL.md §6.1).

Invariants (property-tested):

* no resource's total weighted load exceeds its capacity (within epsilon);
* no flow exceeds its cap;
* every reported bottleneck is a saturated resource the flow uses, or
  the flow's own reached cap;
* the allocation is max-min fair: a flow's rate can only be increased by
  decreasing the rate of some flow with an equal-or-smaller rate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.errors import SimulationError

_EPS = 1e-9


@dataclass(frozen=True)
class Flow:
    """One traffic flow (thread × target) through the machine.

    Attributes:
        name: diagnostic label, e.g. ``"t3@core13->node2"``.
        usage: resource name → weight.  A rate of ``r`` GB/s loads resource
            ``R`` with ``r * usage[R]`` GB/s.
        cap_gbps: the flow's own maximum rate (concurrency limit), or
            ``float('inf')`` for uncapped.
    """

    name: str
    usage: Mapping[str, float]
    cap_gbps: float

    def __post_init__(self) -> None:
        if not self.usage:
            raise SimulationError(f"flow {self.name} uses no resources")
        for res, w in self.usage.items():
            if w <= 0:
                raise SimulationError(
                    f"flow {self.name}: weight for {res!r} must be positive"
                )
        if self.cap_gbps <= 0:
            raise SimulationError(f"flow {self.name}: cap must be positive")


@dataclass
class FlowAllocation:
    """Solver output."""

    rates: dict[str, float]
    bottleneck: dict[str, str]          # flow name -> resource name or "cap"
    resource_load: dict[str, float] = field(default_factory=dict)

    @property
    def total_gbps(self) -> float:
        return sum(self.rates.values())

    def utilization(self, capacities: Mapping[str, float]) -> dict[str, float]:
        """Fraction of each resource's capacity in use."""
        return {
            r: self.resource_load.get(r, 0.0) / cap
            for r, cap in capacities.items()
        }


def _validate(flows: Sequence[Flow], capacities: Mapping[str, float]) -> None:
    for res, cap in capacities.items():
        if cap <= 0:
            raise SimulationError(f"resource {res!r} has non-positive capacity")
    names = set()
    for f in flows:
        if f.name in names:
            raise SimulationError(f"duplicate flow name {f.name!r}")
        names.add(f.name)
        for res in f.usage:
            if res not in capacities:
                raise SimulationError(
                    f"flow {f.name} uses unknown resource {res!r}"
                )


def solve_max_min(flows: Sequence[Flow],
                  capacities: Mapping[str, float]) -> FlowAllocation:
    """Compute the max-min fair allocation by progressive filling.

    Args:
        flows: the flow set to allocate.
        capacities: resource name → capacity in GB/s.

    Raises:
        SimulationError: a flow references an unknown resource, or a
            capacity is non-positive.
    """
    _validate(flows, capacities)
    rates: dict[str, float] = {f.name: 0.0 for f in flows}
    bottleneck: dict[str, str] = {}
    active: list[Flow] = list(flows)

    residual = dict(capacities)

    while active:
        # Largest uniform increment every active flow can take.
        delta = min(f.cap_gbps - rates[f.name] for f in active)
        limiting_resource: str | None = None
        for res, room in residual.items():
            load = sum(f.usage.get(res, 0.0) for f in active)
            if load > _EPS:
                inc = room / load
                if inc < delta - _EPS:
                    delta = inc
                    limiting_resource = res
        delta = max(delta, 0.0)

        for f in active:
            rates[f.name] += delta
            for res, w in f.usage.items():
                residual[res] -= delta * w

        # Freeze flows: first those on saturated resources, then capped ones.
        still_active: list[Flow] = []
        for f in active:
            saturated = [res for res in f.usage if residual[res] <= _EPS * max(1.0, capacities[res])]
            if saturated:
                bottleneck[f.name] = saturated[0]
            elif rates[f.name] >= f.cap_gbps - _EPS:
                bottleneck[f.name] = "cap"
            else:
                still_active.append(f)
        if len(still_active) == len(active):  # pragma: no cover - safety
            raise SimulationError(
                f"solver failed to make progress ({limiting_resource=})"
            )
        active = still_active

    load = {
        res: sum(rates[f.name] * f.usage.get(res, 0.0) for f in flows)
        for res in capacities
    }
    return FlowAllocation(rates=rates, bottleneck=bottleneck, resource_load=load)
