"""Property tests: the max-min solver's fairness and safety invariants."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.memsim.bwmodel import Flow, solve_max_min

EPS = 1e-6


@st.composite
def _problems(draw, max_flows=12):
    n_resources = draw(st.integers(1, 5))
    resources = {f"r{i}": draw(st.floats(1.0, 100.0))
                 for i in range(n_resources)}
    n_flows = draw(st.integers(1, max_flows))
    flows = []
    for i in range(n_flows):
        n_used = draw(st.integers(1, n_resources))
        used = draw(st.permutations(sorted(resources)))[:n_used]
        usage = {r: draw(st.floats(1.0, 2.0)) for r in used}
        cap = draw(st.one_of(st.floats(0.5, 50.0), st.just(float("inf"))))
        flows.append(Flow(f"f{i}", usage, cap))
    return flows, resources


@given(_problems())
@settings(max_examples=120, deadline=None)
def test_no_capacity_exceeded(problem):
    flows, resources = problem
    alloc = solve_max_min(flows, resources)
    for res, cap in resources.items():
        load = sum(alloc.rates[f.name] * f.usage.get(res, 0.0)
                   for f in flows)
        assert load <= cap + EPS * max(1.0, cap)


@given(_problems())
@settings(max_examples=120, deadline=None)
def test_no_flow_exceeds_its_cap(problem):
    flows, resources = problem
    alloc = solve_max_min(flows, resources)
    for f in flows:
        assert alloc.rates[f.name] <= f.cap_gbps + EPS


@given(_problems())
@settings(max_examples=120, deadline=None)
def test_every_flow_gets_something(problem):
    flows, resources = problem
    alloc = solve_max_min(flows, resources)
    for f in flows:
        assert alloc.rates[f.name] > 0.0


@given(_problems())
@settings(max_examples=120, deadline=None)
def test_allocation_is_maximal(problem):
    """No flow can be raised without violating a constraint — i.e. each
    flow is blocked by its cap or by a saturated resource."""
    flows, resources = problem
    alloc = solve_max_min(flows, resources)
    for f in flows:
        if alloc.rates[f.name] >= f.cap_gbps - EPS:
            continue
        saturated = False
        for res in f.usage:
            load = sum(alloc.rates[g.name] * g.usage.get(res, 0.0)
                       for g in flows)
            if load >= resources[res] - EPS * max(1.0, resources[res]):
                saturated = True
                break
        assert saturated, f"flow {f.name} could still grow"


@given(_problems(max_flows=24))
@settings(max_examples=100, deadline=None)
def test_bottlenecks_are_valid(problem):
    """Every bottleneck attribution holds up: ``cap`` means the flow
    reached its own cap; a resource name means that resource is
    saturated and the flow uses it."""
    flows, resources = problem
    alloc = solve_max_min(flows, resources)
    for f in flows:
        res = alloc.bottleneck[f.name]
        if res == "cap":
            assert alloc.rates[f.name] >= f.cap_gbps - EPS
            continue
        assert res in f.usage
        load = sum(alloc.rates[g.name] * g.usage.get(res, 0.0)
                   for g in flows)
        assert load >= resources[res] - EPS * max(1.0, resources[res])


@given(_problems())
@settings(max_examples=80, deadline=None)
def test_max_min_fairness(problem):
    """A flow's bottleneck resource gives no other flow through that
    resource a strictly larger rate unless that other flow is capped
    below it — the defining property of the max-min allocation."""
    flows, resources = problem
    alloc = solve_max_min(flows, resources)
    by_name = {f.name: f for f in flows}
    for f in flows:
        res = alloc.bottleneck[f.name]
        if res == "cap":
            continue
        rate_f = alloc.rates[f.name]
        for g in flows:
            if g.name == f.name or res not in g.usage:
                continue
            # weighted consumption through the shared bottleneck
            cons_f = rate_f * f.usage[res]
            cons_g = alloc.rates[g.name] * g.usage[res]
            if cons_g > cons_f + EPS * 10:
                assert alloc.rates[g.name] <= alloc.rates[f.name] + EPS * 10 \
                    or alloc.bottleneck[g.name] != res


@given(_problems())
@settings(max_examples=60, deadline=None)
def test_determinism(problem):
    flows, resources = problem
    a1 = solve_max_min(flows, resources)
    a2 = solve_max_min(flows, resources)
    assert a1.rates == a2.rates
