"""SimulationPlan and the process-wide plan cache.

The plan layer must be *transparent*: simulating with cached plans has
to produce exactly the results of the plan-free path, and mutating a
machine's topology must invalidate its cached plans and routes.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import units
from repro.errors import SimulationError
from repro.machine.affinity import AffinityMode, place_threads
from repro.machine.cache import CacheHierarchy, CacheLevel
from repro.machine.dram import DDR4_2666, DimmSpec
from repro.machine.interconnect import UpiLink
from repro.machine.numa import NumaPolicy
from repro.machine.presets import setup1, setup1_with_dcpmm, setup2
from repro.machine.topology import (
    Core,
    Machine,
    MemoryController,
    NodeKind,
    NumaNode,
    Socket,
)
from repro.memsim import plan as plan_mod
from repro.memsim.engine import (
    AccessMode,
    simulate_all_kernels,
    simulate_stream,
)
from repro.memsim.plan import (
    SimulationPlan,
    clear_plan_cache,
    plan_cache_stats,
    set_plan_cache_enabled,
    simulation_plan,
)

KERNELS = ("copy", "scale", "add", "triad")
NUMA, APP_DIRECT = AccessMode.NUMA, AccessMode.APP_DIRECT
CLOSE, SPREAD = AffinityMode.CLOSE, AffinityMode.SPREAD
PAPER_ELEMENTS = 100_000_000
#: 4.8 MB of arrays: inside every preset's last-level cache
LLC_ELEMENTS = 200_000


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_plan_cache()
    yield
    clear_plan_cache()
    set_plan_cache_enabled(True)


def _result_tuple(r):
    return (r.reported_gbps, r.actual_gbps, dict(r.per_thread_gbps),
            dict(r.bottlenecks), r.policy, r.placement, r.cache_resident,
            dict(r.resource_load))


def _socket0(n):
    return {"n_threads": n, "sockets": [0]}


#: (testbed, placement, policy, mode, array elements): one case per
#: thread-class shape the flow templates must reproduce exactly
TRANSPARENCY_CASES = [
    pytest.param(setup1, _socket0(6), NumaPolicy.bind(node), mode,
                 PAPER_ELEMENTS, id=f"{node}-{mode}")
    for node, mode in ((0, NUMA), (1, NUMA), (2, NUMA), (2, APP_DIRECT))
] + [
    pytest.param(setup1, {"n_threads": 14, "mode": CLOSE},
                 NumaPolicy.bind(2), NUMA, PAPER_ELEMENTS,
                 id="setup1-close-both-sockets"),
    pytest.param(setup1, {"n_threads": 7, "mode": SPREAD},
                 NumaPolicy.local(), NUMA, PAPER_ELEMENTS,
                 id="setup1-spread-both-sockets"),
    pytest.param(setup1, {"n_threads": 13, "sockets": [0],
                          "allow_smt": True},
                 NumaPolicy.bind(0), NUMA, PAPER_ELEMENTS,
                 id="setup1-smt-two-sharers"),
    pytest.param(setup1, {"n_threads": 9, "mode": SPREAD},
                 NumaPolicy.interleave(0, 1, 2), NUMA, PAPER_ELEMENTS,
                 id="setup1-interleave"),
    pytest.param(setup1, _socket0(8), NumaPolicy.weighted({0: 3, 2: 1}),
                 NUMA, PAPER_ELEMENTS, id="setup1-weighted-near-far"),
    pytest.param(setup1, {"n_threads": 24, "mode": SPREAD,
                          "allow_smt": True},
                 NumaPolicy.bind(0), APP_DIRECT, LLC_ELEMENTS,
                 id="setup1-smt-cache-resident"),
    pytest.param(setup2, {"n_threads": 16, "mode": CLOSE},
                 NumaPolicy.interleave(0, 1), NUMA, PAPER_ELEMENTS,
                 id="setup2-close-interleave"),
    pytest.param(setup2, {"n_threads": 25, "mode": SPREAD,
                          "allow_smt": True},
                 NumaPolicy.bind(1), APP_DIRECT, PAPER_ELEMENTS,
                 id="setup2-smt-snoop-clamped"),
    pytest.param(setup2, {"n_threads": 12, "mode": CLOSE},
                 NumaPolicy.bind(0), NUMA, LLC_ELEMENTS,
                 id="setup2-cache-resident"),
    pytest.param(setup1_with_dcpmm, _socket0(6), NumaPolicy.bind(3),
                 APP_DIRECT, PAPER_ELEMENTS, id="dcpmm-app-direct"),
    pytest.param(setup1_with_dcpmm, {"n_threads": 11, "mode": SPREAD},
                 NumaPolicy.weighted({0: 1, 3: 2}), NUMA, PAPER_ELEMENTS,
                 id="dcpmm-spread-weighted"),
]


class TestTransparency:
    @pytest.mark.parametrize("testbed,place,policy,mode,elements",
                             TRANSPARENCY_CASES)
    def test_cached_equals_uncached(self, testbed, place, policy, mode,
                                    elements):
        tb = testbed()
        place = dict(place)
        cores = place_threads(tb.machine, place.pop("n_threads"), **place)

        def sweep():
            return [simulate_stream(tb.machine, k, cores, policy, mode,
                                    elements) for k in KERNELS]

        set_plan_cache_enabled(False)
        plain = sweep()
        assert not plan_mod._TEMPLATE_CACHE
        set_plan_cache_enabled(True)
        clear_plan_cache()
        cached = sweep()
        assert plan_mod._TEMPLATE_CACHE

        for p, c in zip(plain, cached):
            assert _result_tuple(p) == _result_tuple(c)

    def test_simulate_all_kernels_equals_independent_calls(self):
        tb = setup2()
        cores = place_threads(tb.machine, 8, sockets=[0])
        policy = NumaPolicy.bind(1)

        combined = simulate_all_kernels(tb.machine, cores, policy,
                                        AccessMode.NUMA)
        for k in KERNELS:
            solo = simulate_stream(tb.machine, k, cores, policy,
                                   AccessMode.NUMA)
            assert _result_tuple(combined[k]) == _result_tuple(solo)

    def test_explicit_plan_equals_fetched_plan(self):
        tb = setup1()
        cores = place_threads(tb.machine, 4, sockets=[0])
        policy = NumaPolicy.bind(2)
        plan = simulation_plan(tb.machine, cores, policy, AccessMode.NUMA,
                               100_000_000)
        via_plan = simulate_stream(tb.machine, "triad", cores, policy,
                                   AccessMode.NUMA, plan=plan)
        direct = simulate_stream(tb.machine, "triad", cores, policy,
                                 AccessMode.NUMA)
        assert _result_tuple(via_plan) == _result_tuple(direct)


class TestCacheBehaviour:
    def test_four_kernels_one_plan(self):
        tb = setup1()
        cores = place_threads(tb.machine, 5, sockets=[0])
        policy = NumaPolicy.bind(2)
        for k in KERNELS:
            simulate_stream(tb.machine, k, cores, policy, AccessMode.NUMA)
        stats = plan_cache_stats()
        assert stats["misses"] == 1
        assert stats["hits"] == 3
        assert stats["size"] == 1

    def test_uniform_alloc_memo_collapses_kernels(self):
        """setup1 has no asymmetric media: one solve serves all kernels."""
        tb = setup1()
        cores = place_threads(tb.machine, 5, sockets=[0])
        plan = simulation_plan(tb.machine, cores, NumaPolicy.bind(2),
                               AccessMode.NUMA, 100_000_000)
        plan.solve(0.5)
        plan.solve(2 / 3)
        assert len(plan._alloc_memo) == 1

    def test_asymmetric_media_memoizes_per_mix(self):
        tb = setup1_with_dcpmm()
        cores = place_threads(tb.machine, 5, sockets=[0])
        plan = simulation_plan(tb.machine, cores, NumaPolicy.bind(3),
                               AccessMode.APP_DIRECT, 100_000_000)
        a = plan.solve(0.5)
        b = plan.solve(2 / 3)
        assert len(plan._alloc_memo) == 2
        assert plan.solve(0.5) is a
        assert plan.solve(2 / 3) is b

    def test_distinct_configurations_distinct_plans(self):
        tb = setup1()
        policy = NumaPolicy.bind(0)
        for n in (2, 4):
            cores = place_threads(tb.machine, n, sockets=[0])
            simulate_stream(tb.machine, "copy", cores, policy,
                            AccessMode.NUMA)
        assert plan_cache_stats()["misses"] == 2

    def test_disabled_cache_builds_fresh_plans(self):
        tb = setup1()
        cores = place_threads(tb.machine, 3, sockets=[0])
        set_plan_cache_enabled(False)
        p1 = simulation_plan(tb.machine, cores, NumaPolicy.bind(0),
                             AccessMode.NUMA, 100_000_000)
        p2 = simulation_plan(tb.machine, cores, NumaPolicy.bind(0),
                             AccessMode.NUMA, 100_000_000)
        assert p1 is not p2
        assert plan_cache_stats()["size"] == 0


def _series(machine, policy, mode=NUMA, elements=PAPER_ELEMENTS,
            threads=range(1, 21)):
    """A paper-style thread sweep spilling from socket 0 to socket 1."""
    return [simulation_plan(machine, place_threads(machine, n), policy,
                            mode, elements) for n in threads]


def _lopsided_machine():
    """Two sockets whose last-level caches differ: 20 MiB and 4 MiB."""
    sockets = []
    for sid, llc_mib in ((0, 20), (1, 4)):
        mc = MemoryController(f"mc{sid}", 2,
                              (DimmSpec(DDR4_2666, units.gib(16)),),
                              30.0, 100.0)
        caches = CacheHierarchy.from_levels([
            CacheLevel(1, units.kib(32), 1.0, 500.0),
            CacheLevel(2, units.mib(1), 4.0, 300.0),
            CacheLevel(3, units.mib(llc_mib), 20.0, 200.0, shared=True),
        ])
        cores = tuple(Core(sid * 4 + i, sid, 2.0, 12) for i in range(4))
        sockets.append(Socket(sid, "test-cpu", cores, caches, mc))
    m = Machine("lopsided", sockets, [UpiLink(0, 1, 10.4, 2, 15.0, 80.0)])
    m.add_dram_nodes()
    return m


def _cxl_node(machine, node_id):
    name = f"cxl{node_id}"
    machine.add_resource(f"{name}.mc", 11.0)
    mc = MemoryController(f"{name}-hdm", 2,
                          (DimmSpec(DDR4_2666, units.gib(8)),), 11.0, 130.0)
    machine.add_node(NumaNode(node_id, NodeKind.CXL, 0, mc,
                              extra_resources=(f"{name}.mc",),
                              extra_latency_ns=300.0))


class TestFlowTemplates:
    """One (usage, cap) template per thread class, kept in an LRU with
    the plan cache's key discipline, lifetime and bound."""

    def test_series_shares_one_template_per_class(self):
        tb = setup1()
        plans = _series(tb.machine, NumaPolicy.bind(2))
        assert len(plan_mod._TEMPLATE_CACHE) == 2      # one per socket
        usages = {id(f.usage) for p in plans for f in p.flows}
        assert len(usages) == 2
        assert sum(len(p.flows) for p in plans) == 210

    def test_series_equals_uncached_series(self):
        tb = setup1()
        policy = NumaPolicy.weighted({0: 3, 2: 1})
        cached = [p.solve(0.5) for p in _series(tb.machine, policy)]
        set_plan_cache_enabled(False)
        plain = [p.solve(0.5) for p in _series(tb.machine, policy)]
        for c, p in zip(cached, plain):
            assert (c.rates, c.bottleneck, c.resource_load) == (
                p.rates, p.bottleneck, p.resource_load)

    def test_cache_residency_is_part_of_the_class(self):
        """12 MB of arrays fit socket 0's LLC but not socket 1's: socket 0
        threads read the LLC alone and DRAM once socket 1 joins."""
        m = _lopsided_machine()
        elements = 500_000
        resident, spilled = (
            simulation_plan(m, place_threads(m, n), NumaPolicy.local(), NUMA,
                            elements) for n in (2, 6))
        assert resident.cache_resident and not spilled.cache_resident
        set_plan_cache_enabled(False)
        plain = SimulationPlan(m, spilled.placement, NumaPolicy.local(),
                               NUMA, elements)
        assert spilled.flows == plain.flows
        assert spilled.flows[0].usage != resident.flows[0].usage

    @pytest.mark.parametrize("mutate", [
        lambda m: m.add_resource("aux.mc", 10.0),
        lambda m: _cxl_node(m, 3),
    ], ids=["add_resource", "add_node"])
    def test_topology_mutation_yields_fresh_templates(self, mutate):
        m = setup1().machine
        cores = place_threads(m, 4, sockets=[0])
        p1 = simulation_plan(m, cores, NumaPolicy.bind(2), NUMA,
                             PAPER_ELEMENTS)
        before = m.topology_version
        mutate(m)
        p2 = simulation_plan(m, cores, NumaPolicy.bind(2), NUMA,
                             PAPER_ELEMENTS)
        assert p2.flows[0].usage is not p1.flows[0].usage
        assert p2.flows[0].usage == p1.flows[0].usage
        assert sorted(key[1] for key in plan_mod._TEMPLATE_CACHE) == [
            before, m.topology_version]

    def test_clear_plan_cache_empties_templates(self):
        _series(setup1().machine, NumaPolicy.bind(0), threads=(4, 14))
        assert plan_mod._TEMPLATE_CACHE
        clear_plan_cache()
        assert not plan_mod._TEMPLATE_CACHE

    def test_uncached_plans_build_no_template(self):
        set_plan_cache_enabled(False)
        _series(setup1().machine, NumaPolicy.bind(0), threads=(4, 14))
        assert not plan_mod._TEMPLATE_CACHE

    def test_lru_never_exceeds_its_bound(self, monkeypatch):
        monkeypatch.setattr(plan_mod, "PLAN_CACHE_MAXSIZE", 3)
        m = setup1().machine
        for elements in range(PAPER_ELEMENTS, PAPER_ELEMENTS + 8):
            plans = _series(m, NumaPolicy.bind(2), elements=elements,
                            threads=(2, 12))
            assert len(plan_mod._TEMPLATE_CACHE) <= 3
        set_plan_cache_enabled(False)
        plain = _series(m, NumaPolicy.bind(2), elements=elements,
                        threads=(2, 12))
        assert [p.flows for p in plans] == [p.flows for p in plain]

    def test_failing_template_raises_as_uncached_and_stores_nothing(self):
        m = setup1().machine
        cores = tuple(place_threads(m, 3, sockets=[0]))
        errors = []
        for enabled in (False, True):
            set_plan_cache_enabled(enabled)
            with pytest.raises(SimulationError, match="capacity") as exc:
                SimulationPlan(m, cores, NumaPolicy.bind(0), NUMA, 10**13)
            errors.append(str(exc.value))
        assert errors[0] == errors[1]
        assert not plan_mod._TEMPLATE_CACHE

    def test_import_builds_no_template(self):
        code = ("import repro.memsim.plan as p, repro.streamer.cli, "
                "repro.tiering\n"
                "assert not p._TEMPLATE_CACHE and not p._PLAN_CACHE")
        src = str(Path(plan_mod.__file__).parents[2])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, *sys.path]))
        subprocess.run([sys.executable, "-c", code], check=True, env=env)


class TestInvalidation:
    def test_topology_mutation_invalidates_plans(self):
        tb = setup1()
        m = tb.machine
        cores = place_threads(m, 4, sockets=[0])
        policy = NumaPolicy.bind(0)
        p1 = simulation_plan(m, cores, policy, AccessMode.NUMA, 100_000_000)
        version = m.topology_version
        m.add_resource("aux.mc", 10.0)
        assert m.topology_version > version
        p2 = simulation_plan(m, cores, policy, AccessMode.NUMA, 100_000_000)
        assert p2 is not p1

    def test_route_cache_hits_and_invalidates(self):
        m = setup1().machine
        path1 = m.route(0, 2)
        assert m.route(0, 2) is path1           # memoized
        m.add_resource("aux.mc", 10.0)
        path2 = m.route(0, 2)
        assert path2 is not path1               # cache dropped
        assert path2.resources == path1.resources

    def test_same_shape_machines_cache_separately(self):
        tb_a, tb_b = setup1(), setup1()
        policy = NumaPolicy.bind(0)
        for tb in (tb_a, tb_b):
            cores = place_threads(tb.machine, 4, sockets=[0])
            simulate_stream(tb.machine, "copy", cores, policy,
                            AccessMode.NUMA)
        assert plan_cache_stats()["misses"] == 2


class TestValidationStillFires:
    def test_empty_placement_rejected(self):
        from repro.errors import SimulationError
        tb = setup1()
        with pytest.raises(SimulationError):
            SimulationPlan(tb.machine, (), NumaPolicy.bind(0),
                           AccessMode.NUMA, 100_000_000)

    def test_capacity_validation_in_plan(self):
        from repro.errors import SimulationError
        tb = setup1()
        cores = place_threads(tb.machine, 1, sockets=[0])
        with pytest.raises(SimulationError, match="capacity"):
            SimulationPlan(tb.machine, tuple(cores), NumaPolicy.bind(0),
                           AccessMode.NUMA, 10**13)
