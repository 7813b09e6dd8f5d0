"""The switched-topology preset."""

import pytest

from repro.core.runtime import CxlPmemRuntime
from repro.machine.affinity import place_threads
from repro.machine.numa import NumaPolicy
from repro.machine.presets import setup1, setup1_switched
from repro.memsim.engine import simulate_stream


@pytest.fixture(scope="module")
def switched():
    return setup1_switched()


class TestTopology:
    def test_switch_resource_on_the_path(self, switched):
        path = switched.machine.route(0, 2)
        assert path.resources == ("cxl0.link", "cxl0.switch", "cxl0.mc")

    def test_latency_adds_two_hops(self, switched, tb1):
        direct = tb1.machine.route(0, 2).latency_ns
        via = switched.machine.route(0, 2).latency_ns
        assert via == pytest.approx(direct + 120.0)

    def test_differs_from_setup1_only_by_the_switch(self, tb1):
        """The switch adds a name, one resource and two hops on node 2's
        path; every other part of the fingerprint is Setup #1's."""
        hop_ns = 75.0
        fp = setup1_switched(switch_latency_ns=hop_ns).machine.fingerprint()
        want = tb1.machine.fingerprint()
        assert fp.pop("name") == "setup1-switched"
        want.pop("name")
        resources = fp["resources"]
        assert resources.pop("cxl0.switch") == pytest.approx(
            2 * resources["cxl0.link"])
        node = fp["nodes"][2]
        direct = want["nodes"][2]
        assert node.pop("extra_resources") == [
            "cxl0.link", "cxl0.switch", "cxl0.mc"]
        assert direct.pop("extra_resources") == ["cxl0.link", "cxl0.mc"]
        assert node.pop("idle_latency_ns") == (
            direct.pop("idle_latency_ns") + 2 * hop_ns)
        assert fp == want

    def test_custom_hop_latency(self):
        fast = setup1_switched(switch_latency_ns=20.0)
        slow = setup1_switched(switch_latency_ns=100.0)
        assert (slow.machine.route(0, 2).latency_ns
                > fast.machine.route(0, 2).latency_ns)

    def test_enumeration_goes_through_the_switch(self, switched):
        rt = CxlPmemRuntime(switched.host_bridges)
        eps = rt.endpoints
        assert len(eps) == 1
        assert eps[0].via_switch == "pool-switch"

    def test_namespaces_work_behind_the_switch(self, switched):
        rt = CxlPmemRuntime(switched.host_bridges)
        ns = rt.create_namespace("cxl0", "behind-switch", 2 << 20)
        region = ns.region()
        region.write(0, b"switched")
        assert region.read(0, 8) == b"switched"


class TestBandwidth:
    def test_saturation_unchanged(self, switched, tb1):
        results = {}
        for name, tb in (("direct", tb1), ("switched", switched)):
            cores = place_threads(tb.machine, 10, sockets=[0])
            results[name] = simulate_stream(
                tb.machine, "triad", cores, NumaPolicy.bind(2)).reported_gbps
        assert results["switched"] == pytest.approx(results["direct"],
                                                    rel=0.01)

    def test_single_thread_pays_the_latency(self, switched, tb1):
        one_direct = simulate_stream(
            tb1.machine, "triad",
            place_threads(tb1.machine, 1, sockets=[0]),
            NumaPolicy.bind(2)).reported_gbps
        one_switched = simulate_stream(
            switched.machine, "triad",
            place_threads(switched.machine, 1, sockets=[0]),
            NumaPolicy.bind(2)).reported_gbps
        assert one_switched < one_direct * 0.9
