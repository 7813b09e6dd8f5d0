"""FabricScheduler: placement order, QoS bandwidth, warm-pool sweeps."""

import pytest

from repro import units
from repro.errors import FabricError
from repro.fabric.manager import FabricManager
from repro.fabric.schedule import (
    BANDWIDTH_POLICIES,
    FABRIC_GROUP_ID,
    FabricScheduler,
    Placement,
    TenantSpec,
)


@pytest.fixture()
def sched() -> FabricScheduler:
    return FabricScheduler(FabricManager.build(2))


class TestTenantSpec:
    def test_validation(self):
        with pytest.raises(FabricError):
            TenantSpec("t", 0, -1)
        with pytest.raises(FabricError):
            TenantSpec("t", 0, 1, threads=0)
        with pytest.raises(FabricError):
            TenantSpec("t", 0, 1, qos="platinum")
        with pytest.raises(FabricError, match="'fft'"):
            TenantSpec("t", 0, 1, kernel="fft")

    def test_scheduler_requires_testbed(self):
        from repro.cxl.switch import CxlSwitch
        bare = FabricManager(CxlSwitch("sw"))
        with pytest.raises(FabricError, match="testbed"):
            FabricScheduler(bare)


class TestPlace:
    def test_full_demands_served(self, sched):
        tenants = [TenantSpec("a", 0, units.gib(2)),
                   TenantSpec("b", 1, units.gib(3))]
        placements = sched.place(tenants)
        assert [p.tenant.name for p in placements] == ["a", "b"]
        assert all(p.placed and p.shortfall_bytes == 0 for p in placements)

    def test_guaranteed_places_first(self, sched):
        """A guaranteed tenant wins the pool over a larger best-effort
        demand when there is not room for both."""
        tenants = [
            TenantSpec("big-be", 0, units.gib(12)),
            TenantSpec("small-g", 1, units.gib(8), qos="guaranteed"),
        ]
        placements = sched.place(tenants)
        by = {p.tenant.name: p for p in placements}
        assert by["small-g"].served_bytes == units.gib(8)
        assert by["big-be"].served_bytes < units.gib(12)   # degraded

    def test_oversized_demand_degrades(self, sched):
        [p] = sched.place([TenantSpec("greedy", 0, units.gib(32))])
        assert p.placed
        assert p.served_bytes == units.gib(16)      # whole pool
        assert p.shortfall_bytes == units.gib(16)

    def test_exhausted_pool_leaves_unplaced(self, sched):
        placements = sched.place([TenantSpec("a", 0, units.gib(16)),
                                  TenantSpec("b", 1, units.gib(1))])
        by = {p.tenant.name: p for p in placements}
        assert by["a"].placed
        assert not by["b"].placed
        assert by["b"].served_bytes == 0

    def test_duplicate_names_rejected(self, sched):
        with pytest.raises(FabricError, match="duplicate"):
            sched.place([TenantSpec("t", 0, 1), TenantSpec("t", 1, 1)])


class TestBandwidth:
    def _placements(self, sched, threads=(4, 4)):
        tenants = [TenantSpec(f"t{i}", i, units.gib(1), threads=n)
                   for i, n in enumerate(threads)]
        return sched.place(tenants)

    def test_policies_enumerated(self, sched):
        with pytest.raises(FabricError, match="unknown bandwidth policy"):
            sched.bandwidth(self._placements(sched), policy="lottery")
        assert set(BANDWIDTH_POLICIES) == {"fair", "qos"}

    def test_fair_shares_media_equally(self, sched):
        report = sched.bandwidth(self._placements(sched), policy="fair")
        t0, t1 = report.tenant_gbps["t0"], report.tenant_gbps["t1"]
        assert t0 == pytest.approx(t1, rel=1e-6)
        assert report.aggregate_gbps > 0

    def test_contention_costs_everyone(self, sched):
        solo = sched.solo_gbps(TenantSpec("t0", 0, units.gib(1), threads=4))
        fair = sched.bandwidth(self._placements(sched), policy="fair")
        assert fair.tenant_gbps["t0"] < solo

    def test_qos_floor_holds_for_guaranteed(self):
        sched = FabricScheduler(FabricManager.build(4), qos_floor=0.8)
        victim = TenantSpec("v", 0, units.gib(1), threads=4,
                            qos="guaranteed")
        aggressors = [TenantSpec(f"a{h}", h, units.gib(1), threads=10)
                      for h in range(1, 4)]
        placements = sched.place([victim] + aggressors)
        solo = sched.solo_gbps(victim)
        fair = sched.bandwidth(placements, policy="fair")
        qos = sched.bandwidth(placements, policy="qos")
        assert fair.tenant_gbps["v"] < 0.8 * solo       # starved
        assert qos.tenant_gbps["v"] >= 0.8 * solo - 1e-6
        # best-effort tenants are capped, not killed
        assert all(qos.tenant_gbps[t.name] > 0 for t in aggressors)

    def test_unplaced_tenants_drive_no_traffic(self, sched):
        placements = [
            Placement(TenantSpec("ghost", 0, units.gib(1)), None, 0)]
        report = sched.bandwidth(placements)
        assert report.tenant_gbps == {}
        assert report.aggregate_gbps == 0


class TestStreams:
    def test_group_shape(self, sched):
        placements = sched.place([TenantSpec("a", 0, units.gib(1)),
                                  TenantSpec("b", 1, units.gib(1))])
        group = sched.stream_group(placements, thread_counts=(1, 2))
        assert group.group_id == FABRIC_GROUP_ID
        assert [s.key for s in group.series] == ["4f.a", "4f.b"]
        assert all(s.testbed == "fabric" for s in group.series)

    def test_no_placements_rejected(self, sched):
        with pytest.raises(FabricError, match="no placed tenants"):
            sched.stream_group([])

    def test_warm_pool_matches_serial(self, sched):
        """The pooled execution path must be byte-identical to serial."""
        placements = sched.place([TenantSpec("a", 0, units.gib(1)),
                                  TenantSpec("b", 1, units.gib(1))])
        serial = sched.run_streams(placements, thread_counts=(1, 2))
        pooled = sched.run_streams(placements, jobs=2, thread_counts=(1, 2))
        assert serial.to_json() == pooled.to_json()
        assert len(serial.filter(kernel="triad")) == 4   # 2 series x 2 counts
