"""Fault plans: validation, JSON round trip, deterministic run state."""

import re
from pathlib import Path

import pytest

from repro import faults
from repro.errors import (
    CxlDeviceTimeoutError,
    FaultPlanError,
    UnknownFaultKindError,
)
from repro.faults.plan import (
    KNOWN_FAULT_KINDS,
    DeviceTimeoutSpec,
    FaultPlan,
    LinkFlapSpec,
    PoisonSpec,
    PowerLossSpec,
    ServeShedSpec,
    SweepFailSpec,
    TxCrashSpec,
    WorkerKillSpec,
)

SHIPPED_PLANS = sorted(
    (Path(__file__).resolve().parents[2] / "examples" / "faultplans")
    .glob("*.json"))


class TestSpecValidation:
    def test_poison_rejects_zero_based_op(self):
        with pytest.raises(FaultPlanError):
            PoisonSpec(device="d", at_op=0)

    def test_poison_needs_a_line(self):
        with pytest.raises(FaultPlanError):
            PoisonSpec(device="d", lines=0)

    def test_link_flap_window_bounds(self):
        with pytest.raises(FaultPlanError):
            LinkFlapSpec(link="l", retrain_ops=0)

    def test_timeout_probability_bounds(self):
        with pytest.raises(FaultPlanError):
            DeviceTimeoutSpec(device="d", p=1.5)

    def test_survivor_prob_bounds(self):
        with pytest.raises(FaultPlanError):
            TxCrashSpec(survivor_prob=-0.1)

    def test_sweep_fail_attempts(self):
        with pytest.raises(FaultPlanError):
            SweepFailSpec(series="s", attempts=0)
        assert SweepFailSpec(series="s", attempts=None).attempts is None

    def test_one_shot_specs_default_to_single_fire(self):
        assert PowerLossSpec(domain="d").max_fires == 1
        assert TxCrashSpec().max_fires == 1
        assert WorkerKillSpec(worker=0).max_fires == 1
        assert PoisonSpec(device="d").max_fires is None

    def test_worker_kill_bounds(self):
        with pytest.raises(FaultPlanError):
            WorkerKillSpec(worker=-1)
        with pytest.raises(FaultPlanError):
            WorkerKillSpec(worker=0, at_step=0)

    @pytest.mark.parametrize("raw", [
        {"kind": "device_timeout", "device": "d", "max_fires": "1"},
        {"kind": "poison", "device": "d", "lines": 2.5},
        {"kind": "poison", "device": "d", "at_op": 1.5},
        {"kind": "device_timeout", "device": "d", "max_fires": 0},
        {"kind": "device_timeout", "device": "d", "max_fires": -2},
        {"kind": "poison", "device": "d", "dpa": -64},
    ], ids=["max_fires-str", "lines-float", "at_op-float", "max_fires-0",
            "max_fires-negative", "dpa-negative"])
    def test_plan_json_rejects_values_hooks_cannot_use(self, raw):
        with pytest.raises(FaultPlanError):
            FaultPlan.from_doc({"faults": [raw]})


class TestJsonRoundTrip:
    def _plan(self) -> FaultPlan:
        return FaultPlan(seed=9, faults=[
            PoisonSpec(device="cxl0", dpa=128, lines=2, at_op=3),
            LinkFlapSpec(link="cxl.link", at_op=5, retrain_ops=2),
            DeviceTimeoutSpec(device="cxl0", p=0.25, max_fires=2),
            PowerLossSpec(domain="dom0", at_persist=4),
            TxCrashSpec(at_persist=7, survivor_prob=0.5),
            SweepFailSpec(series="1b.cxl", kernel="triad", attempts=None),
            ServeShedSpec(tenant="t1", max_fires=3),
            WorkerKillSpec(worker=2, at_step=5),
        ])

    def test_round_trip_preserves_content(self):
        plan = self._plan()
        clone = FaultPlan.from_json(plan.to_json())
        assert clone.to_doc() == plan.to_doc()
        assert clone.seed == 9
        assert [s.kind for s in clone.faults] == [
            "poison", "link_flap", "device_timeout", "power_loss",
            "tx_crash", "sweep_fail", "serve_shed", "worker_kill"]

    def test_fires_is_run_state_not_content(self):
        plan = self._plan()
        plan.faults[0].fires = 1
        assert "fires" not in plan.to_doc()["faults"][0]
        assert FaultPlan.from_json(plan.to_json()).faults[0].fires == 0

    @pytest.mark.parametrize("path", SHIPPED_PLANS, ids=lambda p: p.name)
    def test_load_file(self, path):
        plan = FaultPlan.load(str(path))
        assert plan.faults
        text = plan.to_json()
        assert FaultPlan.from_json(text).to_json() == text
        described = plan.describe()
        for spec in plan.faults:
            assert f"- {spec.kind}:" in described

    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultPlanError):
            FaultPlan.from_doc({"faults": [{"kind": "meteor_strike"}]})

    def test_unknown_kind_error_is_typed_and_lists_known_kinds(self):
        with pytest.raises(UnknownFaultKindError) as exc:
            FaultPlan.from_doc({"faults": [{"kind": "meteor_strike"}]})
        assert exc.value.kind == "meteor_strike"
        assert exc.value.known == KNOWN_FAULT_KINDS
        assert "worker_kill" in str(exc.value)
        for kind in KNOWN_FAULT_KINDS:
            assert kind in str(exc.value)

    def test_known_kinds_registry_is_sorted_and_complete(self):
        assert KNOWN_FAULT_KINDS == tuple(sorted(KNOWN_FAULT_KINDS))
        for kind in ("poison", "host_detach", "migration_abort",
                     "worker_kill", "serve_shed"):
            assert kind in KNOWN_FAULT_KINDS

    def test_unknown_field_rejected(self):
        with pytest.raises(FaultPlanError):
            FaultPlan.from_doc(
                {"faults": [{"kind": "poison", "device": "d", "dpa2": 1}]})

    def test_missing_kind_rejected(self):
        with pytest.raises(FaultPlanError):
            FaultPlan.from_doc({"faults": [{"device": "d"}]})

    def test_non_object_rejected(self):
        with pytest.raises(FaultPlanError):
            FaultPlan.from_doc([1, 2])
        with pytest.raises(FaultPlanError):
            FaultPlan.from_json("{not json")

    @pytest.mark.parametrize("value,type_name", [
        (1.5, "float"), ("ab", "str"), ({}, "dict"), (None, "NoneType"),
    ], ids=["float", "str", "object", "null"])
    def test_faults_must_be_a_list(self, value, type_name):
        with pytest.raises(FaultPlanError,
                           match=f"'faults' must be a list, got {type_name}"):
            FaultPlan.from_doc({"faults": value})

    @pytest.mark.parametrize("seed", [1.9, True, "7", None, []],
                             ids=["float", "bool", "str", "null", "list"])
    def test_seed_must_be_an_integer(self, seed):
        with pytest.raises(FaultPlanError,
                           match=f"plan seed must be an integer, got "
                                 f"{re.escape(repr(seed))}"):
            FaultPlan.from_doc({"seed": seed, "faults": []})

    @pytest.mark.parametrize("seed", [0, 2**40])
    def test_integer_seed_loads(self, seed):
        assert FaultPlan.from_doc({"seed": seed, "faults": []}).seed == seed

    def test_absent_seed_is_zero(self):
        assert FaultPlan.from_doc({"faults": []}).seed == 0

    def test_unhashable_kind_is_an_unknown_kind(self):
        with pytest.raises(UnknownFaultKindError, match="unknown fault kind"):
            FaultPlan.from_doc({"faults": [{"kind": ["poison"]}]})

    def test_describe_names_every_fault(self):
        text = self._plan().describe()
        for kind in ("poison", "link_flap", "device_timeout",
                     "power_loss", "tx_crash", "sweep_fail", "worker_kill"):
            assert kind in text


class TestRunState:
    def test_counters_are_per_scope(self):
        plan = FaultPlan()
        assert plan.tick("dev:a") == 1
        assert plan.tick("dev:a") == 2
        assert plan.tick("dev:b") == 1
        assert plan.tick("persist") == 1
        assert plan.counts == {"dev:a": 2, "dev:b": 1, "persist": 1}

    def test_reset_rewinds_everything(self):
        plan = FaultPlan(seed=3, faults=[DeviceTimeoutSpec(device="d", p=1.0)])
        plan.tick("dev:d")
        plan.tick("persist")
        plan.faults[0].fires = 1
        first_draw = None
        plan.reset()
        first_draw = plan.rng.random()
        plan.reset()
        assert plan.rng.random() == first_draw
        assert plan.counts == {}
        assert plan.faults[0].fires == 0

    def test_spent_specs_drop_out(self):
        plan = FaultPlan(faults=[DeviceTimeoutSpec(device="d", p=1.0,
                                                   max_fires=1)])
        assert plan.specs("device_timeout")
        faults.install(plan)
        with pytest.raises(CxlDeviceTimeoutError):
            faults.on_cxl_op("read", "d", "l", 0, 1)
        assert plan.faults[0].fires == 1
        assert plan.specs("device_timeout") == []
        faults.on_cxl_op("read", "d", "l", 0, 1)     # spent: no raise


class TestInstallation:
    def test_install_rewinds_and_enables(self):
        plan = FaultPlan(faults=[TxCrashSpec(at_persist=1)])
        plan.faults[0].fires = 1
        faults.install(plan)
        assert faults.enabled() and faults.active() is plan
        assert plan.faults[0].fires == 0
        faults.clear()
        assert not faults.enabled() and faults.active() is None

    def test_install_rejects_non_plans(self):
        with pytest.raises(FaultPlanError):
            faults.install({"seed": 1})

    def test_use_plan_restores_previous(self):
        outer, inner = FaultPlan(seed=1), FaultPlan(seed=2)
        faults.install(outer)
        with faults.use_plan(inner):
            assert faults.active() is inner
        assert faults.active() is outer

    def test_use_plan_resumes_outer_plan_without_rewinding(self):
        faults.install(FaultPlan(faults=[
            WorkerKillSpec(worker=1, at_step=2)]))
        killed: list[int] = []
        for _ in range(3):
            faults.on_decode_step(killed.append)
        with faults.use_plan(FaultPlan()):
            pass
        for _ in range(3):
            faults.on_decode_step(killed.append)
        assert killed == [1]

    def test_export_active_round_trips(self):
        assert faults.export_active() is None
        plan = FaultPlan(seed=5, faults=[PoisonSpec(device="d")])
        faults.install(plan)
        clone = FaultPlan.from_json(faults.export_active())
        assert clone.to_doc() == plan.to_doc()

    def test_decode_step_hook_kills_once_at_step(self):
        faults.install(FaultPlan(faults=[
            WorkerKillSpec(worker=3, at_step=2)]))
        killed: list[int] = []
        for _ in range(4):
            faults.on_decode_step(killed.append)
        assert killed == [3]

    def test_decode_step_hook_is_noop_without_plan(self):
        faults.on_decode_step(
            lambda w: pytest.fail("fired with no plan installed"))

    def test_bypassed_disables_every_hook(self):
        faults.install(FaultPlan(faults=[SweepFailSpec(series="s")]))
        with faults.bypassed():
            assert not faults.enabled()
            faults.on_sweep_task("s", "triad", 0)    # would raise if live
        assert faults.enabled()
        with pytest.raises(faults.SweepFaultInjected):
            faults.on_sweep_task("s", "triad", 0)
