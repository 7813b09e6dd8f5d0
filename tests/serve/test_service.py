"""SweepService: coalescing, caching tiers, admission and deadlines.

No pytest-asyncio in the toolchain: each test drives its own event loop
through ``asyncio.run``.
"""

import asyncio

import pytest

from repro import faults
from repro.errors import (BenchmarkError, ServiceClosedError,
                          ServiceDeadlineError, ServiceOverloadError,
                          ServiceQuotaError)
from repro.faults.plan import FaultPlan, ServeShedSpec, SweepFailSpec
from repro.serve.service import SweepRequest, SweepService
from repro.stream.config import StreamConfig
from repro.streamer.runner import StreamerRunner

#: tiny arrays keep each served sweep fast
ELEMENTS = 10_000
KERNELS = ("triad",)


def _service(**kw):
    kw.setdefault("jobs", 1)
    kw.setdefault("shard_tasks", 32)
    return SweepService(**kw)


async def _with_service(fn, **kw):
    service = _service(**kw)
    await service.start()
    try:
        return await fn(service)
    finally:
        await service.stop()


def _req(**kw):
    kw.setdefault("kernels", KERNELS)
    kw.setdefault("array_size", ELEMENTS)
    return SweepRequest(**kw)


class TestCoalescing:
    def test_concurrent_identical_requests_execute_once(self):
        async def body(service):
            results = await asyncio.gather(
                *[service.submit(_req()) for _ in range(5)])
            return service.counters, results

        counters, results = asyncio.run(_with_service(body))
        assert counters["executed"] == 1
        assert counters["coalesced"] == 4
        assert sorted(r.source for r in results) \
            == ["coalesced"] * 4 + ["executed"]
        assert len({r.json for r in results}) == 1, \
            "every waiter must see byte-identical results"

    def test_served_bytes_match_one_shot_run_all(self):
        async def body(service):
            return (await service.submit(_req())).json

        served = asyncio.run(_with_service(body))
        one_shot = StreamerRunner(
            config=StreamConfig(array_size=ELEMENTS)).run_all(
                kernels=KERNELS)
        assert served == one_shot.to_json()

    def test_failures_propagate_to_every_waiter_and_are_not_cached(self):
        async def body(service):
            req = _req()
            outcomes = await asyncio.gather(
                *[service.submit(req) for _ in range(3)],
                return_exceptions=True)
            # the key must not have been cached anywhere: a retry
            # executes (and fails) again instead of replaying a cache
            retry = await asyncio.gather(service.submit(req),
                                         return_exceptions=True)
            return service.counters, outcomes, retry

        runner = StreamerRunner(config=StreamConfig(array_size=ELEMENTS))
        series = runner._tasks(KERNELS)[0][1].key
        plan = FaultPlan(faults=[
            SweepFailSpec(series=series, kernel="triad", attempts=None)])
        with faults.use_plan(plan):     # shipped into the pool workers
            counters, outcomes, retry = asyncio.run(_with_service(body))
        assert all(isinstance(o, BenchmarkError) for o in outcomes), outcomes
        assert isinstance(retry[0], BenchmarkError)
        assert counters["executed"] == 2       # first try + retry
        assert counters["failures"] == 2
        assert counters["lru_hits"] == 0 and counters["disk_hits"] == 0


class TestHealing:
    def test_transient_task_failure_heals_to_run_all_bytes(self):
        """A task that fails its first try in a worker is retried in the
        parent, like ``run_all``: the served JSON is byte-identical to
        a fault-free run."""
        async def body(service):
            return (await service.submit(_req(use_cache=False))).json

        runner = StreamerRunner(config=StreamConfig(array_size=ELEMENTS))
        clean = runner.run_all(kernels=KERNELS).to_json()
        series = runner._tasks(KERNELS)[0][1].key
        plan = FaultPlan(faults=[
            SweepFailSpec(series=series, kernel="triad", attempts=1)])
        with faults.use_plan(plan):     # shipped into the pool workers
            served = asyncio.run(_with_service(body))
        assert served == clean


class TestCacheTiers:
    def test_repeat_request_hits_memory_lru(self):
        async def body(service):
            first = await service.submit(_req())
            second = await service.submit(_req())
            return service.counters, first, second

        counters, first, second = asyncio.run(_with_service(body))
        assert first.source == "executed"
        assert second.source == "lru"
        assert counters["executed"] == 1
        assert second.json == first.json

    def test_disk_cache_survives_service_restart(self, tmp_path):
        cache_dir = str(tmp_path / "cache")

        async def first(service):
            return (await service.submit(_req())).json

        async def second(service):
            res = await service.submit(_req())
            return service.counters, res

        served = asyncio.run(_with_service(first, cache_dir=cache_dir))
        counters, res = asyncio.run(
            _with_service(second, cache_dir=cache_dir))
        assert res.source == "disk"
        assert counters["executed"] == 0
        assert res.json == served

    def test_use_cache_false_always_executes(self):
        async def body(service):
            a = await service.submit(_req(use_cache=False))
            b = await service.submit(_req(use_cache=False))
            return service.counters, a, b

        counters, a, b = asyncio.run(_with_service(body))
        assert (a.source, b.source) == ("executed", "executed")
        assert counters["executed"] == 2
        assert a.json == b.json


class TestAdmission:
    def test_full_queue_sheds_with_typed_error(self):
        async def body(service):
            # distinct keys so nothing coalesces; all submits land in
            # one event-loop turn, before any dispatcher runs
            outcomes = await asyncio.gather(
                *[service.submit(_req(array_size=ELEMENTS + i))
                  for i in range(6)],
                return_exceptions=True)
            return service.counters, outcomes

        counters, outcomes = asyncio.run(
            _with_service(body, max_queue=1, dispatchers=1))
        shed = [o for o in outcomes
                if isinstance(o, ServiceOverloadError)]
        served = [o for o in outcomes if not isinstance(o, Exception)]
        assert len(shed) == 5 and len(served) == 1, outcomes
        assert counters["shed_queue"] == 5
        assert shed[0].queue_depth == 1 and shed[0].limit == 1

    def test_tenant_quota_sheds_only_that_tenant(self):
        async def body(service):
            outcomes = await asyncio.gather(
                service.submit(_req(tenant="t1")),
                service.submit(_req(array_size=ELEMENTS + 1,
                                    tenant="t1")),
                service.submit(_req(array_size=ELEMENTS + 2,
                                    tenant="t2")),
                return_exceptions=True)
            return service.counters, outcomes

        counters, outcomes = asyncio.run(
            _with_service(body, tenant_quota=1))
        assert not isinstance(outcomes[0], Exception)
        assert isinstance(outcomes[1], ServiceQuotaError)
        assert outcomes[1].tenant == "t1"
        assert not isinstance(outcomes[2], Exception), \
            "another tenant must not be shed"
        assert counters["shed_quota"] == 1

    def test_coalesced_requests_do_not_consume_quota(self):
        async def body(service):
            outcomes = await asyncio.gather(
                *[service.submit(_req(tenant="t1")) for _ in range(4)],
                return_exceptions=True)
            return outcomes

        outcomes = asyncio.run(_with_service(body, tenant_quota=1))
        assert not any(isinstance(o, Exception) for o in outcomes), \
            "identical requests coalesce and must bypass the quota"

    def test_serve_shed_fault_injection(self):
        async def body(service):
            plan = FaultPlan(faults=[ServeShedSpec(tenant="t1")])
            with faults.use_plan(plan):
                with pytest.raises(ServiceOverloadError,
                                   match="injected"):
                    await service.submit(_req(tenant="t1"))
                # other tenants pass through the chaos spec
                res = await service.submit(_req(tenant="t2"))
            return res

        res = asyncio.run(_with_service(body))
        assert res.source == "executed"


class TestDeadlines:
    def test_expired_deadline_raises_typed_error(self):
        async def body(service):
            with pytest.raises(ServiceDeadlineError):
                await service.submit(_req(deadline_s=1e-6))
            return service.counters

        counters = asyncio.run(_with_service(body))
        assert counters["deadline_misses"] >= 1


class TestLifecycle:
    def test_submit_before_start_raises(self):
        async def body():
            service = _service()
            with pytest.raises(ServiceClosedError):
                await service.submit(_req())

        asyncio.run(body())

    def test_stop_fails_queued_requests(self):
        async def body():
            service = _service(dispatchers=1)
            await service.start()
            # stop while a request is still queued/running
            fut = asyncio.ensure_future(service.submit(_req()))
            await asyncio.sleep(0)
            await service.stop()
            with pytest.raises((ServiceClosedError, asyncio.CancelledError)):
                await fut

        asyncio.run(body())

    def test_close_drains_in_flight_and_fails_queued(self):
        async def body():
            service = _service(dispatchers=1)
            await service.start()
            # distinct keys so nothing coalesces: one request reaches
            # the single dispatcher, the rest wait in the queue
            futs = [asyncio.ensure_future(
                        service.submit(_req(array_size=ELEMENTS + i)))
                    for i in range(4)]
            for _ in range(3):      # let the dispatcher pick up work
                await asyncio.sleep(0)
            await service.close()
            outcomes = await asyncio.gather(*futs, return_exceptions=True)
            return service, outcomes

        service, outcomes = asyncio.run(body())
        served = [o for o in outcomes if not isinstance(o, Exception)]
        closed = [o for o in outcomes
                  if isinstance(o, ServiceClosedError)]
        assert len(served) + len(closed) == 4, outcomes
        assert served, "the in-flight request must run to completion"
        assert closed, "queued requests must fail with ServiceClosedError"
        assert all(r.source == "executed" and r.json for r in served)
        assert service.counters["executed"] == len(served)

    def test_close_under_concurrent_load_never_hangs_or_drops(self):
        async def body():
            service = _service(dispatchers=2)
            await service.start()
            futs = [asyncio.ensure_future(
                        service.submit(_req(array_size=ELEMENTS + i,
                                            tenant=f"t{i % 3}")))
                    for i in range(8)]
            await asyncio.sleep(0)
            await asyncio.wait_for(service.close(), timeout=120)
            outcomes = await asyncio.gather(*futs, return_exceptions=True)
            # post-close submissions shed immediately
            with pytest.raises(ServiceClosedError):
                await service.submit(_req())
            await service.close()       # idempotent
            return service, outcomes

        service, outcomes = asyncio.run(body())
        assert all(not isinstance(o, Exception)
                   or isinstance(o, ServiceClosedError)
                   for o in outcomes), outcomes
        assert not service.running
        assert service.stats()["queue_depth"] == 0
        assert service.stats()["inflight"] == 0

    def test_close_before_start_is_a_no_op(self):
        asyncio.run(_service().close())

    def test_stats_shape(self):
        async def body(service):
            await service.submit(_req())
            return service.stats()

        stats = asyncio.run(_with_service(body))
        for field in ("requests", "executed", "queue_depth", "inflight",
                      "lru_size", "pool_workers", "latency_p50_s",
                      "latency_p99_s"):
            assert field in stats
        assert stats["requests"] == 1 and stats["executed"] == 1
        assert stats["latency_count"] == 1


class TestRequestValidation:
    def test_unknown_kernel_rejected(self):
        with pytest.raises(BenchmarkError, match="kernel"):
            SweepRequest(kernels=("warp",))

    def test_from_doc_rejects_unknown_fields(self):
        with pytest.raises(BenchmarkError, match="unknown"):
            SweepRequest.from_doc({"kernels": ["triad"], "frobnicate": 1})

    @pytest.mark.parametrize("doc", [
        {"use_cache": "false"},
        {"array_size": 100000.9},
        {"array_size": True},
        {"tenant": 7},
        {"deadline_s": True},
    ], ids=lambda d: "-".join(f"{k}={v!r}" for k, v in d.items()))
    def test_from_doc_rejects_wrong_wire_types(self, doc):
        """Wire values are taken as sent: none is coerced."""
        [field] = doc
        with pytest.raises(BenchmarkError, match=field):
            SweepRequest.from_doc(doc)

    def test_from_doc_round_trip(self):
        req = SweepRequest.from_doc(
            {"kernels": "triad", "array_size": 4096, "tenant": "t9",
             "deadline_s": 2.5, "use_cache": False})
        assert req.kernels == ("triad",)
        assert req.array_size == 4096
        assert req.tenant == "t9"
        assert req.deadline_s == 2.5
        assert req.use_cache is False
