"""Asyncio front-end tests: the real event loop, deterministically.

These drive :class:`AsyncPersonalizationServer` on a live loop but keep
every outcome deterministic: pass-through configs flush immediately,
oversized batch windows keep requests parked until an explicit
``drain()``, and no test sleeps for a wall-clock duration it then
asserts on.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.core.context import SearchContext
from repro.core.frontier_cache import FrontierCache
from repro.core.param_cache import ParameterCache
from repro.core.service import BatchRequest, PersonalizationService
from repro.errors import PreferenceError, SearchError
from repro.serving.admission import AdmissionRejected
from repro.serving.config import ServingConfig
from repro.serving.server import AsyncPersonalizationServer, ServedResponse
from repro.testing.differential import Receipt
from repro.testing.faults import FaultInjector, FaultPlan

from tests.serving.conftest import BRONZE, GOLD, make_requests, tiny_config


def run(coro):
    return asyncio.run(coro)


class TestBitIdentity:
    def test_async_answers_match_sync_request_many(
        self, serving_service, serving_requests
    ):
        reference = serving_service.request_many(list(serving_requests))
        config = ServingConfig.passthrough(len(serving_requests))

        async def serve():
            async with AsyncPersonalizationServer(
                serving_service, config=config
            ) as server:
                tasks = [
                    asyncio.ensure_future(server.submit(request))
                    for request in serving_requests
                ]
                return await asyncio.gather(*tasks)

        served = run(serve())
        assert len(served) == len(reference)
        for got, expected in zip(served, reference):
            assert Receipt.of(got.response.outcome.solution) == Receipt.of(
                expected.outcome.solution
            )
            assert got.response.rows == expected.rows
            assert not got.response.degraded

    def test_report_accounts_for_everything(self, serving_service, serving_requests):
        config = ServingConfig.passthrough(len(serving_requests))

        async def serve():
            async with AsyncPersonalizationServer(
                serving_service, config=config
            ) as server:
                await asyncio.gather(
                    *[server.submit(request) for request in serving_requests]
                )
                return server.report()

        report = run(serve())
        assert report["served"] == len(serving_requests)
        assert report["admitted"] == len(serving_requests)
        assert report["rejected"] == 0
        assert report["batches"] >= 1
        assert report["downgrades"] == 0
        served_by_tier = sum(tier["served"] for tier in report["tiers"].values())
        assert served_by_tier == len(serving_requests)


class TestSubmitValidation:
    def test_sql_string_submit_with_user(self, serving_service):
        # A bare SQL string routes through the default context policy.
        async def serve():
            async with AsyncPersonalizationServer(
                serving_service, config=ServingConfig.passthrough(2)
            ) as server:
                by_string = server.submit(
                    "select title from MOVIE",
                    user="pat",
                    tier="gold",
                    context=SearchContext(device="phone"),
                    k_limit=6,
                )
                by_context = server.submit(
                    BatchRequest(
                        user="pat",
                        query="select title from MOVIE",
                        context=SearchContext(device="phone"),
                        k_limit=6,
                    )
                )
                return await asyncio.gather(by_string, by_context)

        served_string, served_context = run(serve())
        assert served_string.tier == "gold"
        assert served_string.response.personalized
        assert served_context.response.personalized

    def test_bad_requests_fail_their_caller_not_the_batch(
        self, serving_service, serving_requests
    ):
        async def serve():
            async with AsyncPersonalizationServer(
                serving_service, config=ServingConfig.passthrough(4)
            ) as server:
                with pytest.raises(PreferenceError):
                    await server.submit("select title from MOVIE", user="ghost")
                with pytest.raises(PreferenceError):
                    await server.submit(serving_requests[0], tier="platinum")
                with pytest.raises(PreferenceError):
                    await server.submit("select title from MOVIE")  # no user=
                # Nothing above was admitted; a good request still works.
                served = await server.submit(serving_requests[0])
                return server.admission.admitted, served

        admitted, served = run(serve())
        assert admitted == 1
        assert served.response.personalized

    def test_unbindable_query_fails_only_its_caller(
        self, serving_service, serving_requests
    ):
        # A good/bad/good burst parked in one batch window: the query
        # naming a column no relation has must fail at its own submit,
        # and both batch-mates must be served as request() serves them.
        good = [serving_requests[0], serving_requests[1]]
        bad = BatchRequest(
            user="pat",
            query="select nosuchcol from MOVIE",
            problem=good[0].problem,
            k_limit=good[0].k_limit,
        )
        config = tiny_config(batch_window_ms=60_000.0, max_batch=64)

        async def serve():
            async with AsyncPersonalizationServer(
                serving_service, config=config
            ) as server:
                tasks = [
                    asyncio.ensure_future(server.submit(request))
                    for request in (good[0], bad, good[1])
                ]
                await asyncio.sleep(0)
                await server.drain()
                outcomes = await asyncio.gather(*tasks, return_exceptions=True)
                return server.admission.admitted, outcomes

        admitted, (first, failed, second) = run(serve())
        assert isinstance(failed, SearchError)
        assert "nosuchcol" in str(failed)
        assert admitted == 2
        for served, request in zip((first, second), good):
            assert isinstance(served, ServedResponse), served
            expected = serving_service.request(
                request.user,
                request.query,
                problem=request.problem,
                algorithm=request.algorithm,
                k_limit=request.k_limit,
            )
            assert Receipt.of(served.response.outcome.solution) == Receipt.of(
                expected.outcome.solution
            )
            assert served.response.outcome.sql == expected.outcome.sql
            assert served.response.rows == expected.rows

    def test_submit_requires_a_started_server(self, serving_service, serving_requests):
        server = AsyncPersonalizationServer(serving_service)

        async def unstarted():
            await server.submit(serving_requests[0])

        with pytest.raises(RuntimeError):
            run(unstarted())


class TestBackpressure:
    def test_over_budget_submits_reject_with_retry_after(
        self, serving_service, serving_requests
    ):
        # A huge batch window parks admitted requests; submits beyond
        # the bronze budget of 4 must reject immediately with the
        # tier's retry-after, and drain() then answers the admitted.
        config = tiny_config(batch_window_ms=60_000.0, max_batch=64)

        async def serve():
            async with AsyncPersonalizationServer(
                serving_service, config=config
            ) as server:
                tasks = [
                    asyncio.ensure_future(
                        server.submit(serving_requests[n % len(serving_requests)])
                    )
                    for n in range(6)
                ]
                await asyncio.sleep(0)  # let every submit reach admission
                await server.drain()
                return await asyncio.gather(*tasks, return_exceptions=True)

        outcomes = run(serve())
        served = [o for o in outcomes if not isinstance(o, Exception)]
        rejected = [o for o in outcomes if isinstance(o, AdmissionRejected)]
        assert len(served) == 4 and len(rejected) == 2
        for rejection in rejected:
            assert rejection.retry_after_s == pytest.approx(BRONZE.retry_after_s)

    def test_gold_still_admitted_while_bronze_sheds(
        self, serving_service, serving_requests
    ):
        config = tiny_config(batch_window_ms=60_000.0, max_batch=64)

        async def serve():
            async with AsyncPersonalizationServer(
                serving_service, config=config
            ) as server:
                request = serving_requests[0]
                bronze = [
                    asyncio.ensure_future(server.submit(request, tier="bronze"))
                    for _ in range(5)
                ]
                await asyncio.sleep(0)
                # Depth is now 4 — bronze's budget — but gold's budget
                # of 8 still has room.
                gold = asyncio.ensure_future(server.submit(request, tier="gold"))
                await asyncio.sleep(0)
                await server.drain()
                bronze_out = await asyncio.gather(*bronze, return_exceptions=True)
                return bronze_out, await gold

        bronze_out, gold_served = run(serve())
        assert sum(isinstance(o, AdmissionRejected) for o in bronze_out) == 1
        assert gold_served.tier == "gold"
        assert gold_served.status in ("WIN", "IMPROVED", "NEUTRAL", "REGRESSION")


class TestShutdown:
    def test_stop_flushes_parked_requests(self, serving_service, serving_requests):
        # The batch window is far in the future; exiting the context
        # must still answer every parked submit rather than hang.
        config = tiny_config(batch_window_ms=60_000.0, max_batch=64)

        async def serve():
            server = AsyncPersonalizationServer(serving_service, config=config)
            await server.start()
            tasks = [
                asyncio.ensure_future(server.submit(request))
                for request in serving_requests[:3]
            ]
            await asyncio.sleep(0)
            await server.stop()
            return await asyncio.gather(*tasks)

        served = run(serve())
        assert len(served) == 3
        assert all(item.response.personalized for item in served)

    def test_double_start_is_an_error(self, serving_service):
        async def serve():
            async with AsyncPersonalizationServer(serving_service) as server:
                with pytest.raises(RuntimeError):
                    await server.start()

        run(serve())


class TestFaultDrillThroughAsyncPath:
    """Satellite drill: transient faults + cache evictions mid-batch,
    through the async front-end — answers stay bit-identical."""

    HOSTILE = FaultPlan(
        periods={
            "param_cache.price": 3,
            "frontier_cache.lookup": 2,
            "frontier_cache.evaluator": 2,
            "frame_cache.get": 2,
            "scheduler.worker": 1,  # every attempt fails → fallback path
        },
        phases={"param_cache.price": 1},
    )

    def _service(self, movie_db, movie_profile, injector):
        service = PersonalizationService(
            movie_db,
            param_cache=ParameterCache(),
            frontier_cache=FrontierCache(),
            parallelism=2,
            fault_injector=injector,
            solve_retries=1,
        )
        service.register("pat", movie_profile)
        return service

    def test_faults_mid_batch_leave_async_answers_identical(
        self, movie_db, movie_profile, movie_query
    ):
        clean_service = self._service(movie_db, movie_profile, None)
        requests = make_requests(clean_service, movie_query)
        clean = clean_service.request_many(list(requests))

        injector = FaultInjector(self.HOSTILE)
        hostile_service = self._service(movie_db, movie_profile, injector)
        make_requests(hostile_service, movie_query)  # same warmup as clean
        config = ServingConfig.passthrough(len(requests))

        async def serve():
            async with AsyncPersonalizationServer(
                hostile_service, config=config
            ) as server:
                return await asyncio.gather(
                    *[server.submit(request) for request in requests]
                )

        served = run(serve())
        assert injector.faults_injected > 0
        for got, expected in zip(served, clean):
            assert Receipt.of(got.response.outcome.solution) == Receipt.of(
                expected.outcome.solution
            ), injector.describe()
            assert got.response.rows == expected.rows
        responses = [item.response for item in served]
        assert any(r.fallbacks_taken > 0 for r in responses)
        assert any(r.degraded for r in responses)
        assert any(
            r.degradation_reason and "transient-fault" in r.degradation_reason
            for r in responses
        )
        # Fault fallbacks classify as NEUTRAL, never as a silent WIN.
        degraded_statuses = {
            item.status for item in served if item.response.degraded
        }
        assert degraded_statuses <= {"NEUTRAL", "REGRESSION"}
