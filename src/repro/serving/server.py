"""The asyncio front-end: concurrent submits, micro-batched solves.

:class:`AsyncPersonalizationServer` is the thin IO shell over the
sans-IO policy components (batcher, admission controller, degradation
policy, scoreboard). Its responsibilities are exactly the ones that
need an event loop and nothing more:

* ``submit()`` — validate (user, context, and the query parsed and
  bound against the schema), admit (or raise
  :class:`~repro.serving.admission.AdmissionRejected` with a
  retry-after), enqueue, and await the response future;
* the collector task — wait until the batcher says a batch is due
  (flush-on-full wakes it immediately; flush-on-deadline bounds the
  wait), then hand the batch to a dispatcher task;
* the dispatcher — resolve degradation per request at dispatch time
  (queue depth and burned budget are only known then), run the solve on
  the existing scheduler-backed
  :meth:`~repro.core.service.PersonalizationService.request_many`
  through ``loop.run_in_executor`` so the event loop never blocks, then
  classify, account, and complete the futures.

Solves are serialized through one lock — the service's batch path is
not reentrant, and the scheduler already fans each supergroup across
workers — so concurrency lives in the queue, exactly where admission
control and degradation can see it.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, replace
from typing import List, Optional, Set, Union

from repro.core.context import SearchContext, problem_for_context
from repro.core.rewriter import QueryRewriter
from repro.core.service import BatchRequest, PersonalizationService, ServiceResponse
from repro.errors import PreferenceError
from repro.serving.admission import AdmissionController, AdmissionRejected
from repro.serving.batcher import MicroBatcher, PendingRequest
from repro.serving.clock import SystemClock
from repro.serving.config import ServingConfig
from repro.serving.degradation import DegradationPolicy
from repro.serving.taxonomy import TierScoreboard, classify
from repro.sql.parser import parse_select


@dataclass
class ServedResponse:
    """One answered request: the service payload plus how serving went."""

    response: ServiceResponse
    tier: str
    status: str  # WIN / IMPROVED / NEUTRAL / REGRESSION
    latency_ms: float  # admission -> completion, on the serving clock
    queue_ms: float  # admission -> dispatch
    deadline_ms: float
    batch_size: int
    algorithm: Optional[str]  # what was dispatched (None = service default)

    @property
    def degraded(self) -> bool:
        return self.response.degraded


class AsyncPersonalizationServer:
    """Serve a :class:`PersonalizationService` to concurrent callers.

    ``clock`` injects the time source every latency, deadline, and
    degradation decision reads (production: :class:`SystemClock`).
    ``executor`` is forwarded to ``loop.run_in_executor`` (None = the
    loop's default thread pool). Use as an async context manager, or
    call :meth:`start`/:meth:`stop` explicitly.
    """

    def __init__(
        self,
        service: PersonalizationService,
        config: Optional[ServingConfig] = None,
        clock=None,
        executor=None,
    ) -> None:
        self.service = service
        self.config = config if config is not None else ServingConfig()
        self.clock = clock if clock is not None else SystemClock()
        self.scoreboard = TierScoreboard()
        self.admission = AdmissionController()
        self.batcher = MicroBatcher(self.config)
        self.policy = DegradationPolicy(self.config)
        self.batches_dispatched = 0
        self.requests_served = 0
        self._executor = executor
        self._wake: Optional[asyncio.Event] = None
        self._collector: Optional[asyncio.Task] = None
        self._dispatches: Set[asyncio.Task] = set()
        self._solve_lock: Optional[asyncio.Lock] = None
        self._closing = False

    # -- lifecycle -----------------------------------------------------------------

    async def start(self) -> "AsyncPersonalizationServer":
        if self._collector is not None:
            raise RuntimeError("server already started")
        self._wake = asyncio.Event()
        self._solve_lock = asyncio.Lock()
        self._closing = False
        self._collector = asyncio.get_running_loop().create_task(self._run())
        return self

    async def stop(self) -> None:
        """Flush everything pending, answer it, and shut the loop down."""
        if self._collector is None:
            return
        self._closing = True
        self._wake.set()
        await self._collector
        await self._settle_dispatches()
        self._collector = None

    async def __aenter__(self) -> "AsyncPersonalizationServer":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    async def drain(self) -> None:
        """Flush all pending batches now and wait until they are served
        (deadline-independent — the tests' deterministic settle point)."""
        self._flush_all()
        await self._settle_dispatches()

    # -- the submit path -----------------------------------------------------------

    async def submit(
        self,
        request: Union[BatchRequest, str],
        tier: Optional[str] = None,
        user: Optional[str] = None,
        context: Optional[SearchContext] = None,
        k_limit: Optional[int] = None,
    ) -> ServedResponse:
        """One request through the front door.

        Accepts a prepared :class:`BatchRequest`, or a SQL string with
        ``user=`` plus a ``context=`` the problem policy can price
        (an unconstrained context is rejected — Section 1's
        over-personalization degeneracy). Validation errors — unknown
        user or context, unparseable SQL, a column no FROM relation
        has — raise immediately; an admission rejection raises
        :class:`AdmissionRejected` carrying the tier's retry-after.
        Otherwise the call parks on the response future until its batch
        is flushed, solved, and classified.
        """
        if self._collector is None:
            raise RuntimeError("server is not started (use 'async with server')")
        if isinstance(request, str):
            if user is None:
                raise PreferenceError("a SQL-string submit needs user=")
            request = BatchRequest(
                user=user, query=request, context=context, k_limit=k_limit
            )
        tier_cfg = self.config.tier(tier if tier is not None else self.config.default_tier)
        # Validate before admitting: a bad request must fail its caller,
        # never poison the batch it would have joined. The query is
        # parsed and its columns bound here, and the parsed form rides
        # on so the batch does not parse it again.
        self.service.profile_of(request.user)
        if isinstance(request.query, str):
            request = replace(request, query=parse_select(request.query))
        QueryRewriter(request.query, schema=self.service.personalizer.database.schema)
        if request.problem is None:
            if request.context is None:
                raise PreferenceError("a request needs a context or a problem")
            problem_for_context(request.context)  # unknown contexts fail here
        rejection = self.admission.try_admit(tier_cfg)
        if rejection is not None:
            self.scoreboard.record_rejection(tier_cfg.name)
            raise AdmissionRejected(rejection)
        now = self.clock.monotonic()
        future = asyncio.get_running_loop().create_future()
        self.batcher.add(request, tier_cfg, now, completion=future)
        self._wake.set()
        return await future

    # -- the collector loop --------------------------------------------------------

    async def _run(self) -> None:
        while True:
            now = self.clock.monotonic()
            batch = self.batcher.take_due(now)
            if batch:
                self._spawn(batch)
                continue
            if self._closing:
                self._flush_all()
                break
            deadline = self.batcher.next_deadline()
            self._wake.clear()
            if deadline is None:
                await self._wake.wait()
                continue
            timeout = max(0.0, deadline - now)
            if timeout <= 0.0:
                continue  # due already; next take_due drains it
            try:
                await asyncio.wait_for(self._wake.wait(), timeout)
            except asyncio.TimeoutError:
                pass

    def _flush_all(self) -> None:
        pending = self.batcher.drain()
        size = self.config.max_batch
        for start in range(0, len(pending), size):
            self._spawn(pending[start : start + size])

    def _spawn(self, batch: List[PendingRequest]) -> None:
        task = asyncio.get_running_loop().create_task(self._dispatch(batch))
        self._dispatches.add(task)
        task.add_done_callback(self._dispatches.discard)

    async def _settle_dispatches(self) -> None:
        while self._dispatches:
            await asyncio.gather(*list(self._dispatches))

    # -- the dispatcher ------------------------------------------------------------

    async def _dispatch(self, batch: List[PendingRequest]) -> None:
        dispatched_at = self.clock.monotonic()
        # Depth at dispatch = everything admitted and unanswered; that is
        # the load signal the degradation thresholds are written against.
        depth = self.admission.depth
        degradations = [
            self.policy.resolve(pending, depth, dispatched_at) for pending in batch
        ]
        requests = [
            replace(pending.request, algorithm=degradation.algorithm)
            if degradation.degraded
            else pending.request
            for pending, degradation in zip(batch, degradations)
        ]
        loop = asyncio.get_running_loop()
        try:
            async with self._solve_lock:
                responses = await loop.run_in_executor(
                    self._executor, self.service.request_many, requests
                )
        except Exception as error:  # noqa: BLE001 — every waiter must hear
            self.admission.release(len(batch))
            for pending in batch:
                if not pending.completion.done():
                    pending.completion.set_exception(error)
            return
        completed_at = self.clock.monotonic()
        self.batches_dispatched += 1
        for pending, degradation, response in zip(batch, degradations, responses):
            if degradation.degraded:
                response = replace(response, degradation_reason=degradation.reason)
            latency_s = completed_at - pending.arrived_at
            status = classify(latency_s, pending.tier.deadline_s, response.degraded)
            served = ServedResponse(
                response=response,
                tier=pending.tier.name,
                status=status,
                latency_ms=1000.0 * latency_s,
                queue_ms=1000.0 * (dispatched_at - pending.arrived_at),
                deadline_ms=pending.tier.deadline_ms,
                batch_size=len(batch),
                algorithm=degradation.algorithm,
            )
            self.scoreboard.record(pending.tier.name, status, latency_s)
            self.requests_served += 1
            self.admission.release()
            if not pending.completion.done():
                pending.completion.set_result(served)

    # -- reporting -----------------------------------------------------------------

    def report(self) -> dict:
        """The per-tier scoreboard plus server-level counters."""
        return {
            "tiers": self.scoreboard.report(),
            "admitted": self.admission.admitted,
            "rejected": self.admission.rejected,
            "served": self.requests_served,
            "batches": self.batches_dispatched,
            "mean_batch": round(
                self.requests_served / self.batches_dispatched, 2
            )
            if self.batches_dispatched
            else 0.0,
            "downgrades": self.policy.downgrades,
        }
