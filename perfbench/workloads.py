"""The three workloads.

``desktop_warm``
    Closed loop, one caller, one ``request()`` at a time: desktop
    Problem 2 (cmax=400, K=20) over all 200 (user, query) pairs in
    seeded shuffled passes, caches filled during set-up. The warm
    steady state: columnar execution and extraction dominate; serving
    and cold search are bypassed.
``mobile_cold``
    Closed loop, one caller, ``request_many`` batches of 8 distinct
    requests mixing the six contexts at K=12; no (user, query, context)
    triple repeats, so the frontier cache only misses and search
    dominates. Each slice of three batches runs on a fresh service, so
    every slice starts from empty caches. (On one service for the whole
    run, the parameter cache warmed as (user, query) pairs came back in
    other contexts, so a host fast enough to get further into the
    request set also got faster requests and a larger peak RSS:
    throughput and peak RSS spread by 11% and 8% over ten seeds.)
``serve_mixed``
    Open loop: seeded Poisson arrivals at a fixed rate, through
    ``AsyncPersonalizationServer`` with the default ``ServingConfig``
    and a 20/30/50 gold/silver/bronze mix. The stream is
    ``desktop_warm``'s requests with every fifth a first-seen
    ``mobile_cold`` request; the only workload that exercises
    admission, micro-batching, the solve lock and the executor hop, and
    where degradation can fire (the P1/P3 requests solve with
    C-BOUNDARIES, which has a cheaper rung).

Tier deadlines apply to served traffic only: on ``serve_mixed`` a
request counts toward goodput when it is answered within its tier's
deadline, timed from when it was due. A synchronous caller has no
deadline, so on the two closed loops every answer counts.

A traced run (``tracer`` given) alternates untraced and traced slices
of the same workload; the per-layer metrics come from the traced
slices, and ``trace.speed_ratio`` compares the two kinds: answers per
busy second on the closed loops, and the inverse median latency on the
open loop, whose throughput is fixed by its offered rate.

Timed metrics are read at the reference host speed
(``perfbench/hostspeed.py``): each latency is divided by the slowness
of the host around it, and each throughput slice is multiplied by the
slowness over the slice. The open loop's schedule is kept in reference
time as well: the gap before each arrival is stretched by the host's
current slowness, so the server is as busy on a slow host as on a fast
one. (With the schedule fixed in wall-clock time, a host 1.7 times
slower than the reference queued more requests behind each cold
Problem 3 solve, and p95 latency spread by 22% over ten seeds.)
"""

from __future__ import annotations

import asyncio
import itertools
import random
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.service import PersonalizationService
from repro.serving.config import ServingConfig
from repro.serving.loadgen import DEFAULT_TIER_MIX, assign_tiers
from repro.serving.server import AsyncPersonalizationServer

from perfbench import layers
from perfbench.checks import Verdict, digest, infeasibility
from perfbench.hostspeed import HostSpeed
from perfbench.openloop import poisson_offsets, run_schedule
from perfbench.population import Population, Request

# A desktop slice is a quarter of a shuffled pass over the 200 pairs.
DESKTOP_SLICE = 50
MOBILE_BATCH = 8
# Three batches hold every context four times (see population.build).
MOBILE_SLICE_BATCHES = 3
# Offered load for serve_mixed, at reference speed: low enough that
# most requests find the solve lock free. Offered 60-200 req/s (in
# wall-clock time on a 2-CPU host), the server overloads, and its
# throughput (50-77 req/s) and median latency (0.4-2.2 s) differed from
# run to run by more than any usable bound; offered 30-40 req/s,
# queueing amplified the host's speed swings into tail latencies that
# differed by 30-45%. At 20 req/s the median latency, which then fell
# among requests waiting for the lock, still spread by 16% over ten
# seeds; at 15 req/s it stayed within 5% over five.
SERVE_RATE_PER_S = 15.0
# Every fifth request is a first-seen mobile one, so that the cold
# Problem 3 solves (a third of them, about 0.12 s each at reference
# speed against 0.01 s for a warm desktop request) are more than 5% of
# the stream and p95 latency falls among them. With every tenth, p95
# fell among the requests queued behind them, and moved with the
# arrival pattern: 80-117 ms over five seeds.
SERVE_MOBILE_EVERY = 5

TIERS = ServingConfig().by_name


@dataclass
class Run:
    """What one measured window produced."""

    speed: HostSpeed
    attempted: int = 0
    answered: int = 0
    errors: int = 0
    rejected: int = 0
    # Per answered request: (start, end) on time.perf_counter; the
    # latency is end - start.
    timings: List[Tuple[float, float]] = field(default_factory=list)
    # Per attempted served request: (traced, tier, answered within the
    # tier's deadline at reference speed). Empty for the closed loops,
    # which have no tiers.
    sla: List[Tuple[bool, str, bool]] = field(default_factory=list)
    # Throughput slices: (traced, requests answered, busy seconds,
    # start, end).
    slices: List[Tuple[bool, int, float, float, float]] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    verdict: Verdict = field(default_factory=Verdict)
    per_layer: Dict[str, float] = field(default_factory=dict)
    detail: Dict[str, object] = field(default_factory=dict)

    def latency_s(self, start: float, end: float) -> float:
        """A latency at reference speed."""
        return (end - start) / self.speed.slowness(start, end)

    def latencies_s(self) -> List[float]:
        """Every answered request's latency at reference speed, ascending."""
        return sorted(self.latency_s(start, end) for start, end in self.timings)

    def rates(self, traced: bool, scaled: bool = True) -> List[float]:
        """Answers per second in each slice of one kind; at reference
        speed when ``scaled``."""
        return [
            count / busy_s * (self.speed.slowness(start, end) if scaled else 1.0)
            for kind, count, busy_s, start, end in self.slices
            if kind == traced
        ]

    def rate(self, traced: bool) -> float:
        """Median answers per second at reference speed over the slices
        of one kind."""
        rates = self.rates(traced)
        return statistics.median(rates) if rates else 0.0

    def deadline_met(self, traced: bool, tier: str) -> float:
        """Share of ``tier``'s attempted requests answered within its
        deadline (a rejection or error is a miss)."""
        marks = [met for kind, label, met in self.sla if kind == traced and label == tier]
        return sum(marks) / len(marks) if marks else 0.0

    def end_to_end(self, setup_times: List[float]) -> Dict[str, float]:
        """The end-to-end metrics of an untraced run."""
        throughput = self.rate(traced=False)
        latencies = self.latencies_s()
        # Only served traffic has deadlines; a closed loop's answers all count.
        met = sum(1 for _, _, within in self.sla if within) if self.sla else self.answered
        return {
            "throughput_rps": throughput,
            "latency_p50_ms": 1000.0 * percentile(latencies, 50),
            "latency_p95_ms": 1000.0 * percentile(latencies, 95),
            "answered_share": self.answered / self.attempted,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": self.peak_rss_mb,
            "goodput_rps": throughput * met / self.answered,
        }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _within(tier: str, latency_s: float) -> bool:
    return latency_s <= TIERS[tier].deadline_s


def _ask(service: PersonalizationService, request: Request):
    batch = request.batch
    return service.request(
        batch.user, batch.query, context=batch.context, k_limit=batch.k_limit
    )


def _fresh_service(population: Population) -> PersonalizationService:
    """A service with empty caches over the population's database and
    profiles."""
    source = population.service
    service = PersonalizationService(source.personalizer.database)
    for user in source.users:
        service.register(user, source.profile_of(user))
    return service


def _check_against_sync(run: Run, population: Population, pending) -> None:
    """Recompute each ``(request, digest)`` one ``request()`` at a time
    on a fresh service over the same database and profiles, and
    compare."""
    if not pending:
        return
    reference = _fresh_service(population)
    for request, got in pending:
        run.verdict.expect_equal(str(request.key), got, digest(_ask(reference, request)))


def _begin_slice(tracer, index: int) -> bool:
    """Odd slices of a traced run are traced, even slices untraced."""
    traced = tracer is not None and index % 2 == 1
    if traced:
        tracer.install()
    return traced


def _end_slice(
    tracer, run: Run, traced: bool, count: int, busy_s: float, started: float
) -> None:
    if traced:
        tracer.uninstall()
    if count:
        run.slices.append((traced, count, busy_s, started, time.perf_counter()))


def _traced_metrics(tracer, run: Run, before, after, frames) -> Dict[str, float]:
    traced_requests = sum(slice_[1] for slice_ in run.slices if slice_[0])
    metrics = layers.pipeline_metrics(tracer, traced_requests)
    metrics.update(layers.cache_metrics(before, after, frames))
    untraced = run.rate(False)
    metrics["trace.speed_ratio"] = run.rate(True) / untraced if untraced else 0.0
    return metrics


def _shuffled_passes(requests: List[Request], rng: random.Random) -> Iterator[Request]:
    """Endless seeded shuffled passes over ``requests``."""
    while True:
        order = list(requests)
        rng.shuffle(order)
        yield from order


def desktop_warm(
    population: Population, seed: int, seconds: float, tracer, speed: HostSpeed
) -> Run:
    service = population.service
    rng = random.Random(seed)
    run = Run(speed)
    before = service.cache_telemetry()
    passes = _shuffled_passes(population.desktop, rng)
    deadline = time.perf_counter() + seconds
    slice_index = 0
    while time.perf_counter() < deadline:
        traced = _begin_slice(tracer, slice_index)
        count, busy, started = 0, 0.0, time.perf_counter()
        for request in itertools.islice(passes, DESKTOP_SLICE):
            begun = time.perf_counter()
            response = _ask(service, request)
            answered = time.perf_counter()
            count += 1
            busy += answered - begun
            run.timings.append((begun, answered))
            run.verdict.expect_equal(
                str(request.key), digest(response), population.reference[request.key]
            )
            if time.perf_counter() >= deadline:
                break
        _end_slice(tracer, run, traced, count, busy, started)
        slice_index += 1
    run.peak_rss_mb = _peak_rss_mb()
    run.attempted = run.answered = len(run.timings)
    if tracer is not None:
        run.per_layer = _traced_metrics(tracer, run, before, service.cache_telemetry(), [])
    return run


def mobile_cold(
    population: Population, seed: int, seconds: float, tracer, speed: HostSpeed
) -> Run:
    rng = random.Random(seed)
    run = Run(speed)
    batches = [
        population.mobile[start : start + MOBILE_BATCH]
        for start in range(0, len(population.mobile), MOBILE_BATCH)
    ]
    frames: List[Dict] = []
    sampled = []  # one (request, digest) per batch, re-checked on a fresh service
    # Parameter- and frontier-cache traffic summed over the slices'
    # services; sizes as the last slice left them.
    traffic = {
        name: dict.fromkeys(("hits", "lookups", "evictions", "bytes_estimate"), 0)
        for name in ("param_cache", "frontier_cache")
    }
    deadline = time.perf_counter() + seconds
    for slice_index, first in enumerate(range(0, len(batches), MOBILE_SLICE_BATCHES)):
        if time.perf_counter() >= deadline:
            break
        service = _fresh_service(population)
        before = service.cache_telemetry()
        traced = _begin_slice(tracer, slice_index)
        count, busy, started = 0, 0.0, time.perf_counter()
        for batch in batches[first : first + MOBILE_SLICE_BATCHES]:
            if time.perf_counter() >= deadline:
                break
            begun = time.perf_counter()
            responses = service.request_many([request.batch for request in batch])
            answered = time.perf_counter()
            count += len(batch)
            busy += answered - begun
            frames.append(responses[0].cache_telemetry["frame_cache"])
            for request, response in zip(batch, responses):
                run.timings.append((begun, answered))
                run.verdict.expect_feasible(str(request.key), response, request.problem)
            pick = rng.randrange(len(batch))
            sampled.append((batch[pick], digest(responses[pick])))
        _end_slice(tracer, run, traced, count, busy, started)
        after = service.cache_telemetry()
        for name, total in traffic.items():
            for key in ("hits", "lookups", "evictions"):
                total[key] += after[name][key] - before[name][key]
            total["bytes_estimate"] = after[name]["bytes_estimate"]
    run.peak_rss_mb = _peak_rss_mb()
    run.attempted = run.answered = len(run.timings)
    if run.attempted == len(population.mobile):
        run.detail["note"] = "every mobile triple was used before the time ran out"
    if tracer is not None:
        empty = {name: dict.fromkeys(total, 0) for name, total in traffic.items()}
        run.per_layer = _traced_metrics(tracer, run, empty, traffic, frames)
    _check_against_sync(run, population, sampled)
    return run


def _serve_stream(desktop: Iterator[Request], mobile: Iterator[Request], count: int):
    """``count`` requests from the desktop passes, with every
    ``SERVE_MOBILE_EVERY``-th the next first-seen request from
    ``mobile``."""
    stream: List[Request] = []
    for index in range(count):
        request = None
        if index % SERVE_MOBILE_EVERY == SERVE_MOBILE_EVERY - 1:
            request = next(mobile, None)
        stream.append(request if request is not None else next(desktop))
    return stream


@dataclass
class Answer:
    """What the serve loop keeps of one served response."""

    digest: str
    infeasible: Optional[str]  # set only for degraded answers
    degraded: bool
    latency_ms: float  # the server's own: admission to answer
    queue_ms: float
    batch_s: Optional[float]  # the request_many call that answered it (traced)


def serve_mixed(
    population: Population, seed: int, seconds: float, tracer, speed: HostSpeed
) -> Run:
    service = population.service
    rng = random.Random(seed)
    run = Run(speed)
    desktop = _shuffled_passes(population.desktop, rng)
    mobile = iter(population.mobile)
    # A traced run serves two halves: untraced, then traced.
    phases = [False] if tracer is None else [False, True]
    before = service.cache_telemetry()
    to_check = []  # first-seen requests answered undegraded
    median_latency = {}
    for traced in phases:
        offsets = poisson_offsets(SERVE_RATE_PER_S, seconds / len(phases), rng)
        stream = _serve_stream(desktop, mobile, len(offsets))
        tiers = assign_tiers(len(stream), seed=rng.randrange(1 << 30), mix=DEFAULT_TIER_MIX)

        def on_answer(index: int, served) -> Answer:
            response = served.response
            return Answer(
                digest=digest(response),
                infeasible=infeasibility(response, stream[index].problem)
                if response.degraded
                else None,
                degraded=response.degraded,
                latency_ms=served.latency_ms,
                queue_ms=served.queue_ms,
                batch_s=tracer.batch_s(response.outcome) if traced else None,
            )

        if traced:
            tracer.install()
        schedule, report = asyncio.run(
            _serve(service, stream, tiers, offsets, seconds / len(phases), speed, on_answer)
        )
        if traced:
            tracer.uninstall()
        answers = []
        for outcome, request, tier in zip(schedule.outcomes, stream, tiers):
            run.attempted += 1
            if outcome.answer is None:
                run.sla.append((traced, tier, False))
                if outcome.rejected:
                    run.rejected += 1
                else:
                    run.errors += 1
                    run.verdict.fail("%s: %s" % (request.key, outcome.error))
                continue
            answer = outcome.answer
            answers.append(answer)
            run.timings.append((outcome.due, outcome.done))
            latency = run.latency_s(outcome.due, outcome.done)
            run.sla.append((traced, tier, _within(tier, latency)))
            what = str(request.key)
            if answer.degraded:
                run.verdict.record(what, answer.infeasible)
            elif request.key in population.reference:
                run.verdict.expect_equal(what, answer.digest, population.reference[request.key])
            else:
                to_check.append((request, answer.digest))
        run.answered += len(answers)
        median_latency[traced] = percentile(
            sorted(
                run.latency_s(o.due, o.done) for o in schedule.outcomes if o.answer is not None
            ),
            50,
        )
        run.slices.append(
            (traced, len(answers), schedule.finished - schedule.started,
             schedule.started, schedule.finished)
        )
        run.detail.setdefault("server", []).append(report)
        if traced:
            run.per_layer = _traced_metrics(
                tracer, run, before, service.cache_telemetry(), tracer.batch_frames
            )
            run.per_layer.update(_serving_metrics(tracer, answers, report, schedule))
            run.per_layer["serving.gold_deadline_met_share"] = run.deadline_met(True, "gold")
            run.per_layer["trace.speed_ratio"] = median_latency[False] / median_latency[True]
    run.peak_rss_mb = _peak_rss_mb()
    _check_against_sync(run, population, to_check)
    return run


async def _serve(service, stream, tiers, offsets, seconds, speed, on_answer):
    def slowness_now() -> float:
        now = time.perf_counter()
        return speed.slowness(now - 1.0, now)

    async with AsyncPersonalizationServer(service) as server:
        schedule = await run_schedule(
            server, [request.batch for request in stream], tiers, offsets,
            seconds, slowness_now, on_answer,
        )
        return schedule, server.report()


def _serving_metrics(tracer, answers, report, schedule) -> Dict[str, float]:
    """Serving-layer metrics of one traced phase.

    Dispatch overhead is a served request's time from dispatch to answer
    (``latency_ms - queue_ms``, both on the server's clock) minus the
    ``request_many`` call that answered it: the wait for the solve lock
    plus the hop to the executor thread and back.
    """
    queue_ms = sorted(answer.queue_ms for answer in answers)
    overhead_ms = [
        answer.latency_ms - answer.queue_ms - 1000.0 * answer.batch_s
        for answer in answers
        if answer.batch_s is not None
    ]
    busy_s = sum(span.duration_s for span in tracer.layer_spans(layers.SERVICE))
    lateness = sorted(outcome.late_s for outcome in schedule.outcomes)
    return {
        "serving.queue_wait_p50_ms": percentile(queue_ms, 50),
        "serving.queue_wait_p99_ms": percentile(queue_ms, 99),
        "serving.dispatch_overhead_ms": sum(overhead_ms) / len(overhead_ms)
        if overhead_ms
        else 0.0,
        "serving.batch_size_mean": report["mean_batch"],
        "serving.solve_busy_share": busy_s / (schedule.finished - schedule.started),
        "serving.downgrades": float(report["downgrades"]),
        "serving.rejected": float(report["rejected"]),
        "loadgen.late_p99_ms": 1000.0 * percentile(lateness, 99),
    }


def percentile(ordered: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (0.0 when empty)."""
    if not ordered:
        return 0.0
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


# name -> (runner, whether set-up warms the caches with the desktop set)
WORKLOADS = {
    "desktop_warm": (desktop_warm, True),
    "mobile_cold": (mobile_cold, False),
    "serve_mixed": (serve_mixed, True),
}
