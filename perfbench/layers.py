"""Which entry point of which layer the traced run wraps, and the
per-layer metrics computed from the spans and counters it records.

Layer names are the modules under ``src/repro`` whose public entry
point is wrapped:

==========================  =============================================
``core.service``            ``PersonalizationService.request`` / ``request_many``
``core.preference_space``   ``extract_preference_space`` (as the personalizer calls it)
``core.adapters``           ``solve`` / ``solve_many``, outermost span only
``core.rewriter``           ``QueryRewriter.personalized_query``
``sql.planner``             ``ColumnarExecutor.plan``
``sql.columnar``            ``ColumnarExecutor.execute_plan``
``storage.build``           ``build_movie_database``
``storage.analyze``         ``Database.analyze``
==========================  =============================================
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Optional, Sequence

from repro.core import adapters, personalizer, rewriter, service
from repro.datasets import movies
from repro.sql import columnar
from repro.storage import database

from perfbench.spans import Tracer

SERVICE = "core.service"
EXTRACT = "core.preference_space"
SEARCH = "core.adapters"
REWRITE = "core.rewriter"
PLAN = "sql.planner"
EXECUTE = "sql.columnar"
BUILD = "storage.build"
ANALYZE = "storage.analyze"


class LayerTracer(Tracer):
    """A :class:`Tracer` wired to this repository's layers.

    Besides the generic counters it keeps, per ``request_many`` call,
    the call's duration under each outcome it answered, so the serving
    workload can split a served request's dispatch time into
    ``request_many`` time and the rest; and the frame-cache telemetry
    of each batch (one batch-scoped cache per call).
    """

    def __init__(self) -> None:
        super().__init__()
        self.batch_s_by_outcome: Dict[int, tuple] = {}
        self.batch_frames: List[Dict] = []
        self.add(service.PersonalizationService, "request", SERVICE, on_result=self._one)
        self.add(
            service.PersonalizationService, "request_many", SERVICE, on_result=self._many
        )
        self.add(personalizer, "extract_preference_space", EXTRACT, on_result=_extracted)
        self.add(adapters, "solve", SEARCH, outermost=True, on_result=_solved)
        self.add(adapters, "solve_many", SEARCH, outermost=True, on_result=_solved)
        self.add(rewriter.QueryRewriter, "personalized_query", REWRITE)
        self.add(columnar.ColumnarExecutor, "plan", PLAN)
        self.add(columnar.ColumnarExecutor, "execute_plan", EXECUTE, on_result=_executed)
        self.add(movies, "build_movie_database", BUILD)
        self.add(database.Database, "analyze", ANALYZE)

    def reset(self) -> None:
        super().reset()
        self.batch_s_by_outcome = {}
        self.batch_frames = []

    def _one(self, counters, response, span) -> None:
        counters["requests"] += 1
        counters["groups"] += 1

    def _many(self, counters, responses, span) -> None:
        counters["requests"] += len(responses)
        outcomes = {id(response.outcome): response.outcome for response in responses}
        counters["groups"] += len(outcomes)
        for key, outcome in outcomes.items():
            # The outcome object is kept so its id cannot be reused.
            self.batch_s_by_outcome[key] = (outcome, span.duration_s)
        if responses and "frame_cache" in responses[0].cache_telemetry:
            self.batch_frames.append(dict(responses[0].cache_telemetry["frame_cache"]))

    def batch_s(self, outcome) -> Optional[float]:
        entry = self.batch_s_by_outcome.get(id(outcome))
        return None if entry is None else entry[1]


def _extracted(counters, pspace, span) -> None:
    counters["calls"] += 1
    counters["k_sum"] += pspace.k


def _solved(counters, result, span) -> None:
    solutions = result if isinstance(result, list) else [result]
    unique = {id(solution): solution for solution in solutions if solution is not None}
    for solution in unique.values():
        stats = solution.stats
        counters["states_examined"] += stats.states_examined
        counters["param_evals"] += stats.parameter_evaluations
        counters["frontier_hits"] += stats.frontier_cache_hits
        counters["frontier_misses"] += stats.frontier_cache_misses
        counters["states_warm_started"] += stats.states_warm_started


def _executed(counters, result, span) -> None:
    counters["calls"] += 1
    counters["frame_hits"] += result.frame_cache_hits
    counters["frame_misses"] += result.frame_cache_misses
    counters["branches_incremental"] += result.branches_incremental


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def pipeline_metrics(tracer: LayerTracer, requests: int) -> Dict[str, float]:
    """The service-pipeline metrics, normalized per answered request."""

    def per_req_ms(layer: str) -> float:
        return 1000.0 * _ratio(tracer.self_s(layer), requests)

    extract = tracer.counters[EXTRACT]
    search = tracer.counters[SEARCH]
    execute = tracer.counters[EXECUTE]
    served = tracer.counters[SERVICE]
    return {
        "sql.columnar.execute.busy_ms_per_req": per_req_ms(EXECUTE),
        "sql.columnar.execute.calls": _ratio(execute["calls"], requests),
        "sql.columnar.execute.frame_cache_hit_ratio": _ratio(
            execute["frame_hits"], execute["frame_hits"] + execute["frame_misses"]
        ),
        "sql.columnar.execute.branches_incremental": _ratio(
            execute["branches_incremental"], requests
        ),
        "sql.planner.plan.busy_ms_per_req": per_req_ms(PLAN),
        "core.preference_space.extract.busy_ms_per_req": per_req_ms(EXTRACT),
        "core.preference_space.extract.calls_per_req": _ratio(extract["calls"], requests),
        "core.preference_space.extract.k_mean": _ratio(extract["k_sum"], extract["calls"]),
        "core.adapters.search.busy_ms_per_req": per_req_ms(SEARCH),
        "core.adapters.search.states_examined": _ratio(search["states_examined"], requests),
        "core.adapters.search.param_evals": _ratio(search["param_evals"], requests),
        "core.adapters.search.frontier_cache_hit_ratio": _ratio(
            search["frontier_hits"], search["frontier_hits"] + search["frontier_misses"]
        ),
        "core.adapters.search.states_warm_started": _ratio(
            search["states_warm_started"], requests
        ),
        "core.rewriter.rewrite.busy_ms_per_req": per_req_ms(REWRITE),
        "core.service.service.busy_ms_per_req": per_req_ms(SERVICE),
        "core.service.service.groups_per_request": _ratio(served["groups"], served["requests"]),
    }


def cache_metrics(
    before: Dict[str, Dict], after: Dict[str, Dict], batch_frames: Sequence[Dict]
) -> Dict[str, float]:
    """Cache traffic read through ``cache_telemetry()``.

    The parameter and frontier caches live as long as the service, so
    their traffic is the change over the measured window and their size
    the size at its end. Frame caches are batch-scoped (one per
    ``request_many`` call); their traffic is summed over the batches
    and their size averaged. ``request()`` runs on a statement-scoped
    frame cache that ``cache_telemetry()`` does not expose, so a
    workload that never batches reports no frame-cache traffic here.
    """
    metrics: Dict[str, float] = {}
    for name in ("param_cache", "frontier_cache"):
        hits = after[name]["hits"] - before[name]["hits"]
        lookups = after[name]["lookups"] - before[name]["lookups"]
        metrics[name + ".hit_ratio"] = _ratio(hits, lookups)
        metrics[name + ".evictions"] = after[name]["evictions"] - before[name]["evictions"]
        metrics[name + ".bytes"] = after[name]["bytes_estimate"]
    hits = sum(block["hits"] for block in batch_frames)
    lookups = sum(block["lookups"] for block in batch_frames)
    metrics["frame_cache.hit_ratio"] = _ratio(hits, lookups)
    metrics["frame_cache.evictions"] = sum(block["evictions"] for block in batch_frames)
    metrics["frame_cache.bytes"] = (
        statistics.mean(block["bytes_estimate"] for block in batch_frames)
        if batch_frames
        else 0.0
    )
    return metrics
