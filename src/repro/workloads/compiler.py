"""The workload compiler: fleet-scale offline precomputation.

A personalization service with a large registered fleet answers its
online requests out of three caches — per-path pricing
(:class:`~repro.core.param_cache.ParameterCache`), canonical boundary
frontiers (:class:`~repro.core.frontier_cache.FrontierCache`), and
shared base frames (:class:`~repro.sql.columnar.FrameCache`). All three
memoize pure functions of *(query, profile content, database)*, which
means their steady-state contents are computable **offline**, before
the first request arrives. :func:`compile_workload` does exactly that,
in three passes:

1. **Intern the fleet** (:class:`~repro.core.interning.ProfileInterner`)
   — a million users collapse to the distinct profile *contents* among
   them; everything downstream runs once per canonical profile, not
   once per user.

2. **Precompute the search layer** — one *unit* per (canonical profile,
   query template, extraction cluster): extract the preference space
   (pricing every path through a unit-local parameter cache) and solve
   the cluster's Table 1 problems through
   :func:`repro.core.adapters.solve_many`, which dedupes and primes the
   stacked batch kernel, into a unit-local frontier cache. Units are
   independent, so they fan out across a
   :class:`~repro.core.algorithms.scheduler.SolveScheduler` on any
   backend — under the process backend each unit ships its two cache
   ``snapshot()`` blobs home (both are picklable and
   process-independent by construction) and the parent merges them via
   ``restore()`` under the live statistics token. Spaces that coincide
   across canonical profiles collapse once more at this layer: the
   frontier store keys on the space *signature*, and the telemetry
   reports the fleet-to-signature compression.

3. **Precompute the execution layer** — run the base template queries
   plus (a budget of) the units' personalized queries through one
   compile-scoped frame cache, capturing the shared plan-prefix frames
   online execution will hit.

The result is a :class:`~repro.storage.snapshot.CompiledWorkload` —
persist it with :func:`~repro.storage.snapshot.save_snapshot` and boot
:class:`~repro.core.service.PersonalizationService` with ``snapshot=``
to serve warm from the first request.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core import adapters
from repro.core.algorithms.scheduler import SolveScheduler
from repro.core.frontier_cache import FrontierCache, space_signature
from repro.core.interning import ProfileInterner
from repro.core.param_cache import ParameterCache
from repro.core.preference_space import extract_preference_space
from repro.core.problem import Constraints, CQPProblem, Parameter
from repro.core.rewriter import QueryRewriter
from repro.preferences.composition import DoiAlgebra, PRODUCT_ALGEBRA
from repro.preferences.profile import UserProfile
from repro.sql.ast_nodes import QueryNode, SelectQuery
from repro.sql.columnar import FrameCache
from repro.sql.executor import Executor
from repro.sql.parser import parse_select
from repro.sql.printer import to_sql
from repro.storage.database import Database
from repro.storage.snapshot import CompiledWorkload


# -- problem (de)serialization -------------------------------------------------------


def problem_to_spec(problem: CQPProblem) -> Dict:
    """A JSON-able description of one Table 1 problem (see the snapshot
    manifest's ``meta`` block)."""
    c = problem.constraints
    return {
        "objective": problem.objective.value,
        "cmax": c.cmax,
        "dmin": c.dmin,
        "smin": c.smin,
        "smax": c.smax,
    }


def problem_from_spec(spec: Dict) -> CQPProblem:
    """Rebuild a problem from :func:`problem_to_spec` output."""
    return CQPProblem(
        Parameter(spec["objective"]),
        Constraints(
            cmax=spec.get("cmax"),
            dmin=spec.get("dmin"),
            smin=spec.get("smin"),
            smax=spec.get("smax"),
        ),
    )


def _resolve_algorithm(
    problem: CQPProblem, requested: Optional[str], default_algorithm: str
) -> str:
    """The same problem-aware defaulting :class:`Personalizer` applies,
    so compiled frontiers match what serving will actually run."""
    if requested is not None:
        return requested
    if not problem.constraints.has_size_bounds:
        return default_algorithm
    return adapters.recommended_algorithm(problem)


# -- the compiler --------------------------------------------------------------------


def compile_workload(
    database: Database,
    profiles: Sequence[UserProfile],
    queries: Sequence[Union[str, SelectQuery]],
    problems: Sequence[CQPProblem],
    algorithms: Optional[Sequence[Optional[str]]] = None,
    default_algorithm: str = "c_maxbounds",
    k_limit: Optional[int] = None,
    algebra: DoiAlgebra = PRODUCT_ALGEBRA,
    parallelism: int = 1,
    backend: str = "auto",
    precompute_frames: bool = True,
    max_frame_queries: Optional[int] = None,
    frame_capacity: Optional[int] = None,
    meta: Optional[Dict] = None,
) -> CompiledWorkload:
    """Compile a fleet's steady-state cache contents offline.

    ``profiles`` is the full fleet (with repetition — interning is the
    compiler's first job); ``queries`` the template workload;
    ``problems`` the Table 1 instances requests will carry, with
    ``algorithms`` resolved exactly as the service resolves them (pass
    the same ``default_algorithm`` the serving side uses).
    ``parallelism``/``backend`` fan the per-unit solve work out across
    a scheduler; results are bit-identical on every backend because
    units only memoize pure functions. ``max_frame_queries`` bounds how
    many *personalized* queries are executed for frame capture (base
    template queries are always executed when ``precompute_frames``;
    ``None`` captures every distinct personalized query).
    ``frame_capacity`` overrides the compiled frame cache's size —
    by default it is sized to hold the whole captured set, because a
    compile-time eviction becomes an online cold miss.
    """
    if not database.analyzed:
        database.analyze()
    token = database.stats_token
    started = time.perf_counter()

    parsed: List[SelectQuery] = [
        parse_select(query) if isinstance(query, str) else query for query in queries
    ]
    problems = list(problems)
    if algorithms is None:
        algorithms = [None] * len(problems)
    resolved = [
        _resolve_algorithm(problem, requested, default_algorithm)
        for problem, requested in zip(problems, algorithms)
    ]

    # Pass 1: intern the fleet down to canonical profile contents.
    interner = ProfileInterner()
    for profile in profiles:
        interner.intern(profile)
    canonical = interner.canonical_profiles()
    intern_seconds = time.perf_counter() - started

    # Extraction clusters: the extractor prunes on (cmax, smin), so
    # problems sharing that key share one extraction (the same grouping
    # the service's structural batching applies).
    clusters: Dict[Tuple, List[int]] = {}
    for index, problem in enumerate(problems):
        key = (problem.constraints.cmax, problem.constraints.smin)
        clusters.setdefault(key, []).append(index)
    cluster_lists = list(clusters.values())

    units: List[Tuple[UserProfile, SelectQuery, Tuple[int, ...]]] = [
        (profile, query, tuple(cluster))
        for profile in canonical
        for query in parsed
        for cluster in cluster_lists
    ]

    def compile_unit(unit):
        """Extract + solve one (canonical profile, query, cluster).

        Runs against *unit-local* caches so the work is shippable: the
        returned blobs are exactly the caches' persistence format,
        picklable and keyed process-independently, whether this ran on
        the calling thread or in a forked worker.
        """
        profile, query, cluster = unit
        unit_param = ParameterCache()
        unit_frontier = FrontierCache()
        unit_frontier.validate(token)
        cluster_problems = [problems[i] for i in cluster]
        pspace = extract_preference_space(
            database,
            query,
            profile,
            constraints=cluster_problems[0].constraints,
            algebra=algebra,
            k_limit=k_limit,
            param_cache=unit_param,
        )
        signature = None
        if pspace.k > 0:
            signature = space_signature(pspace)
            solutions = adapters.solve_many(
                pspace,
                cluster_problems,
                algorithms=[resolved[i] for i in cluster],
                frontier_cache=unit_frontier,
            )
        else:
            solutions = [None] * len(cluster_problems)
        rewriter = QueryRewriter(query, schema=database.schema)
        rewritten: List[QueryNode] = []
        seen_sql = set()
        for solution in solutions:
            paths = (
                [pspace.paths[i] for i in solution.pref_indices]
                if solution is not None
                else []
            )
            node = rewriter.personalized_query(paths)
            sql = to_sql(node)
            if sql not in seen_sql:
                seen_sql.add(sql)
                rewritten.append(node)
        return signature, unit_param.snapshot(), unit_frontier.snapshot(), rewritten

    solve_started = time.perf_counter()
    scheduler = SolveScheduler(max(1, parallelism), backend=backend)
    results = scheduler.map(compile_unit, units, fallback=compile_unit)

    # Merge every unit's blobs into the compiled caches. Duplicate
    # signatures across units overwrite with identical frontiers
    # (store() is idempotent for equal content), so merge order never
    # shows in the result.
    param_cache = ParameterCache()
    frontier_cache = FrontierCache(capacity=max(256, 2 * len(units)))
    frontier_cache.validate(token)
    signatures = set()
    personalized: List[QueryNode] = []
    for signature, param_state, frontier_state, rewritten in results:
        if signature is not None:
            signatures.add(signature)
        param_cache.restore(param_state, token)
        frontier_cache.restore(frontier_state, token)
        personalized.extend(rewritten)
    solve_seconds = time.perf_counter() - solve_started

    # Pass 3: capture the execution layer's shared frames.
    frames_started = time.perf_counter()
    budget = (
        max_frame_queries if max_frame_queries is not None else len(personalized)
    )
    if frame_capacity is None:
        # A compile-time eviction becomes an online cold miss, so size
        # the cache to hold every frame the captured queries can spawn.
        frame_capacity = max(
            4096, 64 * (len(parsed) + min(len(personalized), budget))
        )
    # Unbounded byte budget: the compiler's cache must hold every frame
    # the workload produced so the snapshot captures all of them.
    frame_cache = FrameCache(capacity=frame_capacity, capacity_bytes=None)
    frames_executed = 0
    if precompute_frames:
        frame_cache.validate(token)
        executor = Executor(database, engine="columnar")
        seen_sql = set()
        for query in parsed:
            sql = to_sql(query)
            if sql in seen_sql:
                continue
            seen_sql.add(sql)
            executor.execute(query, frame_cache=frame_cache)
            frames_executed += 1
        for node in personalized:
            if budget <= 0:
                break
            sql = to_sql(node)
            if sql in seen_sql:
                continue
            seen_sql.add(sql)
            executor.execute(node, frame_cache=frame_cache)
            frames_executed += 1
            budget -= 1
    frames_seconds = time.perf_counter() - frames_started

    fleet_requests = interner.fleet_size * len(parsed) * len(cluster_lists)
    telemetry = {
        "units": len(units),
        "clusters": len(cluster_lists),
        "queries": len(parsed),
        "distinct_signatures": len(signatures),
        "fleet_requests": fleet_requests,
        "profile_compression": interner.compression,
        "signature_compression": (
            fleet_requests / len(signatures) if signatures else 1.0
        ),
        "frames_executed": frames_executed,
        "param_cache": param_cache.counters(),
        "frontier_cache": frontier_cache.counters(),
        "frame_cache": frame_cache.counters(),
        "compile_seconds": {
            "intern": intern_seconds,
            "solve": solve_seconds,
            "frames": frames_seconds,
            "total": time.perf_counter() - started,
        },
    }

    compiled_meta = dict(meta or {})
    compiled_meta.setdefault("queries", [to_sql(query) for query in parsed])
    compiled_meta.setdefault("problems", [problem_to_spec(p) for p in problems])
    compiled_meta.setdefault("algorithms", list(resolved))
    compiled_meta.setdefault("k_limit", k_limit)
    compiled_meta.setdefault("default_algorithm", default_algorithm)

    return CompiledWorkload(
        fingerprint=database.fingerprint,
        stats_version=database.stats_version,
        meta=compiled_meta,
        interning=interner.report(),
        telemetry=telemetry,
        param_state=param_cache.snapshot(),
        frontier_state=frontier_cache.snapshot(),
        frame_state=frame_cache.snapshot(),
    )
