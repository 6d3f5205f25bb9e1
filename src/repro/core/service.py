"""A personalization service: the system of the paper's introduction.

"Al is registered with a web-based service providing tourist
information ... The system responds to his requests by taking into
account a profile of his personal preferences that it maintains as well
as the search context at the time of the request."

:class:`PersonalizationService` is that system in library form:

* a per-user profile store (register explicitly, or let profiles be
  *learned* — every request is logged, and profiles are periodically
  re-distilled from each user's log and blended into the stored profile);
* context handling: each request carries a :class:`SearchContext`, the
  policy maps it to the right Table 1 problem;
* the full pipeline per request (extract → search → rewrite → execute),
  returning rows plus the solution metadata.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple, Union

from repro.core.algorithms.scheduler import SolveScheduler
from repro.core.context import SearchContext, problem_for_context
from repro.core.frontier_cache import FrontierCache
from repro.core.param_cache import ParameterCache
from repro.core.personalizer import PersonalizationOutcome, Personalizer
from repro.core.problem import CQPProblem
from repro.core.rewriter import QueryRewriter
from repro.errors import PreferenceError
from repro.preferences.composition import DoiAlgebra, PRODUCT_ALGEBRA
from repro.preferences.learning import LearningConfig, learn_profile, merge_profiles
from repro.preferences.profile import UserProfile
from repro.sql.ast_nodes import SelectQuery
from repro.sql.columnar import FrameCache
from repro.sql.parser import parse_select
from repro.storage.database import Database
from repro.storage.table import Row


@dataclass
class ServiceResponse:
    """What one request returns: the answer plus how it was produced.

    ``rows`` is an immutable tuple; duplicate requests in one
    ``request_many`` batch share the *same* tuple rather than copying
    the result per member. The trailing counters surface the execution
    engine's sharing behaviour (see :mod:`repro.sql.columnar`): frame
    cache traffic, UNION ALL branches answered incrementally from a
    shared base frame, and rows filtered vectorized vs row-at-a-time —
    plus the search-layer reuse counters (see
    :mod:`repro.core.frontier_cache`): frontier memo traffic, states the
    boundary sweep was warm-started from, and batched neighbor
    evaluations.
    """

    user: str
    outcome: PersonalizationOutcome
    rows: Tuple[Row, ...]
    elapsed_ms: float
    frame_cache_hits: int = 0
    frame_cache_misses: int = 0
    branches_incremental: int = 0
    rows_filtered_vectorized: int = 0
    rows_filtered_rowwise: int = 0
    frontier_cache_hits: int = 0
    frontier_cache_misses: int = 0
    states_warm_started: int = 0
    neighbor_batches: int = 0
    # Resilience counters: faults the wired injector fired while this
    # request (or its whole batch — see request_many) was answered, and
    # scheduler tasks that degraded to the cold single-threaded
    # fallback. Both stay 0 in normal, fault-free operation.
    faults_injected: int = 0
    fallbacks_taken: int = 0
    # Why this response is degraded, when it is: transient-fault
    # fallbacks set it here, SLA-driven algorithm downgrades set it in
    # the serving layer (see repro.serving.degradation). None whenever
    # the response is the full-fidelity answer.
    degradation_reason: Optional[str] = None
    # Unified cross-request cache telemetry at the time this response
    # was produced: one counter block per cache (param_cache /
    # frontier_cache / frame_cache), each in the shared
    # hits/misses/lookups/invalidations/evictions/entries/bytes_estimate
    # shape. Batch members share one (read-only) dict.
    cache_telemetry: Dict[str, Dict[str, int]] = field(default_factory=dict)

    @property
    def personalized(self) -> bool:
        return self.outcome.personalized

    @property
    def degraded(self) -> bool:
        """True when this response is anything less than the
        full-fidelity answer: a transient-fault fallback re-ran it on
        the cold single-threaded path, **or** the serving layer
        downgraded the algorithm to meet an SLA budget
        (``degradation_reason`` says which)."""
        return self.fallbacks_taken > 0 or self.degradation_reason is not None


@dataclass
class _UserState:
    profile: UserProfile
    query_log: List[SelectQuery] = field(default_factory=list)
    requests_since_relearn: int = 0


@dataclass
class BatchRequest:
    """One request in a :meth:`PersonalizationService.request_many` batch."""

    user: str
    query: Union[str, SelectQuery]
    context: Optional[SearchContext] = None
    problem: Optional[CQPProblem] = None
    algorithm: Optional[str] = None
    k_limit: Optional[int] = None


class _Cluster(NamedTuple):
    """One scheduler task of :meth:`PersonalizationService.request_many`:
    the request groups that share an extraction (user, query, k_limit,
    cmax, smin), answered by one ``personalize_many`` call."""

    query: SelectQuery
    profile: UserProfile
    k_limit: Optional[int]
    problems: List[CQPProblem]
    algorithms: List[Optional[str]]
    group_indices: List[int]  # positions in the batch's group order


def _encode_outcomes(outcomes: List[PersonalizationOutcome]) -> List[Tuple]:
    """Pickle-slimming seam for the process backend: a worker ships only
    each outcome's (solution, paths) — the parts that are pure solver
    output. Rebuilt outcomes carry ``preference_space=None`` (the space
    is worker-local solver state, expensive to pickle and unused
    downstream); the in-process path and fallbacks return full
    outcomes."""
    return [(outcome.solution, outcome.paths) for outcome in outcomes]


class PersonalizationService:
    """Multi-user façade over one database."""

    def __init__(
        self,
        database: Database,
        algebra: DoiAlgebra = PRODUCT_ALGEBRA,
        relearn_every: int = 0,
        learning_config: Optional[LearningConfig] = None,
        learning_weight: float = 0.3,
        param_cache: Optional[ParameterCache] = None,
        engine: str = "columnar",
        frontier_cache: Optional[FrontierCache] = None,
        parallelism: int = 1,
        fault_injector=None,
        solve_retries: int = 1,
        backend: str = "auto",
        snapshot=None,
    ) -> None:
        """``relearn_every``: after that many requests a user's profile is
        re-blended with one learned from their query log (0 = never).
        ``learning_config`` defaults to a fresh :class:`LearningConfig`
        per service (never a shared instance). ``param_cache`` /
        ``engine`` / ``frontier_cache`` are forwarded
        to the :class:`Personalizer` (``engine="row"`` restores the
        row-at-a-time execution path). ``parallelism`` is the default
        fan-out for :meth:`request_many`'s independent per-group solves;
        1 (the default) keeps every request on the calling thread,
        bit-identical to the serial path.

        ``fault_injector`` (the :class:`repro.testing.faults.FaultInjector`
        protocol) arms the resilience drills: the service's caches get
        eviction hooks, scheduler workers get transient-error sites, and
        every response reports ``faults_injected``/``fallbacks_taken``.
        ``solve_retries`` is how many times a transiently failed group
        solve is retried in place before the cold single-threaded
        fallback runs it (see
        :class:`~repro.core.algorithms.scheduler.SolveScheduler`).

        ``backend`` picks the scheduler's pool flavor for the fan-out
        (``"auto"``/``"serial"``/``"process"`` — see the scheduler
        module; auto runs :meth:`request_many`'s tasks serially, and
        ``"process"`` forks ``parallelism`` workers where the platform
        can fork).

        Every service owns one service-lifetime
        :class:`~repro.sql.columnar.FrameCache` (``frame_cache``), with
        the default entry cap and byte budget: ``request`` and every
        ``request_many`` batch execute against it, so a repeat of an
        earlier personalized statement replays its cached frame.

        ``snapshot`` boots the service warm from a compiled workload: a
        :class:`~repro.storage.snapshot.CompiledWorkload` or the path
        of a saved snapshot directory. The snapshot's pricing entries,
        frontiers and frames are installed into this service's caches —
        after proving (by content fingerprint and statistics version)
        that it was compiled against this very database;
        :class:`~repro.storage.snapshot.SnapshotMismatch` is raised
        otherwise, never a silent cold start. Caches memoize pure
        functions, so a warm boot changes no response payload — only
        how fast the first requests are answered."""
        if relearn_every < 0:
            raise ValueError("relearn_every must be >= 0")
        if parallelism < 1:
            raise ValueError("parallelism must be >= 1")
        if solve_retries < 0:
            raise ValueError("solve_retries must be >= 0")
        self.parallelism = parallelism
        self.solve_retries = solve_retries
        self.backend = backend
        self.fault_injector = fault_injector
        self.personalizer = Personalizer(
            database,
            algebra=algebra,
            param_cache=param_cache,
            engine=engine,
            frontier_cache=frontier_cache,
        )
        self.relearn_every = relearn_every
        self.learning_config = (
            learning_config if learning_config is not None else LearningConfig()
        )
        self.learning_weight = learning_weight
        self._users: Dict[str, _UserState] = {}
        self.frame_cache = FrameCache()
        self.snapshot_installed: Dict[str, int] = {}
        if snapshot is not None:
            from repro.storage.snapshot import CompiledWorkload, load_snapshot

            if not isinstance(snapshot, CompiledWorkload):
                snapshot = load_snapshot(snapshot)
            # The Personalizer constructor above has already ensured the
            # database is analyzed, so the statistics version the
            # snapshot is validated against is the serving one.
            # Size every cache to hold the whole snapshot: restoring
            # into a cache smaller than the compiled set would evict
            # entries during boot and silently serve a half-warm
            # service. Capacities only ever grow; a deliberately
            # disabled cache (capacity 0) stays disabled.
            param = self.personalizer.param_cache
            if param is not None and param.capacity > 0:
                param.capacity = max(
                    param.capacity, 2 * len(snapshot.param_state.get("entries", ()))
                )
            frontier = self.personalizer.frontier_cache
            if frontier is not None and frontier.capacity > 0:
                frontier.capacity = max(
                    frontier.capacity,
                    2 * len(snapshot.frontier_state.get("memos", ())),
                )
            # Unbounded byte budget: a boot must never evict the frames
            # it is installing.
            frames = self.frame_cache
            frames.capacity = max(
                frames.capacity, 2 * len(snapshot.frame_state.get("entries", ()))
            )
            frames.capacity_bytes = None
            self.snapshot_installed = snapshot.restore_into(
                database,
                param_cache=self.personalizer.param_cache,
                frontier_cache=self.personalizer.frontier_cache,
                frame_cache=self.frame_cache,
            )
        if fault_injector is not None:
            fault_injector.arm_cache(self.personalizer.param_cache)
            fault_injector.arm_cache(self.personalizer.frontier_cache)
            fault_injector.arm_cache(self.frame_cache)

    @property
    def param_cache(self) -> ParameterCache:
        """The cross-request parameter cache serving this service."""
        return self.personalizer.param_cache

    @property
    def frontier_cache(self) -> FrontierCache:
        """The cross-request search-layer cache serving this service."""
        return self.personalizer.frontier_cache

    def invalidate_caches(self) -> None:
        """Explicit invalidation hook for out-of-band database mutation
        (ordinary ``load``/``analyze`` calls are version-detected)."""
        self.personalizer.invalidate_caches()
        self.frame_cache.invalidate()

    def cache_telemetry(self) -> Dict[str, Dict[str, int]]:
        """One unified counter block per cache this service runs on.

        Every block has the shared shape
        (``hits/misses/lookups/invalidations/evictions/entries/
        bytes_estimate``; the parameter block counts its extraction
        memo too); the frontier block adds its two resident
        populations.
        """
        return {
            "param_cache": self.param_cache.counters(),
            "frontier_cache": self.frontier_cache.counters(),
            "frame_cache": self.frame_cache.counters(),
        }

    # -- user management ----------------------------------------------------------

    def register(self, user: str, profile: Optional[UserProfile] = None) -> None:
        """Register a user, optionally with a curated starting profile."""
        if user in self._users:
            raise PreferenceError("user %r already registered" % user)
        self._users[user] = _UserState(profile=profile or UserProfile(user))

    def profile_of(self, user: str) -> UserProfile:
        return self._state(user).profile

    def query_log_of(self, user: str) -> List[SelectQuery]:
        return list(self._state(user).query_log)

    @property
    def users(self) -> List[str]:
        return sorted(self._users)

    def _state(self, user: str) -> _UserState:
        try:
            return self._users[user]
        except KeyError:
            raise PreferenceError("unknown user %r" % user) from None

    # -- the request pipeline -----------------------------------------------------

    def request(
        self,
        user: str,
        query: Union[str, SelectQuery],
        context: Optional[SearchContext] = None,
        problem: Optional[CQPProblem] = None,
        algorithm: Optional[str] = None,
        k_limit: Optional[int] = None,
        execute: bool = True,
    ) -> ServiceResponse:
        """Answer one request for ``user``: a :meth:`request_many` batch
        of one, with the same logging, relearning, fault handling and
        response shape.

        The Table 1 problem comes from ``problem`` when given, else from
        the ``context`` via the policy. ``execute=False`` skips running
        the personalized query (the response carries no rows) — useful
        when only the rewritten query or the solution metadata is wanted.
        """
        request = BatchRequest(user, query, context, problem, algorithm, k_limit)
        return self.request_many([request], execute=execute)[0]

    def _faults_so_far(self) -> int:
        """The wired injector's running fault tally (0 when none)."""
        injector = self.fault_injector
        return injector.faults_injected if injector is not None else 0

    @staticmethod
    def _fold_exec_stats(outcome: PersonalizationOutcome, result) -> None:
        """Mirror the execution counters onto the solution's stats record
        so search- and execution-side instrumentation travel together."""
        if outcome.solution is None:
            return
        stats = outcome.solution.stats
        stats.frame_cache_hits += result.frame_cache_hits
        stats.frame_cache_misses += result.frame_cache_misses
        stats.branches_incremental += result.branches_incremental
        stats.rows_filtered_vectorized += result.rows_filtered_vectorized
        stats.rows_filtered_rowwise += result.rows_filtered_rowwise

    @staticmethod
    def _group_fields(outcome: PersonalizationOutcome, result) -> Dict:
        """The response fields every member of one group shares: the
        outcome, the execution result (``None`` when not executed) and
        the solution's search-layer reuse counters (all zero for
        unpersonalized outcomes)."""
        fields: Dict = {"outcome": outcome, "rows": (), "elapsed_ms": 0.0}
        if result is not None:
            fields.update(
                rows=tuple(result.rows),
                elapsed_ms=result.elapsed_ms,
                frame_cache_hits=result.frame_cache_hits,
                frame_cache_misses=result.frame_cache_misses,
                branches_incremental=result.branches_incremental,
                rows_filtered_vectorized=result.rows_filtered_vectorized,
                rows_filtered_rowwise=result.rows_filtered_rowwise,
            )
        if outcome.solution is not None:
            stats = outcome.solution.stats
            fields.update(
                frontier_cache_hits=stats.frontier_cache_hits,
                frontier_cache_misses=stats.frontier_cache_misses,
                states_warm_started=stats.states_warm_started,
                neighbor_batches=stats.neighbor_batches,
            )
        return fields

    def request_many(
        self,
        requests: Iterable[BatchRequest],
        max_workers: Optional[int] = None,
        execute: bool = True,
    ) -> List[ServiceResponse]:
        """Answer a batch of requests, sharing work across duplicates.

        Requests are grouped by ``(user, query SQL, problem, algorithm,
        k_limit)``; each group runs the extract → search → rewrite
        pipeline **once** and (when ``execute``) executes the
        personalized query **once**, fanning the shared outcome out to
        every member. Groups that share an extraction — same user,
        query, ``k_limit`` and the constraint fields the extractor
        prunes on (``cmax``/``smin``) — form one cluster, answered by
        one :meth:`Personalizer.personalize_many` call: extraction runs
        once per cluster and the solves share the stacked frontier
        kernel. Across clusters the personalizer's parameter cache
        still shares per-path pricing.

        Each cluster is one task of a
        :class:`~repro.core.algorithms.scheduler.SolveScheduler`, which
        retries a transiently failed task and past ``solve_retries``
        re-runs it cold on the calling thread. ``max_workers`` (default:
        the service's ``parallelism``) > 1 fans the tasks out on the
        service's ``backend`` with results in deterministic (input)
        order; the solves are independent and the shared caches memoize
        pure functions, so the responses' payloads do not depend on the
        schedule (only work counters may — whichever group warms a cache
        first gets the misses). Execution stays serial because the
        block-device I/O tally is shared, but all groups execute against
        the service's frame cache: the columnar engine computes the
        frame of any shared plan prefix (typically the base query's
        scans and joins) once and every other group — in this batch or
        a later one — reuses it, frames being immutable. Learning
        bookkeeping happens at the batch boundary: all queries are
        logged first and due relearns run once per user *before* any
        group is solved, so a batch observes one consistent profile per
        user.

        Returns responses in the order of ``requests``; duplicate
        members of a group share one immutable rows tuple (no per-member
        copies). One caveat of the process backend: outcomes crossing a
        worker pipe are rebuilt parent-side from their (solution, paths)
        payload and carry ``outcome.preference_space = None`` — every
        other field, the rewritten SQL, the executed rows, and all cost
        receipts are identical to the in-process path.
        """
        # (user, state, query, problem, algorithm, k_limit) per request.
        specs: List[Tuple] = []
        for req in requests:
            query = parse_select(req.query) if isinstance(req.query, str) else req.query
            problem = req.problem
            if problem is None:
                if req.context is None:
                    raise PreferenceError("a request needs a context or a problem")
                problem = problem_for_context(req.context)
            state = self._state(req.user)  # unknown users fail before any work
            specs.append((req.user, state, query, problem, req.algorithm, req.k_limit))

        # Batch-boundary learning: log everything, then relearn once.
        for _, state, query, _, _, _ in specs:
            state.query_log.append(query)
            state.requests_since_relearn += 1
        if self.relearn_every:
            for user, state in {spec[0]: spec[1] for spec in specs}.items():
                if state.requests_since_relearn >= self.relearn_every:
                    self._relearn(user)

        # Member positions per distinct request (a group), in first-seen
        # order, and one task per cluster of groups sharing an extraction.
        groups: Dict[Tuple, List[int]] = {}
        clusters: Dict[Tuple, _Cluster] = {}
        for position, spec in enumerate(specs):
            user, state, query, problem, algorithm, k_limit = spec
            members = groups.setdefault((user, query.sql, problem, algorithm, k_limit), [])
            if not members:  # the first request of a new group
                pruning = (problem.constraints.cmax, problem.constraints.smin)
                cluster_key = (user, query.sql, k_limit, pruning)
                cluster = clusters.get(cluster_key)
                if cluster is None:
                    cluster = clusters[cluster_key] = _Cluster(
                        query, state.profile, k_limit, [], [], []
                    )
                cluster.problems.append(problem)
                cluster.algorithms.append(algorithm)
                cluster.group_indices.append(len(groups) - 1)
            members.append(position)
        tasks = list(clusters.values())

        workers = self.parallelism if max_workers is None else max_workers
        faults_before = self._faults_so_far()
        scheduler = SolveScheduler(
            max(1, workers),
            retries=self.solve_retries,
            fault_injector=self.fault_injector,
            backend=self.backend,
        )
        task_outcomes = scheduler.map(
            self._personalize_task,
            tasks,
            fallback=self._personalize_task_cold,
            encode=_encode_outcomes,
            decode=lambda payload, index: self._decode_outcomes(payload, tasks[index]),
        )
        outcomes: List[Optional[PersonalizationOutcome]] = [None] * len(groups)
        for cluster, outcome_list in zip(tasks, task_outcomes):
            for index, outcome in zip(cluster.group_indices, outcome_list):
                outcomes[index] = outcome

        group_fields = []
        for outcome in outcomes:
            result = None
            if execute:
                result = self.personalizer.execute(outcome, frame_cache=self.frame_cache)
                self._fold_exec_stats(outcome, result)
            group_fields.append(self._group_fields(outcome, result))

        # Resilience counters are batch totals: fault attribution inside
        # a pool is ambiguous, and what callers act on ("did this batch
        # degrade, and how often?") is the aggregate anyway. Faults that
        # fired inside forked workers never touch the parent injector;
        # they come home in the workers' result envelopes as
        # ``scheduler.remote_faults`` and are folded in here.
        faults = self._faults_so_far() - faults_before + scheduler.remote_faults
        if self.fault_injector is None:
            faults = scheduler.faults_seen + scheduler.remote_faults
        reason = (
            "transient-fault fallback: %d task(s) re-ran on the cold "
            "single-threaded path" % scheduler.fallbacks_taken
            if scheduler.fallbacks_taken
            else None
        )
        # One telemetry block per batch, shared read-only by every
        # member (counters are batch-level state anyway); one immutable
        # rows tuple per group, shared by every member.
        telemetry = self.cache_telemetry()
        responses: List[Optional[ServiceResponse]] = [None] * len(specs)
        for members, fields in zip(groups.values(), group_fields):
            for position in members:
                responses[position] = ServiceResponse(
                    user=specs[position][0],
                    faults_injected=faults,
                    fallbacks_taken=scheduler.fallbacks_taken,
                    degradation_reason=reason,
                    cache_telemetry=telemetry,
                    **fields,
                )
        return responses  # type: ignore[return-value]

    def _personalize_task(self, cluster: _Cluster) -> List[PersonalizationOutcome]:
        """One cluster's outcomes, one per group, from one extraction."""
        return self.personalizer.personalize_many(
            cluster.query,
            cluster.profile,
            cluster.problems,
            algorithms=cluster.algorithms,
            k_limit=cluster.k_limit,
        )

    def _personalize_task_cold(self, cluster: _Cluster) -> List[PersonalizationOutcome]:
        """The degraded path after exhausted retries: drop every shared
        memo (any of them could have been mid-write when the fault hit)
        and re-solve on the calling thread. The caches only memoize pure
        functions, so the cold re-solve's payload is bit-identical to
        what the clean run would have returned."""
        self.personalizer.invalidate_caches()
        return self._personalize_task(cluster)

    def _decode_outcomes(
        self, payload, cluster: _Cluster
    ) -> List[PersonalizationOutcome]:
        """Rebuild a process worker's slim outcomes parent-side,
        re-deriving each rewritten query exactly as personalize_many
        would have (see :func:`_encode_outcomes`)."""
        rewriter = QueryRewriter(
            cluster.query, schema=self.personalizer.database.schema
        )
        return [
            PersonalizationOutcome(
                problem=problem,
                original_query=cluster.query,
                personalized_query=rewriter.personalized_query(paths),
                solution=solution,
                paths=paths,
                preference_space=None,
            )
            for problem, (solution, paths) in zip(cluster.problems, payload)
        ]

    # -- learning -----------------------------------------------------------------

    def _relearn(self, user: str) -> None:
        state = self._state(user)
        state.requests_since_relearn = 0
        try:
            observed = learn_profile(
                state.query_log, name="%s-observed" % user, config=self.learning_config
            )
        except PreferenceError:
            return  # nothing learnable yet
        state.profile = merge_profiles(
            state.profile,
            observed,
            weight=self.learning_weight,
            name=state.profile.name,
        )

    def relearn_now(self, user: str) -> UserProfile:
        """Force a relearn cycle; returns the (possibly updated) profile."""
        self._relearn(user)
        return self._state(user).profile
