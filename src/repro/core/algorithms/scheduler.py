"""Search scheduling: batched neighbor evaluation + parallel solve fan-out.

Two independent levers on search-layer throughput:

* :func:`vertical_by_budget` prices the whole Vertical neighbor set of
  a dequeued state in **one** :meth:`SearchSpace.budget_values` call
  (the estimates are independent of each other) and returns the neighbors in
  the paper's decreasing-budget order. Each figure still comes from the
  scalar kernel, so the ordering — and therefore the sweep — is
  bit-identical to neighbor-at-a-time evaluation.

* :class:`SolveScheduler` fans **independent solves** (per-user groups
  in ``request_many``, per-(profile, query) cells in the experiment
  grids) across a bounded pool with deterministic result ordering:
  results come back positionally, never completion-ordered. The pool
  flavor is the ``backend``:

  - ``"serial"`` — a plain loop on the calling thread; the reference
    semantics the process backend must reproduce bit-identically.
  - ``"process"`` — a fork-context :class:`ProcessPoolExecutor` of
    ``parallelism`` workers. Workers are forked, so closures and
    unpicklable items reach them by inheritance (:data:`_FORK_TASK`);
    only results are pickled back. This is the backend that escapes
    the GIL. A platform without fork runs it serially.
  - ``"auto"`` (default) — ``process`` for :meth:`solve_plans`
    (picklable, CPU-bound) on a multi-CPU host that can fork, and
    ``serial`` everywhere else: :meth:`map`'s tasks share the
    caller's caches, which a forked worker cannot write back, and a
    pool spun up per call lost to the plain loop on them (a thread
    pool ran at 0.75x serial, the process-backed ``request_many`` at
    about 0.5x warm). Auto can therefore never make ``parallelism=4``
    slower than ``parallelism=1``.

Solutions are schedule-independent by construction (each solve is
self-contained; shared caches only memoize pure functions), so
``parallelism`` and ``backend`` trade wall-clock for workers without
touching results.

The scheduler is also the service's resilience boundary: a task that
raises :class:`TransientFault` (the marker the deterministic fault
injector in :mod:`repro.testing.faults` uses, and the natural base for
real transient conditions) is retried and, past the retry budget,
re-run via the ``fallback`` callable on the **calling thread** — the
degraded cold path. Tasks are pure functions of their item, so a
retried or fallen-back task returns exactly what the first attempt
would have; only the counters record that degradation happened.

Fault accounting across processes: the ``"scheduler.worker"`` site is
pulsed **in the parent** — once per attempt, at submission — so the
injected-fault schedule is a deterministic function of the work, never
of which forked worker drew which task. Faults that fire *inside* a
worker (cache-eviction hooks armed on fork-inherited or per-worker
caches) cannot mutate the parent's injector, so every worker envelope
carries its injected-fault delta home and the parent accumulates them
in :attr:`SolveScheduler.remote_faults`.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from repro.core.space import SearchSpace
from repro.core.state import State
from repro.core.stats import SearchStats

T = TypeVar("T")
R = TypeVar("R")

BACKENDS = ("auto", "serial", "process")

# Sentinel for "every attempt failed; degrade on the calling thread".
_PENDING = object()

# Fork-global task slot for the generic process map: (fn, items,
# injector). Set immediately before the per-call pool forks its
# workers, so closures and unpicklable items reach the children by
# inheritance instead of pickling; cleared as the pool drains. Only the
# *results* cross the pipe back.
_FORK_TASK: Optional[Tuple[Callable, Sequence, object, Optional[Callable]]] = None

# Per-worker state for the plan pool: (FrontierCache, FaultInjector or
# None). Built by the pool initializer in each forked worker, reused
# across every plan that worker executes (warm workers: frontiers and
# priced states survive from plan to plan).
_PLAN_WORKER: Optional[Tuple[object, object]] = None


class TransientFault(RuntimeError):
    """A retryable failure inside a scheduler task.

    Raised by the fault injector (and suitable as a base class for real
    transient conditions — a lost connection, a full queue). Anything
    else a task raises is a genuine bug and still fails the whole
    :meth:`SolveScheduler.map`, exactly like the serial loop would.
    """


def vertical_by_budget(
    space: SearchSpace, state: State, stats: Optional[SearchStats] = None
) -> List[State]:
    """The Vertical neighbors of ``state``, ordered by decreasing budget.

    Replicates ``neighbors.sort(key=space.budget_value, reverse=True)``
    exactly (stable order for equal budgets) while evaluating the whole
    neighbor set in one :meth:`SearchSpace.budget_values` call.
    """
    neighbors = space.vertical(state)
    if len(neighbors) > 1:
        values = space.budget_values(neighbors)
        if stats is not None:
            stats.neighbor_batches += 1
        order = sorted(
            range(len(neighbors)), key=values.__getitem__, reverse=True
        )
        neighbors = [neighbors[i] for i in order]
    return neighbors


def fork_available() -> bool:
    """True when this platform can fork worker processes."""
    return "fork" in multiprocessing.get_all_start_methods()


@dataclass(frozen=True)
class SolvePlan:
    """A picklable unit of batched solve work for the process backend.

    One plan is one :func:`repro.core.adapters.solve_many` call: a
    preference space plus the problems to solve over it. Plans are
    self-contained and cheap to pickle (a space is a few KiB), so they
    cross the process boundary by value; the structural sharing happens
    *inside* the worker, where the batch runs against that worker's
    persistent :class:`~repro.core.frontier_cache.FrontierCache`.
    """

    pspace: object
    problems: Tuple[object, ...]
    algorithm: str = "c_maxbounds"
    algorithms: Optional[Tuple[Optional[str], ...]] = None

    def run(self, frontier_cache=None) -> List[object]:
        """Execute the plan (in whichever process it landed in)."""
        from repro.core.adapters import solve_many

        algorithms = None if self.algorithms is None else list(self.algorithms)
        return solve_many(
            self.pspace,
            list(self.problems),
            algorithm=self.algorithm,
            algorithms=algorithms,
            frontier_cache=frontier_cache,
        )


def _fault_delta(injector, before: int) -> int:
    if injector is None:
        return 0
    return injector.faults_injected - before


def _fork_map_worker(index: int):
    """Run one generic-map task in a forked worker.

    Returns an envelope ``(status, payload, fault_delta)`` — the only
    thing pickled back. ``fault_delta`` is how many faults the
    fork-inherited injector copy fired *inside* this task (cache hooks
    and the like); the parent folds it into ``remote_faults``.
    """
    fn, items, injector, encode = _FORK_TASK
    before = injector.faults_injected if injector is not None else 0
    try:
        result = fn(items[index])
        if encode is not None:
            # Shrink the envelope before it hits the pickle pipe: the
            # parent's decode rebuilds the full result from this.
            result = encode(result)
    except TransientFault as fault:
        return ("fault", str(fault), _fault_delta(injector, before))
    return ("ok", result, _fault_delta(injector, before))


def _plan_worker_init(fault_plan) -> None:
    """Pool initializer: build this worker's cache (and injector).

    Runs once per forked worker. The :class:`FrontierCache` persists
    for the worker's lifetime, so later plans warm-start on frontiers
    and priced states earlier plans left behind — the worker-reuse half
    of the process backend's win. Under a fault drill the worker gets
    its *own* injector built from the picklable plan, armed on the
    worker cache, so eviction drills reach inside the processes too.
    """
    global _PLAN_WORKER
    from repro.core.frontier_cache import FrontierCache

    cache = FrontierCache()
    injector = None
    if fault_plan is not None:
        from repro.testing.faults import FaultInjector

        injector = FaultInjector(fault_plan)
        injector.arm_cache(cache)
    _PLAN_WORKER = (cache, injector)


def _run_plan_remote(plan: SolvePlan):
    """Execute one :class:`SolvePlan` against this worker's cache."""
    cache, injector = _PLAN_WORKER
    before = injector.faults_injected if injector is not None else 0
    try:
        solutions = plan.run(frontier_cache=cache)
    except TransientFault as fault:
        return ("fault", str(fault), _fault_delta(injector, before))
    return ("ok", solutions, _fault_delta(injector, before))


class SolveScheduler:
    """Bounded fan-out of independent tasks, results in input order.

    The scheduler is intentionally dumb about scheduling: no shared
    state, no result reordering. Failure handling is limited to
    :class:`TransientFault`: such a task is retried up to ``retries``
    times and then handed to ``fallback`` (when given) on the calling
    thread; any other exception — and a transient one with no fallback
    left — fails the whole :meth:`map`, exactly like the serial loop
    would. ``fault_injector`` (see :mod:`repro.testing.faults`) is
    pulsed once per task attempt at site ``"scheduler.worker"`` so fault
    drills can hit the workers deterministically; under the process
    backend the pulse happens in the parent at submission, keeping the
    fault schedule independent of worker scheduling.

    ``backend`` picks the pool flavor (see the module docstring);
    ``"auto"`` degrades to ``serial`` whenever fan-out cannot pay, so a
    wide ``parallelism`` is never slower than a plain loop. Counters:
    ``faults_seen`` (failed attempts), ``fallbacks_taken`` (tasks that
    exhausted retries), ``remote_faults`` (faults fired inside forked
    workers, shipped home in result envelopes).
    """

    def __init__(
        self,
        parallelism: int = 1,
        retries: int = 1,
        fault_injector=None,
        backend: str = "auto",
    ) -> None:
        if parallelism < 1:
            raise ValueError("parallelism must be >= 1, got %r" % (parallelism,))
        if retries < 0:
            raise ValueError("retries must be >= 0, got %r" % (retries,))
        if backend not in BACKENDS:
            raise ValueError(
                "backend must be one of %r, got %r" % (BACKENDS, backend)
            )
        self.parallelism = parallelism
        self.retries = retries
        self.fault_injector = fault_injector
        self.backend = backend
        self.faults_seen = 0
        self.fallbacks_taken = 0
        self.remote_faults = 0
        self._plan_pool: Optional[ProcessPoolExecutor] = None
        self._plan_pool_key = None

    # -- backend selection ---------------------------------------------------------

    def _resolve_backend(self, count: int, plans: bool) -> str:
        """The backend this batch actually runs on.

        Degenerate batches, ``parallelism <= 1`` and fork-less
        platforms always run serial (no pool spin-up, bit-identical to
        a loop). ``auto`` picks ``process`` only for picklable plan
        batches on a multi-CPU host; generic tasks run serial.
        """
        if self.parallelism <= 1 or count <= 1 or not fork_available():
            return "serial"
        if self.backend == "auto":
            plans_pay = plans and (os.cpu_count() or 1) > 1
            return "process" if plans_pay else "serial"
        return self.backend

    # -- attempt / retry machinery -------------------------------------------------

    def _attempt(self, fn: Callable[[T], R], item: T) -> R:
        """One task attempt, with the injector's worker site armed."""
        if self.fault_injector is not None:
            self.fault_injector.maybe_raise("scheduler.worker")
        return fn(item)

    def _run_one(
        self, fn: Callable[[T], R], item: T, fallback: Optional[Callable[[T], R]]
    ) -> R:
        for _ in range(self.retries + 1):
            try:
                return self._attempt(fn, item)
            except TransientFault:
                self.faults_seen += 1
        if fallback is None:
            raise TransientFault(
                "task failed transiently %d time(s) and no fallback is wired"
                % (self.retries + 1)
            )
        self.fallbacks_taken += 1
        return fallback(item)

    def _worker_pulse_fires(self) -> bool:
        """One parent-side ``"scheduler.worker"`` pulse; True on fire."""
        if self.fault_injector is None:
            return False
        try:
            self.fault_injector.maybe_raise("scheduler.worker")
        except TransientFault:
            return True
        return False

    def _drive_rounds(
        self, count: int, results: List, submit, decode=None
    ) -> None:
        """Retry rounds for a process pool, faults pulsed parent-side.

        Each round spends one attempt per still-pending task: the
        parent pulses the injector (a firing pulse *is* that attempt,
        failed before submission — deterministic, since no worker is
        involved), survivors go to the pool via ``submit`` and their
        envelopes either land a result or burn the attempt. Tasks that
        exhaust every round stay :data:`_PENDING` for the fallback
        pass, which runs on the calling thread in input order.
        """
        alive = list(range(count))
        for _ in range(self.retries + 1):
            if not alive:
                break
            launch: List[int] = []
            failed: List[int] = []
            for index in alive:
                if self._worker_pulse_fires():
                    self.faults_seen += 1
                    failed.append(index)
                else:
                    launch.append(index)
            if launch:
                for index, envelope in zip(launch, submit(launch)):
                    status, payload, delta = envelope
                    self.remote_faults += delta
                    if status == "ok":
                        results[index] = (
                            decode(payload, index) if decode is not None else payload
                        )
                    else:
                        self.faults_seen += 1
                        failed.append(index)
            alive = sorted(failed)

    def _settle(
        self,
        work: Sequence[T],
        results: List,
        fallback: Optional[Callable[[T], R]],
    ) -> List[R]:
        """Resolve :data:`_PENDING` slots through ``fallback``, in order."""
        out: List[R] = []
        for item, result in zip(work, results):
            if result is _PENDING:
                if fallback is None:
                    raise TransientFault(
                        "task failed transiently %d time(s) and no fallback "
                        "is wired" % (self.retries + 1)
                    )
                self.fallbacks_taken += 1
                result = fallback(item)
            out.append(result)
        return out

    # -- the process pool ----------------------------------------------------------

    def _map_process(
        self, fn: Callable[[T], R], work: Sequence[T], fallback, encode, decode
    ) -> List[R]:
        """Generic map over forked workers.

        The pool is per-call: workers must fork *after*
        :data:`_FORK_TASK` is staged so ``fn`` and the items reach them
        by inheritance (arbitrary closures never pickle). Results —
        which must pickle — come back positionally in envelopes, shrunk
        through ``encode`` worker-side and rebuilt through ``decode``
        parent-side when the caller wired that seam. Indices are
        chunked so each worker gets one contiguous slab instead of a
        per-item pickle round trip.
        """
        global _FORK_TASK
        workers = min(self.parallelism, len(work))
        results: List = [_PENDING] * len(work)
        _FORK_TASK = (fn, work, self.fault_injector, encode)
        try:
            ctx = multiprocessing.get_context("fork")
            with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
                self._drive_rounds(
                    len(work),
                    results,
                    lambda indices: pool.map(
                        _fork_map_worker,
                        indices,
                        chunksize=max(1, len(indices) // workers),
                    ),
                    decode=decode,
                )
        finally:
            _FORK_TASK = None
        return self._settle(work, results, fallback)

    # -- public API ----------------------------------------------------------------

    def map(
        self,
        fn: Callable[[T], R],
        items: Iterable[T],
        fallback: Optional[Callable[[T], R]] = None,
        encode: Optional[Callable[[R], object]] = None,
        decode: Optional[Callable[[object, int], R]] = None,
    ) -> List[R]:
        """``[fn(item) for item in items]``, possibly across a pool.

        The resolved backend (see :meth:`_resolve_backend`) picks the
        pool; every flavor returns results positionally and funnels
        exhausted tasks through ``fallback`` on the calling thread, so
        output order and payloads never depend on scheduling.

        ``encode``/``decode`` are the process backend's pickle-slimming
        seam: ``encode(result)`` runs in the worker to shrink what
        crosses the pipe, ``decode(payload, index)`` runs in the parent
        to rebuild the full result. The serial backend and fallback
        results skip both — the caller must make
        ``decode(encode(r), i)`` equivalent to ``r`` for every consumer.
        """
        work: Sequence[T] = list(items)
        backend = self._resolve_backend(len(work), plans=False)
        if backend == "serial":
            return [self._run_one(fn, item, fallback) for item in work]
        return self._map_process(fn, work, fallback, encode, decode)

    def solve_plans(
        self,
        plans: Iterable[SolvePlan],
        fallback: Optional[Callable[[SolvePlan], List]] = None,
    ) -> List[List]:
        """Execute :class:`SolvePlan` batches, one result list per plan.

        Plans are picklable, so the process backend ships them by value
        to a **persistent** pool of warm workers (per-worker frontier
        caches survive across calls); the serial backend runs
        ``plan.run()`` with a plan-local cache, which is bit-identical.
        The default fallback is a cold ``plan.run()`` on the calling
        thread — a plan is a pure function of its inputs, so the
        degraded path returns exactly what the worker would have.
        """
        work = list(plans)
        if fallback is None:
            fallback = lambda plan: plan.run()  # noqa: E731 — cold re-run
        backend = self._resolve_backend(len(work), plans=True)
        runner = lambda plan: plan.run()  # noqa: E731
        if backend == "serial":
            return [self._run_one(runner, plan, fallback) for plan in work]
        results: List = [_PENDING] * len(work)
        pool = self._ensure_plan_pool(min(self.parallelism, len(work)))
        self._drive_rounds(
            len(work),
            results,
            lambda indices: pool.map(
                _run_plan_remote, [work[i] for i in indices]
            ),
        )
        return self._settle(work, results, fallback)

    def _ensure_plan_pool(self, workers: int) -> ProcessPoolExecutor:
        """The persistent plan pool, (re)built when its shape changes.

        Keyed on worker count and fault plan: growing the pool or
        changing the drill rebuilds it; repeat calls reuse the warm
        workers and their caches.
        """
        fault_plan = (
            self.fault_injector.plan if self.fault_injector is not None else None
        )
        key = (workers, fault_plan)
        if self._plan_pool is not None and self._plan_pool_key != key:
            self.close()
        if self._plan_pool is None:
            ctx = multiprocessing.get_context("fork")
            self._plan_pool = ProcessPoolExecutor(
                max_workers=workers,
                mp_context=ctx,
                initializer=_plan_worker_init,
                initargs=(fault_plan,),
            )
            self._plan_pool_key = key
        return self._plan_pool

    def close(self) -> None:
        """Shut down the persistent plan pool (idempotent)."""
        if self._plan_pool is not None:
            self._plan_pool.shutdown(wait=True)
            self._plan_pool = None
            self._plan_pool_key = None

    def __enter__(self) -> "SolveScheduler":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def counters(self) -> Dict[str, int]:
        """The scheduler's degradation counters, for merging upstream."""
        return {
            "faults_seen": self.faults_seen,
            "fallbacks_taken": self.fallbacks_taken,
            "remote_faults": self.remote_faults,
        }
