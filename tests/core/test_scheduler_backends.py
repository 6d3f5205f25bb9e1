"""Scheduler backends: serial and process parity.

Every backend must return results positionally and bit-identically to
the serial loop; the process backend additionally carries solutions and
fault counters across the process boundary in result envelopes. The
process-axis resilience drills live here too: a ``TransientFault``
under the process backend must retry and fall back exactly like the
serial loop does, and worker-side fault deltas
must come home in ``remote_faults``.
"""

from __future__ import annotations

import pytest

from repro.core import adapters
from repro.core.algorithms.scheduler import (
    BACKENDS,
    SolvePlan,
    SolveScheduler,
    TransientFault,
    fork_available,
)
from repro.core.problem import CQPProblem
from repro.testing.differential import (
    Receipt,
    synthetic_scenario,
    table1_problems,
)
from repro.testing.faults import FaultInjector, FaultPlan

RUN_BACKENDS = ("serial", "process") if fork_available() else ("serial",)


class TestBackendSelection:
    def test_rejects_unknown_backend(self):
        with pytest.raises(ValueError):
            SolveScheduler(2, backend="fibers")
        assert set(BACKENDS) == {"auto", "serial", "process"}

    def test_degenerate_batches_always_run_serial(self):
        for backend in BACKENDS:
            scheduler = SolveScheduler(4, backend=backend)
            assert scheduler._resolve_backend(1, plans=False) == "serial"
            assert scheduler._resolve_backend(0, plans=True) == "serial"
        assert SolveScheduler(1, backend="process")._resolve_backend(
            8, plans=True
        ) == "serial"

    def test_auto_never_pools_on_a_single_cpu(self, monkeypatch):
        import repro.core.algorithms.scheduler as sched

        monkeypatch.setattr(sched.os, "cpu_count", lambda: 1)
        scheduler = SolveScheduler(4, backend="auto")
        assert scheduler._resolve_backend(16, plans=False) == "serial"
        assert scheduler._resolve_backend(16, plans=True) == "serial"

    def test_auto_picks_process_for_plans_on_multicore(self, monkeypatch):
        import repro.core.algorithms.scheduler as sched

        monkeypatch.setattr(sched.os, "cpu_count", lambda: 8)
        scheduler = SolveScheduler(4, backend="auto")
        assert scheduler._resolve_backend(16, plans=False) == "serial"
        if fork_available():
            assert scheduler._resolve_backend(16, plans=True) == "process"


class TestMapParity:
    @pytest.mark.parametrize("backend", RUN_BACKENDS)
    def test_results_positional_and_identical(self, backend):
        with SolveScheduler(4, backend=backend) as scheduler:
            out = scheduler.map(lambda x: x * x, range(9))
        assert out == [x * x for x in range(9)]

    @pytest.mark.skipif(not fork_available(), reason="no fork on this platform")
    def test_process_map_carries_closures_by_fork(self):
        # The task closes over unpicklable local state; fork inheritance
        # (not pickling) must carry it into the workers.
        secret = {"offset": 7, "fn": lambda v: v + 1}
        with SolveScheduler(2, backend="process") as scheduler:
            out = scheduler.map(
                lambda x: secret["fn"](x) + secret["offset"], [1, 2, 3]
            )
        assert out == [9, 10, 11]

    @pytest.mark.parametrize("backend", RUN_BACKENDS)
    def test_real_bugs_fail_the_whole_map(self, backend):
        with SolveScheduler(4, backend=backend) as scheduler:
            with pytest.raises(ZeroDivisionError):
                scheduler.map(lambda x: 1 // x, [1, 0, 2], fallback=lambda x: 0)


class TestProcessResilience:
    @pytest.mark.skipif(not fork_available(), reason="no fork on this platform")
    def test_sparse_faults_are_retried_in_the_parent(self):
        injector = FaultInjector(FaultPlan(periods={"scheduler.worker": 3}))
        with SolveScheduler(
            2, retries=1, fault_injector=injector, backend="process"
        ) as scheduler:
            out = scheduler.map(lambda x: x * 10, [1, 2, 3, 4])
        assert out == [10, 20, 30, 40]
        assert scheduler.faults_seen == injector.faults_injected > 0
        assert scheduler.fallbacks_taken == 0

    @pytest.mark.skipif(not fork_available(), reason="no fork on this platform")
    def test_persistent_faults_fall_back_in_order(self):
        injector = FaultInjector(FaultPlan(periods={"scheduler.worker": 1}))
        with SolveScheduler(
            2, retries=1, fault_injector=injector, backend="process"
        ) as scheduler:
            out = scheduler.map(
                lambda x: x * 10, [1, 2, 3], fallback=lambda x: x * 10
            )
        assert out == [10, 20, 30]
        assert scheduler.fallbacks_taken == 3

    @pytest.mark.skipif(not fork_available(), reason="no fork on this platform")
    def test_worker_raised_transients_retry_then_fall_back(self):
        # A real transient raised *inside* the worker (not the parent
        # pulse) must cross the pipe as a fault envelope, not a crash.
        def flaky(x):
            if x == 2:
                raise TransientFault("worker-side transient")
            return x * 10

        with SolveScheduler(2, retries=1, backend="process") as scheduler:
            out = scheduler.map(flaky, [1, 2, 3], fallback=lambda x: x * 10)
        assert out == [10, 20, 30]
        assert scheduler.faults_seen == 2  # one per attempt round
        assert scheduler.fallbacks_taken == 1


class TestSolvePlans:
    def _plans(self, seed=9):
        pspace = synthetic_scenario(seed, k_min=4, k_max=7)
        problems = [
            problem
            for problem in table1_problems(pspace).values()
        ]
        return (
            SolvePlan(pspace, tuple(problems[:3]), algorithm="c_boundaries"),
            SolvePlan(pspace, tuple(problems[3:]), algorithm="c_boundaries"),
        )

    @pytest.mark.parametrize("backend", RUN_BACKENDS)
    def test_receipts_identical_across_backends(self, backend):
        plans = self._plans()
        expected = [[Receipt.of(s) for s in plan.run()] for plan in plans]
        with SolveScheduler(2, backend=backend) as scheduler:
            solved = scheduler.solve_plans(plans)
        assert [[Receipt.of(s) for s in chunk] for chunk in solved] == expected

    @pytest.mark.skipif(not fork_available(), reason="no fork on this platform")
    def test_plan_pool_persists_across_calls(self):
        plans = self._plans()
        with SolveScheduler(2, backend="process") as scheduler:
            scheduler.solve_plans(plans)
            pool = scheduler._plan_pool
            assert pool is not None
            scheduler.solve_plans(plans)
            assert scheduler._plan_pool is pool  # warm workers reused
        assert scheduler._plan_pool is None  # context exit shut it down

    @pytest.mark.skipif(not fork_available(), reason="no fork on this platform")
    def test_exhausted_plans_fall_back_to_cold_run(self):
        plans = self._plans()
        expected = [[Receipt.of(s) for s in plan.run()] for plan in plans]
        injector = FaultInjector(FaultPlan(periods={"scheduler.worker": 1}))
        with SolveScheduler(
            2, retries=0, fault_injector=injector, backend="process"
        ) as scheduler:
            solved = scheduler.solve_plans(plans)  # default cold fallback
        assert [[Receipt.of(s) for s in chunk] for chunk in solved] == expected
        assert scheduler.fallbacks_taken == len(plans)

    @pytest.mark.skipif(not fork_available(), reason="no fork on this platform")
    def test_worker_cache_faults_come_home_in_remote_faults(self):
        # Eviction drills inside the forked workers cannot touch the
        # parent injector; the deltas must arrive via the envelopes.
        plans = self._plans()
        expected = [[Receipt.of(s) for s in plan.run()] for plan in plans]
        injector = FaultInjector(
            FaultPlan(periods={"frontier_cache.lookup": 2})
        )
        with SolveScheduler(
            2, retries=1, fault_injector=injector, backend="process"
        ) as scheduler:
            solved = scheduler.solve_plans(plans)
        assert [[Receipt.of(s) for s in chunk] for chunk in solved] == expected
        assert scheduler.remote_faults > 0
        assert injector.faults_injected == 0  # parent never fired
        assert scheduler.counters()["remote_faults"] == scheduler.remote_faults


class TestServiceCounterMerge:
    """Regression: worker-side cache counters reach ServiceResponse."""

    @pytest.mark.skipif(not fork_available(), reason="no fork on this platform")
    def test_process_backend_faults_surface_in_responses(
        self, movie_db, movie_profile, movie_query
    ):
        from repro.core.frontier_cache import FrontierCache
        from repro.core.param_cache import ParameterCache
        from repro.core.personalizer import Personalizer
        from repro.core.service import BatchRequest, PersonalizationService

        probe = Personalizer(movie_db).personalize(
            movie_query, movie_profile,
            CQPProblem.problem2(cmax=float("inf")),
            algorithm="c_maxbounds", k_limit=6,
        )
        problems = table1_problems(probe.preference_space)
        batch = [
            BatchRequest(
                user="merge", query=movie_query, problem=problems[n],
                algorithm="c_boundaries", k_limit=6,
            )
            for n in sorted(problems)
        ]

        def run(injector, backend):
            service = PersonalizationService(
                movie_db,
                param_cache=ParameterCache(),
                frontier_cache=FrontierCache(),
                parallelism=4,
                backend=backend,
                fault_injector=injector,
            )
            service.register("merge", movie_profile)
            return service.request_many(batch)

        clean = run(None, "serial")
        # Period 1: every lookup evicts. Forked workers inherit a zeroed
        # site counter and run only a task or two each, so a sparser
        # schedule might never come due inside any single worker.
        injector = FaultInjector(
            FaultPlan(periods={"frontier_cache.lookup": 1})
        )
        degraded = run(injector, "process")
        for clean_response, response in zip(clean, degraded):
            assert Receipt.of(response.outcome.solution) == Receipt.of(
                clean_response.outcome.solution
            )
            assert response.rows == clean_response.rows
        # The faults fired inside forked workers: the parent injector
        # saw none of them, yet the batch reports them.
        assert any(r.faults_injected > 0 for r in degraded)
