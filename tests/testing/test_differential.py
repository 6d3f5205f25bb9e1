"""Drives the differential lattice runner — and proves it has teeth.

Two halves:

* the lattice passes on healthy code: synthetic scenarios through the
  solver lattice, and the movies **and** tourism workloads through the
  full service lattice (every algorithm × engine × cache mode ×
  parallelism point);
* the lattice *fails* on deliberately broken code: swapping an exact
  solver for the greedy, or flipping the dominance comparison inside
  ``canonical_frontier``, must raise within a few seeds — a harness
  that cannot catch a planted bug proves nothing about the real ones.
"""

from __future__ import annotations

import pytest

from repro.core import adapters
from repro.core.frontier_cache import FrontierCache
from repro.core.problem import CQPProblem
from repro.testing.differential import (
    DifferentialFailure,
    LatticePoint,
    Receipt,
    exhaustive_oracle,
    run_service_lattice,
    run_solver_lattice,
    service_lattice,
    solver_lattice,
    synthetic_scenario,
    table1_problems,
)
from repro.testing.invariants import InvariantViolation, check_canonical_frontier


class TestLatticeShape:
    def test_solver_lattice_spans_every_axis(self):
        points = solver_lattice()
        assert {p.algorithm for p in points} == {
            "c_boundaries", "c_maxbounds", "exhaustive", "min_cost"
        }
        assert {p.cache for p in points} == {"off", "on", "warm"}
        assert {p.parallelism for p in points} == {1, 4}

    def test_service_lattice_adds_the_engine_axis(self):
        points = service_lattice()
        assert {p.engine for p in points} == {"row", "columnar"}
        # The classic cross plus the two backend points plus the two
        # snapshot="restored" points plus the two serving="async"
        # points, per algorithm.
        assert len(points) == 3 * 2 * 3 * 2 + 3 * 2 + 3 * 2 + 3 * 2

    def test_service_lattice_spans_the_serving_axis(self):
        points = service_lattice()
        assert {p.serving for p in points} == {"sync", "async"}
        asynchronous = [p for p in points if p.serving == "async"]
        # An async front-end per algorithm at both parallelisms.
        assert {p.parallelism for p in asynchronous} == {1, 4}

    def test_service_lattice_spans_the_snapshot_axis(self):
        points = service_lattice()
        assert {p.snapshot for p in points} == {"off", "restored"}
        restored = [p for p in points if p.snapshot == "restored"]
        # A warm boot per algorithm at both parallelisms.
        assert {p.parallelism for p in restored} == {1, 4}

    def test_solver_lattice_spans_backends_and_batching(self):
        points = solver_lattice()
        assert {p.backend for p in points} == {"serial", "process"}
        assert {p.batched for p in points} == {False, True}

    def test_point_renders_a_reproduction_recipe(self):
        point = LatticePoint("c_boundaries", cache="warm", parallelism=4)
        assert str(point) == (
            "c_boundaries/engine=columnar/cache=warm/parallelism=4"
            "/backend=serial/batched=False/snapshot=off/serving=sync"
        )


class TestSolverLattice:
    def test_random_scenarios_pass_the_full_lattice(self):
        report = run_solver_lattice(range(4))
        assert report.scenarios == 4
        assert report.problems_covered == {1, 2, 3, 4, 5, 6}
        assert report.oracle_checks > 0
        assert report.receipt_checks > 0

    def test_receipts_are_compared_across_cache_and_parallelism(self):
        # 10 points per algorithm (6 cache×parallelism + 4 backend×batched)
        # → 9 receipt comparisons per (algorithm, problem) beyond the
        # reference.
        report = run_solver_lattice([0])
        assert report.receipt_checks == report.solves - report.solves // 10


class TestServiceLattice:
    def test_movies_workload_end_to_end(self, movie_db, movie_profile, movie_query):
        report = run_service_lattice(movie_db, movie_profile, movie_query, seed=1234)
        assert report.problems_covered == {1, 2, 3, 4, 5, 6}
        assert report.receipt_checks > 0

    def test_restored_snapshot_survives_fault_drills(
        self, movie_db, movie_profile, movie_query
    ):
        # Cache-eviction faults fired into a snapshot-warmed service
        # must only make it colder, never change a response: restored
        # entries are ordinary cache entries, so the drills that hold
        # for organically warmed caches must hold for restored ones.
        from repro.core.personalizer import Personalizer
        from repro.core.service import BatchRequest, PersonalizationService
        from repro.testing.faults import FaultInjector, FaultPlan
        from repro.workloads.compiler import compile_workload

        probe = Personalizer(movie_db).personalize(
            movie_query,
            movie_profile,
            CQPProblem.problem2(cmax=float("inf")),
            algorithm="c_maxbounds",
            k_limit=7,
        )
        problems = table1_problems(probe.preference_space)
        numbers = sorted(problems)
        algorithms = {
            n: ("min_cost" if problems[n].objective.name != "DOI" else "c_boundaries")
            for n in numbers
        }
        compiled = compile_workload(
            movie_db,
            [movie_profile],
            [movie_query],
            [problems[n] for n in numbers],
            algorithms=[algorithms[n] for n in numbers],
            k_limit=7,
        )
        clean = PersonalizationService(movie_db)
        clean.register("drill-user", movie_profile)
        batch = [
            BatchRequest(
                user="drill-user",
                query=movie_query,
                problem=problems[n],
                algorithm=algorithms[n],
                k_limit=7,
            )
            for n in numbers
        ]
        reference = [
            (Receipt.of(r.outcome.solution), r.rows)
            for r in clean.request_many(batch)
        ]
        for seed in range(3):
            injector = FaultInjector(FaultPlan.seeded(seed))
            drilled = PersonalizationService(
                movie_db, snapshot=compiled, fault_injector=injector
            )
            drilled.register("drill-user", movie_profile)
            responses = drilled.request_many(batch)
            got = [(Receipt.of(r.outcome.solution), r.rows) for r in responses]
            assert got == reference, "fault seed %d diverged" % seed

    def test_tourism_workload_end_to_end(self):
        from repro.datasets.tourism import al_profile, build_tourism_database
        from repro.sql.parser import parse_select

        database = build_tourism_database(seed=3)
        report = run_service_lattice(
            database,
            al_profile(seed=3),
            parse_select("select name from RESTAURANT"),
            seed=3,
        )
        assert report.problems_covered == {1, 2, 3, 4, 5, 6}
        assert report.oracle_checks > 0


class TestHarnessSensitivity:
    """Planted bugs must be caught — the harness's own regression."""

    def test_swapping_exact_solver_for_greedy_is_caught(self, monkeypatch):
        # Route the "exhaustive" lattice points to the greedy, which
        # verifiably misses the optimum on seed 0 / problem 2.
        real_solve = adapters.solve

        def sabotaged(pspace, problem, algorithm="c_maxbounds", **kwargs):
            if algorithm == "exhaustive":
                algorithm = "c_maxbounds"
            return real_solve(pspace, problem, algorithm, **kwargs)

        monkeypatch.setattr(adapters, "solve", sabotaged)
        with pytest.raises(DifferentialFailure) as failure:
            run_solver_lattice([0])
        assert "exhaustive" in str(failure.value)

    def test_flipped_dominance_comparison_is_caught(self, monkeypatch):
        # Flip the dominance direction inside the canonical reduction:
        # the frontier keeps covered states and drops the boundary.
        from repro.core.algorithms import c_boundaries as cb

        def flipped(boundaries):
            kept = list(dict.fromkeys(boundaries))
            kept.sort(key=lambda state: (len(state), state), reverse=True)
            return tuple(kept)

        monkeypatch.setattr(cb, "canonical_frontier", flipped)
        pspace = synthetic_scenario(0, k_min=5, k_max=7)
        cache = FrontierCache()
        problem = CQPProblem.problem2(cmax=pspace.supreme_cost() * 0.6)
        with pytest.raises((DifferentialFailure, InvariantViolation)):
            adapters.solve(pspace, problem, "c_boundaries", frontier_cache=cache)
            for memo in cache._memos.values():
                for frontier in memo._entries.values():
                    check_canonical_frontier(frontier)
            # Warm re-solves ride the corrupted frontiers; if the sweep
            # does not self-heal, the lattice catches it here instead.
            run_solver_lattice(
                [0],
                points=[LatticePoint("c_boundaries", cache="warm")],
            )

    def test_warm_pass_divergence_is_caught(
        self, monkeypatch, movie_db, movie_profile, movie_query
    ):
        # A cache that serves a repeat request a different answer than
        # it served the first time: the warm pass must flag it.
        from dataclasses import replace

        from repro.core.service import PersonalizationService

        real_request_many = PersonalizationService.request_many
        calls = []

        def stale_on_repeat(self, requests, *args, **kwargs):
            responses = real_request_many(self, requests, *args, **kwargs)
            calls.append(self)
            if calls.count(self) == 1:
                return responses
            return [replace(r, elapsed_ms=r.elapsed_ms + 1.0) for r in responses]

        monkeypatch.setattr(PersonalizationService, "request_many", stale_on_repeat)
        with pytest.raises(DifferentialFailure) as failure:
            run_service_lattice(
                movie_db,
                movie_profile,
                movie_query,
                seed=1234,
                points=[LatticePoint("c_maxbounds", cache="on")],
            )
        assert "warm pass" in str(failure.value)

    def test_oracle_agrees_with_exhaustive_algorithm(self):
        # The oracle is only independent — not privileged. On healthy
        # code it must match the registered exhaustive algorithm
        # exactly, or one of the two is wrong.
        for seed in range(3):
            pspace = synthetic_scenario(seed)
            for problem in table1_problems(pspace).values():
                if problem.objective.name != "DOI":
                    continue
                oracle = exhaustive_oracle(pspace, problem)
                solved = Receipt.of(adapters.solve(pspace, problem, "exhaustive"))
                assert oracle.feasible == solved.feasible
                if oracle.feasible:
                    assert abs(oracle.doi - solved.doi) <= 1e-9
