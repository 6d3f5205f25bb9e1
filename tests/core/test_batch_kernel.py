"""The structural-batching kernel is a bit-identical sweep replacement.

Two layers, both property-checked over seeded random spaces:

* :func:`repro.core.algorithms.batch.stacked_frontiers` must reproduce
  the **canonical frontier** a cold C-BOUNDARIES sweep records, on both
  budget axes — the kernel's one numpy program stands in for the whole
  breadth-first walk of phase 1;
* :func:`repro.core.adapters.solve_many` must return receipts identical
  to a loop of :func:`repro.core.adapters.solve`, with duplicates
  sharing one solution object, whatever mix of algorithms and problems
  the batch carries.
"""

from __future__ import annotations

import pytest

from repro.core import adapters
from repro.core.adapters import _aligned_limit, solve_many
from repro.core.algorithms.base import get_algorithm
from repro.core.algorithms.batch import (
    MAX_STACKED_K,
    budget_table,
    stacked_frontiers,
    stacked_supported,
)
from repro.core.frontier_cache import FrontierCache
from repro.core.problem import CQPProblem
from repro.core.space import SpaceBundle
from repro.errors import SearchError
from repro.testing.differential import (
    Receipt,
    synthetic_scenario,
    table1_problems,
)
from repro.workloads.scenarios import make_size_space, make_synthetic_evaluator


def _aligned_space(pspace, problem, cache=None):
    return SpaceBundle(pspace, problem, frontier_cache=cache).aligned_space()


def _swept_frontier(pspace, problem):
    """The canonical frontier a cold C-BOUNDARIES sweep records."""
    cache = FrontierCache()
    space = _aligned_space(pspace, problem, cache=cache)
    get_algorithm("c_boundaries").solve(space)
    exact, _ = space.frontier.lookup(_aligned_limit(problem))
    assert exact is not None, "the sweep should have stored its frontier"
    return exact


def _axis_problems(pspace):
    """One binding problem per budget axis of this space."""
    supreme = pspace.supreme_cost()
    base = pspace.base_size
    return {
        "cost": [
            CQPProblem.problem2(cmax=supreme * fraction)
            for fraction in (0.9, 0.6, 0.35, 0.15)
        ],
        "size": [
            CQPProblem.problem1(smin=base * fraction, smax=base)
            for fraction in (0.02, 0.1, 0.3, 0.6)
        ],
    }


class TestStackedFrontiers:
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_cold_sweep_on_both_axes(self, seed):
        pspace = synthetic_scenario(seed, k_min=3, k_max=8)
        for axis, problems in _axis_problems(pspace).items():
            space = _aligned_space(pspace, problems[0], cache=FrontierCache())
            assert stacked_supported(space)
            limits = [_aligned_limit(problem) for problem in problems]
            stacked = stacked_frontiers(space, limits)
            for problem, limit in zip(problems, limits):
                assert stacked[limit] == _swept_frontier(pspace, problem), (
                    "axis=%s seed=%d limit=%r" % (axis, seed, limit)
                )

    def test_budget_table_is_bit_identical_to_scalar_kernel(self):
        pspace = synthetic_scenario(5, k_min=6, k_max=6)
        problem = CQPProblem.problem2(cmax=pspace.supreme_cost() * 0.5)
        # A size space over an evaluator with a conflict pair: its budget
        # must stay the independence product the table computes.
        evaluator = make_synthetic_evaluator(
            [0.9, 0.8, 0.7, 0.6], [10.0, 20.0, 30.0, 40.0],
            [500.0, 400.0, 300.0, 200.0], base_size=1000.0,
        )
        evaluator.conflicts = [(0, 1)]
        spaces = [
            _aligned_space(pspace, problem, cache=FrontierCache()),
            make_size_space(evaluator, smin=10.0),
        ]
        for space in spaces:
            assert stacked_supported(space)
            table = budget_table(space)
            k = space.k
            for mask in range(1 << k):
                state = tuple(r for r in range(k) if (mask >> r) & 1)
                assert table[mask] == space.budget_value(state), state

    def test_gating_rejects_unaligned_and_tuple_kernels(self):
        pspace = synthetic_scenario(3, k_min=4, k_max=6)
        problem = CQPProblem.problem2(cmax=pspace.supreme_cost() * 0.5)
        doi_space = SpaceBundle(
            pspace, problem, frontier_cache=FrontierCache()
        ).doi_space()
        assert not stacked_supported(doi_space)
        with pytest.raises(ValueError):
            budget_table(doi_space)

    def test_k_gate_is_max_stacked_k(self):
        assert MAX_STACKED_K == 20  # 8 MiB of float64 budgets


class TestSolveMany:
    @pytest.mark.parametrize("seed", range(8))
    def test_receipts_match_solve_loop_with_duplicates(self, seed):
        pspace = synthetic_scenario(seed, k_min=3, k_max=7)
        problems = list(table1_problems(pspace).values())
        # Duplicate-laden stream in scrambled order.
        stream = problems + problems[::2] + problems[::-1]
        for algorithm in ("c_boundaries", "c_maxbounds", "exhaustive"):
            expected = [
                Receipt.of(adapters.solve(pspace, problem, algorithm))
                for problem in stream
            ]
            batched = solve_many(pspace, stream, algorithm=algorithm)
            assert [Receipt.of(s) for s in batched] == expected

    def test_duplicates_share_one_solution_object(self):
        pspace = synthetic_scenario(1, k_min=4, k_max=6)
        problem = CQPProblem.problem2(cmax=pspace.supreme_cost() * 0.5)
        solutions = solve_many(pspace, [problem, problem, problem])
        assert solutions[0] is solutions[1] is solutions[2]

    def test_per_problem_algorithm_override(self):
        pspace = synthetic_scenario(2, k_min=4, k_max=6)
        problem = CQPProblem.problem2(cmax=pspace.supreme_cost() * 0.5)
        exact, greedy = solve_many(
            pspace,
            [problem, problem],
            algorithm="c_maxbounds",
            algorithms=["c_boundaries", None],
        )
        assert exact.algorithm == "c_boundaries"
        assert greedy.algorithm == "c_maxbounds"
        assert Receipt.of(exact) == Receipt.of(
            adapters.solve(pspace, problem, "c_boundaries")
        )

    def test_algorithm_list_length_mismatch_raises(self):
        pspace = synthetic_scenario(2, k_min=3, k_max=4)
        problem = CQPProblem.problem2(cmax=pspace.supreme_cost() * 0.5)
        with pytest.raises(SearchError):
            solve_many(pspace, [problem], algorithms=["c_boundaries", None])

    def test_disabled_cache_is_respected(self):
        # A caller-supplied 0-capacity cache must keep cache-off
        # semantics (no priming) and still return correct receipts.
        pspace = synthetic_scenario(4, k_min=4, k_max=6)
        problems = [
            CQPProblem.problem2(cmax=pspace.supreme_cost() * fraction)
            for fraction in (0.7, 0.4, 0.2)
        ]
        expected = [
            Receipt.of(adapters.solve(pspace, problem, "c_boundaries"))
            for problem in problems
        ]
        batched = solve_many(
            pspace, problems, algorithm="c_boundaries",
            frontier_cache=FrontierCache(0),
        )
        assert [Receipt.of(s) for s in batched] == expected

    def test_empty_batch(self):
        pspace = synthetic_scenario(0)
        assert solve_many(pspace, []) == []
