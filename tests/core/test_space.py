"""Tests for SearchSpace / SpaceBundle wiring."""

import pytest

from repro.core.preference_space import extract_preference_space
from repro.core.problem import CQPProblem
from repro.core.space import SearchSpace, SpaceBundle
from repro.core.stats import SearchStats
from repro.errors import SearchError
from repro.workloads.scenarios import (
    figure6_cost_space,
    make_cost_space,
    make_synthetic_evaluator,
    table2_evaluator,
)


class TestSearchSpace:
    def test_vector_must_be_permutation(self):
        evaluator = table2_evaluator()
        with pytest.raises(SearchError):
            SearchSpace(
                vector=[0, 0, 1],
                evaluator=evaluator,
                budget=evaluator.cost_mask,
                limit=10,
                objective=evaluator.doi_mask,
                objective_upper_bound=evaluator.best_doi_of_size,
                budget_aligned=True,
            )

    def test_prefs_translates_ranks(self):
        evaluator = table2_evaluator()
        space = make_cost_space(evaluator, cmax=100)
        # C vector for Table 2 (post-resort): costs [5,12,10] -> C = [1,2,0].
        assert space.vector == (1, 2, 0)
        assert space.prefs((0,)) == (1,)
        assert space.prefs((0, 2)) == (1, 0)

    def test_within_budget_uses_limit(self):
        space = make_cost_space(table2_evaluator(), cmax=13.0)
        assert space.within_budget((0,))        # cost 12
        assert not space.within_budget((0, 1))  # cost 22

    def test_boundary_tolerance(self):
        space = make_cost_space(table2_evaluator(), cmax=12.0)
        assert space.within_budget((0,))  # exactly at the bound

    def test_solution_from_state(self):
        space = figure6_cost_space()
        solution = space.solution((0, 1), "test", SearchStats())
        assert solution.group_size == 2
        assert solution.cost == pytest.approx(110.0 + 80.0)

    def test_extra_predicate(self):
        evaluator = table2_evaluator()
        space = make_cost_space(evaluator, cmax=100, extra=lambda idx: len(idx) <= 1)
        assert space.has_extra
        assert space.fully_feasible((0,))
        assert not space.fully_feasible((0, 1))


class TestSpaceBundle:
    @pytest.fixture()
    def pspace(self, movie_db, movie_profile, movie_query):
        return extract_preference_space(
            movie_db, movie_query, movie_profile, k_limit=8
        )

    def test_cost_space_requires_cmax(self, pspace):
        bundle = SpaceBundle(pspace, CQPProblem.problem1(smin=1, smax=100))
        with pytest.raises(SearchError):
            bundle.cost_space()

    def test_cost_space_aligned(self, pspace):
        bundle = SpaceBundle(pspace, CQPProblem.problem2(cmax=100))
        space = bundle.cost_space()
        assert space.budget_aligned
        assert space.name == "cost"
        assert not space.has_extra  # Problem 2 has no size bounds

    def test_problem3_cost_space_has_extra(self, pspace):
        bundle = SpaceBundle(pspace, CQPProblem.problem3(cmax=100, smin=1, smax=50))
        assert bundle.cost_space().has_extra

    def test_doi_space_not_aligned(self, pspace):
        bundle = SpaceBundle(pspace, CQPProblem.problem2(cmax=100))
        space = bundle.doi_space()
        assert not space.budget_aligned
        assert list(space.vector) == pspace.vector_d

    def test_size_space_for_problem1(self, pspace):
        bundle = SpaceBundle(pspace, CQPProblem.problem1(smin=2.0, smax=None))
        space = bundle.size_space()
        assert space.budget_aligned
        assert space.limit == -2.0
        # budget = -size: adding preferences raises it toward the limit.
        single = space.budget_value((0,))
        pair = space.budget_value((0, 1))
        assert pair >= single

    def test_size_space_requires_smin(self, pspace):
        bundle = SpaceBundle(pspace, CQPProblem.problem2(cmax=100))
        with pytest.raises(SearchError):
            bundle.size_space()

    def test_aligned_space_dispatch(self, pspace):
        cost_bundle = SpaceBundle(pspace, CQPProblem.problem2(cmax=100))
        assert cost_bundle.aligned_space().name == "cost"
        size_bundle = SpaceBundle(pspace, CQPProblem.problem1(smin=1, smax=100))
        assert size_bundle.aligned_space().name == "size"

    def test_doi_space_for_problem1_uses_size_budget(self, pspace):
        bundle = SpaceBundle(pspace, CQPProblem.problem1(smin=2.0, smax=None))
        space = bundle.doi_space()
        assert space.limit == -2.0
        assert not space.budget_aligned

    def test_default_space_rejects_min_problems(self, pspace):
        bundle = SpaceBundle(pspace, CQPProblem.problem4(dmin=0.5))
        with pytest.raises(SearchError):
            bundle.default_space()
