"""Tests for parameter estimation (Section 4.3 / 7.1) and its partial orders."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.estimation import ParameterEstimator, StateEvaluator
from repro.errors import SearchError
from repro.preferences.model import (
    AtomicPreference,
    JoinCondition,
    PreferencePath,
    SelectionCondition,
)
from repro.sql.parser import parse_select
from repro.workloads.scenarios import (
    TABLE2_BASE_SIZE,
    TABLE2_COSTS,
    TABLE2_DOIS,
    TABLE2_SIZES,
    table2_evaluator,
)


def genre_path(doi_join=0.9, doi_sel=0.5, genre="drama"):
    return PreferencePath(
        [
            AtomicPreference(JoinCondition("MOVIE", "mid", "GENRE", "mid"), doi=doi_join),
            AtomicPreference(SelectionCondition("GENRE", "genre", genre), doi=doi_sel),
        ]
    )


class TestParameterEstimator:
    def test_base_parameters(self, movie_db, movie_query):
        estimator = ParameterEstimator(movie_db, movie_query)
        assert estimator.base_cost == movie_db.blocks("MOVIE") * 1.0
        assert estimator.base_size == len(movie_db.table("MOVIE"))

    def test_path_cost_adds_joined_blocks(self, movie_db, movie_query):
        estimator = ParameterEstimator(movie_db, movie_query)
        cost = estimator.path_cost(genre_path())
        expected = (movie_db.blocks("MOVIE") + movie_db.blocks("GENRE")) * 1.0
        assert cost == expected

    def test_path_doi_uses_algebra(self, movie_db, movie_query):
        estimator = ParameterEstimator(movie_db, movie_query)
        assert estimator.path_doi(genre_path(0.9, 0.5)) == pytest.approx(0.45)

    def test_path_size_shrinks_base(self, movie_db, movie_query):
        estimator = ParameterEstimator(movie_db, movie_query)
        size = estimator.path_size(genre_path())
        assert 0 < size < estimator.base_size

    def test_subquery_is_distinct_and_extended(self, movie_db, movie_query):
        estimator = ParameterEstimator(movie_db, movie_query)
        subquery = estimator.subquery(genre_path())
        assert subquery.distinct
        assert subquery.relation_names == ["MOVIE", "GENRE"]
        assert len(subquery.where) == 2

    def test_unanchored_path_rejected(self, movie_db):
        query = parse_select("select name from DIRECTOR")
        estimator = ParameterEstimator(movie_db, query)
        with pytest.raises(SearchError):
            estimator.path_cost(genre_path())


class TestStateEvaluatorTable2:
    """The literal Table 2 instance: dois (.5,.8,.7), costs (10,5,12)."""

    def test_per_preference_parameters_survive_resort(self):
        evaluator = table2_evaluator()
        # After doi-descending sort: index 0 = p2, 1 = p3, 2 = p1.
        assert evaluator.doi_values == [0.8, 0.7, 0.5]
        assert evaluator.cost_values == [5.0, 12.0, 10.0]

    def test_doi_of_conjunction(self):
        evaluator = table2_evaluator()
        assert evaluator.doi((0, 1)) == pytest.approx(1 - 0.2 * 0.3)
        assert evaluator.doi(()) == 0.0

    def test_cost_is_sum(self):
        evaluator = table2_evaluator()
        assert evaluator.cost((0, 1, 2)) == pytest.approx(27.0)
        assert evaluator.cost(()) == evaluator.base_cost

    def test_size_is_product_of_reductions(self):
        evaluator = table2_evaluator()
        assert evaluator.size((0,)) == pytest.approx(TABLE2_SIZES[1])  # p2 -> 2
        combined = evaluator.size((0, 2))
        assert combined == pytest.approx(TABLE2_BASE_SIZE * (2 / 20) * (3 / 20))

    def test_supreme_cost(self):
        assert table2_evaluator().supreme_cost() == pytest.approx(sum(TABLE2_COSTS))

    def test_best_doi_of_size(self):
        evaluator = table2_evaluator()
        assert evaluator.best_doi_of_size(1) == pytest.approx(max(TABLE2_DOIS))
        assert evaluator.best_doi_of_size(0) == 0.0
        assert evaluator.best_doi_of_size(99) == evaluator.doi((0, 1, 2))

    def test_mismatched_arrays_rejected(self):
        with pytest.raises(SearchError):
            StateEvaluator([0.5], [1.0, 2.0], [0.5], base_size=10)

    def test_assigned_conflicts_reach_every_entry_point(self):
        # Conflict pairs assigned after construction must be seen by
        # every entry point, not only by the ones built on ``conflicts``.
        evaluator = StateEvaluator(
            [0.9, 0.8], [10.0, 10.0], [0.5, 0.4], base_size=1000.0
        )
        assert evaluator.size_mask(0b11) == pytest.approx(200.0)
        evaluator.conflicts = frozenset({frozenset({0, 1})})
        assert evaluator.conflict_masks == (0b11,)
        assert evaluator.size((0, 1)) == 0.0
        assert evaluator.size_mask(0b11) == 0.0
        assert evaluator.size_independent_mask(0b11) == pytest.approx(200.0)
        evaluator.conflicts = ()
        assert evaluator.conflict_masks == ()
        assert evaluator.size_mask(0b11) == pytest.approx(200.0)


# Hypothesis: the three partial orders (Formulas 4, 7, 8) hold for any
# evaluator and any pair of nested states.
instances = st.integers(min_value=1, max_value=8).flatmap(
    lambda k: st.tuples(
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=k, max_size=k),
        st.lists(st.floats(min_value=0.1, max_value=100.0), min_size=k, max_size=k),
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=k, max_size=k),
        st.lists(st.booleans(), min_size=k, max_size=k),
        st.lists(st.booleans(), min_size=k, max_size=k),
    )
)


@given(instances)
def test_partial_orders_formulas_4_7_8(data):
    dois, costs, reductions, in_x, extra = data
    evaluator = StateEvaluator(dois, costs, reductions, base_size=1000.0)
    x = tuple(i for i, keep in enumerate(in_x) if keep)
    y = tuple(sorted(set(x) | {i for i, keep in enumerate(extra) if keep}))
    # x ⊆ y by construction.
    assert evaluator.doi(x) <= evaluator.doi(y) + 1e-12       # Formula 4
    assert evaluator.cost(x) <= evaluator.cost(y) + 1e-9      # Formula 7
    assert evaluator.size(x) >= evaluator.size(y) - 1e-9      # Formula 8


class TestCachedEvaluator:
    def _evaluator(self):
        from repro.core.estimation import CachedStateEvaluator

        return CachedStateEvaluator(
            doi_values=[0.8, 0.7, 0.5],
            cost_values=[5.0, 12.0, 10.0],
            reductions=[0.1, 0.5, 0.15],
            base_size=20.0,
        )

    def test_values_match_plain_evaluator(self):
        cached = self._evaluator()
        plain = table2_evaluator()
        for state in [(), (0,), (0, 1), (0, 1, 2), (2,)]:
            assert cached.cost(state) == pytest.approx(plain.cost(state))
            assert cached.doi(state) == pytest.approx(plain.doi(state))

    def test_hits_counted(self):
        cached = self._evaluator()
        cached.cost((0, 1))
        cached.cost((1, 0))  # same set, different order -> hit
        info = cached.cache_info()
        assert info == {"hits": 1, "misses": 1}

    def test_caches_are_per_parameter(self):
        cached = self._evaluator()
        cached.cost((0,))
        cached.doi((0,))
        assert cached.cache_info() == {"hits": 0, "misses": 2}

    def test_wrap_copies_parameters(self):
        from repro.core.estimation import CachedStateEvaluator

        plain = table2_evaluator()
        cached = CachedStateEvaluator.wrap(plain)
        assert cached.cost((0, 1, 2)) == pytest.approx(plain.cost((0, 1, 2)))
        assert cached.supreme_cost() == pytest.approx(plain.supreme_cost())

    def _conflicted_evaluator(self):
        from repro.core.estimation import CachedStateEvaluator

        return CachedStateEvaluator(
            doi_values=[0.8, 0.7, 0.5],
            cost_values=[5.0, 12.0, 10.0],
            reductions=[0.1, 0.5, 0.15],
            base_size=20.0,
            conflicts=[(0, 1)],
        )

    def test_conflicted_state_caches_size_zero(self):
        cached = self._conflicted_evaluator()
        assert cached.size((0, 1)) == 0.0
        assert cached.size((0, 1)) == 0.0  # served from cache
        info = cached.cache_info()
        assert info == {"hits": 1, "misses": 1}
        assert cached.size((1, 0, 2)) == 0.0  # superset stays conflicted

    def test_size_independent_bypasses_conflicts_and_cache(self):
        cached = self._conflicted_evaluator()
        assert cached.size((0, 1)) == 0.0  # primes the size cache with 0
        independent = cached.size_independent((0, 1))
        assert independent == pytest.approx(20.0 * 0.1 * 0.5)
        # Neither lookup nor store: cache traffic is unchanged.
        assert cached.cache_info() == {"hits": 0, "misses": 1}
        cached.size_independent((0, 1))
        assert cached.cache_info() == {"hits": 0, "misses": 1}
        # And the cached (conflict-aware) size is not clobbered.
        assert cached.size((0, 1)) == 0.0

    def test_evaluations_counts_hits_and_misses(self):
        # The invariant keeping parameter_evaluations comparable between
        # cached and uncached runs: every request counts, hit or miss.
        cached = self._evaluator()
        states = [(0,), (0, 1), (0,), (1,), (0, 1), (0, 1, 2), (0,)]
        for state in states:
            cached.cost(state)
            cached.doi(state)
        info = cached.cache_info()
        assert cached.evaluations == info["hits"] + info["misses"]
        assert cached.evaluations == 2 * len(states)

    def test_mask_and_tuple_entry_points_share_caches(self):
        from repro.core.state import mask_of

        cached = self._evaluator()
        first = cached.cost((0, 2))
        assert cached.cost_mask(mask_of((0, 2))) == first
        assert cached.cache_info() == {"hits": 1, "misses": 1}

    def test_bundle_uses_cached_by_default(self, movie_db, movie_profile, movie_query):
        from repro.core.estimation import CachedStateEvaluator
        from repro.core.preference_space import extract_preference_space
        from repro.core.problem import CQPProblem
        from repro.core.space import SpaceBundle

        pspace = extract_preference_space(movie_db, movie_query, movie_profile, k_limit=5)
        bundle = SpaceBundle(pspace, CQPProblem.problem2(cmax=100.0))
        assert isinstance(bundle.evaluator, CachedStateEvaluator)
        plain_bundle = SpaceBundle(pspace, CQPProblem.problem2(cmax=100.0), cached=False)
        assert not isinstance(plain_bundle.evaluator, CachedStateEvaluator)
