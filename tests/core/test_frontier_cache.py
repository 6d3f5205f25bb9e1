"""FrontierCache: warm-started sweeps must be indistinguishable from cold.

The correctness claim is exactness-preserving reuse: whatever sequence
of constraint values a space is solved under, with whatever frontiers
already cached, the solutions — and the canonical frontiers recorded —
must equal those of fresh, cold, single-threaded solves. Hypothesis
drives random instances through random constraint-sweep sequences; the
deterministic tests pin the cache mechanics (exact hits skip phase 1,
warm resumes do less work, invalidation flushes).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import adapters
from repro.core.algorithms.base import get_algorithm
from repro.core.algorithms.c_boundaries import find_boundaries
from repro.core.frontier_cache import (
    FrontierCache,
    canonical_frontier,
    space_signature,
)
from repro.core.problem import CQPProblem
from repro.core.space import SpaceBundle
from repro.core.stats import SearchStats
from repro.workloads.scenarios import make_synthetic_pspace

sweep_instances = st.integers(min_value=1, max_value=8).flatmap(
    lambda k: st.tuples(
        st.lists(
            st.floats(min_value=0.01, max_value=1.0), min_size=k, max_size=k
        ),
        st.lists(
            st.floats(min_value=0.5, max_value=100.0), min_size=k, max_size=k
        ),
        # An arbitrary-order sweep of cmax fractions: tighter-after-
        # looser (warm resume), looser-after-tighter (cold fallback),
        # repeats (exact hits) all occur.
        st.lists(
            st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=6
        ),
    )
)


def cold_frontier(pspace, cmax):
    """The canonical frontier of a fresh, uncached sweep."""
    space = SpaceBundle(pspace, CQPProblem.problem2(cmax)).cost_space()
    return canonical_frontier(find_boundaries(space, SearchStats()))


@settings(max_examples=100, deadline=None)
@given(sweep_instances)
def test_warm_sweeps_match_cold_boundaries_and_solutions(data):
    dois, costs, fractions = data
    pspace = make_synthetic_pspace(dois, costs)
    supreme = pspace.supreme_cost()
    cache = FrontierCache()
    for fraction in fractions:
        cmax = fraction * supreme
        problem = CQPProblem.problem2(cmax)
        warm_space = SpaceBundle(pspace, problem, frontier_cache=cache).cost_space()
        assert warm_space.frontier is not None
        warm = get_algorithm("c_boundaries").solve(warm_space)
        # The frontier recorded under this limit equals the cold one.
        exact, _ = warm_space.frontier.lookup(cmax)
        assert exact == cold_frontier(pspace, cmax)
        cold = adapters.solve(pspace, problem, "c_boundaries")
        if cold is None:
            assert warm is None
        else:
            assert warm is not None
            assert warm.pref_indices == cold.pref_indices
            assert warm.doi == cold.doi
            assert warm.cost == cold.cost


def _table1_problems(pspace):
    supreme = pspace.supreme_cost()
    base = pspace.base_size
    return {
        1: CQPProblem.problem1(smin=base * 0.05, smax=base * 0.9),
        2: CQPProblem.problem2(cmax=supreme * 0.5),
        3: CQPProblem.problem3(cmax=supreme * 0.5, smin=base * 0.05, smax=base * 0.9),
        4: CQPProblem.problem4(dmin=0.3),
        5: CQPProblem.problem5(dmin=0.3, smin=base * 0.05, smax=base * 0.9),
        6: CQPProblem.problem6(smin=base * 0.05, smax=base * 0.9),
    }


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=7).flatmap(
        lambda k: st.tuples(
            st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=k, max_size=k),
            st.lists(st.floats(min_value=0.5, max_value=100.0), min_size=k, max_size=k),
            st.lists(st.floats(min_value=0.05, max_value=1.0), min_size=k, max_size=k),
        )
    )
)
def test_all_six_problems_unchanged_by_cache(data):
    dois, costs, reductions = data
    sizes = [1000.0 * r for r in reductions]
    pspace = make_synthetic_pspace(dois, costs, sizes)
    cache = FrontierCache()
    for number, problem in sorted(_table1_problems(pspace).items()):
        algorithm = adapters.recommended_algorithm(problem)
        # Twice with the shared cache (second pass rides warm entries),
        # once without; all three must agree exactly.
        first = adapters.solve(pspace, problem, algorithm, frontier_cache=cache)
        second = adapters.solve(pspace, problem, algorithm, frontier_cache=cache)
        cold = adapters.solve(pspace, problem, algorithm)
        for warm in (first, second):
            if cold is None:
                assert warm is None, "problem %d diverged" % number
            else:
                assert warm is not None, "problem %d diverged" % number
                assert warm.pref_indices == cold.pref_indices
                assert warm.doi == cold.doi
                assert warm.cost == cold.cost
                assert warm.size == cold.size


class TestCacheMechanics:
    PSPACE = staticmethod(
        lambda: make_synthetic_pspace(
            (0.9, 0.8, 0.7, 0.6, 0.5), (110.0, 80.0, 60.0, 45.0, 35.0)
        )
    )

    def _solve(self, pspace, cmax, cache):
        problem = CQPProblem.problem2(cmax)
        space = SpaceBundle(pspace, problem, frontier_cache=cache).cost_space()
        solution = get_algorithm("c_boundaries").solve(space)
        assert solution is not None
        return solution

    def test_exact_hit_skips_the_sweep(self):
        pspace = self.PSPACE()
        cache = FrontierCache()
        first = self._solve(pspace, 185.0, cache)
        again = self._solve(pspace, 185.0, cache)
        assert first.stats.frontier_cache_hits == 0
        assert first.stats.frontier_cache_misses == 1
        assert again.stats.frontier_cache_hits == 1
        assert again.stats.frontier_cache_misses == 0
        # Phase 1 never ran: only phase-2 boundary visits were counted.
        assert again.stats.states_examined < first.stats.states_examined
        assert again.pref_indices == first.pref_indices

    def test_tighter_limit_warm_starts(self):
        # A fine tightening (one sweep step): the resumed sweep walks
        # only the thin region between the two frontiers, while the cold
        # sweep re-descends from the root.
        pspace = self.PSPACE()
        cache = FrontierCache()
        self._solve(pspace, 185.0, cache)
        warm = self._solve(pspace, 170.0, cache)
        cold = adapters.solve(pspace, CQPProblem.problem2(170.0), "c_boundaries")
        assert warm.stats.states_warm_started > 0
        assert warm.stats.states_examined < cold.stats.states_examined
        assert warm.stats.parameter_evaluations < cold.stats.parameter_evaluations
        assert warm.pref_indices == cold.pref_indices
        assert warm.doi == cold.doi

    def test_looser_limit_falls_back_to_cold_sweep(self):
        pspace = self.PSPACE()
        cache = FrontierCache()
        self._solve(pspace, 140.0, cache)
        looser = self._solve(pspace, 225.0, cache)
        cold = adapters.solve(pspace, CQPProblem.problem2(225.0), "c_boundaries")
        assert looser.stats.states_warm_started == 0
        assert looser.pref_indices == cold.pref_indices

    def test_infeasible_frontier_propagates_to_tighter_limits(self):
        pspace = self.PSPACE()
        cache = FrontierCache()
        problem = CQPProblem.problem2(1.0)  # below every single cost
        assert adapters.solve(pspace, problem, "c_boundaries",
                              frontier_cache=cache) is None
        # A tighter solve seeds from the recorded empty frontier and
        # terminates without sweeping at all.
        tighter = CQPProblem.problem2(0.5)
        space = SpaceBundle(pspace, tighter, frontier_cache=cache).cost_space()
        stats_before_space = space.evaluator.evaluations
        assert get_algorithm("c_boundaries").solve(space) is None
        assert space.evaluator.evaluations == stats_before_space

    def test_neighbor_batches_counted(self):
        pspace = self.PSPACE()
        solution = self._solve(pspace, 185.0, FrontierCache())
        assert solution.stats.neighbor_batches > 0

    def test_shared_evaluator_across_solves(self):
        pspace = self.PSPACE()
        cache = FrontierCache()
        first = self._solve(pspace, 185.0, cache)
        tighter = self._solve(pspace, 140.0, cache)
        # The second solve re-used the first's evaluator: it evaluated
        # strictly fewer parameters than a cold solve at the same limit.
        cold = adapters.solve(pspace, CQPProblem.problem2(140.0), "c_boundaries")
        assert tighter.stats.parameter_evaluations <= cold.stats.parameter_evaluations
        assert first is not tighter

    def test_zero_capacity_disables(self):
        pspace = self.PSPACE()
        cache = FrontierCache(capacity=0)
        space = SpaceBundle(
            pspace, CQPProblem.problem2(185.0), frontier_cache=cache
        ).cost_space()
        assert space.frontier is None
        assert cache.counters()["evaluators"] == 0

    def test_validate_flushes_on_token_change(self):
        pspace = self.PSPACE()
        cache = FrontierCache()
        cache.validate(("db", 1))
        self._solve(pspace, 185.0, cache)
        assert cache.counters()["frontiers"] == 1
        cache.validate(("db", 1))  # same token: nothing happens
        assert cache.counters()["frontiers"] == 1
        cache.validate(("db", 2))
        counters = cache.counters()
        assert counters["frontiers"] == 0
        assert counters["evaluators"] == 0
        assert counters["invalidations"] == 1

    def test_explicit_invalidate(self):
        pspace = self.PSPACE()
        cache = FrontierCache()
        self._solve(pspace, 185.0, cache)
        cache.invalidate()
        assert cache.counters()["frontiers"] == 0


class TestMaxBoundsMemo:
    """C-MAXBOUNDS stores its maximal boundaries in the memo, under its
    own name: repeats skip phase 1, C-BOUNDARIES never reads them."""

    PSPACE = staticmethod(TestCacheMechanics.PSPACE)

    def _solve(self, pspace, cmax, cache, algorithm, smin=None):
        problem = (
            CQPProblem.problem2(cmax)
            if smin is None
            else CQPProblem.problem3(cmax=cmax, smin=smin)
        )
        space = SpaceBundle(pspace, problem, frontier_cache=cache).cost_space()
        return get_algorithm(algorithm).solve(space)

    def test_repeat_skips_phase_one(self):
        pspace = self.PSPACE()
        cache = FrontierCache()
        first = self._solve(pspace, 185.0, cache, "c_maxbounds")
        again = self._solve(pspace, 185.0, cache, "c_maxbounds")
        cold = adapters.solve(pspace, CQPProblem.problem2(185.0), "c_maxbounds")
        assert (first.stats.frontier_cache_hits, first.stats.frontier_cache_misses) == (0, 1)
        assert (again.stats.frontier_cache_hits, again.stats.frontier_cache_misses) == (1, 0)
        assert again.stats.states_examined < first.stats.states_examined
        for solution in (first, again):
            assert solution.pref_indices == cold.pref_indices
            assert (solution.doi, solution.cost, solution.size) == (
                cold.doi, cold.cost, cold.size
            )

    def test_stored_bounds_serve_problems_with_extra_constraints(self):
        # Phase 1 reads only the budget, so bounds stored by a Problem 2
        # solve are valid for a Problem 3 solve at the same cmax: phase
        # 2 re-checks the size window.
        pspace = make_synthetic_pspace(
            (0.9, 0.8, 0.7, 0.6, 0.5),
            (110.0, 80.0, 60.0, 45.0, 35.0),
            sizes=(500.0, 400.0, 800.0, 900.0, 950.0),
        )
        cache = FrontierCache()
        unwindowed = self._solve(pspace, 185.0, cache, "c_maxbounds")
        warm = self._solve(pspace, 185.0, cache, "c_maxbounds", smin=300.0)
        cold = adapters.solve(
            pspace, CQPProblem.problem3(cmax=185.0, smin=300.0), "c_maxbounds"
        )
        assert warm.stats.frontier_cache_hits == 1
        assert unwindowed.size < 300.0 <= warm.size  # the window binds
        assert warm.pref_indices == cold.pref_indices
        assert (warm.doi, warm.cost, warm.size) == (cold.doi, cold.cost, cold.size)

    def test_c_boundaries_never_reads_a_max_bounds_entry(self):
        pspace = self.PSPACE()
        cache = FrontierCache()
        self._solve(pspace, 185.0, cache, "c_maxbounds")
        # Same limit: no exact hit on the heuristic's entry.
        same = self._solve(pspace, 185.0, cache, "c_boundaries")
        assert same.stats.frontier_cache_hits == 0
        # Tighter limit: the heuristic's entry is no warm-start seed.
        cache = FrontierCache()
        self._solve(pspace, 185.0, cache, "c_maxbounds")
        tighter = self._solve(pspace, 170.0, cache, "c_boundaries")
        assert tighter.stats.states_warm_started == 0
        cold = adapters.solve(pspace, CQPProblem.problem2(170.0), "c_boundaries")
        assert tighter.pref_indices == cold.pref_indices

    def test_memo_keys_carry_the_algorithm(self):
        pspace = self.PSPACE()
        cache = FrontierCache()
        self._solve(pspace, 185.0, cache, "c_maxbounds")
        self._solve(pspace, 185.0, cache, "c_boundaries")
        (memo,) = cache._memos.values()
        assert sorted(memo._entries) == [
            ("c_boundaries", 185.0),
            ("c_maxbounds", 185.0),
        ]


def _brute_force_frontiers(cache):
    return sum(len(memo) for memo in cache._memos.values())


class TestFrontierCount:
    """counters() reads a running frontier count, never walks the memos."""

    def test_count_tracks_stores_evictions_and_flush(self):
        from repro.core.frontier_cache import FRONTIER_LIMITS_PER_MEMO

        cache = FrontierCache(capacity=2)
        frontier = ((0,), (1, 2))
        memos = [cache.memo_for(("sig", n), (0, 1, 2), "cost") for n in range(2)]
        for limit in range(FRONTIER_LIMITS_PER_MEMO + 5):  # per-memo evictions
            memos[0].store(float(limit), frontier)
            memos[0].store(float(limit), frontier, "c_maxbounds")
            assert cache.counters()["frontiers"] == _brute_force_frontiers(cache)
        memos[1].store(1.0, frontier)
        memos[1].store(1.0, frontier)  # overwrite: no double count
        assert cache.counters()["frontiers"] == _brute_force_frontiers(cache)
        evictions = cache.evictions
        cache.memo_for(("sig", 2), (0, 1, 2), "cost")  # evicts memos[0]
        assert cache.evictions == evictions + FRONTIER_LIMITS_PER_MEMO
        assert cache.counters()["frontiers"] == _brute_force_frontiers(cache) == 1
        # A solve still holding an evicted memo may store into it; the
        # cache no longer counts it.
        memos[0].store(999.0, frontier)
        assert cache.counters()["frontiers"] == _brute_force_frontiers(cache)
        cache.invalidate()
        assert cache.counters()["frontiers"] == _brute_force_frontiers(cache) == 0
        assert cache.counters()["bytes_estimate"] == 0
        memos[1].store(2.0, frontier)  # flushed memo: detached too
        assert cache.counters()["frontiers"] == 0

    def test_count_matches_after_real_solves(self):
        pspace = TestCacheMechanics.PSPACE()
        cache = FrontierCache()
        for cmax in (225.0, 185.0, 140.0, 185.0):
            for algorithm in ("c_boundaries", "c_maxbounds"):
                adapters.solve(
                    pspace, CQPProblem.problem2(cmax), algorithm, frontier_cache=cache
                )
        assert cache.counters()["frontiers"] == _brute_force_frontiers(cache) == 6


class TestCanonicalFrontier:
    def test_dominated_states_dropped(self):
        # (1, 3) dominates (0, 2) componentwise, so it is covered and
        # must be reduced away; the cross-group singleton survives.
        assert canonical_frontier([(0, 2), (1, 3), (4,)]) == ((4,), (0, 2))

    def test_duplicates_collapse(self):
        assert canonical_frontier([(1, 2), (1, 2)]) == ((1, 2),)

    def test_orders_by_group_then_lexicographic(self):
        # (1, 2) and (0, 3) are incomparable, so both survive; groups
        # ascend and tuples sort lexicographically within a group.
        frontier = canonical_frontier([(1, 2), (0, 3), (0,)])
        assert frontier == ((0,), (0, 3), (1, 2))

    def test_empty(self):
        assert canonical_frontier([]) == ()


def test_signature_distinguishes_parameter_arrays():
    a = make_synthetic_pspace((0.9, 0.5), (10.0, 5.0))
    b = make_synthetic_pspace((0.9, 0.5), (10.0, 6.0))
    same = make_synthetic_pspace((0.9, 0.5), (10.0, 5.0))
    assert space_signature(a) != space_signature(b)
    assert space_signature(a) == space_signature(same)


def test_personalizer_invalidates_frontier_cache(movie_db, movie_profile, movie_query):
    from repro.core.personalizer import Personalizer

    personalizer = Personalizer(movie_db)
    problem = CQPProblem.problem2(cmax=400.0)
    personalizer.personalize(
        movie_query, movie_profile, problem, algorithm="c_boundaries", k_limit=10
    )
    assert personalizer.frontier_cache.counters()["evaluators"] > 0
    personalizer.invalidate_caches()
    assert personalizer.frontier_cache.counters()["evaluators"] == 0
