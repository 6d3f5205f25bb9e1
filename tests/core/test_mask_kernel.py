"""The bitmask state kernel: the mask/tuple round trip, and property
tests that the evaluator's mask formulas compute the paper's doi, cost
and size bit-exactly — plain, with conflict pairs, and cached."""

import math
import random

import pytest

from repro.core.estimation import CachedStateEvaluator, StateEvaluator
from repro.core.state import mask_of, state_of

K = 16
N_RANDOM_STATES = 200  # per-problem floor for the equivalence sweeps


def random_states(seed, k=K, count=N_RANDOM_STATES):
    rng = random.Random(seed)
    states = []
    for _ in range(count):
        size = rng.randint(0, k)
        states.append(tuple(sorted(rng.sample(range(k), size))))
    return states


def synthetic_evaluator(seed, k=K, conflicts=()):
    rng = random.Random(seed)
    return StateEvaluator(
        doi_values=sorted((rng.uniform(0.05, 0.95) for _ in range(k)), reverse=True),
        cost_values=[rng.uniform(1.0, 50.0) for _ in range(k)],
        reductions=[rng.uniform(0.05, 1.0) for _ in range(k)],
        base_size=1000.0,
        base_cost=rng.uniform(0.0, 10.0),
        conflicts=conflicts,
    )


class TestMaskPrimitives:
    def test_mask_roundtrip(self):
        for state in random_states(seed=1):
            assert state_of(mask_of(state)) == state

    def test_duplicates_collapse(self):
        assert mask_of((2, 2, 5)) == mask_of((5, 2))


class TestEvaluatorKernelEquivalence:
    """doi/cost/size of the mask kernel equal the paper's formulas
    written out over the state's P-indices in ascending order, bit-exact,
    on >=200 random states per configuration."""

    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_plain_evaluator(self, seed):
        evaluator = synthetic_evaluator(seed)
        for state in random_states(seed=seed * 100):
            mask = mask_of(state)
            expected_doi = (
                evaluator.algebra.conjunction_doi(
                    [evaluator.doi_values[i] for i in state]
                )
                if state
                else 0.0
            )
            expected_cost = (
                sum(evaluator.cost_values[i] for i in state)
                if state
                else evaluator.base_cost
            )
            expected_size = evaluator.base_size * math.prod(
                evaluator.reductions[i] for i in state
            )
            assert evaluator.doi_mask(mask) == expected_doi
            assert evaluator.cost_mask(mask) == expected_cost
            assert evaluator.size_mask(mask) == expected_size
            assert evaluator.size_independent_mask(mask) == expected_size

    def test_with_conflicts(self):
        conflicts = [(0, 3), (2, 5), (1, 7)]
        plain = synthetic_evaluator(21, conflicts=conflicts)
        for state in random_states(seed=22):
            mask = mask_of(state)
            conflicted = any(set(pair) <= set(state) for pair in conflicts)
            if conflicted:
                assert plain.size_mask(mask) == 0.0
                assert plain.size_independent_mask(mask) > 0.0
            else:
                assert plain.size_mask(mask) == plain.size_independent_mask(mask)

    def test_cached_evaluator_matches_plain(self):
        plain = synthetic_evaluator(31, conflicts=[(0, 4)])
        cached = CachedStateEvaluator.wrap(plain)
        for state in random_states(seed=32):
            assert cached.doi(state) == plain.doi(state)
            assert cached.cost(state) == plain.cost(state)
            assert cached.size(state) == plain.size(state)
        assert cached.cache_hits > 0  # 200 random states of <= 2^16 collide
