"""Search spaces: order vectors bound to an evaluator and a problem.

A :class:`SearchSpace` is what the Section 5 algorithms operate on. It
fixes one rank vector (C, D, or S), translates rank states to preference
sets, evaluates the *budget* parameter (the constraint the boundary
structure is built on — cost for Problem 2), the *objective* (doi for
Problems 1–3), and any extra feasibility predicates (e.g. size bounds in
Problem 3, checked outside the boundary machinery per Section 6).
The algorithms walk rank tuples; each of the three evaluation callables
takes the P-index bitmask of a state, so every parameter has one code
path (the evaluator's mask kernel).

``budget_aligned`` records whether the vector sorts the budget's
per-preference contributions in decreasing order — the property the
C-space algorithms exploit (Vertical moves are then guaranteed to lower
the budget). It holds for (C, cost) and (S, −size); not for (D, cost).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

from repro.core import transitions as tr
from repro.core.estimation import StateEvaluator
from repro.core.preference_space import PreferenceSpace
from repro.core.problem import CQPProblem, Parameter
from repro.core.solution import CQPSolution
from repro.core.state import Mask, State, make_state
from repro.core.stats import SearchStats
from repro.errors import SearchError

_TOL = 1e-9


class SearchSpace:
    """One rank vector + evaluation functions, the algorithms' substrate.

    ``budget``, ``objective`` and ``extra`` take a P-index *bitmask*:
    the algorithms hand in rank tuples, and the space translates each to
    its mask through a precomputed per-rank bit table — no tuple
    allocation, and single-int cache keys downstream.
    """

    def __init__(
        self,
        vector: Sequence[int],
        evaluator: StateEvaluator,
        budget: Callable[[Mask], float],
        limit: float,
        objective: Callable[[Mask], float],
        objective_upper_bound: Callable[[int], float],
        budget_aligned: bool,
        extra: Optional[Callable[[Mask], bool]] = None,
        name: str = "",
    ) -> None:
        if sorted(vector) != list(range(len(vector))):
            raise SearchError("vector must be a permutation of 0..K-1")
        self.vector: Tuple[int, ...] = tuple(vector)
        self.evaluator = evaluator
        self._budget = budget
        self.limit = limit
        self._objective = objective
        self._upper_bound = objective_upper_bound
        self.budget_aligned = budget_aligned
        self._extra = extra
        self.name = name
        # Frontier memo attached by SpaceBundle when a FrontierCache is
        # in play (budget-aligned spaces only); algorithms may ignore it.
        self.frontier = None
        # rank -> single-bit mask of the P-index it denotes
        self._pref_bit: Tuple[Mask, ...] = tuple(1 << p for p in self.vector)
        self._feasible_limit = self.limit + abs(self.limit) * _TOL + _TOL

    @property
    def k(self) -> int:
        return len(self.vector)

    # -- state interpretation ---------------------------------------------------

    def prefs(self, state: State) -> Tuple[int, ...]:
        """Translate a rank state to the P-indices it denotes."""
        return tuple(self.vector[rank] for rank in state)

    def pref_mask(self, state: State) -> Mask:
        """Translate a rank state to the bitmask of its P-indices."""
        bits = self._pref_bit
        mask = 0
        for rank in state:
            mask |= bits[rank]
        return mask

    def budget_value(self, state: State) -> float:
        return self._budget(self.pref_mask(state))

    def within_budget(self, state: State) -> bool:
        return self.budget_value(state) <= self._feasible_limit

    def budget_values(self, states: Sequence[State]) -> List[float]:
        """Budget parameters of many states (one Vertical neighbor batch)."""
        budget = self._budget
        pref_mask = self.pref_mask
        return [budget(pref_mask(state)) for state in states]

    def objective_value(self, state: State) -> float:
        return self._objective(self.pref_mask(state))

    def upper_bound(self, group: int) -> float:
        """Optimistic objective for any state of ``group`` preferences."""
        return self._upper_bound(group)

    def extra_feasible(self, state: State) -> bool:
        if self._extra is None:
            return True
        return self._extra(self.pref_mask(state))

    @property
    def has_extra(self) -> bool:
        return self._extra is not None

    def fully_feasible(self, state: State) -> bool:
        return self.within_budget(state) and self.extra_feasible(state)

    # -- solutions -----------------------------------------------------------------

    def solution_from_prefs(
        self, indices: Sequence[int], algorithm: str, stats: SearchStats
    ) -> CQPSolution:
        """Materialize a solution record from a set of P-indices."""
        prefs = make_state(indices)
        return CQPSolution(
            pref_indices=prefs,
            doi=self.evaluator.doi(prefs),
            cost=self.evaluator.cost(prefs),
            size=self.evaluator.size(prefs),
            algorithm=algorithm,
            stats=stats,
        )

    def solution(self, state: State, algorithm: str, stats: SearchStats) -> CQPSolution:
        """Materialize a solution record from a rank state."""
        return self.solution_from_prefs(self.prefs(state), algorithm, stats)

    # -- transitions (rank-level, delegated) -----------------------------------------

    def horizontal(self, state: State) -> Optional[State]:
        return tr.horizontal(state, self.k)

    def vertical(self, state: State) -> List[State]:
        return tr.vertical(state, self.k)

    def horizontal2(self, state: State) -> List[State]:
        return tr.horizontal2(state, self.k)


class SpaceBundle:
    """Couples an extracted preference space with one CQP problem and
    manufactures the concrete search spaces the algorithms run on.

    Parameter evaluation is cached by default, per Section 5.2.1
    ("Costs that may be re-used are cached. This technique is used in
    all algorithms proposed").
    """

    def __init__(
        self,
        pspace: PreferenceSpace,
        problem: CQPProblem,
        cached: bool = True,
        frontier_cache=None,
    ) -> None:
        from repro.core.estimation import CachedStateEvaluator

        self.pspace = pspace
        self.problem = problem
        # A FrontierCache supplies the shared evaluator (per-state
        # parameters carried across solves) and the frontier memos the
        # budget-aligned spaces warm-start from. Only meaningful with
        # caching on — an uncached bundle is a measurement tool.
        self.frontier_cache = frontier_cache if cached else None
        if self.frontier_cache is not None:
            self.evaluator = self.frontier_cache.evaluator_for(pspace)
        elif cached:
            self.evaluator = CachedStateEvaluator.wrap(pspace.evaluator())
        else:
            self.evaluator = pspace.evaluator()
        self._signature = None

    def _frontier_memo(self, space: SearchSpace):
        """The frontier memo for a budget-aligned space, if cached."""
        if self.frontier_cache is None or not space.budget_aligned:
            return None
        from repro.core.frontier_cache import space_signature

        if self._signature is None:
            self._signature = space_signature(self.pspace)
        return self.frontier_cache.memo_for(self._signature, space.vector, space.name)

    @property
    def k(self) -> int:
        return self.pspace.k

    # -- feasibility pieces --------------------------------------------------------

    def _size_extra(self) -> Optional[Callable[[Mask], bool]]:
        constraints = self.problem.constraints
        if not constraints.has_size_bounds:
            return None
        evaluator = self.evaluator

        def check(mask: Mask) -> bool:
            size = evaluator.size_mask(mask)
            if constraints.smin is not None and size < constraints.smin * (1 - _TOL) - _TOL:
                return False
            if constraints.smax is not None and size > constraints.smax * (1 + _TOL) + _TOL:
                return False
            return True

        return check

    def _smin_only_extra(self) -> Optional[Callable[[Mask], bool]]:
        """The predicate left over when smin drives the budget.

        Without conflicts only the smax side needs re-checking; with
        conflict pairs present the budget runs on the independence
        product, so the conflict-aware smin must be re-checked too.
        """
        constraints = self.problem.constraints
        evaluator = self.evaluator
        if constraints.smax is None and not evaluator.conflicts:
            return None
        if not evaluator.conflicts:
            smax = constraints.smax

            def check(mask: Mask) -> bool:
                return evaluator.size_mask(mask) <= smax * (1 + _TOL) + _TOL

            return check
        return self._size_extra()

    def _independent_size_budget(self) -> Callable[[Mask], float]:
        """−size on the independence product: keeps Vertical moves
        monotone (see :meth:`StateEvaluator.size_independent_mask`);
        conflicts are re-checked by the extra predicate."""
        size_independent_mask = self.evaluator.size_independent_mask

        def budget(mask: Mask) -> float:
            return -size_independent_mask(mask)

        return budget

    def _doi_upper_bound(self, group: int) -> float:
        return self.evaluator.best_doi_of_size(group)

    # -- space constructors ------------------------------------------------------------

    def cost_space(self) -> SearchSpace:
        """The Problem 2/3 cost space: vector C, budget = cost ≤ cmax."""
        cmax = self.problem.constraints.cmax
        if cmax is None:
            raise SearchError("cost space needs a cost upper bound (Problems 2-3)")
        space = SearchSpace(
            vector=self.pspace.vector_c,
            evaluator=self.evaluator,
            budget=self.evaluator.cost_mask,
            limit=cmax,
            objective=self.evaluator.doi_mask,
            objective_upper_bound=self._doi_upper_bound,
            budget_aligned=True,
            extra=self._size_extra(),
            name="cost",
        )
        space.frontier = self._frontier_memo(space)
        return space

    def doi_space(self) -> SearchSpace:
        """The D-algorithm space: vector D, budget from the problem.

        With a cost bound (Problems 2-3) the budget is cost ≤ cmax; with
        only size bounds (Problem 1) it is −size ≤ −smin, mirroring
        :meth:`size_space` — the Section 6 direction flip.
        """
        constraints = self.problem.constraints
        if constraints.cmax is not None:
            budget = self.evaluator.cost_mask
            limit: float = constraints.cmax
            extra = self._size_extra()
        elif constraints.smin is not None:
            budget = self._independent_size_budget()
            limit = -constraints.smin
            extra = self._smin_only_extra()
        else:
            raise SearchError("doi space needs a cost or size constraint")
        return SearchSpace(
            vector=self.pspace.vector_d,
            evaluator=self.evaluator,
            budget=budget,
            limit=limit,
            objective=self.evaluator.doi_mask,
            objective_upper_bound=self._doi_upper_bound,
            budget_aligned=False,
            extra=extra,
            name="doi",
        )

    def aligned_space(self) -> SearchSpace:
        """The budget-aligned space for this problem: C under a cost
        bound, S under a pure size bound."""
        if self.problem.constraints.cmax is not None:
            return self.cost_space()
        return self.size_space()

    def size_space(self) -> SearchSpace:
        """The Problem 1 space (Section 6): vector S, budget = −size ≤ −smin.

        Horizontal moves add the strongest remaining filter (smaller
        result, higher doi); Vertical moves swap in a weaker filter
        (larger result). The smax side — satisfied by *small* groups — is
        handled as an extra predicate during the second phase, the
        UpBoundaries/LowBoundaries device of Section 6 in predicate form.
        """
        constraints = self.problem.constraints
        if constraints.smin is None:
            raise SearchError("size space needs a size lower bound (Problem 1)")
        space = SearchSpace(
            vector=self.pspace.vector_s,
            evaluator=self.evaluator,
            budget=self._independent_size_budget(),
            limit=-constraints.smin,
            objective=self.evaluator.doi_mask,
            objective_upper_bound=self._doi_upper_bound,
            budget_aligned=True,
            extra=self._smin_only_extra(),
            name="size",
        )
        space.frontier = self._frontier_memo(space)
        return space

    def default_space(self) -> SearchSpace:
        """The natural space for the bundle's problem (doi-max problems)."""
        if self.problem.objective is not Parameter.DOI:
            raise SearchError(
                "default_space covers doi-maximization; use repro.core.adapters "
                "for the cost-minimization problems (4-6)"
            )
        if self.problem.constraints.cmax is not None:
            return self.cost_space()
        return self.size_space()
