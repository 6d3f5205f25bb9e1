"""Parameter estimation (Section 4.3 and 7.1).

Two layers:

* :class:`ParameterEstimator` prices one preference *path* against the
  original query — the cost of the sub-query integrating that path
  (``b × Σ blocks``), and the multiplicative reduction the path applies
  to the query's result size.
* :class:`StateEvaluator` combines per-preference figures into the
  parameters of a *state* (a set of preferences), incrementally cheap:

  - ``doi(Px) = r(doi(p1), …, doi(pL))``          (Formula 5/10)
  - ``cost(Qx) = Σ cost(qi)``                      (Formula 6/11)
  - ``size(Q ∧ Px) = size(Q) × Π reduction(pi)``   (clamped factors,
    so Formula 8's partial order holds exactly)
"""

from __future__ import annotations

import math
from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

if TYPE_CHECKING:  # circular-import guard: the cache prices via us
    from repro.core.param_cache import ParameterCache

from repro.core.rewriter import QueryRewriter
from repro.core.state import Mask, mask_of
from repro.errors import SearchError
from repro.preferences.composition import DoiAlgebra, PRODUCT_ALGEBRA
from repro.preferences.model import PreferencePath
from repro.sql.ast_nodes import SelectQuery
from repro.sql.cardinality import CardinalityEstimator
from repro.sql.cost import CostModel
from repro.sql.printer import to_sql
from repro.storage.database import Database


class ParameterEstimator:
    """Prices preference paths against one original query.

    When given a :class:`~repro.core.param_cache.ParameterCache`, the
    per-path (cost, reduction) pair is memoized across requests under
    the ``(query SQL, path conditions, db statistics version)``
    fingerprint — re-pricing the same path for the same query against
    unchanged statistics is pure recomputation (Section 5.2.1's caching
    argument applied one layer down).
    """

    def __init__(
        self,
        database: Database,
        query: SelectQuery,
        algebra: DoiAlgebra = PRODUCT_ALGEBRA,
        param_cache: Optional["ParameterCache"] = None,
    ) -> None:
        self.database = database
        self.query = query
        self.algebra = algebra
        self.rewriter = QueryRewriter(query, schema=database.schema)
        self.cost_model = CostModel(database)
        self.cardinality = CardinalityEstimator(database)
        self.base_cost = self.cost_model.cost_ms(query)
        self.base_size = self.cardinality.estimate(query)
        self.param_cache = param_cache
        self._query_fingerprint = to_sql(query) if param_cache is not None else ""
        self.cache_lookups = 0  # param_cache.price calls made so far

    def subquery(self, path: PreferencePath) -> SelectQuery:
        """The sub-query ``q_i`` integrating one preference (Section 4.2)."""
        return self.rewriter.subquery(path)

    # -- per-path parameters ---------------------------------------------------------

    def path_doi(self, path: PreferencePath) -> float:
        return path.doi(self.algebra)

    def path_cost(self, path: PreferencePath) -> float:
        """cost(Q ∧ p): block scans of Q's relations plus the path's."""
        return self.cost_model.cost_ms(self.subquery(path))

    def path_reduction(self, path: PreferencePath) -> float:
        """Multiplicative size factor of the path, clamped to [0, 1]."""
        tables, conditions = self.rewriter.integration(path)
        return self.cardinality.reduction_factor(self.query, tables, conditions)

    def path_size(self, path: PreferencePath) -> float:
        """size(Q ∧ p) = size(Q) × reduction(p)."""
        return self.base_size * self.path_reduction(path)

    def priced(self, path: PreferencePath) -> Tuple[float, float]:
        """(cost, reduction) of a path, via the cross-request cache if any."""
        if self.param_cache is None:
            return self.path_cost(path), self.path_reduction(path)
        self.cache_lookups += 1
        return self.param_cache.price(
            self._query_fingerprint,
            path,
            self.database.stats_token,
            lambda: (self.path_cost(path), self.path_reduction(path)),
        )


class StateEvaluator:
    """Computes doi/cost/size of preference sets from per-preference arrays.

    Indices here are positions into ``P`` (the doi-ordered preference
    list), not ranks; spaces translate ranks → P-indices first.

    Every parameter has one formula body, over int-bitmask states
    (``doi_mask/cost_mask/size_mask/size_independent_mask``): set bits
    are gathered in ascending P-index order, conflict pairs are checked
    as ``mask & pair == pair``, and (in the cached subclass) a state's
    cache key is the mask itself. ``doi/cost/size/size_independent``
    take an index sequence and convert it with
    :func:`~repro.core.state.mask_of`, for callers that hold tuples (the
    brute-force oracle, the minimal-state search, Pareto sweeps).
    """

    def __init__(
        self,
        doi_values: Sequence[float],
        cost_values: Sequence[float],
        reductions: Sequence[float],
        base_size: float,
        base_cost: float = 0.0,
        algebra: DoiAlgebra = PRODUCT_ALGEBRA,
        conflicts: Iterable[Iterable[int]] = (),
    ) -> None:
        lengths = {len(doi_values), len(cost_values), len(reductions)}
        if len(lengths) != 1:
            raise SearchError("parameter arrays disagree in length: %r" % lengths)
        self.doi_values = list(doi_values)
        self.cost_values = list(cost_values)
        self.reductions = list(reductions)
        self.base_size = base_size
        self.base_cost = base_cost
        self.algebra = algebra
        self.conflicts = conflicts
        self.evaluations = 0
        self._dois_descending = sorted(self.doi_values, reverse=True)

    @property
    def conflicts(self) -> FrozenSet[FrozenSet[int]]:
        """Pairs of mutually exclusive preferences.

        Equality selections on the same attribute with different values
        have a provably empty conjunction, which the independence
        product cannot see. :meth:`size_mask` pins such states to
        exactly 0, and Formula (8) still holds — supersets of a
        conflicted state stay conflicted at 0. Assigning the pairs also
        rebuilds ``conflict_masks``, their two-bit masks, so the two
        never disagree.
        """
        return self._conflicts

    @conflicts.setter
    def conflicts(self, pairs: Iterable[Iterable[int]]) -> None:
        self._conflicts = frozenset(frozenset(pair) for pair in pairs)
        self.conflict_masks: Tuple[Mask, ...] = tuple(
            sorted(mask_of(pair) for pair in self._conflicts)
        )

    def _conflicted_mask(self, mask: Mask) -> bool:
        return any(mask & pair == pair for pair in self.conflict_masks)

    def _gather(self, values: List[float], mask: Mask) -> List[float]:
        """The values selected by a mask's set bits (ascending index)."""
        out: List[float] = []
        while mask:
            low = mask & -mask
            out.append(values[low.bit_length() - 1])
            mask ^= low
        return out

    def __len__(self) -> int:
        return len(self.doi_values)

    # -- the formulas -----------------------------------------------------------------

    def doi_mask(self, mask: Mask) -> float:
        """doi of the conjunction (Formula 3); 0 for the empty set."""
        self.evaluations += 1
        if not mask:
            return 0.0
        return self.algebra.conjunction_doi(self._gather(self.doi_values, mask))

    def cost_mask(self, mask: Mask) -> float:
        """Σ sub-query costs (Formula 6); the bare query's cost when empty."""
        self.evaluations += 1
        if not mask:
            return self.base_cost
        return sum(self._gather(self.cost_values, mask))

    def size_mask(self, mask: Mask) -> float:
        """size(Q) × Π reductions — monotone non-increasing in the set;
        exactly 0 for states containing mutually exclusive preferences."""
        self.evaluations += 1
        if self._conflicted_mask(mask):
            return 0.0
        return self.base_size * math.prod(self._gather(self.reductions, mask))

    def size_independent_mask(self, mask: Mask) -> float:
        """The pure independence product, ignoring conflicts.

        An upper bound on :meth:`size_mask`. The Problem 1 search uses it
        as the budget parameter: the conflict zeroing makes the true size
        non-monotone along Vertical moves in the S-vector (a swap can
        *introduce* a conflict), which would break the boundary
        machinery; the independence product keeps the alignment, and the
        conflict-aware window is enforced as an exact extra predicate.
        Bypasses the size cache of the cached subclass.
        """
        self.evaluations += 1
        return self.base_size * math.prod(self._gather(self.reductions, mask))

    # -- index-sequence entry points ----------------------------------------------------

    def doi(self, indices: Iterable[int]) -> float:
        return self.doi_mask(mask_of(indices))

    def cost(self, indices: Iterable[int]) -> float:
        return self.cost_mask(mask_of(indices))

    def size(self, indices: Iterable[int]) -> float:
        return self.size_mask(mask_of(indices))

    def size_independent(self, indices: Iterable[int]) -> float:
        return self.size_independent_mask(mask_of(indices))

    # -- stacked mask entry points (vectorized, bit-identical) -------------------------

    def cost_mask_stacked(self, masks) -> "object":
        """Costs of a *stacked* numpy vector of mask states.

        One numpy program instead of a Python loop: the per-preference
        cost is added into every selected accumulator slot in ascending
        P-index order — the exact order :meth:`cost_mask`'s gather sums
        in — so each figure is the same IEEE-754 left-to-right sum the
        scalar kernel produces, bit for bit. Results bypass the caches
        of the cached subclass (the caller typically covers the whole
        mask space once; caching would only duplicate the table).
        """
        import numpy as np

        masks = np.asarray(masks, dtype=np.int64)
        self.evaluations += int(masks.size)
        out = np.zeros(masks.shape, dtype=np.float64)
        for index, value in enumerate(self.cost_values):
            out[(masks >> index) & 1 == 1] += value
        if self.base_cost:
            out[masks == 0] = self.base_cost
        return out

    def size_independent_mask_stacked(self, masks) -> "object":
        """Independence-product sizes of a stacked mask vector.

        Mirrors :meth:`size_independent_mask` exactly: the reduction
        product accumulates in ascending P-index order starting from 1,
        and ``base_size`` multiplies the finished product — the same
        operation order, so the same bits.
        """
        import numpy as np

        masks = np.asarray(masks, dtype=np.int64)
        self.evaluations += int(masks.size)
        acc = np.ones(masks.shape, dtype=np.float64)
        for index, value in enumerate(self.reductions):
            acc[(masks >> index) & 1 == 1] *= value
        return self.base_size * acc

    def supreme_cost(self) -> float:
        """Cost of the query incorporating *all* preferences — the paper's
        Supreme Cost, the 100% point of the cmax sweeps."""
        return sum(self.cost_values)

    def cache_info(self) -> Dict[str, int]:
        """Cache statistics; the plain evaluator has no cache."""
        return {"hits": 0, "misses": self.evaluations}

    def best_doi_of_size(self, size: int) -> float:
        """Upper bound on the doi of any state with ``size`` preferences.

        Formula 4 makes doi inclusion-monotone and the conjunction is
        monotone in each argument, so the top-``size`` dois bound every
        state of that group: the BestExpectedDoi device of C_FINDMAXDOI.
        """
        size = min(size, len(self._dois_descending))
        if size <= 0:
            return 0.0
        return self.algebra.conjunction_doi(self._dois_descending[:size])


class CachedStateEvaluator(StateEvaluator):
    """A state evaluator with result caching (Section 5.2.1).

    The paper: "Since Formula (6) permits incremental cost computation,
    cost(.) has been implemented in this way. Costs that may be re-used
    are cached. This technique is used in all algorithms proposed."
    Search algorithms re-evaluate near-identical states constantly (a
    Vertical neighbor differs in one preference), so caching pays off;
    `bench_ablations.py` quantifies it.

    Caches key on the state's bitmask — one int per state, no
    ``tuple(sorted(...))`` per call; the index-sequence entry points
    convert to a mask first and so share the same hits. ``evaluations``
    counts *every* parameter request, hit or miss (invariant:
    ``evaluations == hits + misses`` when only cached entry points are
    used), keeping ``SearchStats.parameter_evaluations`` comparable
    between cached and uncached runs. :meth:`size_independent_mask`
    stays uncached and bypasses the conflict zeroing by design (see its
    base docstring).
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._doi_cache: Dict[Mask, float] = {}
        self._cost_cache: Dict[Mask, float] = {}
        self._size_cache: Dict[Mask, float] = {}
        self.cache_hits = 0
        self.cache_misses = 0

    @classmethod
    def wrap(cls, evaluator: StateEvaluator) -> "CachedStateEvaluator":
        """A caching evaluator over an existing evaluator's parameters."""
        return cls(
            doi_values=evaluator.doi_values,
            cost_values=evaluator.cost_values,
            reductions=evaluator.reductions,
            base_size=evaluator.base_size,
            base_cost=evaluator.base_cost,
            algebra=evaluator.algebra,
            conflicts=evaluator.conflicts,
        )

    def _cached(self, cache: Dict[Mask, float], compute, mask: Mask) -> float:
        value = cache.get(mask)
        if value is not None:
            self.cache_hits += 1
            self.evaluations += 1  # hits count as evaluations too
            return value
        self.cache_misses += 1
        value = compute(mask)  # the base *_mask kernel bumps evaluations
        cache[mask] = value
        return value

    # -- mask entry points (the caches live here) -------------------------------------

    def doi_mask(self, mask: Mask) -> float:
        return self._cached(self._doi_cache, super().doi_mask, mask)

    def cost_mask(self, mask: Mask) -> float:
        return self._cached(self._cost_cache, super().cost_mask, mask)

    def size_mask(self, mask: Mask) -> float:
        return self._cached(self._size_cache, super().size_mask, mask)

    def cache_info(self) -> Dict[str, int]:
        return {"hits": self.cache_hits, "misses": self.cache_misses}
