"""The Preference Space algorithm (Figure 3).

Given a query Q, a profile U, and the CQP constraints, extract the set
``P`` of selection preferences (atomic and implicit) related to Q, in
decreasing order of doi, together with the three order vectors:

* ``D`` — P-indices by decreasing doi (the extraction order itself),
* ``C`` — P-indices by decreasing ``cost(Q ∧ p)``,
* ``S`` — P-indices by increasing ``size(Q ∧ p)``.

The traversal is best-first on doi: because ``f⊗`` is non-increasing in
path length (Formula 2), popping the highest-doi candidate first yields
``P`` already doi-sorted. Join preferences are never emitted — they are
expanded with their adjacent atomic preferences into longer paths, the
``p ∧ pi`` step of Figure 3, subject to the acyclicity check.

Deviations from the pseudocode (documented in DESIGN.md §4): candidates
violating a *monotone* constraint (cost above ``cmax``, or size below
``smin``) are pruned individually rather than aborting the whole loop —
Figure 3's ``else exit`` is only sound for constraints aligned with the
doi order, which cost and size are not.
"""

from __future__ import annotations

import heapq
import itertools
from bisect import insort
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.core.estimation import ParameterEstimator, StateEvaluator
from repro.core.param_cache import ParameterCache
from repro.core.problem import Constraints
from repro.errors import PreferenceError, SearchError
from repro.preferences.composition import DoiAlgebra, PRODUCT_ALGEBRA
from repro.preferences.graph import PersonalizationGraph
from repro.preferences.model import AtomicPreference, PreferencePath
from repro.preferences.profile import UserProfile
from repro.sql.ast_nodes import SelectQuery
from repro.storage.database import Database
from repro.utils.timing import Stopwatch

DEFAULT_MAX_PATH_LENGTH = 5


@dataclass
class PreferenceSpace:
    """The output of Figure 3: P, its parameters, and the order vectors."""

    query: SelectQuery
    paths: List[PreferencePath]
    doi_values: List[float]
    cost_values: List[float]
    size_values: List[float]
    reductions: List[float]
    base_cost: float
    base_size: float
    algebra: DoiAlgebra
    vector_d: List[int]
    vector_c: List[int]
    vector_s: List[int]
    selection_times: Dict[str, float] = field(default_factory=dict)
    conflicts: List[Tuple[int, int]] = field(default_factory=list)
    # Parameter-cache lookups the extraction made; a memoized space
    # replays them as hits (see ParameterCache.space).
    cache_lookups: int = 0

    @property
    def k(self) -> int:
        """K — the cardinality of P."""
        return len(self.paths)

    def evaluator(self) -> StateEvaluator:
        """A fresh state evaluator over this space's parameter arrays."""
        return StateEvaluator(
            doi_values=self.doi_values,
            cost_values=self.cost_values,
            reductions=self.reductions,
            base_size=self.base_size,
            base_cost=self.base_cost,
            algebra=self.algebra,
            conflicts=self.conflicts,
        )

    def supreme_cost(self) -> float:
        """Cost of the personalized query using all K preferences."""
        return sum(self.cost_values)

    def truncated(self, k: int) -> "PreferenceSpace":
        """The space restricted to the top-``k`` preferences by doi.

        The experiments sweep K by truncating one extracted space rather
        than re-running extraction, exactly as "the number of preferences
        K extracted from the profile and used by a CQP algorithm".
        """
        if k >= self.k:
            return self
        keep = set(range(k))
        return PreferenceSpace(
            query=self.query,
            paths=self.paths[:k],
            doi_values=self.doi_values[:k],
            cost_values=self.cost_values[:k],
            size_values=self.size_values[:k],
            reductions=self.reductions[:k],
            base_cost=self.base_cost,
            base_size=self.base_size,
            algebra=self.algebra,
            vector_d=[i for i in self.vector_d if i in keep],
            vector_c=[i for i in self.vector_c if i in keep],
            vector_s=[i for i in self.vector_s if i in keep],
            selection_times=dict(self.selection_times),
            conflicts=[(a, b) for a, b in self.conflicts if a in keep and b in keep],
        )


def _prunable(
    estimator: ParameterEstimator,
    path: PreferencePath,
    constraints: Optional[Constraints],
) -> bool:
    """True when no extension of ``path`` can satisfy the constraints.

    Only monotone-safe prunes are applied: extending a path adds scans
    (cost never decreases) and multiplies reduction factors ≤ 1 (size
    never increases), so a path already above ``cmax`` or below ``smin``
    is dead along with its whole subtree.
    """
    if constraints is None:
        return False
    if constraints.cmax is None and constraints.smin is None:
        return False
    cost, reduction = estimator.priced(path)
    if constraints.cmax is not None and cost > constraints.cmax:
        return True
    if (
        constraints.smin is not None
        and estimator.base_size * reduction < constraints.smin
    ):
        return True
    return False


def extract_preference_space(
    database: Database,
    query: SelectQuery,
    profile: UserProfile,
    constraints: Optional[Constraints] = None,
    algebra: DoiAlgebra = PRODUCT_ALGEBRA,
    k_limit: Optional[int] = None,
    max_path_length: int = DEFAULT_MAX_PATH_LENGTH,
    param_cache: Optional[ParameterCache] = None,
) -> PreferenceSpace:
    """Run the Preference Space algorithm and price every preference.

    ``param_cache`` (optional) memoizes per-path (cost, reduction)
    pricing across calls — see :mod:`repro.core.param_cache`.
    """
    if k_limit is not None and k_limit <= 0:
        raise SearchError("k_limit must be positive, got %r" % (k_limit,))
    graph = PersonalizationGraph(database.schema, profile)
    estimator = ParameterEstimator(
        database, query, algebra=algebra, param_cache=param_cache
    )

    extract_watch = Stopwatch()
    c_watch = Stopwatch()
    s_watch = Stopwatch()

    paths: List[PreferencePath] = []
    doi_values: List[float] = []
    cost_values: List[float] = []
    size_values: List[float] = []
    reductions: List[float] = []
    # Incrementally maintained rank vectors (the paper's addrank): each
    # holds (sort key, P-index) pairs kept sorted by bisect insertion.
    c_keys: List[Tuple[float, int]] = []
    s_keys: List[Tuple[float, int]] = []

    with extract_watch:
        counter = itertools.count()  # FIFO tie-break keeps extraction stable
        queue: List[Tuple[float, int, PreferencePath]] = []
        seen: Set[Tuple[object, ...]] = set()

        query_relations = {table.relation for table in query.from_tables}
        for relation in sorted(query_relations):
            for preference in graph.preferences_anchored_at(relation):
                path = PreferencePath([preference])
                if path.conditions in seen:
                    continue
                seen.add(path.conditions)
                if not _prunable(estimator, path, constraints):
                    heapq.heappush(queue, (-path.doi(algebra), next(counter), path))

        while queue:
            negative_doi, _, path = heapq.heappop(queue)
            if path.is_selection:
                index = len(paths)
                paths.append(path)
                doi_values.append(-negative_doi)
                cost, reduction = estimator.priced(path)
                cost_values.append(cost)
                reductions.append(reduction)
                size_values.append(estimator.base_size * reduction)
                with c_watch:
                    insort(c_keys, (-cost, index))
                with s_watch:
                    insort(s_keys, (size_values[-1], index))
                if k_limit is not None and len(paths) >= k_limit:
                    break
                continue
            # Join path: expand with adjacent atomic preferences.
            if len(path) >= max_path_length:
                continue
            for adjacent in graph.preferences_anchored_at(path.frontier_relation):
                extension = _try_extend(path, adjacent)
                if extension is None or extension.conditions in seen:
                    continue
                seen.add(extension.conditions)
                if not _prunable(estimator, extension, constraints):
                    heapq.heappush(
                        queue, (-extension.doi(algebra), next(counter), extension)
                    )

    return PreferenceSpace(
        query=query,
        paths=paths,
        doi_values=doi_values,
        cost_values=cost_values,
        size_values=size_values,
        reductions=reductions,
        base_cost=estimator.base_cost,
        base_size=estimator.base_size,
        algebra=algebra,
        vector_d=list(range(len(paths))),
        vector_c=[index for _, index in c_keys],
        vector_s=[index for _, index in s_keys],
        selection_times={
            "d": extract_watch.elapsed - c_watch.elapsed - s_watch.elapsed,
            "c": extract_watch.elapsed - s_watch.elapsed,
            "s": extract_watch.elapsed - c_watch.elapsed,
        },
        conflicts=_path_conflicts(paths),
        cache_lookups=estimator.cache_lookups,
    )


def _path_conflicts(paths: List[PreferencePath]) -> List[Tuple[int, int]]:
    """Pairs of paths whose selections are provably unsatisfiable together
    (e.g. two different equality values on the same attribute)."""
    from repro.preferences.model import SelectionCondition, selection_conflicts

    selections = [
        [c for c in path.conditions if isinstance(c, SelectionCondition)]
        for path in paths
    ]
    conflicts: List[Tuple[int, int]] = []
    for i in range(len(paths)):
        for j in range(i + 1, len(paths)):
            if any(
                selection_conflicts(a, b)
                for a in selections[i]
                for b in selections[j]
            ):
                conflicts.append((i, j))
    return conflicts


def _try_extend(
    path: PreferencePath, adjacent: AtomicPreference
) -> Optional[PreferencePath]:
    """``path ∧ adjacent`` if adjacent and acyclic, else ``None``."""
    try:
        return path.extended(adjacent)
    except PreferenceError:
        return None
