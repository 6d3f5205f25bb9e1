"""Algorithm C-MAXBOUNDS (Figure 7) — greedy maximal boundaries.

C-BOUNDARIES emits a superset of the boundaries needed: some are subsets
of others (hence dominated in doi) or reachable from others. C-MAXBOUNDS
instead grows *maximal* boundaries greedily: each round seeds from the
most expensive not-yet-examined preference ``c_k`` and inflates it with
``Horizontal2`` insertions (most expensive first) as long as the budget
holds; Vertical neighbors of each maximal boundary that still contain
the seed continue the round. Rounds stop once a maximal boundary already
covers every remaining preference (``k + LastSolutionSize > K``).

Heuristic: the maximal-boundary set may miss the region containing the
optimum, though in practice the quality gap is ~1e-7 (Figure 14).

Deviations from the pseudocode (DESIGN.md §4): the ``Horizontal2`` loop
exits when no insertion fits (as written it would spin forever), and a
feasible seed that admits no extension is still recorded (as written,
``R ≠ R0`` silently drops it, returning "infeasible" under tight budgets
where singleton solutions exist).

With a :class:`~repro.core.frontier_cache.FrontierMemo` attached to the
space, the maximal boundaries are stored under this algorithm's name
and limit; a repeat solve at the same limit skips phase 1 and runs only
the second phase, which re-checks the problem's own extra constraints.
"""

from __future__ import annotations

from collections import deque
from typing import List, Optional, Set, Tuple

from repro.core.algorithms.base import (
    CQPAlgorithm,
    PruneBook,
    find_max_doi_below,
    greedy_extend,
    register,
)
from repro.core.space import SearchSpace
from repro.core.state import State
from repro.core.stats import SearchStats, container_bytes


def _find_max_bound(
    space: SearchSpace,
    seed_rank: int,
    max_bounds: List[State],
    seen_bounds: Set[State],
    book: PruneBook,
    stats: SearchStats,
    queue: "deque[State]",
) -> None:
    """One round of FINDMAXBOUND: grow maximal boundaries containing the seed."""
    start: State = (seed_rank,)
    # Figure 7 enqueues the seed unconditionally (only Vertical neighbors
    # go through prune): a seed below an earlier boundary can still grow
    # into a new maximal boundary.
    if book.seen(start):
        return
    book.mark(start)
    queue.append(start)
    while queue:
        state = queue.popleft()
        stats.examined()
        if not space.within_budget(state):
            # Inserting preferences only raises the budget, so an
            # infeasible node cannot be extended into a boundary.
            continue
        grown = greedy_extend(space, state, stats)
        if grown not in seen_bounds:
            seen_bounds.add(grown)
            max_bounds.insert(0, grown)  # push: most recent at the head
            book.add_boundary(grown)
        for neighbor in space.vertical(grown):
            if seed_rank not in neighbor:
                continue  # this round only builds boundaries containing c_k
            if not book.prune(neighbor):
                stats.moved()
                queue.append(neighbor)
        stats.sample_memory()


@register
class CMaxBounds(CQPAlgorithm):
    """Greedy maximal boundaries + best-doi-below search."""

    name = "c_maxbounds"
    exact = False
    space_kind = "cost"

    def _search(
        self, space: SearchSpace, stats: SearchStats
    ) -> Optional[Tuple[int, ...]]:
        memo = space.frontier
        if memo is None:
            return find_max_doi_below(space, self._max_bounds(space, stats), stats)
        # Phase 1 depends on the space and its limit alone, so a repeat
        # solve at this exact limit reuses the stored maximal boundaries
        # (in discovery order, which phase 2's tie-breaking follows).
        stored, _ = memo.lookup(space.limit, self.name)
        if stored is not None:
            stats.frontier_cache_hits += 1
            max_bounds = stored
        else:
            stats.frontier_cache_misses += 1
            max_bounds = tuple(self._max_bounds(space, stats))
            memo.store(space.limit, max_bounds, self.name)
        return find_max_doi_below(space, max_bounds, stats)

    @staticmethod
    def _max_bounds(space: SearchSpace, stats: SearchStats) -> List[State]:
        """Phase 1: the maximal boundaries, most recently grown first."""
        max_bounds: List[State] = []
        seen_bounds: Set[State] = set()
        book = PruneBook()
        queue: "deque[State]" = deque()
        stats.track_container("RQ", lambda: container_bytes(queue))
        stats.track_container("MaxBounds", lambda: container_bytes(max_bounds))

        last_solution_size = 0
        seed = 0
        while seed < space.k and seed + last_solution_size < space.k:
            _find_max_bound(space, seed, max_bounds, seen_bounds, book, stats, queue)
            if max_bounds:
                last_solution_size = len(max_bounds[0])
            seed += 1
        return max_bounds
