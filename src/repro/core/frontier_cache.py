"""Cross-request frontier cache: warm-starting constraint sweeps.

For a fixed (query, profile, statistics) triple the mapping from a
state to its (doi, cost, size) parameters is constant — only the
constraint test changes between CQP problems and between constraint
values (Formulas 4, 7, 8; Table 1). :class:`FrontierCache` exploits
that at two levels:

* **Shared state evaluation** — one
  :class:`~repro.core.estimation.CachedStateEvaluator` per preference-
  space *signature* (the parameter arrays themselves — the resultant of
  query, profile, and statistics), reused by every solve against that
  space. A later solve with a different ``cmax``/``smin``/``smax``/
  ``dmin`` re-derives no per-state parameter: every mask it touches is
  already priced. This benefits **all** algorithms, including the
  cost-minimization search of Problems 4–6.

* **Frontier memoization** — the boundary frontier discovered by a
  finished C-BOUNDARIES sweep is stored per (signature, rank vector,
  budget axis, limit). A later solve with the *same* limit skips phase
  1 entirely; a solve with a **tighter** limit warm-starts: the sweep
  resumes downward from the cached boundaries instead of from the root,
  skipping the whole infeasible region above them. Correctness rests on
  the monotone transition effects (Propositions 4–5): in a
  budget-aligned space every boundary under the tighter limit lies
  below some boundary of the looser one, and the connecting Vertical
  chains pass only through states that are infeasible under the tighter
  limit — exactly the states the resumed sweep expands. A looser limit
  finds no seed (its boundaries lie *above* the cached ones, outside
  the cached frontier's cones) and falls back to a cold sweep that
  still rides the shared evaluator.

* **Maximal-boundary memoization** — C-MAXBOUNDS stores the maximal
  boundaries its greedy phase 1 grew in the same memo, under its own
  algorithm name, and a repeat solve at the same limit skips phase 1.
  Phase 1 reads only the budget, never the problem's extra predicates,
  so the stored set is valid for every problem on that space and limit;
  it is reused only on an exact limit match (a greedy set seeds
  nothing) and kept in discovery order, not canonical form, because
  phase 2's tie-breaking follows that order.

C-BOUNDARIES frontiers are stored in **canonical** form — dominance-reduced to the
true minimal boundary set and ordered by (group, rank tuple) — so the
stored frontier is a property of the (space, limit) pair alone, not of
any particular sweep's discovery order.

Invalidation mirrors :class:`~repro.core.param_cache.ParameterCache`:
entries are tagged with the owning ``Database.stats_token`` and the
first :meth:`validate` after the token changes flushes everything;
:meth:`invalidate` is the explicit out-of-band hook. The cache is
thread-safe; solutions are schedule-independent (warm-started searches
are equivalence-guaranteed), though the per-solve *work counters* may
vary with which request warms the cache first.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Dict, Hashable, Iterable, List, Optional, Tuple

import numpy as np

from repro.cache_stats import CacheStatsMixin
from repro.core.estimation import CachedStateEvaluator
from repro.core.state import State

DEFAULT_EVALUATORS = 256
DEFAULT_FRONTIERS = 256
FRONTIER_LIMITS_PER_MEMO = 32

Frontier = Tuple[State, ...]


def canonical_frontier(boundaries: Iterable[State]) -> Frontier:
    """Dominance-reduce and canonically order a recorded boundary list.

    The breadth-first sweep can record a feasible state before the
    boundary covering it (discovery-order races the dequeue check does
    not fully close). Such spurious entries are always *below* a true
    boundary of their group, and true boundaries are never below any
    other feasible state, so dropping every state below another of its
    group leaves exactly the minimal boundary set — the same frontier
    regardless of the sweep that produced it. Ordering is (group size,
    rank tuple), ascending.
    """
    groups: Dict[int, List[State]] = {}
    for state in set(boundaries):
        groups.setdefault(len(state), []).append(state)
    kept: List[State] = []
    for size, members in groups.items():
        if len(members) == 1 or size == 0:
            kept.extend(members)
            continue
        # Minimal elements under componentwise dominance, via broadcast
        # comparison against the whole group; chunked so the (m, n, g)
        # intermediate stays bounded however large the frontier grows.
        matrix = np.array(members, dtype=np.int64)
        n = matrix.shape[0]
        keep = np.ones(n, dtype=bool)
        chunk = max(1, 2_000_000 // (n * size))
        for start in range(0, n, chunk):
            stop = min(start + chunk, n)
            block = matrix[start:stop]
            covered = (block[:, None, :] >= matrix[None, :, :]).all(axis=2)
            covered[np.arange(stop - start), np.arange(start, stop)] = False
            keep[start:stop] = ~covered.any(axis=1)
        kept.extend(members[i] for i in np.nonzero(keep)[0])
    kept.sort(key=lambda s: (len(s), s))
    return tuple(kept)


def space_signature(pspace) -> Tuple:
    """The identity a preference space's parameters define.

    The arrays *are* the resultant of (query, profile, statistics):
    identical arrays evaluate identically whatever produced them, so
    keying on them is always safe — and it also unifies e.g. truncated
    spaces that happen to coincide.
    """
    return (
        tuple(pspace.doi_values),
        tuple(pspace.cost_values),
        tuple(pspace.reductions),
        pspace.base_size,
        pspace.base_cost,
        # The algebra's *semantic* signature, not its object identity:
        # stable across processes, so signatures recorded in a persisted
        # workload snapshot key the same entries after a restart.
        pspace.algebra.signature,
        tuple(sorted(tuple(sorted(pair)) for pair in pspace.conflicts)),
    )


class FrontierMemo:
    """Per-(signature, vector, axis) store of (algorithm, limit) → states.

    C-BOUNDARIES stores its canonical frontier here and C-MAXBOUNDS its
    maximal-boundary set; entries are keyed by algorithm name as well
    as limit, so neither ever reads the other's states (a heuristic
    boundary set is no valid seed for the exact sweep).
    """

    def __init__(self, cache: "FrontierCache") -> None:
        self._cache = cache
        self._entries: "OrderedDict[Tuple[str, float], Frontier]" = OrderedDict()
        # False once the cache has dropped this memo (eviction or flush):
        # an in-flight solve may still store into it, but the cache's
        # running tallies must no longer count what it holds.
        self._attached = True

    def lookup(
        self, limit: float, algorithm: str = "c_boundaries"
    ) -> Tuple[Optional[Frontier], Optional[Frontier]]:
        """``(exact, seeds)`` for an ``algorithm`` solve at ``limit``.

        ``exact`` is the stored entry for this very limit (phase 1 can
        be skipped outright). Otherwise ``seeds`` is the entry of the
        *tightest looser* stored limit — the valid warm-start for a
        downward resume — or ``None`` when only tighter limits (whose
        frontiers sit below the new boundaries) are cached.
        """
        cache = self._cache
        if cache.fault_hook is not None:
            cache.fault_hook("frontier_cache.lookup")
        with cache._lock:
            key = (algorithm, limit)
            exact = self._entries.get(key)
            if exact is not None:
                cache.hits += 1
                self._entries.move_to_end(key)
                return exact, None
            cache.misses += 1
            best_limit: Optional[float] = None
            seeds: Optional[Frontier] = None
            for (stored_algorithm, stored_limit), frontier in self._entries.items():
                if (
                    stored_algorithm == algorithm
                    and stored_limit > limit
                    and (best_limit is None or stored_limit < best_limit)
                ):
                    best_limit = stored_limit
                    seeds = frontier
            return None, seeds

    def store(
        self, limit: float, frontier: Frontier, algorithm: str = "c_boundaries"
    ) -> None:
        cache = self._cache
        key = (algorithm, limit)
        with cache._lock:
            previous = self._entries.pop(key, None)
            self._entries[key] = frontier
            while len(self._entries) > FRONTIER_LIMITS_PER_MEMO:
                _, evicted = self._entries.popitem(last=False)
                if self._attached:
                    cache._uncount(evicted)
                    cache.evictions += 1
            if self._attached:
                if previous is not None:
                    cache._uncount(previous)
                cache._count(frontier)

    def __len__(self) -> int:
        return len(self._entries)


def _frontier_nbytes(frontier: Frontier) -> int:
    """A coarse resident-size estimate of one stored frontier.

    Tuple overhead plus one machine word per rank component — the same
    order of magnitude ``sys.getsizeof`` would report, cheap enough to
    maintain incrementally on every store/evict.
    """
    return 56 + sum(56 + 8 * len(state) for state in frontier)


class FrontierCache(CacheStatsMixin):
    """Shared evaluators + boundary frontiers across solves.

    ``capacity`` bounds the number of distinct space signatures held
    (evaluators and frontier memos evict LRU independently); a capacity
    of 0 disables the cache entirely — every ``evaluator_for`` returns
    a fresh evaluator and no frontier is remembered — which is how the
    benchmarks model cold solves.
    """

    def __init__(self, capacity: int = DEFAULT_EVALUATORS) -> None:
        if capacity < 0:
            raise ValueError("capacity must be >= 0, got %r" % (capacity,))
        self.capacity = capacity
        self._evaluators: "OrderedDict[Tuple, CachedStateEvaluator]" = OrderedDict()
        self._memos: "OrderedDict[Tuple, FrontierMemo]" = OrderedDict()
        self._stats_token: Hashable = None
        self._lock = threading.Lock()
        self._init_stats()
        # Running count and byte estimate of the stored frontiers, kept
        # by store/evict/flush so counters() never walks the memos
        # (evaluator mask caches grow on demand and are estimated from
        # their pinned parameter arrays in counters()).
        self._frontiers = 0
        self._frontier_bytes = 0
        self._evaluator_bytes = 0
        # Fault seam: when set, called (outside the lock) with the site
        # name before every frontier lookup and evaluator fetch. The
        # deterministic injector in repro.testing.faults uses it to
        # evict mid-solve; hooks must only call thread-safe entry points
        # such as invalidate().
        self.fault_hook: Optional[Callable[[str], None]] = None

    # -- validation ----------------------------------------------------------------

    def validate(self, stats_token: Hashable) -> None:
        """Flush everything if the statistics snapshot changed.

        The parameter arrays keying the evaluators already change with
        the statistics (stale entries could never be *served*), but a
        flush on token change keeps dead spaces from occupying the LRU.
        """
        with self._lock:
            if stats_token != self._stats_token:
                if self._evaluators or self._memos:
                    self.invalidations += 1
                self._flush_locked()
                self._stats_token = stats_token

    def invalidate(self) -> None:
        """Explicitly drop every entry (out-of-band statistics mutation)."""
        with self._lock:
            if self._evaluators or self._memos:
                self.invalidations += 1
            self._flush_locked()
            self._stats_token = None

    def _flush_locked(self) -> None:
        """Drop every evaluator and frontier (caller holds the lock).

        Memo *objects* are emptied, not just unmapped: an in-flight
        solve holds its memo directly (``space.frontier``), and an
        eviction drill — or a genuine flush racing a solve — must leave
        it the cold path, not a stale private copy of the entries.
        """
        self._evaluators.clear()
        for memo in self._memos.values():
            memo._entries.clear()
            memo._attached = False
        self._memos.clear()
        self._frontiers = 0
        self._frontier_bytes = 0
        self._evaluator_bytes = 0

    def _count(self, frontier: Frontier) -> None:
        """Tally one stored frontier (caller holds the lock)."""
        self._frontiers += 1
        self._frontier_bytes += _frontier_nbytes(frontier)

    def _uncount(self, frontier: Frontier) -> None:
        """Untally one dropped frontier (caller holds the lock)."""
        self._frontiers -= 1
        self._frontier_bytes -= _frontier_nbytes(frontier)

    # -- the two entry points ------------------------------------------------------

    def evaluator_for(self, pspace) -> CachedStateEvaluator:
        """The shared caching evaluator for a preference space.

        Every solve against an identical parameter signature receives
        the *same* evaluator, so per-state doi/cost/size figures carry
        across constraint values, problems, and algorithms.
        """
        if self.fault_hook is not None:
            self.fault_hook("frontier_cache.evaluator")
        if self.capacity == 0:
            return CachedStateEvaluator.wrap(pspace.evaluator())
        signature = space_signature(pspace)
        with self._lock:
            evaluator = self._evaluators.get(signature)
            if evaluator is not None:
                self._evaluators.move_to_end(signature)
                return evaluator
        evaluator = CachedStateEvaluator.wrap(pspace.evaluator())
        with self._lock:
            existing = self._evaluators.get(signature)
            if existing is not None:
                return existing
            self._evaluators[signature] = evaluator
            self._evaluator_bytes += _evaluator_nbytes(evaluator)
            while len(self._evaluators) > self.capacity:
                _, dropped = self._evaluators.popitem(last=False)
                self._evaluator_bytes -= _evaluator_nbytes(dropped)
                self.evictions += 1
        return evaluator

    def memo_for(self, signature: Tuple, vector: Tuple[int, ...], axis: str
                 ) -> Optional[FrontierMemo]:
        """The frontier memo for one (space signature, vector, axis)."""
        if self.capacity == 0:
            return None
        key = (signature, vector, axis)
        with self._lock:
            memo = self._memos.get(key)
            if memo is None:
                memo = FrontierMemo(self)
                self._memos[key] = memo
                while len(self._memos) > self.capacity:
                    _, dropped = self._memos.popitem(last=False)
                    for frontier in dropped._entries.values():
                        self._uncount(frontier)
                        self.evictions += 1
                    dropped._attached = False
            else:
                self._memos.move_to_end(key)
            return memo

    # -- persistence -----------------------------------------------------------------

    def snapshot(self) -> Dict:
        """The cache's frontier memos as a picklable state blob.

        Evaluators are deliberately *not* captured: they rebuild from a
        preference space in microseconds, and their mask caches are
        process-local numpy state. What is expensive to recompute — the
        canonical frontiers per (signature, vector, axis, limit) — is
        exactly what travels (signatures are process-independent now
        that :func:`space_signature` keys on the algebra's semantic
        signature).
        """
        with self._lock:
            return {
                "kind": "frontier_cache",
                "capacity": self.capacity,
                "memos": [
                    (key, list(memo._entries.items()))
                    for key, memo in self._memos.items()
                ],
            }

    def restore(self, state: Dict, stats_token: Hashable) -> int:
        """Install a :meth:`snapshot` blob under the live ``stats_token``.

        Entries are re-tagged with the *caller's* token: the caller (see
        :mod:`repro.storage.snapshot`) is responsible for proving the
        snapshot was taken against equivalent statistics before handing
        the live token over. Returns the number of frontiers installed.
        """
        if state.get("kind") != "frontier_cache":
            raise ValueError("not a FrontierCache snapshot: %r" % (state.get("kind"),))
        self.validate(stats_token)
        installed = 0
        for key, entries in state["memos"]:
            signature, vector, axis = key
            memo = self.memo_for(signature, tuple(vector), axis)
            if memo is None:
                break  # capacity 0: a disabled cache restores nothing
            for (algorithm, limit), frontier in entries:
                memo.store(limit, tuple(tuple(s) for s in frontier), algorithm)
                installed += 1
        return installed

    # -- introspection -------------------------------------------------------------

    def _stats_entries(self) -> int:
        return self._frontiers

    def _stats_bytes(self) -> int:
        return self._frontier_bytes + self._evaluator_bytes

    def _stats_extra(self) -> Dict[str, int]:
        return {
            "evaluators": len(self._evaluators),
            "frontiers": self._frontiers,
        }

    def counters(self) -> Dict[str, int]:
        """Frontier hit/miss/invalidation tallies plus entry counts.

        The shared telemetry shape (see
        :class:`~repro.cache_stats.CacheStatsMixin`) plus this cache's
        two resident populations (``evaluators``/``frontiers`` —
        ``entries`` aliases the latter).
        """
        with self._lock:
            return super().counters()


def _evaluator_nbytes(evaluator: CachedStateEvaluator) -> int:
    """A coarse estimate of one shared evaluator's pinned parameters.

    Counts the per-preference parameter arrays it was built from; the
    demand-grown mask caches are excluded (they are unbounded work
    memos, not snapshot state).
    """
    return 256 + 24 * 3 * len(evaluator.doi_values)
