"""Cross-request parameter cache.

Every personalization request re-prices the preference paths it
considers: per path, one sub-query construction plus one cost-model and
one cardinality estimation (`ParameterEstimator.path_cost` /
`path_reduction`). For a service answering many requests those figures
are pure functions of *(query AST, preference path, database
statistics)* — the profile only decides *which* paths are considered
and their dois, not what they cost. :class:`ParameterCache` memoizes
the (cost, reduction) pair under exactly that fingerprint:

* **query** — its printed SQL (canonical for the AST);
* **path** — its condition tuple (what :class:`PreferencePath` hashes
  by);
* **statistics** — the owning database's ``stats_token``, which changes
  on every ``analyze()``, data load, or index build.

One level up, the same cache memoizes whole extractions
(:meth:`ParameterCache.space`): the preference space Figure 3 extracts
is a pure function of the profile's content, the query, the pruning
constraints (``cmax``/``smin``), ``k_limit``, the doi algebra, the path
length bound and the statistics, so a repeat request skips the profile
walk altogether. Spaces share the entries' validity contract and
telemetry block.

Invalidation is automatic: entries are tagged with the statistics token
they were priced under, and the first access after the token changes
flushes the cache. :meth:`invalidate` is the explicit hook for callers
that mutate statistics out of band.

The cache is thread-safe (one lock around the memo) so the batched
service path can fan requests out across a pool while sharing it.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Dict, Hashable, Optional, Tuple

from repro.cache_stats import CacheStatsMixin
from repro.preferences.model import PreferencePath

PricePair = Tuple[float, float]  # (cost, reduction)

DEFAULT_CAPACITY = 65536
# A memoized extraction holds a whole preference space — a few dozen
# priced paths — so the space memo gets one slot per this many entries
# of capacity (1024 spaces at the default).
ENTRIES_PER_SPACE = 64


class ParameterCache(CacheStatsMixin):
    """Keyed memo of per-path (cost, reduction) pricing across requests.

    ``capacity`` bounds the entry count with LRU eviction; a capacity of
    0 disables storage entirely (every lookup misses), which is how the
    benchmarks model the seed's cache-less behaviour. The extraction
    memo is bounded at ``capacity // ENTRIES_PER_SPACE`` spaces (at
    least one while the cache is enabled), also LRU.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 0:
            raise ValueError("capacity must be >= 0, got %r" % (capacity,))
        self.capacity = capacity
        self._entries: "OrderedDict[Tuple[str, Tuple], PricePair]" = OrderedDict()
        self._spaces: "OrderedDict[Tuple, Any]" = OrderedDict()
        self.space_hits = 0
        self.space_misses = 0
        self._stats_token: Hashable = None
        self._lock = threading.Lock()
        self._init_stats()
        self._bytes = 0  # incrementally maintained entry-size estimate
        # Fault seam: when set, called (outside the lock) with the site
        # name at the top of every lookup. The deterministic injector in
        # repro.testing.faults uses it to evict mid-solve; it must only
        # call thread-safe entry points such as invalidate().
        self.fault_hook: Optional[Callable[[str], None]] = None

    def __len__(self) -> int:
        return len(self._entries)

    # -- the one entry point -----------------------------------------------------

    def price(
        self,
        query_fingerprint: str,
        path: PreferencePath,
        stats_token: Hashable,
        compute: Callable[[], PricePair],
    ) -> PricePair:
        """The (cost, reduction) of ``path`` against the query, memoized.

        ``stats_token`` identifies the statistics snapshot the pricing
        is valid for; a token change flushes every entry (statistics
        mutations invalidate all cost-model and cardinality inputs at
        once — selective eviction would buy nothing).
        """
        if self.fault_hook is not None:
            self.fault_hook("param_cache.price")
        key = (query_fingerprint, path.conditions)
        with self._lock:
            self._validate_locked(stats_token)
            value = self._entries.get(key)
            if value is not None:
                self.hits += 1
                self._entries.move_to_end(key)
                return value
            self.misses += 1
        value = compute()  # outside the lock: pricing may be slow
        with self._lock:
            if stats_token == self._stats_token and self.capacity > 0:
                if key not in self._entries:
                    self._bytes += _entry_nbytes(key)
                self._entries[key] = value
                if len(self._entries) > self.capacity:
                    evicted_key, _ = self._entries.popitem(last=False)
                    self._bytes -= _entry_nbytes(evicted_key)
                    self.evictions += 1
        return value

    def space(self, key: Tuple, stats_token: Hashable, compute: Callable[[], Any]):
        """The preference space extracted for ``key``, memoized.

        ``key`` must name every input of the extraction except the
        statistics, which ``stats_token`` covers exactly as in
        :meth:`price`. The returned space is shared by every request
        that hits it, so callers must treat it as read-only.

        Telemetry reads as if the extraction had re-run against this
        warm cache: a hit replays the space's ``cache_lookups`` pricing
        lookups as hits, and a miss counts only the lookups its
        extraction makes. Spaces count in ``entries`` and the byte
        estimate; ``space_hits``/``space_misses`` tally this memo's own
        lookups.
        """
        with self._lock:
            self._validate_locked(stats_token)
            pspace = self._spaces.get(key)
            if pspace is not None:
                self.hits += pspace.cache_lookups
                self.space_hits += 1
                self._spaces.move_to_end(key)
                return pspace
            self.space_misses += 1
        pspace = compute()  # outside the lock: extraction prices paths
        with self._lock:
            limit = self._space_capacity()
            if stats_token == self._stats_token and limit > 0:
                previous = self._spaces.pop(key, None)
                if previous is not None:
                    self._bytes -= _space_nbytes(previous)
                self._spaces[key] = pspace
                self._bytes += _space_nbytes(pspace)
                while len(self._spaces) > limit:
                    _, evicted = self._spaces.popitem(last=False)
                    self._bytes -= _space_nbytes(evicted)
                    self.evictions += 1
        return pspace

    def _space_capacity(self) -> int:
        if self.capacity == 0:
            return 0
        return max(1, self.capacity // ENTRIES_PER_SPACE)

    # -- maintenance ---------------------------------------------------------------

    def _validate_locked(self, stats_token: Hashable) -> None:
        """Flush everything priced under another statistics snapshot
        (caller holds the lock)."""
        if stats_token != self._stats_token:
            self._flush_locked()
            self._stats_token = stats_token

    def _flush_locked(self) -> None:
        if self._entries or self._spaces:
            self.invalidations += 1
        self._entries.clear()
        self._spaces.clear()
        self._bytes = 0

    def invalidate(self) -> None:
        """Explicitly drop every entry (statistics changed out of band)."""
        with self._lock:
            self._flush_locked()
            self._stats_token = None

    # -- persistence -----------------------------------------------------------------

    def snapshot(self) -> Dict:
        """The priced entries as a picklable state blob (keys are the
        query-SQL/condition-tuple fingerprints, which pickle by value)."""
        with self._lock:
            return {
                "kind": "param_cache",
                "capacity": self.capacity,
                "entries": list(self._entries.items()),
            }

    def restore(self, state: Dict, stats_token: Hashable) -> int:
        """Install a :meth:`snapshot` blob under the live ``stats_token``.

        The caller vouches that the snapshot's statistics are equivalent
        to the live database's (see :mod:`repro.storage.snapshot` for
        the fingerprint proof); entries are merged into whatever is
        already cached under that token. Returns entries installed.
        """
        if state.get("kind") != "param_cache":
            raise ValueError("not a ParameterCache snapshot: %r" % (state.get("kind"),))
        installed = 0
        with self._lock:
            if stats_token != self._stats_token:
                self._entries.clear()
                self._spaces.clear()
                self._bytes = 0
                self._stats_token = stats_token
            if self.capacity == 0:
                return 0
            for key, value in state["entries"]:
                key = (key[0], tuple(key[1]))
                if key not in self._entries:
                    self._bytes += _entry_nbytes(key)
                    installed += 1
                self._entries[key] = value
                if len(self._entries) > self.capacity:
                    evicted_key, _ = self._entries.popitem(last=False)
                    self._bytes -= _entry_nbytes(evicted_key)
                    self.evictions += 1
        return installed

    def _stats_entries(self) -> int:
        return len(self._entries) + len(self._spaces)

    def _stats_bytes(self) -> int:
        return self._bytes

    def counters(self) -> Dict[str, int]:
        with self._lock:
            return super().counters()


def _entry_nbytes(key: Tuple[str, Tuple]) -> int:
    """A coarse per-entry size estimate: the SQL fingerprint string, one
    condition object per path hop, and the two-float value."""
    fingerprint, conditions = key
    return 160 + len(fingerprint) + 96 * len(conditions)


def _space_nbytes(pspace) -> int:
    """A coarse per-space size estimate: the record itself plus, per
    path, its condition tuple, four floats and three rank entries."""
    return 512 + 256 * pspace.k
