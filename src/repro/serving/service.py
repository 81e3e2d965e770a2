"""Multi-query search serving with a bounded LRU result cache.

:class:`QueryService` wraps one indexed
:class:`~repro.search.base.TableUnionSearcher` and serves multi-query
workloads:

* **Serving** — :meth:`search` and :meth:`search_many` run the exact
  single-query code path of :meth:`TableUnionSearcher.search`, in-process and
  in input order, so served rankings are bit-identical to direct search.
* **Caching** — results are memoised in a bounded LRU keyed by
  ``(backend config fingerprint, lake fingerprint, query fingerprint, k)``.
  The key is pure content, so repeated queries — within a run or across
  :meth:`warm` cycles on the same lake — are served from memory.
* **Persistence** — give the service an
  :class:`~repro.serving.store.IndexStore` and :meth:`warm` restores the
  lake's index from disk instead of rebuilding it (building and persisting on
  first contact, delta-updating the closest prior snapshot when the lake's
  content moved).
* **Mutation** — when the warmed lake mutates in place
  (``add_table``/``remove_table``/``replace_table``), :meth:`refresh` applies
  the delta to the index, re-persists it and drops the now-stale result
  cache; until then queries keep serving the previously indexed content.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Sequence

from repro.datalake.lake import DataLake
from repro.datalake.table import Table
from repro.search.base import SearchResult, TableUnionSearcher
from repro.serving.store import IndexStore
from repro.utils.errors import SearchError, ServingError

#: Cache key: (backend config fingerprint, lake fingerprint, query fingerprint, k).
CacheKey = tuple[str, str, str, int]


class QueryService:
    """Serves top-k searches for one backend with result caching."""

    def __init__(
        self,
        searcher: TableUnionSearcher,
        *,
        store: IndexStore | None = None,
        cache_size: int = 1024,
    ) -> None:
        if cache_size < 0:
            raise ServingError(f"cache_size must be non-negative, got {cache_size}")
        self.searcher = searcher
        self.store = store
        self.cache_size = cache_size
        # The server's handler threads share one service, so the cache and
        # its counters are guarded.
        self._cache: OrderedDict[CacheKey, list[SearchResult]] = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._lake_fingerprint = (
            searcher.lake.fingerprint() if searcher.is_indexed else None
        )

    # ------------------------------------------------------------------ warm
    def warm(self, lake: DataLake) -> "QueryService":
        """Index ``lake`` (through the store when one is configured).

        With a store, the lake's persisted index is loaded when present and
        built + persisted otherwise; without one the searcher indexes
        in-process.  Searchers that manage their own persistence (a
        :class:`~repro.search.sharded.ShardedSearcher` with per-shard store
        entries) index themselves — wrapping them in one monolithic store
        entry would defeat their per-shard storage.  Warming onto a
        different lake resets the result cache.
        """
        if self.store is not None and not self.searcher.manages_own_persistence:
            self.store.load_or_build(self.searcher, lake)
        else:
            self.searcher.index(lake)
        fingerprint = lake.fingerprint()
        with self._lock:
            if fingerprint != self._lake_fingerprint:
                self._cache.clear()
            self._lake_fingerprint = fingerprint
        return self

    @property
    def is_warm(self) -> bool:
        """Whether the underlying searcher holds a lake index."""
        return self.searcher.is_indexed

    # --------------------------------------------------------------- refresh
    def refresh(self) -> "QueryService":
        """Re-synchronise with the warmed lake after it mutated in place.

        The searcher applies the net content delta incrementally
        (:meth:`~repro.search.base.TableUnionSearcher.refresh` — a rebuild
        only where a backend cannot apply it), the updated index is persisted
        over the store when one is configured, and the result cache is
        dropped: every cached ranking was computed against the previous lake
        content, and serving it against the new fingerprint would be a silent
        staleness bug.  A no-op when the lake content is unchanged, so it is
        safe (and cheap) to call defensively before serving a batch.

        Until ``refresh()`` is called, queries keep being served — and
        cached — against the *previously indexed* content, which is the
        documented consistency model: mutations become visible at refresh
        points, never mid-workload.
        """
        if not self.searcher.is_indexed:
            raise ServingError("QueryService.refresh() called before warm()")
        lake = self.searcher.lake
        fingerprint = lake.fingerprint()
        if fingerprint == self._lake_fingerprint:
            return self
        self.searcher.refresh()
        # Swap the cache/fingerprint *before* persistence: if store.save
        # fails (full disk, permissions), the in-memory service must already
        # be consistent with the updated index — otherwise later searches
        # would key into the stale cache with the old fingerprint and serve
        # mixed-era rankings.
        with self._lock:
            self._cache.clear()
            self._lake_fingerprint = fingerprint
        if self.store is not None and not self.searcher.manages_own_persistence:
            try:
                self.store.save(self.searcher, lake)
            except SearchError:
                pass  # backends without index_state() still serve in-process
        return self

    # ----------------------------------------------------------------- search
    def _key(self, query_table: Table, k: int) -> CacheKey:
        if self._lake_fingerprint is None:
            raise ServingError("QueryService used before warm()/an indexed searcher")
        # The backend fingerprint is read live, not captured at construction:
        # wrappers like CascadeSearcher fold their own configuration (mode,
        # budget, margin) into config_fingerprint(), and two cascade configs
        # over the same backend+lake must never share cached rankings.
        return (
            self.searcher.config_fingerprint(),
            self._lake_fingerprint,
            query_table.content_fingerprint(),
            int(k),
        )

    def _cache_put(self, key: CacheKey, results: list[SearchResult]) -> None:
        """Record a miss and insert into the bounded LRU.  Caller holds the lock."""
        self._misses += 1
        if self.cache_size > 0:
            self._cache[key] = list(results)
            self._cache.move_to_end(key)
            while len(self._cache) > self.cache_size:
                self._cache.popitem(last=False)

    def search(self, query_table: Table, k: int) -> list[SearchResult]:
        """Top-k search for one query, served from the LRU cache when possible."""
        key = self._key(query_table, k)
        with self._lock:
            cached = self._cache.get(key)
            if cached is not None:
                self._cache.move_to_end(key)
                self._hits += 1
                return list(cached)
        results = self.searcher.search(query_table, k)
        with self._lock:
            self._cache_put(key, results)
        return list(results)

    def search_many(
        self, query_tables: Sequence[Table], k: int
    ) -> list[list[SearchResult]]:
        """Top-k search for every query, in input order.

        ``search_many(queries, k)[i]`` equals ``search(queries[i], k)``: each
        query goes through :meth:`search`, so a query repeated within the
        batch is a cache hit after its first occurrence.
        """
        return [self.search(query, k) for query in query_tables]

    def search_tables(self, query_table: Table, k: int) -> list[Table]:
        """Like :meth:`search` but returning the lake tables themselves."""
        return [
            self.searcher.lake.get(result.table_name)
            for result in self.search(query_table, k)
        ]

    # -------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Release the result cache and detach the store handle.

        Closing is cheap: the LRU is dropped (its cached rankings can pin
        large result lists), the store handle is detached, and the service
        refuses further queries by behaving as if it was never warmed.
        Double-close is a no-op.
        """
        with self._lock:
            self._cache.clear()
            self._lake_fingerprint = None
        self.store = None

    # ------------------------------------------------------------------ stats
    @property
    def cache_stats(self) -> dict[str, int]:
        """Hit/miss counters and current cache size."""
        with self._lock:
            return {
                "hits": self._hits,
                "misses": self._misses,
                "size": len(self._cache),
            }
