"""The serving layer's cross-request caches.

Three memoisations turn a repeated-circuit request mix from "simulate
everything again" into "look the hard parts up", all keyed by the stable
:meth:`~repro.circuits.circuit.Circuit.content_hash` fingerprint so that
cosmetically different but semantically equal submissions share entries:

* **transpile** — :func:`~repro.circuits.transpile.fuse_single_qubit_runs`
  output with its hash, keyed by the *raw* circuit hash.  Fusion is pure,
  so the fused circuit is shared by every request that submits the same
  gates, and a warm request hashes only the circuit it sent.
* **plan** — DCP partition plans keyed by ``(fused-hash, shots,
  noise, backend)``.  The plan search is pure and (in calibrated mode)
  the most expensive non-simulation work a request triggers.
* **prefix** — noiseless final statevectors in one shared byte-bounded
  :class:`~repro.core.statecache.PrefixStateCache`, keyed by the fused
  hash.  Under a trivial noise model every leaf of any tree holds the
  circuit's final state, whatever the partition, so one entry per circuit
  serves every plan, shot count and seed, and lets a warm request skip the
  tree entirely and go straight to leaf sampling
  (:meth:`~repro.core.engine.TQSimEngine.sample_leaves`).

Entry-count caches (:class:`LRUCache`) guard the small pure-Python
objects; the statevector cache is byte-bounded because its entries are
the actual memory hazard.  Every cache keeps hit/miss/eviction stats
(:class:`~repro.core.statecache.CacheStats`); the server flushes deltas
onto ``serve.cache.*`` obs counters per request.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Hashable

from repro.core.statecache import CacheStats, PrefixStateCache

__all__ = ["LRUCache", "ServeCaches", "DEFAULT_STATE_CACHE_BYTES"]

#: Default budget of the shared cross-request statevector cache.
DEFAULT_STATE_CACHE_BYTES = 512 * 1024 * 1024


class LRUCache:
    """A thread-safe, entry-count-bounded LRU cache with stats.

    The value-agnostic companion of
    :class:`~repro.core.statecache.PrefixStateCache`: plans and fused
    circuits are small pure-Python objects, so bounding the *count* is
    enough.  ``get`` returns ``None`` on a miss (values are never None).
    """

    def __init__(self, max_entries: int = 128) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self.stats = CacheStats()
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Hashable) -> Any | None:
        with self._lock:
            if key not in self._entries:
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return self._entries[key]

    def put(self, key: Hashable, value: Any) -> None:
        with self._lock:
            self._entries.pop(key, None)
            self._entries[key] = value
            self.stats.puts += 1
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()


@dataclass
class ServeCaches:
    """The server's three cross-request caches plus stat-flush bookkeeping."""

    plan: LRUCache
    transpile: LRUCache
    prefix: PrefixStateCache
    #: Stats already flushed onto obs counters, per cache name.
    _flushed: dict[str, dict[str, int]] = field(default_factory=dict)

    def stat_deltas(self) -> dict[str, dict[str, int]]:
        """Per-cache stat increments since the previous call.

        The server turns these into ``serve.cache.<name>.<stat>`` counter
        bumps; callers must serialise calls (the server holds its lock).
        """
        deltas: dict[str, dict[str, int]] = {}
        for name, cache in (
            ("plan", self.plan),
            ("transpile", self.transpile),
            ("prefix", self.prefix),
        ):
            current = cache.stats.as_dict()
            previous = self._flushed.get(name, {})
            delta = {
                stat: value - previous.get(stat, 0)
                for stat, value in current.items()
                if value != previous.get(stat, 0)
            }
            if delta:
                deltas[name] = delta
            self._flushed[name] = current
        return deltas
