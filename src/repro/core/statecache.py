"""Byte-bounded LRU caches for memoised statevectors.

The serving layer keeps one noiseless final state per circuit across
requests, keyed by the fused circuit's hash (see :mod:`repro.serve.cache`).
:class:`PrefixStateCache` holds them in a byte-bounded LRU that

* **caps resident bytes** — inserts evict least-recently-used entries until
  the configured budget holds (an entry larger than the whole budget is
  rejected outright rather than evicting everything for nothing);
* **counts hits / misses / evictions** (:class:`CacheStats`) so callers can
  surface cache behaviour as obs counters;
* **is shareable** — a lock makes ``get``/``put`` safe from the serving
  layer's worker threads, so one cross-request cache holds the states of
  many circuits.

Entries are immutable by convention: nothing evolves a cached state in
place, so sharing references across requests and threads is sound.
Eviction can never change simulation results — a missing entry is simply
recomputed.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Hashable

import numpy as np

__all__ = [
    "CacheStats",
    "PrefixStateCache",
]


@dataclass
class CacheStats:
    """Monotonic counters describing one cache's behaviour."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    puts: int = 0
    rejected: int = 0

    def as_dict(self) -> dict[str, int]:
        """Plain-dict form (obs counter material)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "puts": self.puts,
            "rejected": self.rejected,
        }


@dataclass
class _Entry:
    value: np.ndarray
    nbytes: int = field(default=0)


class PrefixStateCache:
    """A byte-bounded, thread-safe LRU cache of statevector arrays.

    Parameters
    ----------
    max_bytes:
        Resident-byte budget.  ``None`` disables the bound, for callers
        that manage lifetime themselves.
    """

    def __init__(self, max_bytes: int | None) -> None:
        if max_bytes is not None and max_bytes < 0:
            raise ValueError("max_bytes must be >= 0 (or None for unbounded)")
        self.max_bytes = max_bytes
        self.stats = CacheStats()
        self._entries: OrderedDict[Hashable, _Entry] = OrderedDict()
        self._current_bytes = 0
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    @property
    def current_bytes(self) -> int:
        """Bytes currently resident."""
        return self._current_bytes

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    # ------------------------------------------------------------------
    def get(self, key: Hashable) -> np.ndarray | None:
        """The cached state for ``key`` (marked most-recently-used), or None."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return entry.value

    def put(self, key: Hashable, state: np.ndarray) -> bool:
        """Insert ``state`` under ``key``, evicting LRU entries to fit.

        Returns False (and counts a rejection) when the entry alone exceeds
        the byte budget — caching it would evict everything else for a
        single-use resident.  Re-putting an existing key replaces the entry.
        """
        nbytes = int(state.nbytes)
        with self._lock:
            if self.max_bytes is not None and nbytes > self.max_bytes:
                self.stats.rejected += 1
                return False
            previous = self._entries.pop(key, None)
            if previous is not None:
                self._current_bytes -= previous.nbytes
            self._entries[key] = _Entry(state, nbytes)
            self._current_bytes += nbytes
            self.stats.puts += 1
            if self.max_bytes is not None:
                while self._current_bytes > self.max_bytes and self._entries:
                    _, evicted = self._entries.popitem(last=False)
                    self._current_bytes -= evicted.nbytes
                    self.stats.evictions += 1
            return True

    def clear(self) -> None:
        """Drop every entry (stats are preserved)."""
        with self._lock:
            self._entries.clear()
            self._current_bytes = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        bound = "unbounded" if self.max_bytes is None else f"{self.max_bytes}B"
        return (
            f"<PrefixStateCache {len(self._entries)} entries, "
            f"{self._current_bytes}B resident, {bound}>"
        )
