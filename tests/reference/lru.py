"""The plain LRU result cache, without an admission gate.

The baseline ``repro.serving.LRUCache`` is counted against: same
``get``/``put``/``clear``/``len`` surface, but every ``put`` is cached
and evicts the least-recently-used entry, however rarely the newcomer
is looked up.  It can stand in for the engine's cache
(``engine.cache = LRUCache(n)``) so both policies see the engine's own
call order: every lookup of a micro-batch, then one put per miss.
"""

from collections import OrderedDict
from typing import Any, Hashable, Optional


class LRUCache:
    """Small ordered-dict LRU used for served results."""

    def __init__(self, capacity: int):
        self.capacity = int(capacity)
        self._store: "OrderedDict[Hashable, Any]" = OrderedDict()

    def get(self, key: Hashable) -> Optional[Any]:
        try:
            self._store.move_to_end(key)
        except KeyError:
            return None
        return self._store[key]

    def put(self, key: Hashable, value: Any) -> None:
        if self.capacity <= 0:
            return
        self._store[key] = value
        self._store.move_to_end(key)
        while len(self._store) > self.capacity:
            self._store.popitem(last=False)

    def __len__(self) -> int:
        return len(self._store)

    def clear(self) -> None:
        self._store.clear()
