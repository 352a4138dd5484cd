"""Bounded maps for the hot paths: a memo for pure functions, and a
first-in-first-out map for what a peer remembers."""

from __future__ import annotations

from itertools import islice
from typing import Callable, Hashable, List


class BoundedMemo(dict):
    """Key → ``compute(key)``, filled on miss.

    A ``dict`` subclass, so a warm lookup is the C-level subscript (or
    its bound ``__getitem__``, handed out as the function itself) and
    only a key not seen before reaches Python (``__missing__``).
    Bounded: cleared when it holds *bound* entries.
    """

    def __init__(self, compute: Callable[[Hashable], object], bound: int) -> None:
        super().__init__()
        self._compute = compute
        self._bound = bound

    def __missing__(self, key: Hashable) -> object:
        if len(self) >= self._bound:
            self.clear()
        value = self[key] = self._compute(key)
        return value


class FifoMap(dict):
    """A ``dict`` of at most ``capacity`` keys: a new key arriving when it
    is full evicts the oldest by insertion.  Setting a present key keeps
    its place; a key removed and set again goes to the back.

    A dict keeps the slots its first entries vacate at the front of its
    table until it next resizes, so evicting with ``next(iter(d))`` walks
    every slot freed since — 20 µs a store into a full 65,536-key map.
    This map walks them once per ``capacity // 256`` evictions (at least
    64): it reads that many of its oldest keys ahead and evicts from the
    list, which costs an amortised constant per store and holds no entry
    of its own.  The list stays the exact front of the map as long as
    keys leave only through :meth:`put`, :meth:`discard` and
    :meth:`clear`.
    """

    __slots__ = ("capacity", "_oldest")

    def __init__(self, capacity: int) -> None:
        super().__init__()
        self.capacity = capacity
        #: The next keys to evict, oldest last.
        self._oldest: List[Hashable] = []

    def put(self, key: Hashable, value: object) -> bool:
        """``self[key] = value``, evicting the oldest key first when
        *key* is new and the map is full; True if that evicted."""
        if len(self) < self.capacity or key in self:
            self[key] = value
            return False
        oldest = self._oldest
        if not oldest:
            oldest.extend(islice(self, max(64, self.capacity >> 8)))
            oldest.reverse()
        del self[oldest.pop()]
        self[key] = value
        return True

    def discard(self, key: Hashable) -> None:
        """Remove *key* if present.  The keys read ahead are dropped: it
        may be one of them, and if set again it belongs at the back."""
        if key in self:
            del self[key]
            self._oldest.clear()

    def clear(self) -> None:
        super().clear()
        self._oldest.clear()
