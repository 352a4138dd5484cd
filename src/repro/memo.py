"""A bounded memo for pure functions on the hot paths."""

from __future__ import annotations

from typing import Callable, Hashable


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
