"""Trace targets with a known call shape, for test_trace.py."""

from __future__ import annotations


def leaf(ticks):
    ticks.advance(2.0)
    return "leaf"


def outer(ticks):
    ticks.advance(1.0)
    leaf(ticks)
    ticks.advance(3.0)
    return "outer"


def countdown(ticks, n):
    """Recurses n times, one tick of its own per level."""
    ticks.advance(1.0)
    return countdown(ticks, n - 1) if n else 0


class Shapes:
    @classmethod
    def made_by_class(cls, value):
        return cls, value

    @staticmethod
    def static(value):
        return value * 2

    def method(self, value):
        return self, value
