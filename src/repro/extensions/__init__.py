"""Section 7(a) extension: hot-term advice to document owners."""

from .load_balance import HotTermAdvice, HotTermAdvisor

__all__ = [
    "HotTermAdvice",
    "HotTermAdvisor",
]
