"""Section 7 extensions: load balancing and query expansion."""

from .load_balance import HotTermAdvice, HotTermAdvisor
from .query_expansion import LocalContextAnalyzer, expansion_gain
from .range_sharing import LoadSnapshot, RangeSharingBalancer

__all__ = [
    "HotTermAdvice",
    "HotTermAdvisor",
    "LoadSnapshot",
    "LocalContextAnalyzer",
    "RangeSharingBalancer",
    "expansion_gain",
]
