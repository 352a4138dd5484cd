"""Query generation (paper Section 6.1) and workload shaping."""

from .generator import DistributionNeighbors, QueryGenerator
from .workload import (
    pattern_change_groups,
    random_split,
    without_repeats_stream,
    zipf_stream,
)

__all__ = [
    "DistributionNeighbors",
    "QueryGenerator",
    "pattern_change_groups",
    "random_split",
    "without_repeats_stream",
    "zipf_stream",
]
