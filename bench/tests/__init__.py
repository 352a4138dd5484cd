"""Tests of the benchmark itself (``python -m pytest bench/tests -q``)."""
