"""Tests for repro.sim — the scenario engine, invariants and catalogue."""
