"""The complete Section 6.2 flow as one integration test, with the
paper's qualitative conclusions asserted on the small environment.

This mirrors what `examples/reproduce_paper.py --small` runs, pinned as
a regression test so the reproduction's conclusions cannot silently
drift while refactoring.
"""

from __future__ import annotations

import pytest

from repro.evaluation import run_cost_comparison, run_fig4a, run_fig4b, run_fig4c


@pytest.fixture(scope="module")
def fig4a(small_env):
    return run_fig4a(small_env, answer_counts=(5, 10, 20, 30))


@pytest.fixture(scope="module")
def fig4b(small_env):
    return run_fig4b(small_env, term_counts=(5, 10, 20), streams=("w/o-r",))


class TestHeadlineConclusions:
    def test_sprite_within_reach_of_centralized(self, fig4a) -> None:
        """Conclusion 2: near-centralized quality from a tiny index."""
        for row in fig4a:
            assert row.sprite.precision_ratio > 0.7

    def test_selective_beats_static_on_average(self, fig4a) -> None:
        """Conclusion 1: SPRITE ≥ eSearch averaged over the sweep."""
        sprite_mean = sum(r.sprite.precision_ratio for r in fig4a) / len(fig4a)
        esearch_mean = sum(r.esearch.precision_ratio for r in fig4a) / len(fig4a)
        assert sprite_mean >= esearch_mean - 1e-9

    def test_fig4b_no_learning_baseline_is_exact(self, fig4b) -> None:
        t5 = next(r for r in fig4b if r.index_terms == 5)
        assert t5.sprite.precision_ratio == pytest.approx(
            t5.esearch.precision_ratio, abs=1e-12
        )

    def test_fig4b_budget_monotone_for_sprite(self, fig4b) -> None:
        ratios = [
            r.sprite.precision_ratio
            for r in sorted(fig4b, key=lambda r: r.index_terms)
        ]
        assert ratios[-1] > ratios[0]

    def test_fig4c_adaptation(self, small_env) -> None:
        rows = run_fig4c(small_env, iterations=6, switch_at=4, max_terms=15)
        # After re-learning on group B, SPRITE must improve over its
        # first-contact performance on B.
        first_b = rows[3].sprite.precision_ratio
        settled_b = rows[5].sprite.precision_ratio
        assert settled_b >= first_b - 0.02

    def test_cost_ordering(self, small_env) -> None:
        rows = {r.strategy: r for r in run_cost_comparison(small_env)}
        assert rows["sprite"].postings < rows["index-everything"].postings
        assert rows["esearch"].postings < rows["index-everything"].postings
