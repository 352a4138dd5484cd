"""Tests for configuration validation and derived values."""

from __future__ import annotations

import dataclasses

import pytest

from repro.config import (
    ALL_CONFIG_TYPES,
    ChordConfig,
    ExperimentConfig,
    NetworkConfig,
    QueryGenConfig,
    SpriteConfig,
    SyntheticCorpusConfig,
    WorkloadConfig,
    paper_experiment_config,
    small_experiment_config,
)
from repro.exceptions import ConfigurationError


class TestDefaultsMatchPaper:
    def test_sprite_section_6_2(self) -> None:
        cfg = SpriteConfig()
        assert cfg.initial_terms == 5
        assert cfg.terms_per_iteration == 5
        assert cfg.learning_iterations == 3
        assert cfg.max_index_terms == 20
        assert cfg.top_k_answers == 20
        assert cfg.total_terms_after_learning == 20

    def test_querygen_section_6_1(self) -> None:
        cfg = QueryGenConfig()
        assert cfg.queries_per_original == 9       # k = 9
        assert cfg.overlap_ratio == 0.7            # O = 70%
        assert cfg.candidate_pool_size == 5        # S = 5
        assert cfg.ranked_list_depth == 1000       # E = 1000

    def test_esearch_default_budget(self) -> None:
        assert SpriteConfig().static_baseline().initial_terms == 20

    def test_zipf_slope(self) -> None:
        assert WorkloadConfig().zipf_slope == 0.5


class TestValidation:
    def test_sprite_max_below_initial(self) -> None:
        with pytest.raises(ConfigurationError):
            SpriteConfig(initial_terms=10, max_index_terms=5)

    def test_sprite_zero_cache(self) -> None:
        with pytest.raises(ConfigurationError):
            SpriteConfig(query_cache_size=0)

    def test_chord_too_many_peers_for_ring(self) -> None:
        with pytest.raises(ConfigurationError):
            ChordConfig(num_peers=10_000, id_bits=8)

    def test_chord_finger_arity_below_two(self) -> None:
        for arity in (1, 0, -4):
            with pytest.raises(ConfigurationError, match="finger_arity"):
                ChordConfig(finger_arity=arity)
        assert ChordConfig().finger_arity == 2  # Chord's own schedule

    def test_querygen_overlap_bounds(self) -> None:
        with pytest.raises(ConfigurationError):
            QueryGenConfig(overlap_ratio=1.5)

    def test_experiment_train_fraction(self) -> None:
        with pytest.raises(ConfigurationError):
            ExperimentConfig(train_fraction=1.0)

    def test_workload_negative_slope(self) -> None:
        with pytest.raises(ConfigurationError):
            WorkloadConfig(zipf_slope=-0.5)


class TestNetworkConfig:
    def test_defaults_are_perfect_transport(self) -> None:
        cfg = NetworkConfig()
        assert cfg.transport == "perfect"
        assert cfg.drop_probability == 0.0

    def test_experiment_config_embeds_network(self) -> None:
        assert ExperimentConfig().network == NetworkConfig()

    def test_unknown_transport_rejected(self) -> None:
        with pytest.raises(ConfigurationError):
            NetworkConfig(transport="carrier-pigeon")

    def test_unknown_latency_model_rejected(self) -> None:
        with pytest.raises(ConfigurationError):
            NetworkConfig(latency_model="bimodal")

    def test_drop_probability_bounds(self) -> None:
        with pytest.raises(ConfigurationError):
            NetworkConfig(drop_probability=1.5)
        with pytest.raises(ConfigurationError):
            NetworkConfig(drop_probability=-0.1)
        NetworkConfig(drop_probability=1.0)  # boundary is legal

    def test_timeout_must_be_positive(self) -> None:
        with pytest.raises(ConfigurationError):
            NetworkConfig(timeout_ms=0.0)

    def test_negative_retries_rejected(self) -> None:
        with pytest.raises(ConfigurationError):
            NetworkConfig(max_retries=-1)

    def test_lognormal_needs_positive_median(self) -> None:
        with pytest.raises(ConfigurationError):
            NetworkConfig(latency_model="lognormal", latency_ms=0.0)


class TestDerived:
    def test_total_terms_capped(self) -> None:
        cfg = SpriteConfig(
            initial_terms=5, terms_per_iteration=10, learning_iterations=5,
            max_index_terms=20,
        )
        assert cfg.total_terms_after_learning == 20

    def test_with_max_terms_schedules_enough_iterations(self) -> None:
        base = SpriteConfig()
        for target in (5, 10, 15, 20, 25, 30):
            derived = base.with_max_terms(target)
            assert derived.max_index_terms == target
            assert derived.total_terms_after_learning == target

    def test_with_max_terms_five_means_no_learning(self) -> None:
        derived = SpriteConfig().with_max_terms(5)
        assert derived.learning_iterations == 0

    def test_static_baseline_default_budget_is_the_learned_one(self) -> None:
        """The paper compares at equal cost: by default the baseline
        publishes what this schedule reaches after learning."""
        for base in (
            SpriteConfig(),
            SpriteConfig().with_max_terms(30),
            SpriteConfig(initial_terms=3, terms_per_iteration=3, max_index_terms=7),
        ):
            static = base.static_baseline()
            budget = base.total_terms_after_learning
            assert (static.initial_terms, static.max_index_terms) == (budget, budget)
            assert static.total_terms_after_learning == budget

    def test_static_baseline_differs_only_in_term_selection(self) -> None:
        base = SpriteConfig(
            query_cache_size=77, result_cache_size=64, top_k_answers=7, store_bloom=False
        )
        static = base.static_baseline(12)
        differing = {
            f.name
            for f in dataclasses.fields(SpriteConfig)
            if getattr(base, f.name) != getattr(static, f.name)
        }
        assert differing == {
            "initial_terms", "terms_per_iteration", "learning_iterations", "max_index_terms",
        }
        assert (static.initial_terms, static.terms_per_iteration) == (12, 0)
        assert (static.learning_iterations, static.max_index_terms) == (0, 12)

    def test_learning_on_a_static_config_is_a_no_op(self, tiny_corpus) -> None:
        from repro.core import SpriteSystem
        from repro.corpus import Query
        from repro.dht.messages import MessageKind

        system = SpriteSystem(
            tiny_corpus,
            sprite_config=SpriteConfig().static_baseline(3),
            chord_config=ChordConfig(num_peers=8, seed=3),
        )
        system.share_corpus()
        system.register_queries([Query("q", ("finger", "table", "lookup"))])
        terms = {d: system.index_terms(d) for d in tiny_corpus.doc_ids}
        traffic = system.ring.stats.summary()
        system.run_learning()
        assert system.ring.stats.summary() == traffic
        assert {d: system.index_terms(d) for d in tiny_corpus.doc_ids} == terms
        assert system.ring.stats.kind(MessageKind.POLL_BATCH).messages == 0


class TestFactories:
    def test_all_configs_frozen(self) -> None:
        for config_type in ALL_CONFIG_TYPES:
            assert dataclasses.fields(config_type)  # is a dataclass
            instance = config_type()
            first_field = dataclasses.fields(config_type)[0].name
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(instance, first_field, None)

    def test_small_config_valid_and_fast_sized(self) -> None:
        cfg = small_experiment_config()
        assert cfg.corpus.num_documents <= 500

    def test_paper_config_scale(self) -> None:
        cfg = paper_experiment_config()
        assert cfg.corpus.num_original_queries == 63
        assert cfg.querygen.queries_per_original == 9

    def test_seed_threading(self) -> None:
        a = small_experiment_config(seed=1)
        b = small_experiment_config(seed=2)
        assert a.corpus.seed != b.corpus.seed
