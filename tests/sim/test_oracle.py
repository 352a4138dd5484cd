"""The differential oracle: the comparison table row by row and the
centralized baseline."""

from __future__ import annotations

from dataclasses import asdict

import pytest

from repro.config import ChordConfig, SpriteConfig
from repro.core.system import SpriteSystem
from repro.dht import recursive_finger_steps
from repro.sim import (
    ORACLE_ROWS,
    DifferentialOracle,
    write_state_fingerprint,
)

ROW_IDS = [row.name for row in ORACLE_ROWS]

#: Every switch left on ``SpriteConfig`` / ``ChordConfig`` that is
#: documented to change speed, storage or routing but never results.  A
#: new such switch belongs here *and* in a row's delta.
RESULT_NEUTRAL_SWITCHES = {
    "sprite": {
        "result_cache_size",
        "store_backend",
        "store_bloom",
    },
    "chord": {"route_cache_size", "finger_arity"},
}

#: Fields that are workload or deployment parameters, not switches:
#: changing them is *meant* to change results, or names a path on disk.
PARAMETERS = {
    "sprite": {
        "initial_terms",
        "terms_per_iteration",
        "learning_iterations",
        "max_index_terms",
        "query_cache_size",
        "assumed_corpus_size",
        "top_k_answers",
        "store_dir",
        "snapshot_dir",
    },
    "chord": {"num_peers", "id_bits", "successor_list_size", "seed"},
}


def _differing(a, b) -> dict:
    left, right = asdict(a), asdict(b)
    return {k: right[k] for k in left if left[k] != right[k]}


@pytest.mark.parametrize("row", ORACLE_ROWS, ids=ROW_IDS)
class TestRows:
    def test_row_is_consistent(self, micro_oracle, row) -> None:
        report = micro_oracle.check(row)
        assert report.name == row.name
        assert report.queries_compared == row.rounds * len(micro_oracle.test) > 0
        assert report.ok, [m.detail for m in report.mismatches]

    def test_systems_differ_in_exactly_the_delta(self, micro_oracle, row) -> None:
        base = micro_oracle.build(row.shared)
        varied = micro_oracle.build(row.shared, row.delta)
        try:
            assert _differing(base.config, varied.config) == dict(
                row.delta.get("sprite", {})
            )
            assert _differing(base.ring.config, varied.ring.config) == dict(
                row.delta.get("chord", {})
            )
            # what the configuration feeds into the built objects
            assert varied.protocol.result_cache_size == varied.config.result_cache_size
            assert (varied.store_runtime is not None) == (
                varied.config.store_backend == "sqlite"
            )
            assert varied.ring.finger_steps == recursive_finger_steps(
                32, varied.ring.config.finger_arity
            )
            assert base.ring.live_ids == varied.ring.live_ids
        finally:
            for system in (base, varied):
                if system.store_runtime is not None:
                    system.store_runtime.close()


class TestTable:
    def test_every_result_neutral_switch_has_a_row(self) -> None:
        covered = {"sprite": set(), "chord": set()}
        for row in ORACLE_ROWS:
            for part in covered:
                covered[part] |= set(row.delta.get(part, {}))
        assert covered == RESULT_NEUTRAL_SWITCHES

    def test_every_config_field_is_classified(self) -> None:
        """A new ``SpriteConfig`` / ``ChordConfig`` field must be
        declared a parameter or a result-neutral switch — and the
        latter needs a row (the test above)."""
        for part, cls in (("sprite", SpriteConfig), ("chord", ChordConfig)):
            declared = RESULT_NEUTRAL_SWITCHES[part] | PARAMETERS[part]
            assert set(cls.__dataclass_fields__) == declared, part

    def test_row_names_are_unique(self) -> None:
        assert len(set(ROW_IDS)) == len(ROW_IDS)

    def test_flows_and_equalities_are_known(self) -> None:
        for row in ORACLE_ROWS:
            assert row.flow in {"learn", "bulk-churn"}, row.name
            assert row.equal and row.equal <= {"rankings", "fingerprint"}
            assert set(row.delta) | set(row.shared) <= {"sprite", "chord"}, row.name


class TestRunnerClosesWhatItBuilds:
    def test_durable_runtime_closed_when_a_comparison_raises(
        self, micro_oracle, monkeypatch
    ) -> None:
        row = next(r for r in ORACLE_ROWS if r.name == "store-paths")
        built = []
        build = micro_oracle.build

        def recording_build(*deltas):
            built.append(build(*deltas))
            return built[-1]

        def exploding_search(self, query, **kwargs):
            raise RuntimeError("mid-flow failure")

        monkeypatch.setattr(micro_oracle, "build", recording_build)
        monkeypatch.setattr(SpriteSystem, "search", exploding_search)
        with pytest.raises(RuntimeError, match="mid-flow"):
            micro_oracle.check(row)
        runtimes = [s.store_runtime for s in built if s.store_runtime is not None]
        assert len(runtimes) == 1
        assert runtimes[0].pool.open_connections == 0
        assert not runtimes[0].root.exists()


class TestIngestPaths:
    """The write-state fingerprint the write-side rows compare."""

    def test_fingerprint_sees_slot_and_owner_state(self, micro_oracle) -> None:
        system = micro_oracle.build()
        system.bulk_share()
        fingerprint = write_state_fingerprint(system)
        assert fingerprint["slots"], "expected published term slots"
        assert fingerprint["owners"], "expected owner-side shared state"
        assert len(fingerprint["version_rank"]) == len(fingerprint["slots"])

    def test_fingerprint_sees_which_queries_each_cache_holds(self, micro_oracle) -> None:
        system = micro_oracle.build()
        system.bulk_share()
        system.register_queries(micro_oracle.train[:3])
        fingerprint = write_state_fingerprint(system)
        cached = {entry.terms for entries in fingerprint["caches"].values() for entry in entries}
        assert cached == {q.terms for q in micro_oracle.train[:3]}
        # The same cursors with another tuple behind one of them differ.
        slot = next(
            slot for node in system.ring.nodes.values() for slot in node.store.values()
            if len(slot.cache)
        )
        entry = next(iter(slot.cache))
        slot.cache._entries[0] = entry._replace(terms=entry.terms + ("other",))
        assert write_state_fingerprint(system)["slots"] == fingerprint["slots"]
        assert write_state_fingerprint(system) != fingerprint


class TestCentralizedBaseline:
    def test_full_index_matches_centralized_tfidf(self, micro_oracle) -> None:
        report = micro_oracle.check_centralized_baseline()
        assert report.queries_compared > 0
        assert report.ok, [m.detail for m in report.mismatches]

    def test_full_index_system_publishes_every_term(self, micro_oracle) -> None:
        corpus = micro_oracle.corpus
        system = DifferentialOracle(corpus, [], []).build(
            {"sprite": {"initial_terms": 10**6, "max_index_terms": 10**6}}
        )
        system.share_corpus()
        for doc in corpus:
            assert sorted(system.index_terms(doc.doc_id)) == sorted(doc.term_freqs)


class TestCheckAll:
    def test_runs_all_oracles(self, micro_oracle) -> None:
        reports = micro_oracle.check_all()
        assert list(reports) == ROW_IDS + ["centralized-baseline"]
        assert all(r.ok for r in reports.values())
