"""Every row of the twin table (``tests/twins.py``) on every transport,
flow and result-cache size it names; the census that keeps each
reference under ``tests/`` a row or exempt at its own level, and each
result-neutral configuration switch a row; the write-state fingerprint
the rows compare; and the one comparison that is not a pair of twins,
full-index SPRITE against centralized TF·IDF.

Tier-1 runs each cell on the explicit read program over the micro
deployment.  The CI job ``scenario-check`` draws programs as well, each
over the corpus of seed 0, 1 or 2:
``TWIN_PROFILE=twin-programs python -m pytest tests/test_twins.py``.
"""

from __future__ import annotations

import os
from dataclasses import asdict
from pathlib import Path

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from repro.config import ChordConfig, SpriteConfig
from repro.core.system import SpriteSystem
from repro.dht import recursive_finger_steps
from repro.ir.centralized import CentralizedSystem

from .twins import (
    EXEMPT,
    FLOWS,
    PROGRAM,
    ROWS,
    STEPS,
    Deployment,
    pairs,
    run_row,
    seeded,
    write_state_fingerprint,
)

settings.register_profile("twin-example", phases=[Phase.explicit], deadline=None, database=None)
settings.register_profile("twin-programs", max_examples=25, deadline=None, database=None)

#: Modules under ``tests/`` that are neither test files nor references.
SUPPORT = {
    "conftest.py",
    "core/conftest.py",
    "twins.py",
    "probes.py",
    # The reachability census (tests/census.py), its profile hook and
    # the sample module its own test folds.
    "census.py",
    "census_site/sitecustomize.py",
    "census_sample.py",
}

#: Every ``SpriteConfig`` / ``ChordConfig`` field documented to change
#: speed, storage or routing but never results.  A new such switch
#: belongs here *and* in a row's ``config``.
RESULT_NEUTRAL_SWITCHES = {
    "sprite": {"result_cache_size", "store_backend", "store_bloom"},
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

CELLS = [
    pytest.param(
        row, transport, flow, cache,
        id=f"{row.name}-{transport}-{flow}-{'result-cache' if cache else 'no-result-cache'}",
    )
    for row in ROWS
    for transport in row.transports
    for flow in FLOWS
    for cache in row.result_caches
]
CONFIG_ROWS = [pytest.param(row, id=row.name) for row in ROWS if row.config]


@pytest.mark.parametrize("row, transport, flow, result_cache", CELLS)
@settings(settings.get_profile(os.environ.get("TWIN_PROFILE", "twin-example")))
@example(program=PROGRAM, seed=None)
@given(
    program=st.lists(st.sampled_from(STEPS), min_size=1, max_size=8).map(tuple),
    seed=st.sampled_from((0, 1, 2)),
)
def test_twin_row(micro, row, transport, flow, result_cache, program, seed) -> None:
    deployment = micro if seed is None else seeded(seed)
    run_row(row, deployment, transport, flow, result_cache, program)


def test_a_narrowed_row_says_why() -> None:
    for row in ROWS:
        narrowed = row.transports != ("perfect", "lossy") or row.result_caches != (0, 32)
        assert bool(row.why) == narrowed, row.name


def test_row_names_are_unique() -> None:
    names = [row.name for row in ROWS]
    assert len(set(names)) == len(names)


def test_every_reference_is_a_row_or_exempt_at_its_level() -> None:
    """A module under ``tests/`` that is not a test file is support, a
    reference a row installs, or a reference exempt at a lower level —
    so a new reference that brings its own harness fails here."""
    here = Path(__file__).parent
    modules = {
        path.relative_to(here).as_posix()
        for path in here.rglob("*.py")
        if not path.name.startswith("test_") and path.name != "__init__.py"
    }
    installed = {
        row.substitute.__module__.removeprefix("tests.").replace(".", "/") + ".py"
        for row in ROWS
    } - SUPPORT
    assert not installed & EXEMPT.keys()
    assert modules == SUPPORT | installed | EXEMPT.keys()


def test_every_config_field_is_classified() -> None:
    """A new ``SpriteConfig`` / ``ChordConfig`` field must be declared a
    parameter or a result-neutral switch — and the latter needs a row
    (the test below)."""
    for part, cls in (("sprite", SpriteConfig), ("chord", ChordConfig)):
        declared = RESULT_NEUTRAL_SWITCHES[part] | PARAMETERS[part]
        assert set(cls.__dataclass_fields__) == declared, part


def test_every_result_neutral_switch_has_a_row() -> None:
    covered = {"sprite": set(), "chord": set()}
    for row in ROWS:
        assert set(row.config) <= covered.keys(), row.name
        for part in covered:
            covered[part] |= set(row.config.get(part, {}))
    assert covered == RESULT_NEUTRAL_SWITCHES


@pytest.mark.parametrize("row", CONFIG_ROWS)
def test_twins_differ_in_exactly_the_config(micro, row) -> None:
    def differing(a, b) -> dict:
        left, right = asdict(a), asdict(b)
        return {k: right[k] for k in left if left[k] != right[k]}

    default, twin = micro.build(), micro.build(row.config)
    try:
        assert differing(default.config, twin.config) == row.config.get("sprite", {})
        assert differing(default.ring.config, twin.ring.config) == row.config.get("chord", {})
        # what the configuration feeds into the built objects
        assert twin.protocol.result_cache_size == twin.config.result_cache_size
        assert (twin.store_runtime is not None) == (twin.config.store_backend == "sqlite")
        assert twin.ring.finger_steps == recursive_finger_steps(32, twin.ring.config.finger_arity)
        assert default.ring.live_ids == twin.ring.live_ids
    finally:
        for system in (default, twin):
            if system.store_runtime is not None:
                system.store_runtime.close()


def test_a_cell_that_raises_closes_its_sqlite_runtime(micro, monkeypatch) -> None:
    row = next(r for r in ROWS if r.name == "store-paths")
    built = []
    build = Deployment.build

    def recording_build(self, *deltas, transport=None):
        built.append(build(self, *deltas, transport=transport))
        return built[-1]

    def exploding_learning(self, iterations=None):
        raise RuntimeError("mid-flow failure")

    monkeypatch.setattr(Deployment, "build", recording_build)
    monkeypatch.setattr(SpriteSystem, "run_learning", exploding_learning)
    with pytest.raises(RuntimeError, match="mid-flow"):
        run_row(row, micro, "perfect", "learn", 0, PROGRAM)
    runtimes = [s.store_runtime for s in built if s.store_runtime is not None]
    assert len(runtimes) == 1
    assert runtimes[0].pool.open_connections == 0
    assert not runtimes[0].root.exists()


def test_fingerprint_sees_slot_and_owner_state(micro) -> None:
    system = micro.build()
    system.bulk_share()
    fingerprint = write_state_fingerprint(system)
    assert fingerprint["slots"], "expected published term slots"
    assert fingerprint["owners"], "expected owner-side shared state"
    assert len(fingerprint["version_rank"]) == len(fingerprint["slots"])


def test_fingerprint_sees_which_queries_each_cache_holds(micro) -> None:
    system = micro.build()
    system.bulk_share()
    system.register_queries(micro.train[:3])
    fingerprint = write_state_fingerprint(system)
    cached = {entry.terms for entries in fingerprint["caches"].values() for entry in entries}
    assert cached == {q.terms for q in micro.train[:3]}
    # The same cursors with another tuple behind one of them differ.
    slot = next(
        slot for node in system.ring.nodes.values() for slot in node.store.values()
        if len(slot.cache)
    )
    entry = next(iter(slot.cache))
    slot.cache._entries[0] = entry._replace(terms=entry.terms + ("other",))
    assert write_state_fingerprint(system)["slots"] == fingerprint["slots"]
    assert write_state_fingerprint(system) != fingerprint


def test_a_full_index_system_publishes_every_term(micro) -> None:
    system = micro.full_index()
    for doc in micro.corpus:
        assert sorted(system.index_terms(doc.doc_id)) == sorted(doc.term_freqs)


@pytest.mark.parametrize("seed", [None, 0, 1, 2], ids=["micro", "seed0", "seed1", "seed2"])
def test_full_index_sprite_is_centralized_tfidf(micro, seed) -> None:
    """The paper's §6 claim.  At F = ∞ every document publishes all its
    terms, and with the assumed corpus size pinned to the true size the
    indexed document frequency n'_k is the true n_k, so the distributed
    rankings are centralized TF·IDF (Lee et al.'s second method): the
    same document order, and scores equal to float tolerance, since the
    two sum their partial products in different orders."""
    deployment = micro if seed is None else seeded(seed)
    full = deployment.full_index()
    centralized = CentralizedSystem(deployment.corpus)
    for query in deployment.test:
        distributed = pairs(full.search(query, cache=False))
        reference = pairs(centralized.search(query, top_k=full.config.top_k_answers))
        assert distributed, query.query_id
        assert [d for d, __ in distributed] == [d for d, __ in reference], query.query_id
        assert [s for __, s in distributed] == pytest.approx(
            [s for __, s in reference], rel=1e-9, abs=1e-12
        ), query.query_id
