"""Tests for the churn model."""

from __future__ import annotations

import pytest

from repro.config import ChordConfig
from repro.dht import ChordRing, ChurnModel
from repro.exceptions import EmptyRingError


def make_ring(num_peers: int = 20, seed: int = 3) -> ChordRing:
    return ChordRing(ChordConfig(num_peers=num_peers, id_bits=16, seed=seed))


class TestSingleEvents:
    def test_fail_random_removes_one(self) -> None:
        ring = make_ring()
        churn = ChurnModel(ring, seed=1)
        victim = churn.fail_random()
        assert ring.num_live == 19
        assert victim not in ring.live_ids
        assert not ring.node(victim).alive

    def test_leave_random_removes_one(self) -> None:
        ring = make_ring()
        churn = ChurnModel(ring, seed=1)
        victim = churn.leave_random()
        assert ring.num_live == 19
        assert victim not in ring.live_ids

    def test_join_one_adds_one(self) -> None:
        ring = make_ring()
        churn = ChurnModel(ring, seed=1)
        new_id = churn.join_one()
        assert ring.num_live == 21
        assert new_id in ring.live_ids

    def test_history_recorded(self) -> None:
        ring = make_ring()
        churn = ChurnModel(ring, seed=1)
        churn.fail_random()
        churn.join_one()
        assert [e.kind for e in churn.history] == ["fail", "join"]

    def test_leave_last_node_rejected(self) -> None:
        ring = make_ring(num_peers=1)
        with pytest.raises(EmptyRingError):
            ChurnModel(ring).leave_random()

    def test_deterministic_for_seed(self) -> None:
        histories = []
        for __ in range(2):
            churn = ChurnModel(make_ring(seed=3), seed=77)
            for step in (churn.fail_random, churn.join_one, churn.leave_random) * 3:
                step()
            histories.append([(e.kind, e.node_id) for e in churn.history])
        assert histories[0] == histories[1]
        assert len(histories[0]) == 9
