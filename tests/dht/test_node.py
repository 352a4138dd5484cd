"""Tests for ChordNode routing state and storage."""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro.dht.hashing import IdSpace
from repro.dht.node import ChordNode

from .linear_finger_scan import linear_closest_preceding_finger


def make_node(node_id: int = 100, bits: int = 8) -> ChordNode:
    return ChordNode(node_id, IdSpace(bits))


class TestOwnership:
    def test_owns_interval(self) -> None:
        node = make_node(100)
        node.predecessor = 50
        assert node.owns(75)
        assert node.owns(100)
        assert not node.owns(50)
        assert not node.owns(101)

    def test_owns_wrapping_interval(self) -> None:
        node = make_node(10)
        node.predecessor = 200
        assert node.owns(250)
        assert node.owns(5)
        assert node.owns(10)
        assert not node.owns(100)

    def test_owns_everything_without_predecessor(self) -> None:
        node = make_node(100)
        node.predecessor = None
        assert node.owns(0)
        assert node.owns(255)

    @given(
        node_id=st.integers(0, 255),
        predecessor=st.integers(0, 255),
        key=st.integers(0, 255),
    )
    def test_owns_is_the_id_space_interval(
        self, node_id: int, predecessor: int, key: int
    ) -> None:
        # owns() writes (predecessor, self] out on the mask; it must stay
        # IdSpace.in_interval, whole-ring case (predecessor == self) included.
        node = make_node(node_id)
        node.predecessor = predecessor
        assert node.owns(key) == node.space.in_interval(key, predecessor, node_id)


class TestClosestPrecedingFinger:
    def test_scans_far_to_near(self) -> None:
        node = make_node(0)
        node.fingers = [1, 2, 4, 8, 16, 32, 64, 128]
        # Key 100: the farthest finger strictly inside (0, 100) is 64.
        assert linear_closest_preceding_finger(node, 100, lambda n: True) == 64

    def test_skips_unusable_fingers(self) -> None:
        node = make_node(0)
        node.fingers = [1, 2, 4, 8, 16, 32, 64, 128]
        assert linear_closest_preceding_finger(node, 100, lambda n: n != 64) == 32

    def test_returns_self_when_no_finger_precedes(self) -> None:
        node = make_node(0)
        node.fingers = [200] * 8
        assert linear_closest_preceding_finger(node, 100, lambda n: True) == 0

    def test_ignores_self_entries(self) -> None:
        node = make_node(0)
        node.fingers = [0] * 8
        assert linear_closest_preceding_finger(node, 100, lambda n: True) == 0


class TestFirstLiveSuccessor:
    def test_prefers_direct_successor(self) -> None:
        node = make_node(0)
        node.successor = 10
        node.successor_list = [10, 20, 30]
        assert node.first_live_successor(lambda n: True) == 10

    def test_falls_back_to_list(self) -> None:
        node = make_node(0)
        node.successor = 10
        node.successor_list = [10, 20, 30]
        assert node.first_live_successor(lambda n: n != 10) == 20

    def test_none_when_all_dead(self) -> None:
        node = make_node(0)
        node.successor = 10
        node.successor_list = [10, 20]
        assert node.first_live_successor(lambda n: False) is None


class TestStorage:
    def test_put_get_drop(self) -> None:
        node = make_node()
        node.put(42, "value")
        assert node.get(42) == "value"
        assert node.drop(42) == "value"
        assert node.get(42) is None

    def test_drop_missing_returns_none(self) -> None:
        assert make_node().drop(1) is None

    def test_get_or_replica_prefers_primary(self) -> None:
        node = make_node()
        node.put(1, "primary")
        node.replicas[1] = "replica"
        assert node.get_or_replica(1) == "primary"

    def test_get_or_replica_falls_back(self) -> None:
        node = make_node()
        node.replicas[1] = "replica"
        assert node.get_or_replica(1) == "replica"
        assert node.get(1) is None
