"""Ring identifier space and MD5 hashing.

The paper (Section 6): "We implemented Chord as designed in [15].  All
terms are hashed using MD5 hash function."  :class:`IdSpace` wraps the
modular arithmetic of an m-bit Chord identifier circle and the MD5
mapping from strings (terms, queries, peer names) to ring positions.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from ..memo import BoundedMemo


def md5_hash(key: str, bits: int) -> int:
    """MD5-hash *key* onto an m-bit identifier ring.

    The 128-bit MD5 digest is truncated to the most significant *bits*
    bits, matching the standard Chord construction.  Not memoized
    itself: the hot paths hash through :attr:`IdSpace.hash_key`, which
    remembers each key's position.
    """
    digest = hashlib.md5(key.encode("utf-8")).digest()
    value = int.from_bytes(digest, "big")
    return value >> (128 - bits) if bits < 128 else value


#: How many distinct keys each ring width remembers the position of
#: (:attr:`IdSpace.hash_key`); a memo is cleared when it is full.
HASH_KEYS = 1 << 18

_POSITIONS: Dict[int, BoundedMemo] = {}


def position_memo(bits: int) -> BoundedMemo:
    """Key → ``md5_hash(key, bits)``, remembered: one memo per ring
    width, shared by every :class:`IdSpace` of that width, so terms,
    query strings and peer names hash through one table."""
    memo = _POSITIONS.get(bits)
    if memo is None:
        memo = _POSITIONS[bits] = BoundedMemo(partial(md5_hash, bits=bits), HASH_KEYS)
    return memo


@lru_cache(maxsize=256)
def recursive_finger_steps(bits: int, arity: int) -> Tuple[int, ...]:
    """Clockwise finger distances of a ReCord-style ring (PAPERS.md).

    ReCord generalizes Chord recursively: level ``ℓ`` of the structure
    is a ring whose neighbours sit ``arity**ℓ`` positions apart, and a
    node participates in every level until a single level spans the
    whole id space.  Flattened onto one routing table, that recursion
    gives each node ``arity - 1`` fingers *per level* at the distances
    ``j · arity**ℓ`` for ``j ∈ [1, arity)`` — the digits of a base-b
    expansion of the remaining clockwise distance, which is why greedy
    routing over this table resolves one base-b digit per hop and needs
    only ``O(log_b n)`` hops against Chord's ``O(log₂ n)``.

    ``arity=2`` yields exactly Chord's ``2**i`` schedule, so Chord is
    the degenerate low-maintenance point of the family; larger arities
    widen the table (``(b-1)·log_b 2^bits`` entries, and as many more
    maintenance writes) to buy shorter routes — the trade ``perf --mode
    route`` measures.  Steps are returned sorted ascending, all distinct, all
    smaller than ``2**bits`` — the contract the ring's repair arcs and
    :meth:`~repro.dht.ring.ChordRing.lookup` rely on: each routed hop
    bisects this tuple for the clockwise gap to the key, and together
    with the ring's table invariant (finger *i* is the node itself or at
    distance ≥ ``steps[i]``) that is what lets it skip every entry above
    the gap instead of scanning the table.
    """
    if arity < 2:
        raise ValueError("finger arity must be >= 2")
    size = 1 << bits
    steps: List[int] = []
    level = 1  # arity ** 0
    while level < size:
        for j in range(1, arity):
            step = j * level
            if step >= size:
                break
            steps.append(step)
        level *= arity
    return tuple(steps)


@dataclass(frozen=True)
class IdSpace:
    """An m-bit circular identifier space with Chord interval arithmetic."""

    bits: int
    #: Number of positions on the ring (2^bits).
    size: int = field(init=False, repr=False, compare=False)
    #: ``size - 1``: ``x & mask`` is ``x % size`` for any Python int, so
    #: the routing hot path does its interval arithmetic inline on it.
    mask: int = field(init=False, repr=False, compare=False)
    #: ``hash_key(key)``: a string key's ring position (MD5), remembered
    #: per key (``HASH_KEYS`` of them per ring width), so a key hashed
    #: before costs one C-level dict probe.
    hash_key: Callable[[str], int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 1 <= self.bits <= 128:
            raise ValueError("bits must be in [1, 128]")
        object.__setattr__(self, "size", 1 << self.bits)
        object.__setattr__(self, "mask", (1 << self.bits) - 1)
        object.__setattr__(self, "hash_key", position_memo(self.bits).__getitem__)

    def distance(self, a: int, b: int) -> int:
        """Clockwise distance from *a* to *b* (0 when equal)."""
        return (b - a) % self.size

    def in_interval(self, x: int, a: int, b: int, inclusive_right: bool = True) -> bool:
        """Whether *x* lies in the clockwise interval (a, b] (or (a, b)).

        Chord's key-ownership test: node *b* owns key *x* iff *x* ∈
        (predecessor(b), b].  Handles wrap-around; when ``a == b`` the
        interval covers the whole ring (single-node case).
        """
        if a == b:
            return True if inclusive_right else x != a
        d_ab = self.distance(a, b)
        d_ax = self.distance(a, x)
        if inclusive_right:
            return 0 < d_ax <= d_ab
        return 0 < d_ax < d_ab

    def closest_term_to_key(
        self, key_hash: int, terms: Iterable[str], term_hashes: Mapping[str, int]
    ) -> Optional[str]:
        """Of the *terms* that have a hash in *term_hashes*, the one whose
        hash is closest to *key_hash* by absolute ring distance (min of
        both directions), with deterministic lexicographic tie-break;
        ``None`` when none of them has one.

        This implements the paper's closest-hash query-deduplication
        rule (Section 3): an owner counts a cached query only from the
        indexing peer of the single global index term closest in hash
        space to the query's own hash — *terms* are the query's, and
        *term_hashes* the owner's index terms with their hashes.
        """
        if not term_hashes:
            raise ValueError("no candidate terms")
        mask = self.mask
        best: Optional[str] = None
        best_gap = 0
        for term in terms:
            h = term_hashes.get(term)
            if h is None:
                continue
            gap = min((h - key_hash) & mask, (key_hash - h) & mask)
            if best is None or gap < best_gap or (gap == best_gap and term < best):
                best, best_gap = term, gap
        return best
