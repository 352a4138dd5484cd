"""Exception hierarchy for the SPRITE reproduction.

Every error raised by this package derives from :class:`ReproError`, so
callers can catch all library failures with a single ``except`` clause
while still being able to discriminate between subsystems.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by this package."""


class ConfigurationError(ReproError):
    """An invalid configuration value was supplied.

    Raised eagerly at construction time (frozen-config validation) rather
    than deep inside an experiment, so misconfigurations fail fast.
    """


class CorpusError(ReproError):
    """A problem with corpus data: unknown or duplicate document ids,
    empty corpora, or a vocabulary the generator cannot draw from."""


class DocumentNotFoundError(CorpusError):
    """A document id was requested that the corpus does not contain."""

    def __init__(self, doc_id: str) -> None:
        super().__init__(f"document not found in corpus: {doc_id!r}")
        self.doc_id = doc_id


class QueryError(ReproError):
    """A malformed query: empty after analysis, or containing no terms."""


class DHTError(ReproError):
    """Base class for overlay-network failures."""


class NodeNotFoundError(DHTError):
    """A node id was referenced that is not part of the ring."""

    def __init__(self, node_id: int) -> None:
        super().__init__(f"node not in ring: {node_id}")
        self.node_id = node_id


class EmptyRingError(DHTError):
    """An operation was attempted on a ring with no live nodes."""


class NodeFailedError(DHTError):
    """A message was delivered to a failed (crashed) node.

    The Chord simulator raises this when routing reaches a node that has
    been killed by the churn model without a graceful leave; callers such
    as the query processor catch it and degrade per the paper's Section 7
    discussion (drop the term from the similarity computation).
    """

    def __init__(self, node_id: int) -> None:
        super().__init__(f"node has failed: {node_id}")
        self.node_id = node_id


class MessageDroppedError(NodeFailedError):
    """The transport exhausted its retries without delivering a message.

    Subclasses :class:`NodeFailedError` deliberately: from the sender's
    perspective an unreachable peer and a crashed peer are the same event
    (drop the term, skip the probe, retry next round), so every existing
    degradation path handles transport loss without modification.
    """

    def __init__(self, node_id: int, attempts: int = 1) -> None:
        DHTError.__init__(
            self, f"message to node {node_id} dropped after {attempts} attempt(s)"
        )
        self.node_id = node_id
        self.attempts = attempts


class LearningError(ReproError):
    """An inconsistency inside the index-tuning machinery, e.g. polling
    for terms that were never published."""
