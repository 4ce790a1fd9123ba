"""Synchronization analysis (§5 of the paper).

Builds the precedence relation ``R`` from post-wait matching (§5.1)
and the closure of the sync-involving delay set D1, which also orders
barrier-separated accesses (§5.2), plus lock guard information (§5.3).
These refine the delay-set computation: orienting conflict edges and
pruning accesses from back-path searches.
"""

from repro.analysis.sync.locks import LockGuards
from repro.analysis.sync.postwait import match_post_wait
from repro.analysis.sync.precedence import PrecedenceRelation

__all__ = [
    "PrecedenceRelation",
    "match_post_wait",
    "LockGuards",
]
