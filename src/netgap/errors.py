"""Shared exception types and the one search budget."""

from __future__ import annotations

import time
from contextlib import contextmanager


class NetgapError(Exception):
    """Base class for all workbench errors."""


class SizeLimitExceeded(NetgapError):
    """An enumeration or construction would exceed its configured limit."""


class BudgetExhausted(NetgapError):
    """A search ran out of its node budget before reaching a verdict.

    Distinct from a negative verdict: callers must treat this as "unknown".
    """

    def __init__(self, message: str, nodes_used: int = 0):
        super().__init__(message)
        self.nodes_used = nodes_used


class InternalError(NetgapError):
    """A self-check of a result failed: a bug in netgap, never a verdict."""


class UnsolvableNetwork(NetgapError):
    """The network fails the cut criterion; minimality is undefined for it."""


# time.monotonic() value after which every Budget stops its search; None
# means no wall-clock limit.  Set only by `deadline`, which always clears it.
_deadline: float | None = None


@contextmanager
def deadline(seconds: float | None):
    """Stop the searches run inside the block once `seconds` have passed.

    The limit is checked cooperatively by `Budget.spend`: it ends the
    running search at its next checkpoint and, once past, every later
    search too.  None or 0 sets no limit.
    """
    global _deadline
    _deadline = time.monotonic() + seconds if seconds else None
    try:
        yield
    finally:
        _deadline = None


class Budget:
    """Node counter for one search, also enforcing the wall-clock deadline.

    `spend` raises BudgetExhausted when the node limit is reached, and
    before every 1024th node when the deadline has passed.
    """

    __slots__ = ("limit", "used")

    def __init__(self, limit: int):
        self.limit = limit
        self.used = 0

    @property
    def out_of_nodes(self) -> bool:
        """True when the node limit, not the deadline, stopped the search."""
        return self.used >= self.limit

    def spend(self, what: str = "search") -> None:
        used = self.used + 1
        if used > self.limit:
            raise BudgetExhausted(f"{what} budget exhausted", nodes_used=self.used)
        if not used & 1023 and _deadline is not None and time.monotonic() >= _deadline:
            raise BudgetExhausted("wall-clock timeout", nodes_used=self.used)
        self.used = used
