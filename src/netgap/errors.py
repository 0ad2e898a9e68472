"""Shared exception types and the one search budget."""

from __future__ import annotations

import math
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

    The limit is checked cooperatively by `check_deadline`: it ends the
    running search or walk at its next checkpoint and, once past, every
    later one too.  None or 0 sets no limit.
    """
    global _deadline
    _deadline = time.monotonic() + seconds if seconds else None
    try:
        yield
    finally:
        _deadline = None


# the one checkpoint cadence: the deadline is read before the node or
# element at 0-based index i when i & CHECKPOINT_MASK == CHECKPOINT_MASK,
# that is before every 1024th one
CHECKPOINT_MASK = 1023


def check_deadline(done: int) -> None:
    """Raise BudgetExhausted, with `done` nodes used, once the deadline has passed.

    `Budget.spend` calls it at every checkpoint; walks that no node limit
    could stop call it at the same checkpoints themselves, passing i.
    """
    if _deadline is not None and time.monotonic() >= _deadline:
        raise BudgetExhausted("wall-clock timeout", nodes_used=done)


def check_deadline_over(done: int, count: int) -> None:
    """`check_deadline` for the elements done..done+count-1 at once: read
    once, at the first checkpoint among them, if there is one."""
    checkpoint = done | CHECKPOINT_MASK
    if checkpoint < done + count:
        check_deadline(checkpoint)


# the node limit of every search that is given none
DEFAULT_BUDGET = 10**8


class Budget:
    """Node counter for one search, also enforcing the wall-clock deadline.

    `spend` raises BudgetExhausted when the node limit is reached, and at
    every checkpoint once the deadline has passed.  With no node limit, the
    default, only the deadline stops the search: for walks whose size is
    known in advance and that must run to the end.
    """

    __slots__ = ("limit", "used")

    def __init__(self, limit: float = math.inf):
        self.limit = limit
        self.used = 0

    @property
    def out_of_nodes(self) -> bool:
        """True when the node limit, not the deadline, stopped the search."""
        return self.used >= self.limit

    def spend(self, what: str = "search") -> None:
        i = self.used
        if i >= self.limit:
            raise BudgetExhausted(f"{what} budget exhausted", nodes_used=i)
        if i & CHECKPOINT_MASK == CHECKPOINT_MASK:
            check_deadline(i)
        self.used = i + 1

    def spend_many(self, count: int, what: str = "search") -> None:
        """`count` calls of `spend` at once: the same limit, and the deadline
        read once, at the first checkpoint they cross, if they cross one."""
        i = self.used
        end = i + count
        checkpoint = i | CHECKPOINT_MASK
        if checkpoint < min(end, self.limit):
            self.used = checkpoint
            check_deadline(checkpoint)
        if end > self.limit:
            self.used = self.limit
            raise BudgetExhausted(f"{what} budget exhausted", nodes_used=self.limit)
        self.used = end
