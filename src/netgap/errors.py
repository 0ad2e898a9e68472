"""Shared exception types and the one search budget.

`Budget` is the only reader of the wall-clock deadline: every search and
every walk that `deadline` must be able to stop spends its nodes on one,
by `spend`, `spend_many` or `each`, so the checkpoint cadence is known
here alone.
"""

from __future__ import annotations

import itertools
import math
import time
from collections.abc import Iterable, Iterator
from contextlib import contextmanager


class NetgapError(Exception):
    """Base class for all workbench errors."""


class SizeLimitExceeded(NetgapError):
    """An enumeration or construction would exceed its size limit."""


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
    """Stop the searches and walks run inside the block once `seconds` have passed.

    The limit is checked cooperatively: each `Budget` reads it at its
    checkpoints, so it ends the running search or walk at its next one
    and, once past, every later one too.  None or 0 sets no limit.
    """
    global _deadline
    _deadline = time.monotonic() + seconds if seconds else None
    try:
        yield
    finally:
        _deadline = None


# the one checkpoint cadence: a Budget reads the deadline before the node at
# 0-based index i when i & _CHECKPOINT_MASK == _CHECKPOINT_MASK, that is
# before every 1024th one
_CHECKPOINT_MASK = 1023


def _check_deadline(done: int) -> None:
    """Raise BudgetExhausted, with `done` nodes used, once the deadline has passed."""
    if _deadline is not None and time.monotonic() >= _deadline:
        raise BudgetExhausted("wall-clock timeout", nodes_used=done)


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
        if i & _CHECKPOINT_MASK == _CHECKPOINT_MASK:
            _check_deadline(i)
        self.used = i + 1

    def spend_many(self, count: int, what: str = "search") -> None:
        """`count` calls of `spend` at once: the same limit, and the deadline
        read once, at the first checkpoint they cross, if they cross one."""
        i = self.used
        end = i + count
        checkpoint = i | _CHECKPOINT_MASK
        if checkpoint < end and checkpoint < self.limit:
            self.used = checkpoint
            _check_deadline(checkpoint)
        if end > self.limit:
            self.used = self.limit
            raise BudgetExhausted(f"{what} budget exhausted", nodes_used=self.limit)
        self.used = end

    def each(self, items: Iterable, what: str = "search") -> Iterator:
        """Yield the items, spending one node on each: one `spend_many` per
        chunk, each ending just before a checkpoint, so the deadline is read
        before the item a `spend` per item would read it at.  A chunk is
        taken ahead, so a list that grows while it is walked must `spend`."""
        items = iter(items)
        while True:
            # up to the next checkpoint, or a whole interval from one
            size = _CHECKPOINT_MASK - (self.used & _CHECKPOINT_MASK) or _CHECKPOINT_MASK + 1
            chunk = list(itertools.islice(items, size))
            if not chunk:
                return
            self.spend_many(len(chunk), what)
            yield from chunk
