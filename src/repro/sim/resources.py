"""The shared-resource primitive: a counting resource.

:class:`Resource` — N identical slots with a FIFO wait queue — models
the contended things in the paper's scenarios (the schedd's service
threads, a single-threaded web server).  The queue is strictly FIFO,
using the engine's stable event ordering; fairness matters because the
Ethernet argument is about *not* starving competitors.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque

from ..core.errors import SimulationError
from .events import Event

if TYPE_CHECKING:  # pragma: no cover
    from .engine import Engine


class Request(Event):
    """A pending claim on one slot of a :class:`Resource`."""

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource") -> None:
        super().__init__(resource.engine)
        self.resource = resource


class Resource:
    """``capacity`` identical slots with a FIFO queue of waiters."""

    def __init__(self, engine: "Engine", capacity: int = 1) -> None:
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1, got {capacity}")
        self.engine = engine
        self.capacity = capacity
        self.users: list[Request] = []
        self.queue: Deque[Request] = deque()

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self.users)

    def request(self) -> Request:
        """Claim a slot; the returned event fires when the slot is granted."""
        req = Request(self)
        if len(self.users) < self.capacity:
            self.users.append(req)
            req.succeed()
        else:
            self.queue.append(req)
        return req

    def release(self, request: Request) -> None:
        """Return a previously granted slot.

        Releasing an ungranted-but-queued request cancels it (useful when
        a waiter times out and walks away).
        """
        if request in self.users:
            self.users.remove(request)
            self._grant_next()
        else:
            try:
                self.queue.remove(request)
            except ValueError:
                raise SimulationError("release() of a request this resource never saw") from None

    def cancel(self, request: Request) -> None:
        """Remove a still-queued request (no-op if it was already granted)."""
        try:
            self.queue.remove(request)
        except ValueError:
            pass

    def _grant_next(self) -> None:
        while self.queue and len(self.users) < self.capacity:
            nxt = self.queue.popleft()
            self.users.append(nxt)
            nxt.succeed()
