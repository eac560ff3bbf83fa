"""Named, seeded random streams for reproducible experiments.

Every stochastic element of a simulation (each client's jitter, each
producer's file sizes, …) draws from its *own* stream derived from a
master seed and a stable name.  Adding or removing one client therefore
never perturbs the random sequence seen by the others — the standard
"common random numbers" discipline for comparing disciplines fairly.
"""

from __future__ import annotations

import hashlib
import random
from typing import Iterator


def _derive_seed(master: int, name: str) -> int:
    """A stable 64-bit seed from (master, name) — not Python's salted hash()."""
    digest = hashlib.sha256(f"{master}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class RandomStreams:
    """A factory of named, independent ``random.Random`` instances."""

    def __init__(self, master_seed: int = 0) -> None:
        self.master_seed = master_seed
        self._streams: dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """The stream for ``name``, created on first use."""
        if name not in self._streams:
            self._streams[name] = random.Random(_derive_seed(self.master_seed, name))
        return self._streams[name]

    def names(self) -> Iterator[str]:
        return iter(self._streams)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<RandomStreams seed={self.master_seed} streams={len(self._streams)}>"
