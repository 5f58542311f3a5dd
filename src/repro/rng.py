"""Seeded, splittable randomness.

Every run of the simulator is driven by one master seed.  Each node, the
adversary, and the engine itself receive *independent* deterministic
streams derived from that seed, so that

* runs are exactly reproducible from ``(seed, parameters)``;
* changing how often one component draws randomness does not perturb the
  draws seen by any other component (crucial when comparing adversaries).

Streams are plain :class:`random.Random` instances seeded by hashing the
master seed with a stable label.
"""

from __future__ import annotations

import hashlib
import random
from typing import Iterator, List


def derive_seed(master_seed: int, *labels: object) -> int:
    """Derive a 64-bit child seed from ``master_seed`` and a label path.

    The derivation is stable across processes and Python versions (it does
    not use :func:`hash`, which is salted).
    """
    digest = hashlib.sha256()
    digest.update(str(int(master_seed)).encode("ascii"))
    for label in labels:
        digest.update(b"/")
        digest.update(repr(label).encode("utf-8"))
    return int.from_bytes(digest.digest()[:8], "big")


def node_seeds(master_seed: int, n: int) -> List[int]:
    """``[derive_seed(master_seed, "node", u) for u in range(n)]``.

    The shared ``"<master>/'node'/"`` prefix is hashed once and each node
    hashes only its id on a copy of that state.
    """
    prefix = hashlib.sha256(f"{int(master_seed)}/{'node'!r}/".encode("utf-8"))
    seeds = []
    for u in range(n):
        digest = prefix.copy()
        digest.update(str(u).encode("ascii"))
        seeds.append(int.from_bytes(digest.digest()[:8], "big"))
    return seeds


class RngFactory:
    """Factory producing independent named random streams from one seed."""

    def __init__(self, master_seed: int) -> None:
        self.master_seed = int(master_seed)

    def stream(self, *labels: object) -> random.Random:
        """Return a fresh :class:`random.Random` for the given label path."""
        return random.Random(derive_seed(self.master_seed, *labels))

    def node_stream(self, node_id: int) -> random.Random:
        """Return the private random stream of node ``node_id``."""
        return self.stream("node", node_id)

    def adversary_stream(self) -> random.Random:
        """Return the adversary's random stream."""
        return self.stream("adversary")

    def engine_stream(self) -> random.Random:
        """Return the engine's random stream (port wiring etc.)."""
        return self.stream("engine")

    def spawn(self, *labels: object) -> "RngFactory":
        """Return a sub-factory rooted at ``labels`` (for nested components)."""
        return RngFactory(derive_seed(self.master_seed, *labels))


def seed_sequence(master_seed: int, count: int) -> Iterator[int]:
    """Yield ``count`` independent trial seeds derived from ``master_seed``.

    Used by Monte-Carlo sweeps: trial ``i`` of an experiment always sees the
    same seed regardless of how many trials run.
    """
    for i in range(count):
        yield derive_seed(master_seed, "trial", i)
