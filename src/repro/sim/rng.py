"""Deterministic random-number streams.

The paper's methodology (following Alameldeen et al.) injects small random
latency perturbations to sample the space of legal interleavings, and its
microbenchmarks insert a random post-release delay to keep lock hand-off
fair.  Both uses need reproducibility: the same seed must replay the same
execution so results (and bugs) are repeatable.

Each component derives its own child stream from a root seed via a stable
string name, so adding a new consumer never shifts another component's
sequence.
"""

from __future__ import annotations

import random
import zlib


class RandomStreams:
    """A factory of independent, deterministically-seeded RNG streams."""

    def __init__(self, seed: int = 0):
        self.seed = seed

    def stream(self, name: str) -> random.Random:
        """Return a ``random.Random`` unique to (root seed, name)."""
        child_seed = (self.seed * 0x9E3779B1 + zlib.crc32(name.encode())) \
            & 0xFFFFFFFF
        return random.Random(child_seed)


class LatencyPerturber:
    """Adds a small random jitter to memory-system latencies.

    Mirrors the perturbation methodology the paper cites for evaluating
    non-deterministic multithreaded workloads: a few cycles of noise on
    each memory-system event decorrelates accidental lock-step behaviour
    between processors without changing average latency materially.
    """

    def __init__(self, rng: random.Random, max_jitter: int = 2):
        self.max_jitter = max_jitter
        # randrange(span) is CPython's _randbelow_with_getrandbits (one
        # loop on 3.10-3.12): draw span.bit_length() bits until below
        # span.  perturb runs it inline: the same stream, one frame less.
        self._span = max_jitter + 1
        self._bits = self._span.bit_length()
        self._getrandbits = rng.getrandbits

    def perturb(self, latency: int) -> int:
        """Return ``latency`` plus 0..max_jitter cycles of jitter."""
        if self.max_jitter <= 0:
            return latency
        r = self._getrandbits(self._bits)
        while r >= self._span:
            r = self._getrandbits(self._bits)
        return latency + r
