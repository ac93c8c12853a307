"""Counter-based random stream for reproducible walk sampling.

Every 64-bit draw is a pure function of (seed, stream, step): the seed is
hashed once into a run key, each stream (one per walk sample) derives its
own key, and each step finalizes key + step * GOLDEN with the splitmix64
mixer.  Draws therefore never depend on scheduling or worker count, and
the compiled and numpy implementations produce bit-identical values.

Successor choices use the draw modulo the branching degree; the modulo
bias is of order degree / 2**64 and irrelevant at any feasible sample
count.

The Python reference of the stream that both kernels are checked against;
the package reads none of it.  Kept verbatim, apart from this paragraph.
"""

from __future__ import annotations

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
SEED_TWEAK = 0xD1B54A32D192ED03


def mix64(z: int) -> int:
    """splitmix64 finalizer on a 64-bit value."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def run_key(seed: int) -> int:
    return mix64((seed & MASK64) * GOLDEN + SEED_TWEAK)


def stream_key(seed: int, stream: int) -> int:
    return mix64(run_key(seed) + ((stream + 1) * GOLDEN & MASK64))


def draw(key: int, step: int) -> int:
    """64-bit draw number ``step`` (0-based) of a stream."""
    return mix64(key + ((step + 1) * GOLDEN & MASK64))
