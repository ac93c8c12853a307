"""Vectorized numpy implementation of the walk-sampling kernel.

Bit-identical to the compiled kernel: draws come from the same
counter-based stream, successor choice is the same modulo reduction,
uint64 arithmetic wraps exactly like the C version, and walks jump along
suspended paths the same way.  Each walk keeps its own step counter, so
the live walks advance together, one jump and one step per round.
"""

from __future__ import annotations

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_SEED_TWEAK = np.uint64(0xD1B54A32D192ED03)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)


def _mix64(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> _S30)) * _M1
    z = (z ^ (z >> _S27)) * _M2
    return z ^ (z >> _S31)


def sample_counts(seed, first_sample, length, out_flat, dart_table, value_index, out_counts, out_end):
    with np.errstate(over="ignore"):  # uint64 wraparound is the whole point
        _sample_counts(seed, first_sample, length, out_flat, dart_table, value_index, out_counts, out_end)


def _sample_counts(seed, first_sample, length, out_flat, dart_table, value_index, out_counts, out_end):
    out_counts, out_end = np.asarray(out_counts), np.asarray(out_end)  # views of any writable buffers
    n_samples = out_counts.shape[0]
    n_darts = np.uint64(len(out_flat))
    run = _mix64(np.uint64(seed & 0xFFFFFFFFFFFFFFFF) * _GOLDEN + _SEED_TWEAK)
    streams = np.arange(first_sample, first_sample + n_samples, dtype=np.uint64)
    keys = _mix64(run + (streams + np.uint64(1)) * _GOLDEN)

    first, skip, outdeg, anchor, dist = dart_table
    outdeg = outdeg.astype(np.uint64)
    length = int(length)

    # the live walks: sample row, stream key, current dart and steps taken
    rows = np.arange(n_samples)
    cur = (_mix64(keys + _GOLDEN) % n_darts).astype(np.int64)  # step 0: initial dart
    steps = np.zeros(n_samples, dtype=np.int64)
    while rows.size:
        # jump to the end of a suspended path when the walk gets there
        d = dist[cur]
        jump = d <= length - steps  # always where d == 0, and anchor[cur] == cur there
        cur = np.where(jump, anchor[cur], cur)
        steps += np.where(jump, d, 0)
        done = steps >= length
        if done.any():
            out_end[rows[done]] = cur[done]
            live = ~done
            rows, keys, cur, steps = rows[live], keys[live], cur[live], steps[live]
        # one step, with draw number steps + 1; a walk that ends inside a
        # path is on an outdeg-1 dart there, so the draw picks its one
        # successor and nothing counts
        vi = value_index[cur]
        counted = vi >= 0
        out_counts[rows[counted], vi[counted]] += 1
        u = _mix64(keys + (steps.astype(np.uint64) + np.uint64(2)) * _GOLDEN)
        k = first[cur] + (u % outdeg[cur]).astype(np.int64)
        k += k >= skip[cur]  # step over reverse(cur)
        cur = out_flat[k]
        steps += 1
