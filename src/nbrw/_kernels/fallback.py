"""Vectorized numpy twins of the compiled kernel's two functions.

``walk_tables`` lays the darts out as ``_walk.c`` does, with the same
verdict and the same tables, by a stable argsort, pointer doubling and
min-label hooking.  ``sample_counts`` is bit-identical to the compiled
sampler: draws come from the same counter-based stream, successor choice
is the same modulo reduction, uint64 arithmetic wraps exactly like the C
version, and walks jump along suspended paths the same way.  Each walk
keeps its own step counter, so the live walks advance together, one jump
and one step per round.
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


def walk_tables(vertex_count, paired, tails):
    """``(verdict, out_flat, dart_table, value_index, degrees)`` of the darts
    with these tails, numbered as :func:`nbrw._text.number_darts` numbers
    them, as read-only arrays of the compiled ``walk_tables``' bytes.

    The verdict is :func:`nbrw.graph.is_nb_irreducible`'s.  ``out_flat``
    holds the darts grouped by tail; ``dart_table`` has rows ``first``,
    ``skip``, ``outdeg``, ``anchor`` and ``dist``, one column per dart:
    e's j-th successor (j < outdeg(e)) is ``out_flat[k + (k >= skip[e])]``
    with ``k = first[e] + j``, and a walk on e reaches ``anchor[e]``, the
    first dart with outdeg other than 1, ``dist[e]`` steps later without a
    draw (-1 and -1 on a cycle component).  ``value_index`` indexes each
    dart's outdeg in ``degrees``, the distinct outdeg > 1 (-1 elsewhere).
    """
    tail = np.asarray(tails, dtype=np.int64)
    n = len(tail)
    if not (vertex_count >= 0 and 0 <= paired <= n and paired % 2 == 0 and ((0 <= tail) & (tail < vertex_count)).all()):
        raise ValueError("tails must be vertices, with an even number of paired darts first")
    reverse = np.arange(n) ^ (np.arange(n) < paired)
    head = tail[reverse]
    degrees = np.bincount(tail, minlength=vertex_count)
    if vertex_count == 0 or not _is_connected(vertex_count, tail, head):
        verdict = "not_connected"
    else:
        verdict = "min_degree_below_2" if degrees.min() < 2 else "is_cycle" if degrees.max() <= 2 else "ok"

    offsets = np.zeros(vertex_count + 1, dtype=np.int64)
    np.cumsum(degrees, out=offsets[1:])
    out_flat = np.argsort(tail, kind="stable").astype(np.int64)
    position = np.empty(n, dtype=np.int64)
    position[out_flat] = np.arange(n)
    first, skip, outdeg = offsets[head], position[reverse], degrees[head] - 1
    # a dart with outdeg 1 moves to its one successor and every other dart
    # stays put; pointer doubling along those moves finds each dart's anchor
    # and distance in O(D log D), and leaves a cycle component unfinished
    chain, is_last = np.flatnonzero(outdeg == 1), outdeg != 1
    k = first[chain]
    anchor = np.arange(n)
    anchor[chain] = out_flat[k + (k >= skip[chain])]
    dist = (~is_last).astype(np.int64)
    for _ in range(n.bit_length() + 1):
        if is_last[anchor].all():
            break
        dist += dist[anchor]
        anchor = anchor[anchor]
    on_cycle = ~is_last[anchor]
    anchor[on_cycle] = dist[on_cycle] = -1

    tracked = np.zeros(n + 1, dtype=bool)
    tracked[outdeg[outdeg > 1]] = True
    value_index = np.where(outdeg > 1, np.cumsum(tracked)[outdeg] - 1, -1).astype(np.int32)
    tables = out_flat, np.stack((first, skip, outdeg, anchor, dist)), value_index, np.flatnonzero(tracked)
    for table in tables:
        table.flags.writeable = False
    return (verdict, *tables)


def _is_connected(vertex_count, tail, head) -> bool:
    """Whether every vertex's component label, the smallest vertex in its
    component over the darts, is 0.  Min-label hooking: every root takes
    the smallest root across its darts, then pointer jumping sends every
    vertex to its root."""
    label = np.arange(vertex_count)
    while True:
        tails, heads = label[tail], label[head]
        cross = tails != heads
        if not cross.any():
            return not label.any()
        np.minimum.at(label, tails[cross], heads[cross])
        while True:
            jumped = label[label]
            if np.array_equal(jumped, label):
                break
            label = jumped


def sample_counts(seed, first_sample, length, out_flat, dart_table, value_index, out_counts, out_end):
    with np.errstate(over="ignore"):  # uint64 wraparound is the whole point
        _sample_counts(seed, first_sample, length, out_flat, dart_table, value_index, out_counts, out_end)


def _sample_counts(seed, first_sample, length, out_flat, dart_table, value_index, out_counts, out_end):
    out_counts, out_end = np.asarray(out_counts), np.asarray(out_end)  # views of any writable buffers
    out_flat, value_index = np.asarray(out_flat), np.asarray(value_index)
    n_samples = out_counts.shape[0]
    n_darts = np.uint64(len(out_flat))
    run = _mix64(np.uint64(seed & 0xFFFFFFFFFFFFFFFF) * _GOLDEN + _SEED_TWEAK)
    streams = np.arange(first_sample, first_sample + n_samples, dtype=np.uint64)
    keys = _mix64(run + (streams + np.uint64(1)) * _GOLDEN)

    first, skip, outdeg, anchor, dist = np.asarray(dart_table)
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
