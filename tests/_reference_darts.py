"""The numpy dart tables and degree histogram from before the dart
numbering moved to the text layer, kept as the oracles that the tests
compare against:

* :class:`DartArrays`, the array block of ``Graph.__init__``: per dart its
  tail, head, reverse and edge, numbered from the edge kinds by numpy;
* :func:`degree_histogram`, the ``degree_histogram`` of the analyze
  report, from a ``Graph``'s dart tails by ``np.unique``.

Kept verbatim, apart from imports (the histogram's numpy import moved to the
top), from the class around the array block, which takes the checked edges
as they are, and from the histogram's name, which lost its leading underscore.
"""

from __future__ import annotations

import numpy as np

from nbrw.graph import HALF_LOOP, Graph


class DartArrays:
    def __init__(self, edges: list[tuple[int, int, str]]):
        self.edges = tuple(edges)

        ends = np.asarray([(a, b) for a, b, _ in self.edges], dtype=np.int64).reshape(-1, 2)
        is_half = np.asarray([kind == HALF_LOOP for _, _, kind in self.edges], dtype=bool)
        paired, halves = np.flatnonzero(~is_half), np.flatnonzero(is_half)
        paired_darts = 2 * len(paired)
        self.dart_tail = np.concatenate([ends[paired].ravel(), ends[halves, 0]])
        self.dart_head = np.concatenate([ends[paired, ::-1].ravel(), ends[halves, 0]])
        self.dart_reverse = np.concatenate(
            [np.arange(paired_darts) ^ 1, np.arange(paired_darts, paired_darts + len(halves))]
        )
        self.dart_edge = np.concatenate([np.repeat(paired, 2), halves])
        self.dart_count = len(self.dart_tail)


def degree_histogram(g: Graph) -> dict[str, int]:
    # count the vertices that darts leave; the others, however many the header declares, have degree 0
    degrees = np.unique(g.dart_tail, return_counts=True)[1]
    counts = np.bincount(degrees, minlength=1)
    counts[0] = g.vertex_count - len(degrees)
    return {str(d): int(counts[d]) for d in np.flatnonzero(counts).tolist()}
