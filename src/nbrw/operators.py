"""Sparse operators on the dart set and their Perron eigenvalues.

Three operators share the same sparsity pattern (one row per dart, one
column per legal continuation):

* the 0/1 adjacency operator ``B`` of the dart-transition relation,
* the walk transition matrix ``P`` with row entries 1/outdeg(e),
* reweighted variants with entry ``P[e, f] * beta(e)`` for positive beta.

The interpolation ``M_t`` (entry-wise ``P**(1-t) * B**t``) is the beta
variant with ``beta(e) = outdeg(e)**t``.

``B`` factors through the vertices, ``B = T S - J`` (head incidence times
out-incidence, minus the reversal): the matrices are built from that
product, and :class:`FactoredNbOperator` applies it in O(darts) time and
memory without forming the transition arcs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .graph import Graph, IrreducibilityVerdict

# scipy.sparse takes most of the time of ``import nbrw``, and only the
# per-arc matrix builders and perron on a matrix need it, so they import
# it where they use it
if TYPE_CHECKING:
    import scipy.sparse as sp


class PreconditionError(ValueError):
    """A graph does not satisfy an operation's stated precondition."""


class PowerIterationError(RuntimeError):
    """Power iteration failed to converge; carries the last bracket."""

    def __init__(self, message: str, last_estimate: float, iterations: int):
        super().__init__(message)
        self.last_estimate = last_estimate
        self.iterations = iterations


# iterations without a new narrowest bracket after which perron gives up
_STALL_ITERATIONS = 1000


@dataclass(frozen=True)
class NbOperator:
    """A sparse operator over darts together with its construction kind."""

    matrix: sp.csr_matrix
    kind: str

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class FactoredNbOperator:
    """The adjacency operator ``B`` applied through the vertices in O(darts).

    ``(Bx)(e) = z[plus[e]] - z[minus[e]]`` over ``z = (outsum, x, 0)``, with
    ``outsum[v]`` the sum of x over the darts leaving v: at a head of degree
    two, ``plus`` picks x of e's only successor and ``minus`` the 0, so the
    value is exact; elsewhere they pick ``outsum[head e]`` and ``x[rev e]``.
    Where ``x[rev e]`` outweighs the difference (at most one dart per
    vertex) the subtraction would cancel, so there the other out-darts are
    summed directly; every entry keeps full relative accuracy.
    """

    tail: np.ndarray
    head: np.ndarray
    reverse: np.ndarray
    plus: np.ndarray
    minus: np.ndarray
    vertex_count: int

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.tail), len(self.tail))

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        z = np.concatenate((np.bincount(self.tail, x, self.vertex_count), x, [0.0]))
        sub = z[self.minus]
        y = z[self.plus] - sub
        hit = y < sub
        if hit.any():
            rest = x.copy()
            rest[self.reverse[hit]] = 0.0
            y[hit] = np.bincount(self.tail, rest, self.vertex_count)[self.head[hit]]
        return y


def require_nb_irreducible(g: Graph) -> None:
    """Raise :class:`PreconditionError` unless ``g`` is NB-irreducible."""
    if g.irreducibility is not IrreducibilityVerdict.OK:
        raise PreconditionError(f"requires NB-irreducibility, got {g.irreducibility.value}")


def _adjacency_csr(g: Graph) -> sp.csr_matrix:
    """``T S - J`` as a CSR matrix; the subtraction drops each (e, reverse e)."""
    import scipy.sparse as sp

    n, v = g.dart_count, g.vertex_count
    ones = np.ones(n)
    darts = np.arange(n)
    head = sp.csr_matrix((ones, (darts, g.dart_head)), shape=(n, v))
    out = sp.csr_matrix((ones, (g.dart_tail, darts)), shape=(v, n))
    reverse = sp.csr_matrix((ones, (darts, g.dart_reverse)), shape=(n, n))
    return head @ out - reverse


def build_nb_matrix(g: Graph) -> NbOperator:
    """0/1 adjacency operator of the dart-transition relation."""
    if g.vertex_count == 0 or int(g.degrees.min()) < 2:
        raise PreconditionError("adjacency operator requires minimum degree >= 2")
    return NbOperator(matrix=_adjacency_csr(g), kind="adjacency")


def factored_nb_operator(g: Graph) -> FactoredNbOperator:
    """The adjacency operator of :func:`build_nb_matrix` in O(darts) memory."""
    if g.vertex_count == 0 or int(g.degrees.min()) < 2:
        raise PreconditionError("adjacency operator requires minimum degree >= 2")
    head, rev = g.dart_head, g.dart_reverse
    successor = g.chain_successor
    chain = successor >= 0
    v, d = g.vertex_count, g.dart_count
    plus = np.where(chain, v + successor, head)
    minus = np.where(chain, v + d, v + rev)
    return FactoredNbOperator(g.dart_tail, head, rev, plus, minus, v)


def build_transition_matrix(g: Graph) -> NbOperator:
    """Row-stochastic walk transition matrix (rows scaled by 1/outdeg)."""
    require_nb_irreducible(g)
    m = _adjacency_csr(g)
    outdeg = np.diff(m.indptr)
    m.data = np.repeat(1.0 / outdeg, outdeg)
    return NbOperator(matrix=m, kind="transition")


def build_weighted_matrix(g: Graph, beta: np.ndarray) -> NbOperator:
    """Transition matrix with row e multiplied by beta(e) > 0."""
    beta = np.asarray(beta, dtype=np.float64)
    if beta.shape != (g.dart_count,):
        raise PreconditionError(f"beta must have one weight per dart ({g.dart_count})")
    if np.any(beta <= 0):
        raise PreconditionError("beta weights must be strictly positive")
    m = build_transition_matrix(g).matrix  # freshly built, so it is scaled in place
    m.data *= np.repeat(beta, np.diff(m.indptr))
    return NbOperator(matrix=m, kind="weighted")


def interpolation_matrix(g: Graph, t: float) -> NbOperator:
    """Entry-wise interpolation between the transition matrix (t=0) and B (t=1)."""
    outdeg = g.out_degree_vector().astype(np.float64)
    return build_weighted_matrix(g, outdeg**t)


def stationary_distribution(g: Graph) -> np.ndarray:
    """Uniform distribution over darts, the walk's stationary law."""
    if g.dart_count == 0:
        raise PreconditionError("graph has no darts")
    return np.full(g.dart_count, 1.0 / g.dart_count)


@dataclass(frozen=True)
class PerronResult:
    """Perron value with its Collatz-Wielandt bracket ``low <= value <= high``,
    ``high - low <= rel_tol * low``; each iteration is one matvec."""

    value: float
    iterations: int
    rel_tol: float
    low: float
    high: float


def _as_matrix(op):
    if isinstance(op, NbOperator):
        return op.matrix
    if isinstance(op, FactoredNbOperator):
        return op
    import scipy.sparse as sp

    if sp.issparse(op):
        return op.tocsr()
    return sp.csr_matrix(np.asarray(op, dtype=np.float64))


def perron(op, rel_tol: float = 1e-12, max_iter: int | None = None, start=None) -> PerronResult:
    """Largest eigenvalue of a non-negative irreducible operator.

    For a positive vector v the Perron value lies between min and max of
    ``(op v) / v`` (Collatz-Wielandt).  Each iteration evaluates that
    bracket and returns its midpoint once ``high - low <= rel_tol * low``;
    otherwise v moves to ``(op + I) v`` (same Perron vector, spectrum
    shifted by one, which defeats the periodicity of subdivided graphs).
    A ``start`` close to the Perron vector returns after one iteration.

    Parameters
    ----------
    op : NbOperator, FactoredNbOperator, sparse matrix, or 2d array
    rel_tol : certified relative width of the returned bracket
    max_iter : iteration cap; defaults to ``100 n log n + 1000``
    start : positive initial vector; defaults to the constant vector

    Raises
    ------
    PowerIterationError
        If the bracket does not tighten within ``max_iter`` iterations, or
        stops narrowing for ``_STALL_ITERATIONS`` iterations (its width
        never grows in exact arithmetic, so that is rounding noise above
        ``rel_tol``); the exception carries the last midpoint estimate.
    """
    m = _as_matrix(op)
    n = m.shape[0]
    if m.shape[0] != m.shape[1]:
        raise ValueError("operator must be square")
    if n == 0:
        raise ValueError("operator is empty")
    if max_iter is None:
        max_iter = int(100 * n * max(math.log(n), 1.0)) + 1000

    v = np.full(n, 1.0 / n) if start is None else np.asarray(start, dtype=np.float64)
    if v.shape != (n,) or not np.all(v > 0) or not np.all(np.isfinite(v)):
        raise ValueError("start must be a finite positive vector, one entry per row")
    low = high = 0.0
    narrowest, narrowed_at = math.inf, 0
    for iteration in range(1, max_iter + 1):
        w = m @ v
        ratios = w / v
        low = float(ratios.min())
        high = float(ratios.max())
        if high - low <= rel_tol * low:
            return PerronResult((low + high) / 2.0, iteration, rel_tol, low, high)
        if high - low < narrowest:
            narrowest, narrowed_at = high - low, iteration
        elif iteration - narrowed_at >= _STALL_ITERATIONS:
            raise PowerIterationError(
                f"the Perron bracket stopped narrowing at relative width {narrowest / low:.1e}, "
                f"above rel_tol={rel_tol}: floating point cannot resolve it further",
                last_estimate=(low + high) / 2.0,
                iterations=iteration,
            )
        w += v
        v = w / np.linalg.norm(w)
    raise PowerIterationError(
        f"no convergence to rel_tol={rel_tol} within {max_iter} iterations",
        last_estimate=(low + high) / 2.0,
        iterations=max_iter,
    )


def perron_value(op, rel_tol: float = 1e-12, max_iter: int | None = None) -> float:
    return perron(op, rel_tol=rel_tol, max_iter=max_iter).value


def cover_growth_rate(g: Graph, rel_tol: float = 1e-12) -> float:
    """Exponential growth rate of the universal covering tree.

    Equals the Perron eigenvalue of the dart adjacency operator; requires
    an NB-irreducible graph.
    """
    require_nb_irreducible(g)
    return perron_value(factored_nb_operator(g), rel_tol=rel_tol)


def count_nb_walks(g: Graph, dart_index: int, length: int) -> int:
    """Exact number of non-backtracking walks of ``length`` steps from a dart.

    Big-integer vector iteration of the factored operator,
    ``x[e] <- outsum[head e] - x[reverse e]`` starting from the all-ones
    vector, so the result never overflows.
    """
    if length < 0:
        raise ValueError("length must be non-negative")
    if not (0 <= dart_index < g.dart_count):
        raise ValueError("dart index out of range")
    leaving = [g.out_darts(v) for v in range(g.vertex_count)]
    head, reverse = g.dart_head.tolist(), g.dart_reverse.tolist()
    x = [1] * g.dart_count
    for _ in range(length):
        outsum = [sum(map(x.__getitem__, darts)) for darts in leaving]
        x = list(map(int.__sub__, map(outsum.__getitem__, head), map(x.__getitem__, reverse)))
    return x[dart_index]


def enumerate_nb_walks(g: Graph, dart_index: int, length: int) -> int:
    """Count the same walks by explicit recursive enumeration.

    Independent of :func:`count_nb_walks` (no shared iteration); intended
    as a brute-force cross-check for small lengths, so it refuses
    length > 12.
    """
    if length < 0:
        raise ValueError("length must be non-negative")
    if length > 12:
        raise ValueError("enumeration is a desk-scale oracle; length must be <= 12")

    def walk(e: int, remaining: int) -> int:
        if remaining == 0:
            return 1
        total = 0
        head = int(g.dart_head[e])
        rev = int(g.dart_reverse[e])
        for f in g.out_darts(head):
            if f != rev:
                total += walk(f, remaining - 1)
        return total

    return walk(dart_index, length)
