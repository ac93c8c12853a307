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
memory without forming the transition arcs.  :func:`nb_perron` certifies
rho on ``B`` from a start solved on ``B`` reduced to its branching darts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
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

# steps of the reduced solve after which nb_perron lifts it as it stands
_QUOTIENT_STEPS = 500


@dataclass(frozen=True)
class NbOperator:
    """A sparse operator over darts together with its construction kind."""

    matrix: sp.csr_matrix
    kind: str

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]


def _sums_except(tail: np.ndarray, x: np.ndarray, vertex_count: int, at: np.ndarray, skip: np.ndarray) -> np.ndarray:
    """``y[i]``, the sum of x over the darts leaving vertex ``at[i]`` except
    dart ``skip[i]``, which leaves ``at[i]``: ``outsum[at[i]] - x[skip[i]]``
    with ``outsum[v]`` the sum of x over the darts leaving v.

    Where ``x[skip[i]]`` outweighs the difference (over half of ``outsum``,
    so at most one i per vertex) the subtraction would cancel, so there the
    other darts are summed directly; every entry keeps full relative
    accuracy.
    """
    sub = x[skip]
    y = np.bincount(tail, x, vertex_count)[at] - sub
    hit = y < sub
    if hit.any():
        rest = x.copy()
        rest[skip[hit]] = 0.0
        y[hit] = np.bincount(tail, rest, vertex_count)[at[hit]]
    return y


@dataclass(frozen=True)
class FactoredNbOperator:
    """The adjacency operator ``B`` applied through the vertices in O(darts).

    Where head(e) has degree two (``chain``), ``(Bx)(e)`` is x of e's only
    successor (``successor``); at every other dart (``branching``, with
    heads ``head`` and reverses ``reverse``) it is the sum of x over the
    darts leaving head(e) except rev(e), from :func:`_sums_except`.
    """

    tail: np.ndarray
    vertex_count: int
    chain: np.ndarray
    successor: np.ndarray
    branching: np.ndarray
    head: np.ndarray
    reverse: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.tail), len(self.tail))

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        y = np.empty_like(x)
        y[self.chain] = x[self.successor]
        y[self.branching] = _sums_except(self.tail, x, self.vertex_count, self.head, self.reverse)
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
    successor = g.chain_successor
    chain, branching = np.flatnonzero(successor >= 0), np.flatnonzero(successor < 0)
    return FactoredNbOperator(
        g.dart_tail, g.vertex_count, chain, successor[chain],
        branching, g.dart_head[branching], g.dart_reverse[branching],
    )


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
    ``high - low <= rel_tol * low``, after ``iterations`` power steps on the
    operator; ``matvecs`` counts those and every application of a reduced
    operator that chose the start (:func:`nb_perron`)."""

    value: float
    iterations: int
    rel_tol: float
    low: float
    high: float
    matvecs: int


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
            return PerronResult((low + high) / 2.0, iteration, rel_tol, low, high, iteration)
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
        v = w / w.max()  # not np.linalg.norm: its BLAS dot starts threads on long vectors
    raise PowerIterationError(
        f"no convergence to rel_tol={rel_tol} within {max_iter} iterations",
        last_estimate=(low + high) / 2.0,
        iterations=max_iter,
    )


def perron_value(op, rel_tol: float = 1e-12, max_iter: int | None = None) -> float:
    return perron(op, rel_tol=rel_tol, max_iter=max_iter).value


def _path_quotient_start(g: Graph, rel_tol: float) -> tuple[np.ndarray, int]:
    """A start vector for :func:`perron` on B, solved on B reduced to its
    branching darts (outdeg > 1), and the number of reduced applications.

    Along a suspended path a Perron pair ``B v = z v`` is geometric:
    ``v_e = z**-L(e) * v_A(e)``, with A and L the ``anchor`` and ``dist`` of
    ``Graph.suspended_paths``.  On the branching darts b that leaves
    ``x = M(z) x``, where ``(M(z) x)_b`` sums ``z**-(L(f) + 1) * x_A(f)``
    over the continuations f of b (Bass's reduction of the Ihara
    determinant), so rho is the z with ``r(M(z)) = 1``.

    The continuations of b_i are the darts leaving head(b_i) except
    f_i = rev(b_i), so one index i names both, and :func:`_sums_except`
    applies M(z) in O(branching darts).  The terms ``w_i`` of the f_i form
    the left Perron vector of M(z) when x is the right one.  So each step
    is one power step on x, shifted by ``I / z`` (perron's own ``+I`` when
    no vertex has degree two and ``M(z) = B / z``), and one Newton step on
    ``log r = 0`` in log z, with r and its slope from w.

    The lift ``z**-L(e) * x_A(e)`` has the ratio ``(Bv) / v = z`` on every
    path dart and ``z (M(z) x)_b / x_b`` on the branching ones, so every
    step brackets rho in ``[z min(1, m), z max(1, M)]``, with m and M the
    least and greatest of ``(M(z) x) / x``.  A Newton step that leaves the
    intersection of these brackets is replaced by its midpoint; r decreases
    in z, so the brackets close on rho.
    """
    paths = g.suspended_paths
    darts = np.flatnonzero(g.chain_successor < 0)
    index = np.empty(g.dart_count, dtype=np.int64)
    index[darts] = skip = np.arange(len(darts))
    starts = g.dart_reverse[darts]
    vertices, vertex = np.unique(g.dart_head[darts], return_inverse=True)
    steps = paths.dist[starts] + 1.0
    anchor = index[paths.anchor[starts]]

    x = np.ones(len(darts))
    # lambda = exp(mean log outdeg) <= rho; path darts add log 1 = 0
    z = float(np.exp(np.log(g.degrees[g.dart_head[darts]] - 1.0).sum() / g.dart_count))
    lo, hi = 0.0, math.inf
    for step in range(1, _QUOTIENT_STEPS + 1):
        w = x[anchor] * z**-steps
        y = _sums_except(vertex, w, len(vertices), vertex, skip)
        ratios = y / x
        low, high = z * min(1.0, float(ratios.min())), z * max(1.0, float(ratios.max()))
        if high - low <= rel_tol * low / 2:
            break
        lo, hi = max(lo, low), min(hi, high)
        # sums, not BLAS dot products: those start threads for long vectors
        wy = w * y
        newton = z * (wy.sum() / (w * x).sum()) ** (wy.sum() / (steps * wy).sum())
        z = newton if lo < newton < hi else (lo + hi) / 2
        x = x / z + y
        x /= x.max()
    start = z**-paths.dist * x[index[paths.anchor]]
    # perron needs a positive start; it repairs any entry that underflowed
    return np.maximum(start, np.finfo(np.float64).tiny), step


def nb_perron(g: Graph, rel_tol: float = 1e-12, start=None) -> PerronResult:
    """Perron value rho of the dart adjacency operator B, certified on B.

    :func:`perron` on :func:`factored_nb_operator` from ``start``, by
    default the lift of the reduced solve (:func:`_path_quotient_start`),
    whose applications count in ``matvecs``.  The bracket is always B's, so
    a poor start costs matvecs, never correctness.  Requires an
    NB-irreducible graph.
    """
    require_nb_irreducible(g)
    reduced = 0
    if start is None:
        start, reduced = _path_quotient_start(g, rel_tol)
    result = perron(factored_nb_operator(g), rel_tol=rel_tol, start=start)
    return replace(result, matvecs=result.matvecs + reduced)


def cover_growth_rate(g: Graph, rel_tol: float = 1e-12) -> float:
    """Exponential growth rate of the universal covering tree.

    Equals the Perron eigenvalue of the dart adjacency operator
    (:func:`nb_perron`); requires an NB-irreducible graph.
    """
    return nb_perron(g, rel_tol=rel_tol).value


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
