"""Sparse operators on the dart set and their Perron eigenvalues.

Every operator here is the adjacency operator ``B`` of the dart-transition
relation (one row per dart, one column per legal continuation) with its
rows scaled by a positive weight w: ``B`` itself, the walk transition
matrix ``P`` (w = 1/outdeg), reweighted variants ``P[e, f] * beta(e)``
(w = beta/outdeg), and the interpolation ``M_t``, entry-wise
``P**(1-t) * B**t`` (w = outdeg**(t-1)).

``B`` factors through the vertices, ``B = T S - J`` (head incidence times
out-incidence, minus the reversal): :class:`FactoredNbOperator` applies it
in O(darts) time and memory, and nothing here forms the ``sum deg (deg -
1)`` transition arcs.  :func:`nb_perron` certifies rho on ``B`` from a
start solved on ``B`` reduced to its branching darts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ._text import CapabilityError, PreconditionError, require_irreducible  # both errors are public names here too
from .graph import Graph


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


def _sums_except(tail: np.ndarray, x: np.ndarray, vertex_count: int, at: np.ndarray, skip: np.ndarray) -> np.ndarray:
    """``y[i]``, the sum of x over the darts leaving vertex ``at[i]`` except
    dart ``skip[i]``, which leaves ``at[i]``: ``outsum[at[i]] - x[skip[i]]``
    with ``outsum[v]`` the sum of x over the darts leaving v, for x >= 0.

    Where ``x[skip[i]]`` outweighs the difference (over half of ``outsum``,
    so at most one i per vertex when x >= 0) the subtraction would cancel,
    so there the other darts are summed directly; every entry keeps full
    relative accuracy.
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
    """The operator ``diag(weight) B`` applied through the vertices in
    O(darts); B itself when ``weight`` is None.

    Where head(e) has degree two (``chain``), ``(Bx)(e)`` is x of e's only
    successor (``successor``); at every other dart (``branching``, with
    heads ``head`` and reverses ``reverse``) it is the sum of x over the
    darts leaving head(e) except rev(e), from :func:`_sums_except`.  Any
    real vector x is accepted: the sums, accurate for x >= 0, are taken
    apart over ``max(x, 0)`` and ``max(-x, 0)`` where x has signs.
    """

    tail: np.ndarray
    vertex_count: int
    chain: np.ndarray
    successor: np.ndarray
    branching: np.ndarray
    head: np.ndarray
    reverse: np.ndarray
    weight: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.tail), len(self.tail))

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        y = np.empty_like(x)
        y[self.chain] = x[self.successor]
        positive = x if x.min() >= 0 else np.maximum(x, 0.0)
        y[self.branching] = _sums_except(self.tail, positive, self.vertex_count, self.head, self.reverse)
        if positive is not x:
            y[self.branching] -= _sums_except(self.tail, positive - x, self.vertex_count, self.head, self.reverse)
        if self.weight is not None:
            y *= self.weight
        return y


def require_nb_irreducible(g: Graph) -> None:
    """Raise :class:`PreconditionError` unless ``g`` is NB-irreducible."""
    require_irreducible(g.irreducibility)


def factored_nb_operator(g: Graph) -> FactoredNbOperator:
    """0/1 adjacency operator ``B`` of the dart-transition relation, in
    O(darts) memory."""
    if g.vertex_count == 0 or int(g.degrees.min()) < 2:
        raise PreconditionError("adjacency operator requires minimum degree >= 2")
    successor = g.chain_successor
    chain, branching = np.flatnonzero(successor >= 0), np.flatnonzero(successor < 0)
    return FactoredNbOperator(
        g.dart_tail, g.vertex_count, chain, successor[chain],
        branching, g.dart_head[branching], g.dart_reverse[branching],
    )


def build_transition_matrix(g: Graph) -> FactoredNbOperator:
    """Row-stochastic walk transition matrix ``P``: B with rows scaled by 1/outdeg."""
    require_nb_irreducible(g)
    return replace(factored_nb_operator(g), weight=1.0 / g.out_degree_vector())


def build_weighted_matrix(g: Graph, beta: np.ndarray) -> FactoredNbOperator:
    """Transition matrix with row e multiplied by beta(e) > 0."""
    beta = np.asarray(beta, dtype=np.float64)
    if beta.shape != (g.dart_count,):
        raise PreconditionError(f"beta must have one weight per dart ({g.dart_count})")
    if np.any(beta <= 0):
        raise PreconditionError("beta weights must be strictly positive")
    p = build_transition_matrix(g)
    return replace(p, weight=beta * p.weight)


def interpolation_matrix(g: Graph, t: float) -> FactoredNbOperator:
    """Entry-wise interpolation ``P**(1-t) * B**t`` between the transition
    matrix (t=0) and B (t=1): B with rows scaled by outdeg**(t-1)."""
    require_nb_irreducible(g)
    return replace(factored_nb_operator(g), weight=g.out_degree_vector() ** (t - 1.0))


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
    op : any square operator with ``shape`` and ``@``: a FactoredNbOperator
        from a builder here, or a dense or sparse matrix
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
    n = op.shape[0]
    if op.shape[0] != op.shape[1]:
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
        w = op @ v
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


def _path_quotient_start(g: Graph, rel_tol: float) -> tuple[np.ndarray, int]:
    """A start vector for :func:`perron` on B, solved on B reduced to its
    branching darts (outdeg > 1), and the number of reduced applications.

    Along a suspended path a Perron pair ``B v = z v`` is geometric:
    ``v_e = z**-L(e) * v_A(e)``, with A and L the ``anchor`` and ``dist`` of
    ``Graph.suspended_paths``.  On the branching darts b that leaves
    ``x = M(z) x``, where ``(M(z) x)_b`` sums ``z**-(L(f) + 1) * x_A(f)``
    over the continuations f of b (Bass's reduction of the Ihara
    determinant), so rho is the z with ``r(M(z)) = 1``.

    x is indexed by path, at the branching dart b_i = ``last[i]``.  The
    continuations of b_i are the darts leaving ``vertex[i]`` except
    f_i = rev(b_i), which begins path ``reverse[i]``, ``length[i]`` darts
    long; so one index i names both, and :func:`_sums_except` applies M(z)
    in O(paths).  The terms ``w_i`` of the f_i form the left Perron vector
    of M(z) when x is the right one.  So each step
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
    vertex, steps, skip = paths.vertex, paths.length, np.arange(len(paths.last))

    x = np.ones(len(steps))
    # lambda = exp(mean log outdeg) <= rho; path darts add log 1 = 0
    z = float(np.exp(np.log(g.degrees[g.dart_head[paths.last]] - 1.0).sum() / g.dart_count))
    lo, hi = 0.0, math.inf
    for step in range(1, _QUOTIENT_STEPS + 1):
        w = x[paths.reverse] * z**-steps
        y = _sums_except(vertex, w, paths.vertex_count, vertex, skip)
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
    start = z**-paths.dist * x[paths.path]
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
