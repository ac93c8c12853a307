"""Per-arc matrices and the variance evaluations that ran on them before
the package stopped forming them, kept as the oracles that the tests
compare against:

* :func:`operator_csr`, any builder's operator as a CSR matrix with one
  entry per transition arc (``sum deg (deg - 1)`` stored arcs);
* the asymptotic variance as it was solved before the reduction to the
  branching vertices: one sparse vertex-split Poisson system of size
  D + V in the unknowns x (darts) and y (vertices), by scipy's sparse LU;
* :func:`chain_asymptotic_variance`, the same limit for any finite chain
  given as a dense or sparse transition matrix, on the same sparse LU;
* the truncated variance, iterated on the per-arc transition matrix,
  which the factored operator replaced.

Kept verbatim, apart from imports, from the per-arc matrix builders,
which return their CSR matrix instead of wrapping it, and from
``chain_asymptotic_variance``, which passes ``I - P`` to this module's
``_pinned_solve``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from nbrw.graph import Graph
from nbrw.operators import FactoredNbOperator, require_nb_irreducible
from nbrw.variance import centered_bit_values

if TYPE_CHECKING:
    import scipy.sparse as sp


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


def operator_csr(g: Graph, op: FactoredNbOperator) -> sp.csr_matrix:
    """``op``, built on ``g``, as :func:`_adjacency_csr` with its rows
    scaled by ``op.weight``."""
    m = _adjacency_csr(g)
    if op.weight is not None:
        m.data *= np.repeat(op.weight, np.diff(m.indptr))
    return m


def build_transition_matrix(g: Graph) -> sp.csr_matrix:
    """Row-stochastic walk transition matrix (rows scaled by 1/outdeg)."""
    require_nb_irreducible(g)
    m = _adjacency_csr(g)
    outdeg = np.diff(m.indptr)
    m.data = np.repeat(1.0 / outdeg, outdeg)
    return m


def truncated_variance(g: Graph, length: int) -> float:
    """Normalized variance of the bit total at a finite walk length.

    Exact up to float rounding; evaluated by iterated matrix-vector
    products, never by forming matrix powers.
    """
    require_nb_irreducible(g)
    if length < 1:
        raise ValueError("length must be >= 1")
    f = centered_bit_values(g)
    p = build_transition_matrix(g)
    n = g.dart_count
    acc = float(f @ f)
    y = f.copy()
    for delta in range(1, length):
        y = p @ y
        acc += 2.0 * (1.0 - delta / length) * float(f @ y)
    return acc / n


def _pinned_solve(a, rhs) -> np.ndarray:
    """Solve ``a x = rhs`` with equation 0 replaced by ``x_0 = 0``, by sparse LU.

    ``a`` is a sparse square matrix; duplicate COO entries add.
    """
    import scipy.sparse as sp
    from scipy.sparse.linalg import splu

    a = sp.coo_matrix(a)
    keep = a.row != 0
    rows = np.append(a.row[keep], 0)
    cols = np.append(a.col[keep], 0)
    data = np.append(a.data[keep], 1.0)
    b = np.array(rhs, dtype=np.float64)
    b[0] = 0.0
    return splu(sp.csc_matrix((data, (rows, cols)), shape=a.shape)).solve(b)


def chain_asymptotic_variance(transition, stationary, values) -> float:
    """Asymptotic normalized variance of a centered additive functional.

    Solves the Poisson equation (I - P) x = f, pinned at x_0 = 0, and
    returns -f' N f + 2 f' N x.  ``transition`` may be dense or
    ``scipy.sparse``.  ``values`` must have stationary mean zero (up to
    rounding), which makes the pinned equation redundant; the pinned
    matrix is nonsingular for any irreducible chain, periodic ones
    included.
    """
    import scipy.sparse as sp

    p = sp.csr_matrix(transition, dtype=np.float64)
    pi = np.asarray(stationary, dtype=np.float64)
    f = np.asarray(values, dtype=np.float64)
    n = p.shape[0]
    if p.shape != (n, n) or pi.shape != (n,) or f.shape != (n,):
        raise ValueError("dimension mismatch between transition, stationary, and values")
    x = _pinned_solve(sp.identity(n, format="csr") - p, f)
    weighted = pi * f
    return float(-weighted @ f + 2.0 * (weighted @ x))


def asymptotic_variance(g: Graph) -> float:
    """Limit of the normalized bit-total variance of stationary walks.

    Solves the vertex-split Poisson system in the unknowns x (darts) and
    y (vertices), with the dart equation of dart 0 pinned to x_0 = 0:

        x_e + x_rev(e) / outdeg(e) - y_head(e) / outdeg(e) = f_e,
        y_v - sum_{tail(f) = v} x_f = 0.

    Eliminating y leaves the pinned (I - P) x = f.  A half-loop is its
    own reverse; its two x entries add when the matrix is assembled.
    """
    import scipy.sparse as sp

    require_nb_irreducible(g)
    f = centered_bit_values(g)
    d, v = g.dart_count, g.vertex_count
    darts, vertices = np.arange(d), d + np.arange(v)
    inv_outdeg = 1.0 / g.out_degree_vector()
    rows = np.concatenate([darts, darts, darts, vertices, d + g.dart_tail])
    cols = np.concatenate([darts, g.dart_reverse, d + g.dart_head, vertices, darts])
    data = np.concatenate([np.ones(d), inv_outdeg, -inv_outdeg, np.ones(v), -np.ones(d)])
    split = sp.coo_matrix((data, (rows, cols)), shape=(d + v, d + v))
    x = _pinned_solve(split, np.concatenate([f, np.zeros(v)]))[:d]
    return float(-(f @ f) + 2.0 * (f @ x)) / d
