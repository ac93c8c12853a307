"""The asymptotic variance as it was solved before the reduction to the
branching vertices: one sparse vertex-split Poisson system of size D + V
in the unknowns x (darts) and y (vertices), by scipy's sparse LU.

Kept verbatim (apart from imports) as the oracle that ``test_variance.py``
compares the reduced solve against.
"""

from __future__ import annotations

import numpy as np

from nbrw.graph import Graph
from nbrw.operators import require_nb_irreducible
from nbrw.variance import centered_bit_values


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
