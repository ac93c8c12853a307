"""Asymptotic variance of the walk's bit consumption.

With f the dart vector log2(outdeg) - log2(average growth rate), the
normalized variance of the bit total over length-l stationary walks is

    var_l / l = (f' N f) + 2 * sum_{d=1}^{l-1} (1 - d/l) * f' N P**d f,

with N the diagonal of the stationary distribution and P the walk
transition matrix.  Its l -> infinity limit is evaluated without any
eigendecomposition through the Poisson equation

    limit = -f' N f + 2 f' N x,   (I - P) x = f,

which is singular only along the constants; since pi . f = 0, one
equation is redundant and is replaced by the pin x_0 = 0, and the limit
does not depend on the constant that the pin fixes.  On a graph the
system is never formed from P's sum deg * (deg - 1) arcs: P factors
through the vertices, (P x)(e) = (y[head e] - x[rev e]) / outdeg(e) with
y[v] the sum of x over the darts leaving v (the Hashimoto operator
B = T S - J of Bass), so x and y solve one sparse system of size D + V
with O(D + V) nonzeros.  Its sparse LU never forms a D x D matrix: memory
grows with D + V and the factor's fill, not with D**2.  The truncated sum
doubles as an independent oracle for the solve.

scipy is imported inside the solves, so importing this module costs no
scipy import: only a command that solves pays for it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .conditions import _lambda
from .graph import Graph
from .operators import build_transition_matrix, require_nb_irreducible


def centered_bit_values(g: Graph) -> np.ndarray:
    """Per-dart bit consumption minus its stationary mean.

    The result has stationary (uniform) mean zero up to float rounding.
    """
    require_nb_irreducible(g)
    outdeg = g.out_degree_vector().astype(np.float64)
    return np.log2(outdeg) - _lambda(g).log2()


def truncated_variance(g: Graph, length: int) -> float:
    """Normalized variance of the bit total at a finite walk length.

    Exact up to float rounding; evaluated by iterated matrix-vector
    products, never by forming matrix powers.
    """
    require_nb_irreducible(g)
    if length < 1:
        raise ValueError("length must be >= 1")
    f = centered_bit_values(g)
    p = build_transition_matrix(g).matrix
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

    Solves the Poisson equation (I - P) x = f, pinned at x_0 = 0, by
    sparse LU and returns -f' N f + 2 f' N x.  ``transition`` may be dense
    or ``scipy.sparse``.  ``values`` must have stationary mean zero (up to
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


@dataclass(frozen=True)
class VarianceReport:
    """Asymptotic limit plus any requested finite-length values."""

    asymptotic_limit: float
    truncated_values: dict[int, float] = field(default_factory=dict)
    method: str = "fundamental_solve"

    def to_json(self) -> dict:
        return {
            "limit": self.asymptotic_limit,
            "truncated": [[length, value] for length, value in sorted(self.truncated_values.items())],
            "method": self.method,
        }


def variance_report(g: Graph, truncate_at: list[int] | None = None) -> VarianceReport:
    values = {length: truncated_variance(g, length) for length in (truncate_at or [])}
    return VarianceReport(asymptotic_limit=asymptotic_variance(g), truncated_values=values)
