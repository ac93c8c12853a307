"""Asymptotic variance of the walk's bit consumption.

With f the dart vector log2(outdeg) - log2(average growth rate), the
normalized variance of the bit total over length-l stationary walks is

    var_l / l = (f' N f) + 2 * sum_{d=1}^{l-1} (1 - d/l) * f' N P**d f,

with N the diagonal of the stationary distribution and P the walk
transition matrix.  Its l -> infinity limit is evaluated without any
eigendecomposition through the Poisson equation (Kemeny and Snell)

    limit = -f' N f + 2 f' N x,   (I - P) x = f,

which is singular only along the constants; since pi . f = 0, one
equation is redundant and is replaced by a pin, and the limit does not
depend on the constant that the pin fixes.  On a graph the equation is
reduced to the branching vertices, as Bass reduces the Hashimoto operator
(see :func:`asymptotic_variance`): one unknown per vertex of degree >= 3
and one nonzero per suspended path.  numpy solves that system dense up to
a cutoff on its size and scipy's sparse LU above it.  scipy is imported
only inside the functions that use it.  The truncated sum doubles as an
independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .conditions import _lambda
from .graph import Graph
from .operators import build_transition_matrix, require_nb_irreducible

# Pinned systems up to this many unknowns are solved dense, in two n x n
# float arrays (18.9 MB each here) and without scipy's 0.4 s import.  On a
# 2-core host a fresh `asymvar` at 1,538 unknowns takes 0.44 s / 78 MB
# dense and 0.66 s / 67 MB sparse; at 2,050, 0.48 s / 109 MB against
# 0.60 s / 69 MB.
_DENSE_UNKNOWNS = 1536


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


def _pinned_solve(rows, cols, data, rhs) -> np.ndarray:
    """Solve the square system with COO triplets ``(rows, cols, data)``
    (duplicates add) and right-hand side ``rhs``, with equation 0 replaced
    by ``x_0 = 0``: by dense LU up to ``_DENSE_UNKNOWNS`` unknowns, by
    sparse LU above."""
    n = len(rhs)
    keep = rows != 0
    rows = np.append(rows[keep], 0)
    cols = np.append(cols[keep], 0)
    data = np.append(data[keep], 1.0)
    b = np.array(rhs, dtype=np.float64)
    b[0] = 0.0
    if n <= _DENSE_UNKNOWNS:
        return np.linalg.solve(np.bincount(rows * n + cols, data, n * n).reshape(n, n), b)
    import scipy.sparse as sp
    from scipy.sparse.linalg import splu

    return splu(sp.csc_matrix((data, (rows, cols)), shape=(n, n))).solve(b)


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
    a = (sp.identity(n, format="csr") - p).tocoo()
    x = _pinned_solve(a.row, a.col, a.data, f)
    weighted = pi * f
    return float(-weighted @ f + 2.0 * (weighted @ x))


def asymptotic_variance(g: Graph) -> float:
    """Limit of the normalized bit-total variance of stationary walks.

    Solves the Poisson equation x_e - (P x)_e = f_e on the branching
    vertices.  With c = log2(lambda), A(e) the anchor of dart e and L(e)
    its distance (``g.suspended_paths``), k(e) = outdeg(e) and y_w the sum
    of x over the darts leaving vertex w:

    * a path dart (k = 1) has f_e = -c, so x_e = x_A(e) - c L(e);
    * a branching dart b with head w pairs with p(b) = A(rev b), an
      involution (p(b) = b when b is a half-loop or its path turns back
      at one), and x_b + x_p(b) / k(b) - y_w / k(b) = f_b + c L(rev b) / k(b);
    * a branching vertex w has y_w = sum over d leaving w of
      x_A(d) - c L(d).

    Each pair (b, p(b)) is solved through its 2 x 2 block, whose
    determinant is 1 - 1 / (k(b) k(p(b))), or 1 + 1 / k(b) when p(b) = b;
    that writes every x_b in the y of the two ends of its path and leaves
    one equation per branching vertex.  Scaled by the vertex degrees that
    system has zero row sums and no positive entry off the diagonal, so
    pinning its first unknown to 0 makes it nonsingular.  x then follows on
    every dart in O(D).
    """
    f = centered_bit_values(g)
    c = _lambda(g).log2()
    d = g.dart_count
    head, tail = g.dart_head, g.dart_tail
    anchor, dist = g.suspended_paths.anchor, g.suspended_paths.dist
    k = g.out_degree_vector().astype(np.float64)
    branching = np.flatnonzero(g.degrees >= 3)
    n = len(branching)
    unknown = np.empty(g.vertex_count, dtype=np.int64)
    unknown[branching] = np.arange(n)

    # x_b = alpha_b + beta_b y_head(b) + gamma_b y_head(p(b)) on branching darts
    b = np.flatnonzero(k > 1)
    rev = g.dart_reverse[b]
    p = anchor[rev]
    single = p == b
    r = np.zeros(d)
    r[b] = f[b] + c * dist[rev] / k[b]
    det = np.where(single, 1.0 + 1.0 / k[b], 1.0 - 1.0 / (k[b] * k[p]))
    alpha, beta, gamma = np.zeros(d), np.zeros(d), np.zeros(d)
    alpha[b] = np.where(single, r[b], r[b] - r[p] / k[b]) / det
    beta[b] = 1.0 / (k[b] * det)
    gamma[b] = np.where(single, 0.0, -beta[b] / k[p])
    far = np.zeros(d, dtype=np.int64)
    far[b] = unknown[head[p]]

    # y_w - sum over d leaving w of x_A(d) = -c sum of L(d): one row per w
    leaving = np.flatnonzero(g.degrees[tail] >= 3)
    a = anchor[leaving]
    row = unknown[tail[leaving]]
    y = _pinned_solve(
        np.concatenate([np.arange(n), row, row]),
        np.concatenate([np.arange(n), unknown[head[a]], far[a]]),
        np.concatenate([np.ones(n), -beta[a], -gamma[a]]),
        np.bincount(row, alpha[a] - c * dist[leaving], n),
    )

    x_branching = np.zeros(d)
    x_branching[b] = alpha[b] + beta[b] * y[unknown[head[b]]] + gamma[b] * y[far[b]]
    x = x_branching[anchor] - c * dist
    # x's constant drops out of f'(2x - f) since sum(f) = 0; centring x keeps
    # the rounding of sum(f) out of the result, and one sum cancels less
    x -= x.mean()
    return float((f * (2.0 * x - f)).sum()) / d


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
