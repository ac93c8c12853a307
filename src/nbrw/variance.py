"""Asymptotic variance of the walk's bit consumption.

With f the dart vector log2(outdeg) - log2(average growth rate), the
normalized variance of the bit total over length-l stationary walks is

    var_l / l = (f' N f) + 2 * sum_{d=1}^{l-1} (1 - d/l) * f' N P**d f,

with N the diagonal of the stationary distribution and P the walk
transition matrix.  Its l -> infinity limit is evaluated without any
eigendecomposition through the fundamental-matrix solve

    limit = -f' N f + 2 f' N x,   (I - P + 1 pi') x = f,

whose correction term annihilates against f's zero stationary mean.  The
truncated sum doubles as an independent oracle for the solve.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .conditions import _lambda
from .graph import Graph
from .operators import build_transition_matrix, require_nb_irreducible, stationary_distribution


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


def chain_asymptotic_variance(transition, stationary, values) -> float:
    """Asymptotic normalized variance of a centered additive functional.

    Solves (I - P + 1 pi') x = f by dense LU with one step of iterative
    refinement and returns -f' N f + 2 f' N x.  ``values`` must have
    stationary mean zero (up to rounding); the matrix is nonsingular for
    any irreducible chain, periodic ones included.
    """
    p = np.asarray(transition, dtype=np.float64)
    pi = np.asarray(stationary, dtype=np.float64)
    f = np.asarray(values, dtype=np.float64)
    n = p.shape[0]
    if p.shape != (n, n) or pi.shape != (n,) or f.shape != (n,):
        raise ValueError("dimension mismatch between transition, stationary, and values")
    a = np.eye(n) - p + np.outer(np.ones(n), pi)
    lu, piv = scipy.linalg.lu_factor(a)
    x = scipy.linalg.lu_solve((lu, piv), f)
    x += scipy.linalg.lu_solve((lu, piv), f - a @ x)
    weighted = pi * f
    return float(-weighted @ f + 2.0 * (weighted @ x))


def asymptotic_variance(g: Graph) -> float:
    """Limit of the normalized bit-total variance of stationary walks."""
    require_nb_irreducible(g)
    f = centered_bit_values(g)
    p = build_transition_matrix(g).matrix.toarray()
    pi = stationary_distribution(g)
    return chain_asymptotic_variance(p, pi, f)


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
