"""Reference computations for checking nbrw's answers.

Everything here is built from the edge list of a graph file alone and
shares no code with the ``nbrw`` package, so a fault in the package
cannot hide itself by also being in the check.

Dart model (the documented file convention): the i-th edge that is not a
half-loop gives darts 2i (a -> b) and 2i+1 (b -> a), which reverse each
other; half-loop darts follow, each its own reverse.  A dart e continues
into f when tail(f) = head(e) and f != rev(e), so outdeg(e) =
deg(head e) - 1 and indeg(e) = deg(tail e) - 1.

Exact quantities are products of powers of the primes dividing the
out-degrees.  They are compared as integer exponent vectors: lambda**D =
prod outdeg, so "X = lambda**k" for X = prod of n_i is the integer
identity D * sum v_p(n_i) = k * sum_e v_p(outdeg e) for every prime p.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import scipy.sparse
import scipy.sparse.linalg


class OracleError(ValueError):
    """The graph file cannot be read by the oracle."""


def _factor(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


class DartGraph:
    """Darts, degrees and exponent vectors of one graph file."""

    def __init__(self, vertex_count: int, edges: list[tuple[int, int, bool]]):
        self.vertex_count = vertex_count
        self.edge_count = len(edges)
        tails, heads, halves = [], [], []
        deg = [0] * vertex_count
        for a, b, half in edges:
            if not (0 <= a < vertex_count and 0 <= b < vertex_count):
                raise OracleError(f"endpoint out of range: {a} {b}")
            if half:
                halves.append(a)
                deg[a] += 1
            else:
                tails += [a, b]
                heads += [b, a]
                deg[a] += 1
                deg[b] += 1
        paired = len(tails)
        tails += halves
        heads += halves
        self.dart_count = D = len(tails)
        self.tail = np.asarray(tails, dtype=np.int64)
        self.head = np.asarray(heads, dtype=np.int64)
        self.rev = np.concatenate([np.arange(paired) ^ 1, np.arange(paired, D)]).astype(np.int64)
        self.degree = np.asarray(deg, dtype=np.int64)
        if D == 0 or self.degree.min() < 2:
            raise OracleError("oracle needs minimum degree >= 2")
        self.outdeg = self.degree[self.head] - 1
        self.indeg = self.degree[self.tail] - 1

        # out-darts grouped by tail vertex (CSR)
        self.out_order = np.argsort(self.tail, kind="stable")
        self.out_start = np.concatenate([[0], np.cumsum(np.bincount(self.tail, minlength=vertex_count))])

        # exponent vectors: prime p's exponent in outdeg(e) is vexp[e, primes.index(p)]
        factors = {int(d): _factor(int(d)) for d in np.unique(self.outdeg)}
        self.primes = sorted({p for f in factors.values() for p in f})
        table = {d: [f.get(p, 0) for p in self.primes] for d, f in factors.items()}
        self.vexp = np.array([table[int(d)] for d in self.outdeg], dtype=np.int64).reshape(D, len(self.primes))
        self.total_exp = [int(x) for x in self.vexp.sum(axis=0)]

    # --- exact lambda ---------------------------------------------------------

    def lambda_pairs(self) -> list[list[int]]:
        """lambda = prod outdeg ** (1/D) as [[prime, num, den], ...]."""
        pairs = []
        for p, s in zip(self.primes, self.total_exp):
            q = Fraction(s, self.dart_count)
            if q:
                pairs.append([p, q.numerator, q.denominator])
        return pairs

    def log2_lambda(self) -> float:
        return sum(s * math.log2(p) for p, s in zip(self.primes, self.total_exp)) / self.dart_count

    def equals_lambda_power(self, exps: list[int], k: int) -> bool:
        """Whether the number with prime exponents ``exps`` equals lambda**k."""
        return all(self.dart_count * e == k * s for e, s in zip(exps, self.total_exp))

    def _exps_of(self, n: int) -> list[int]:
        f = _factor(n)
        if set(f) - set(self.primes):
            return [-1] * len(self.primes)  # a prime lambda lacks: never a power of lambda
        return [f.get(p, 0) for p in self.primes]

    # --- transitions ----------------------------------------------------------

    def successors(self, e: int) -> list[int]:
        v = int(self.head[e])
        r = int(self.rev[e])
        return [int(f) for f in self.out_order[self.out_start[v]:self.out_start[v + 1]] if f != r]

    def arcs(self) -> tuple[np.ndarray, np.ndarray]:
        """All transitions e -> f as two index arrays."""
        start = self.out_start[self.head]
        count = self.degree[self.head]
        src = np.repeat(np.arange(self.dart_count), count)
        offset = np.arange(len(src)) - np.repeat(np.cumsum(count) - count, count)
        dst = self.out_order[np.repeat(start, count) + offset]
        keep = dst != self.rev[src]
        return src[keep], dst[keep]

    def is_closed_nb_walk(self, darts: list[int]) -> bool:
        if not darts or any(not (0 <= d < self.dart_count) for d in darts):
            return False
        return all(self._continues(darts[i], darts[(i + 1) % len(darts)]) for i in range(len(darts)))

    def _continues(self, e: int, f: int) -> bool:
        return self.tail[f] == self.head[e] and f != self.rev[e]

    # --- suspended paths --------------------------------------------------------

    def suspended_paths(self) -> list[list[int]]:
        """Maximal runs: start at indeg > 1, extend while outdeg == 1."""
        paths = []
        for start in np.flatnonzero(self.indeg > 1):
            path = [int(start)]
            while self.outdeg[path[-1]] == 1:
                (nxt,) = self.successors(path[-1])
                path.append(nxt)
                if len(path) > self.dart_count:
                    raise OracleError("suspended path does not end")
            paths.append(path)
        if sum(len(p) for p in paths) != self.dart_count:
            raise OracleError("suspended paths do not partition the darts")
        return paths

    def path_balances(self) -> dict[tuple[int, int], bool]:
        """Each distinct (indeg * outdeg, length) of a suspended path, mapped
        to whether indeg * outdeg = lambda**(2 length) holds."""
        seen: dict[tuple[int, int], bool] = {}
        for path in self.suspended_paths():
            key = (int(self.indeg[path[0]] * self.outdeg[path[-1]]), len(path))
            if key not in seen:
                seen[key] = self.equals_lambda_power(self._exps_of(key[0]), 2 * key[1])
        return seen

    def rates_equal(self) -> bool:
        """rho = lambda exactly when every suspended path is balanced."""
        return all(self.path_balances().values())

    def is_violating_path(self, darts: list[int]) -> bool:
        """A maximal suspended path whose balance differs from lambda."""
        if not darts or any(not (0 <= d < self.dart_count) for d in darts):
            return False
        if self.indeg[darts[0]] <= 1 or self.outdeg[darts[-1]] <= 1:
            return False
        if any(self.outdeg[d] != 1 for d in darts[:-1]):
            return False
        if not all(self._continues(a, b) for a, b in zip(darts, darts[1:])):
            return False
        balance = int(self.indeg[darts[0]] * self.outdeg[darts[-1]])
        return not self.equals_lambda_power(self._exps_of(balance), 2 * len(darts))

    def is_violating_cycle(self, darts: list[int]) -> bool:
        """A closed non-backtracking walk with prod outdeg != lambda**|C|."""
        if not self.is_closed_nb_walk(darts):
            return False
        exps = [int(x) for x in self.vexp[np.asarray(darts)].sum(axis=0)]
        return not self.equals_lambda_power(exps, len(darts))

    def potential_holds(self, phi: dict[int, list[list[int]]]) -> bool:
        """phi(f) = phi(e) * lambda / outdeg(e) on every transition e -> f.

        ``phi`` maps every dart to [[prime, num, den], ...].  Exponents are
        scaled to integers by a common denominator before the check.
        """
        if sorted(phi) != list(range(self.dart_count)):
            return False
        index = {p: j for j, p in enumerate(self.primes)}
        rows = []
        for d in range(self.dart_count):
            row = [Fraction(0)] * len(self.primes)
            for p, num, den in phi[d]:
                if p not in index or den <= 0:
                    return False
                row[index[p]] = Fraction(num, den)
            rows.append(row)
        lam = [Fraction(s, self.dart_count) for s in self.total_exp]
        scale = math.lcm(self.dart_count, *(q.denominator for row in rows for q in row))
        big = max([1] + [abs(q.numerator) * scale // q.denominator for row in rows for q in row])
        dtype = np.int64 if big < 2**61 else object
        phi_int = np.array([[int(q * scale) for q in row] for row in rows], dtype=dtype)
        phi_int = phi_int.reshape(self.dart_count, len(self.primes))
        lam_int = np.array([int(q * scale) for q in lam], dtype=dtype)
        out_int = self.vexp.astype(dtype) * scale
        src, dst = self.arcs()
        return bool(np.all(phi_int[dst] == phi_int[src] + lam_int - out_int[src]))

    # --- operators ----------------------------------------------------------------

    def nb_apply(self, x: np.ndarray) -> np.ndarray:
        """(Bx)(e) = sum over f with tail f = head e of x(f), minus x(rev e)."""
        outsum = np.bincount(self.tail, weights=x, minlength=self.vertex_count)
        return outsum[self.head] - x[self.rev]

    def rho_bracket(self, rel_tol: float = 1e-10, max_iter: int = 50_000) -> tuple[float, float]:
        """[low, high] around rho from Collatz-Wielandt bounds on B + I.

        Any positive vector gives valid bounds, so a bracket returned at the
        iteration cap is wider but still correct.
        """
        x = np.full(self.dart_count, 1.0 / self.dart_count)
        low, high = 0.0, math.inf
        for _ in range(max_iter):
            y = self.nb_apply(x) + x
            ratios = y / x
            low = max(low, float(ratios.min()))
            high = min(high, float(ratios.max()))
            if high - low <= rel_tol * low:
                break
            x = y / np.linalg.norm(y)
        return low - 1.0, high - 1.0

    def bit_values(self) -> np.ndarray:
        """Centered bit consumption log2 outdeg(e) - log2 lambda."""
        return np.log2(self.outdeg.astype(np.float64)) - self.log2_lambda()

    def p_apply(self, x: np.ndarray) -> np.ndarray:
        """(Px)(e): mean of x over the continuations of e."""
        return self.nb_apply(x) / self.outdeg

    def finite_variance(self, length: int) -> float:
        """var(bits of a stationary length-l walk) / l, by the covariance sum
        (f.f + 2 sum_{d<l} (1 - d/l) f.P^d f) / D."""
        f = self.bit_values()
        acc = float(f @ f)
        y = f
        for d in range(1, length):
            y = self.p_apply(y)
            acc += 2.0 * (1.0 - d / length) * float(f @ y)
        return acc / self.dart_count

    def asymptotic_variance(self) -> float:
        """Limit of var/l from the Poisson equation (I - P) x = f, solved by
        sparse LU with x(0) = 0 pinned (valid because pi . f = 0)."""
        D = self.dart_count
        src, dst = self.arcs()
        p = scipy.sparse.csr_matrix((1.0 / self.outdeg[src], (src, dst)), shape=(D, D))
        a = (scipy.sparse.identity(D, format="csr") - p).tolil()
        a[0, :] = 0.0
        a[0, 0] = 1.0
        f = self.bit_values()
        rhs = f.copy()
        rhs[0] = 0.0
        x = scipy.sparse.linalg.spsolve(a.tocsc(), rhs)
        return float(-(f @ f) + 2.0 * (f @ x)) / D


def parse_graph(text: str) -> DartGraph:
    """Read the line format: '#' comments, 'nbgraph N', 'e a b', 'hl a'."""
    vertex_count = None
    edges: list[tuple[int, int, bool]] = []
    for raw in text.splitlines():
        fields = raw.split()
        if not fields or fields[0].startswith("#"):
            continue
        if vertex_count is None:
            if fields[0] != "nbgraph" or len(fields) != 2:
                raise OracleError(f"bad header {raw!r}")
            vertex_count = int(fields[1])
        elif fields[0] == "e" and len(fields) == 3:
            edges.append((int(fields[1]), int(fields[2]), False))
        elif fields[0] == "hl" and len(fields) == 2:
            edges.append((int(fields[1]), int(fields[1]), True))
        else:
            raise OracleError(f"bad line {raw!r}")
    if vertex_count is None:
        raise OracleError("missing header")
    return DartGraph(vertex_count, edges)


K4E_TEXT = "nbgraph 4\ne 0 1\ne 0 2\ne 2 1\ne 0 3\ne 3 1\n"
K4E_RHO = 1.5213797068045676  # real root of x**3 - x - 2


def k4e_self_check() -> list[str]:
    """Check the oracles against the paper's constants for K4 minus an edge:
    lambda = 2**(3/5), rho = the real root of x**3 - x - 2, asymptotic
    variance 2/125.  Returns the failures (empty when all hold)."""
    g = parse_graph(K4E_TEXT)
    failures = []
    if g.lambda_pairs() != [[2, 3, 5]]:
        failures.append(f"lambda {g.lambda_pairs()} != 2^(3/5)")
    low, high = g.rho_bracket(rel_tol=1e-13)
    if not (low - 1e-12 <= K4E_RHO <= high + 1e-12) or abs(K4E_RHO**3 - K4E_RHO - 2) > 1e-12:
        failures.append(f"rho bracket [{low}, {high}] misses {K4E_RHO}")
    if abs(g.asymptotic_variance() - 2 / 125) > 1e-12:
        failures.append(f"asymptotic variance {g.asymptotic_variance()} != 2/125")
    if abs(g.finite_variance(4000) - 2 / 125) > 2e-4:
        failures.append("finite-l variance does not approach 2/125")
    if g.rates_equal():
        failures.append("K4 minus an edge reported balanced")
    return failures
