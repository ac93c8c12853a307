"""Exact arithmetic on positive numbers of the form prod(p ** q_p).

All growth-rate verdicts in this package are decided without floating
point.  The numbers involved (degree products raised to rational powers)
are always of the form 2**(a/b) * 3**(c/d) * ..., so we represent them by
a prime -> rational-exponent map and compare two by the exact sign of
their quotient's exponents (:func:`exponent_sign`).
"""

from __future__ import annotations

from decimal import Context, Decimal, localcontext
from fractions import Fraction
from math import lcm, log


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division (inputs here are tiny degrees)."""
    if n <= 0:
        raise ValueError(f"cannot factorize non-positive integer {n}")
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


class ExactValue:
    """A positive real prod(p ** q_p) with primes p and rational exponents q_p.

    Instances are immutable and hashable.  Multiplication adds exponent
    maps, powers scale them, and comparisons are exact: they reduce to
    comparing two big integers obtained by clearing denominators.
    """

    __slots__ = ("_exponents",)

    def __init__(self, exponents: dict[int, Fraction] | None = None):
        cleaned = {}
        if exponents:
            for p, q in sorted(exponents.items()):
                q = Fraction(q)
                if q != 0:
                    cleaned[p] = q
        self._exponents = cleaned

    @classmethod
    def one(cls) -> "ExactValue":
        return cls()

    @classmethod
    def from_integer(cls, n: int) -> "ExactValue":
        return cls({p: Fraction(e) for p, e in factorize(n).items()})

    @property
    def exponents(self) -> dict[int, Fraction]:
        return dict(self._exponents)

    def __mul__(self, other: "ExactValue") -> "ExactValue":
        merged = dict(self._exponents)
        for p, q in other._exponents.items():
            merged[p] = merged.get(p, Fraction(0)) + q
        return ExactValue(merged)

    def __truediv__(self, other: "ExactValue") -> "ExactValue":
        merged = dict(self._exponents)
        for p, q in other._exponents.items():
            merged[p] = merged.get(p, Fraction(0)) - q
        return ExactValue(merged)

    def __pow__(self, exponent) -> "ExactValue":
        e = Fraction(exponent)
        if e == 0:
            return ExactValue()
        return ExactValue({p: q * e for p, q in self._exponents.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactValue):
            return NotImplemented
        return self._exponents == other._exponents

    def __hash__(self) -> int:
        return hash(tuple(self._exponents.items()))

    def _compare(self, other: "ExactValue") -> int:
        """Sign of (self - other), computed exactly."""
        diff = (self / other)._exponents
        scale = lcm(*(q.denominator for q in diff.values()))
        return exponent_sign(diff, [int(q * scale) for q in diff.values()])

    def __lt__(self, other: "ExactValue") -> bool:
        return self._compare(other) < 0

    def __le__(self, other: "ExactValue") -> bool:
        return self._compare(other) <= 0

    def __gt__(self, other: "ExactValue") -> bool:
        return self._compare(other) > 0

    def __ge__(self, other: "ExactValue") -> bool:
        return self._compare(other) >= 0

    def __float__(self) -> float:
        return float(pow(2.0, self.log2()))

    def log2(self) -> float:
        """Floating-point base-2 logarithm."""
        return sum(float(q) * log(p, 2) for p, q in self._exponents.items())

    def nth_root(self, n: int) -> "ExactValue":
        if n <= 0:
            raise ValueError("root index must be positive")
        return self ** Fraction(1, n)

    def is_one(self) -> bool:
        return not self._exponents

    def as_pairs(self) -> list[list[int]]:
        """[[prime, exponent numerator, exponent denominator], ...] sorted by prime."""
        return [[p, q.numerator, q.denominator] for p, q in self._exponents.items()]

    def __repr__(self) -> str:
        if not self._exponents:
            return "ExactValue(1)"
        parts = "*".join(
            f"{p}^({q.numerator}/{q.denominator})" if q.denominator != 1 else f"{p}^{q.numerator}"
            for p, q in self._exponents.items()
        )
        return f"ExactValue({parts})"


def exponent_sign(primes, exponents) -> int:
    """Exact sign of prod(p ** e) - 1 for distinct primes p and integers e.

    Unless the e share a sign, it is the sign of s = sum(e ln p), never 0.
    A float s decides it when |s| > 1e-9 sum(|e| ln p), far above its
    rounding.  Otherwise s is taken at rising decimal precision, each ln p
    correctly rounded to ``digits`` digits, until |s| exceeds the bound
    sum(|e| ln p) * 10 ** (1 - digits) on its error.
    """
    terms = [(p, e) for p, e in zip(primes, exponents) if e]
    if len({e > 0 for _, e in terms}) < 2:
        return (terms[0][1] > 0) - (terms[0][1] < 0) if terms else 0
    estimate = sum(e * log(p) for p, e in terms)
    if abs(estimate) > 1e-9 * sum(abs(e) * log(p) for p, e in terms):
        return 1 if estimate > 0 else -1
    digits = 20
    while True:
        with localcontext(Context(prec=digits)):
            logs = [Fraction(Decimal(p).ln()) for p, _ in terms]
        total = sum(e * ln for (_, e), ln in zip(terms, logs))
        if abs(total) * 10 ** (digits - 1) > sum(abs(e) * ln for (_, e), ln in zip(terms, logs)):
            return 1 if total > 0 else -1
        digits *= 2


def geometric_mean(values: list[ExactValue]) -> ExactValue:
    """Exact geometric mean of a non-empty list of exact values."""
    if not values:
        raise ValueError("geometric mean of empty list")
    product = ExactValue()
    for v in values:
        product = product * v
    return product ** Fraction(1, len(values))
