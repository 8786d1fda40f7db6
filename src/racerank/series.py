"""Truncated bivariate power series with exact rational coefficients.

A :class:`SeriesX` is a series in x, truncated at a fixed order, whose
coefficients are polynomials in y (:class:`PolyY`) over ``Fraction``.  This
is just enough machinery to expand the two rank-generating functions behind
`two_race`:

* :func:`eulerian_gf` -- g(x, y) = (e^x - e^{xy}) / (e^{xy} - y e^x), whose
  x^n coefficient is the order-n Eulerian polynomial in y divided by n!;
  y * g generates the middle-score rank distributions.
* :func:`second_gf_expand` -- (y - 1) * integral(g) + g - x, generating the
  rank distributions for the score one below the middle (n_t = n_b).  The
  same integration step can be iterated for scores further below, but no
  expansions beyond this one are asserted here.

Series division runs order by order, and every step must divide exactly in
the polynomial ring: the quotients we need are genuine polynomials, so a
nonzero remainder can only mean corrupted inputs or an arithmetic bug and
raises :class:`ExactDivisionError` immediately.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Union

from .two_race import RankDistribution

__all__ = [
    "ExactDivisionError",
    "PolyY",
    "SeriesX",
    "x_monomial",
    "exp_xy",
    "series_div_exact",
    "eulerian_gf",
    "middle_score_gf",
    "second_gf_expand",
    "coefficient_to_distribution",
]

Scalar = Union[int, Fraction]


class ExactDivisionError(ArithmeticError):
    """Polynomial or series division left a remainder where none is possible."""


def _as_fraction(value: Scalar) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected int or Fraction, got {type(value).__name__}")


class PolyY:
    """Polynomial in y over Fraction; coeffs[k] multiplies y**k.

    Canonical form: no trailing zero coefficients (the zero polynomial has
    an empty coefficient tuple), so equality and hashing are structural.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[Fraction, ...] = tuple(cs)

    @property
    def degree(self) -> int:
        """Degree in y; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __getitem__(self, k: int) -> Fraction:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PolyY):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == PolyY((other,))
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "PolyY") -> "PolyY":
        if not isinstance(other, PolyY):
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return PolyY(self[k] + other[k] for k in range(n))

    def __neg__(self) -> "PolyY":
        return PolyY(-c for c in self.coeffs)

    def __sub__(self, other: "PolyY") -> "PolyY":
        if not isinstance(other, PolyY):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: Union["PolyY", Scalar]) -> "PolyY":
        if isinstance(other, (int, Fraction)):
            f = _as_fraction(other)
            return PolyY(c * f for c in self.coeffs)
        if not isinstance(other, PolyY):
            return NotImplemented
        if not self or not other:
            return PolyY()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return PolyY(out)

    __rmul__ = __mul__

    def __divmod__(self, den: "PolyY") -> tuple["PolyY", "PolyY"]:
        """Euclidean division in Fraction[y]: self = q * den + r, deg r < deg den."""
        if not isinstance(den, PolyY):
            return NotImplemented
        if not den:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dd = den.degree
        lead = den.coeffs[-1]
        q = [Fraction(0)] * max(0, len(rem) - dd)
        for pos in range(len(rem) - 1, dd - 1, -1):
            c = rem[pos]
            if not c:
                continue
            f = c / lead
            q[pos - dd] = f
            for k, dc in enumerate(den.coeffs):
                rem[pos - dd + k] -= f * dc
        return PolyY(q), PolyY(rem)

    def div_exact(self, den: "PolyY") -> "PolyY":
        """Exact quotient; raises ExactDivisionError on a nonzero remainder."""
        q, r = divmod(self, den)
        if r:
            raise ExactDivisionError(f"nonzero remainder ({r}) dividing {self} by {den}")
        return q

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if not c:
                continue
            if k == 0:
                parts.append(str(c))
            else:
                mon = "y" if k == 1 else f"y^{k}"
                if c == 1:
                    parts.append(mon)
                elif c == -1:
                    parts.append(f"-{mon}")
                else:
                    parts.append(f"{c}*{mon}")
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"PolyY({self.coeffs!r})"


class SeriesX:
    """Series in x truncated after x**order, with PolyY coefficients.

    Arithmetic requires equal truncation orders; products are reduced mod
    x^(order+1), so a result never pretends to more precision than kept.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: Iterable[Union[PolyY, Scalar]] = ()):
        if order < 0:
            raise ValueError(f"order must be >= 0, got {order}")
        cs = [c if isinstance(c, PolyY) else PolyY((c,)) for c in coeffs]
        if len(cs) > order + 1:
            raise ValueError("more coefficients than the truncation order allows")
        cs += [PolyY()] * (order + 1 - len(cs))
        self.order = order
        self.coeffs: tuple[PolyY, ...] = tuple(cs)

    def coefficient(self, n: int) -> PolyY:
        """Coefficient of x**n."""
        if not 0 <= n <= self.order:
            raise ValueError(f"coefficient index must be in [0, {self.order}], got {n}")
        return self.coeffs[n]

    def _match(self, other: "SeriesX") -> None:
        if self.order != other.order:
            raise ValueError(
                f"truncation orders differ: {self.order} != {other.order}"
            )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SeriesX):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.order, self.coeffs))

    def __add__(self, other: "SeriesX") -> "SeriesX":
        if not isinstance(other, SeriesX):
            return NotImplemented
        self._match(other)
        return SeriesX(self.order, (a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "SeriesX":
        return SeriesX(self.order, (-a for a in self.coeffs))

    def __sub__(self, other: "SeriesX") -> "SeriesX":
        if not isinstance(other, SeriesX):
            return NotImplemented
        self._match(other)
        return SeriesX(self.order, (a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other: Union["SeriesX", PolyY, Scalar]) -> "SeriesX":
        if isinstance(other, (PolyY, int, Fraction)):
            return SeriesX(self.order, (a * other for a in self.coeffs))
        if not isinstance(other, SeriesX):
            return NotImplemented
        self._match(other)
        out = [PolyY() for _ in range(self.order + 1)]
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j in range(self.order + 1 - i):
                b = other.coeffs[j]
                if b:
                    out[i + j] = out[i + j] + a * b
        return SeriesX(self.order, out)

    def __rmul__(self, other: Union[PolyY, Scalar]) -> "SeriesX":
        return self.__mul__(other)

    def integrate(self) -> "SeriesX":
        """Antiderivative from 0, same truncation order (so the would-be
        x^(order+1) term is dropped and the constant term is zero)."""
        out: list[PolyY] = [PolyY()]
        for n in range(self.order):
            out.append(self.coeffs[n] * Fraction(1, n + 1))
        return SeriesX(self.order, out)

    def __repr__(self) -> str:
        terms = [f"({c})*x^{n}" for n, c in enumerate(self.coeffs) if c]
        body = " + ".join(terms) if terms else "0"
        return f"SeriesX(order={self.order}: {body})"


def x_monomial(order: int) -> SeriesX:
    """The series 'x' at the given truncation order (order >= 1)."""
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    return SeriesX(order, (PolyY(), PolyY((1,))))


def exp_xy(weight: Union[PolyY, Scalar], order: int) -> SeriesX:
    """exp(x * w(y)) for a weight polynomial w of degree <= 1: the x^n
    coefficient is w^n / n!."""
    w = weight if isinstance(weight, PolyY) else PolyY((weight,))
    if w.degree > 1:
        raise ValueError(f"weight must have degree <= 1, got degree {w.degree}")
    coeffs = []
    power = PolyY((1,))
    for n in range(order + 1):
        coeffs.append(power * Fraction(1, math.factorial(n)))
        power = power * w
    return SeriesX(order, coeffs)


def series_div_exact(num: SeriesX, den: SeriesX) -> SeriesX:
    """Quotient q with q * den = num (mod x^(order+1)), solved order by order.

    den's x^0 coefficient is the division pivot; at each order the residual
    must be exactly divisible by it in Fraction[y].  A remainder raises
    :class:`ExactDivisionError` -- for the generating functions here the
    quotient coefficients are genuine polynomials, so failure signals a bug
    rather than data.
    """
    num._match(den)
    pivot = den.coeffs[0]
    if not pivot:
        raise ZeroDivisionError("series division pivot (x^0 coefficient) is zero")
    q: list[PolyY] = []
    for n in range(num.order + 1):
        residual = num.coeffs[n]
        for j in range(1, n + 1):
            residual = residual - q[n - j] * den.coeffs[j]
        q.append(residual.div_exact(pivot))
    return SeriesX(num.order, q)


def eulerian_gf(order: int) -> SeriesX:
    """g(x, y) = (e^x - e^{xy}) / (e^{xy} - y e^x); the x^n coefficient is
    the order-n Eulerian polynomial in y divided by n!."""
    y = PolyY((0, 1))
    ex = exp_xy(1, order)
    exy = exp_xy(y, order)
    return series_div_exact(ex - exy, exy - ex * y)


def middle_score_gf(order: int) -> SeriesX:
    """y * g(x, y): the x^n, y^m coefficient is P(final rank m) for n boats
    and the middle score n + 1."""
    return eulerian_gf(order) * PolyY((0, 1))


def second_gf_expand(order: int) -> SeriesX:
    """(y - 1) * integral(g) + g - x: the x^n, y^m coefficient is
    P(final rank m) when the score equals the fleet size n (one below the
    middle).  Computed from the integral form; needs order >= 2."""
    if order < 2:
        raise ValueError(f"order must be >= 2, got {order}")
    g = eulerian_gf(order)
    return g.integrate() * PolyY((-1, 1)) + g - x_monomial(order)


def coefficient_to_distribution(
    s: SeriesX, n_b: int, n_t: int | None = None, shifted: bool = False
) -> RankDistribution:
    """Read the x^n_b coefficient of a rank-generating series as a
    :class:`~racerank.two_race.RankDistribution`.

    The y exponent is the rank m itself; pass ``shifted=True`` for series
    written one y power low (the bare g, where y^k pairs with rank m = k+1).
    ``n_t`` defaults to the middle score n_b + 1.
    """
    if n_b < 1:
        raise ValueError(f"n_b must be >= 1, got {n_b}")
    if n_b > s.order:
        raise ValueError(f"series truncated at x^{s.order}, cannot read x^{n_b}")
    poly = s.coeffs[n_b]
    probs = tuple(poly[m - 1 if shifted else m] for m in range(1, n_b + 2))
    return RankDistribution(n_b, n_b + 1 if n_t is None else n_t, probs)
