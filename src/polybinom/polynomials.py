"""Binomial-basis coefficient vectors of counting polynomials.

Everything here is exact.  A counting polynomial p of degree <= D has a
rational generating function

    sum_{n >= start} p(n) z^n  =  v(z) / (1 - z)^(D+1),      start in {0, 1},

and `StarVector` stores the numerator coefficients of v together with
(D, start).  Writing p in the shifted binomial basis C(n+D-i, D) recovers
the same numbers: p(n) = sum_i v_i * C(n+D-i, D).

The entries of v are integer finite differences of the values of p, so
`star_from_values` builds a star vector straight from integer counts, and
every route in the package builds its star vectors that way.  A polynomial
is only shown: `inverse_transform` builds a `Polynomial`, its integer
numerators over one denominator, where one is printed or serialized, and
it has no arithmetic.  Nothing in the package needs `fractions`.

Two length conventions follow from the algebra and are enforced at
construction:

* start=0: v has degree <= D and is stored with D+1 entries.
* start=1: dropping the n=0 term adds -p(0)*(1-z)^(D+1) to the numerator,
  which forces v_0 = 0 but can push the degree up to D+1, so v is stored
  with D+2 entries.

Counting polynomials with p(0) = 0 (e.g. order counts) have identical
numerators under both conventions; such vectors are built with start=0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

__all__ = [
    "Polynomial",
    "StarVector",
    "binomial",
    "binomial_poly_value",
    "inverse_transform",
    "star_from_values",
]


def binomial(a: int, b: int) -> int:
    """C(a, b) as a subset count: zero whenever b < 0 or a < b."""
    if b < 0 or a < b:
        return 0
    return math.comb(a, b)


def binomial_poly_value(a: int, d: int) -> int:
    """C(a, d) read as the degree-d polynomial a(a-1)...(a-d+1)/d!.

    Valid for negative a, which is what reciprocity checks evaluate;
    a product of d consecutive integers is always divisible by d!.
    """
    num = 1
    for t in range(d):
        num *= a - t
    return num // math.factorial(d)


@dataclass(frozen=True)
class Polynomial:
    """A shown polynomial: the coefficient of n^k is numerators[k] / denominator.

    Built by `inverse_transform` where a polynomial is printed or serialized;
    it has no arithmetic.  Kept in lowest terms: no trailing zero numerator
    and gcd(denominator, *numerators) = 1, so the zero polynomial is ((), 1).
    """

    numerators: tuple[int, ...] = ()
    denominator: int = 1

    def __post_init__(self):
        if self.denominator < 1:
            raise ValueError(f"denominator must be positive, got {self.denominator}")
        nums = list(self.numerators)
        while nums and nums[-1] == 0:
            nums.pop()
        g = math.gcd(self.denominator, *nums)
        object.__setattr__(self, "numerators", tuple(c // g for c in nums))
        object.__setattr__(self, "denominator", self.denominator // g)

    @property
    def is_integral(self) -> bool:
        return self.denominator == 1

    def pretty(self, var: str = "n") -> str:
        if not self.numerators:
            return "0"
        parts: list[str] = []
        for power in range(len(self.numerators) - 1, -1, -1):
            c = self.numerators[power]
            if c == 0:
                continue
            g = math.gcd(c, self.denominator)
            num, den = abs(c) // g, self.denominator // g
            mag_str = str(num) if den == 1 else f"{num}/{den}"
            if power == 0:
                term = mag_str
            else:
                head = "" if num == den == 1 else f"{mag_str}*"
                term = f"{head}{var}" if power == 1 else f"{head}{var}^{power}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)

    def to_json(self) -> dict:
        return {"numerators": list(self.numerators), "denominator": self.denominator}


@dataclass(frozen=True)
class StarVector:
    """Numerator of sum_{n >= start} p(n) z^n over (1-z)^(degree_bound+1).

    entries[i] is the coefficient of z^i.  See the module docstring for the
    two length conventions.
    """

    entries: tuple[int, ...]
    degree_bound: int
    start: int = 0

    def __post_init__(self):
        if self.start not in (0, 1):
            raise ValueError(f"start must be 0 or 1, got {self.start}")
        if self.degree_bound < 0:
            raise ValueError("degree_bound must be nonnegative")
        expected = self.degree_bound + 1 + self.start
        if len(self.entries) != expected:
            raise ValueError(
                f"start={self.start} vector with degree_bound={self.degree_bound} "
                f"must have {expected} entries, got {len(self.entries)}"
            )
        if self.start == 1 and self.entries[0] != 0:
            raise ValueError("start=1 vectors have zero constant term")
        object.__setattr__(self, "entries", tuple(int(e) for e in self.entries))

    @property
    def degree(self) -> int:
        """Highest index with a nonzero entry; the zero vector has none."""
        for i in range(len(self.entries) - 1, -1, -1):
            if self.entries[i] != 0:
                return i
        raise ValueError("zero star vector has no degree")

    def value(self, n: int) -> int:
        """p(n) = sum_i v_i * C(n+D-i, D) read as a polynomial in n, so any
        integer n works (reciprocity evaluates at negative n)."""
        D = self.degree_bound
        return sum(e * binomial_poly_value(n + D - i, D) for i, e in enumerate(self.entries) if e)

    def interior_reversal(self) -> "StarVector":
        """z^(D+1) * v(1/z) for a start=0 vector.

        By reciprocity this is the numerator of the interior-count series of
        the same polytope, which starts at n=1; hence the result is start=1.
        """
        if self.start != 0:
            raise ValueError("interior_reversal is defined for start=0 vectors")
        return StarVector((0,) + tuple(reversed(self.entries)), self.degree_bound, start=1)

    def to_json(self) -> dict:
        return {
            "entries": list(self.entries),
            "degree_bound": self.degree_bound,
            "start": self.start,
        }


def star_from_values(values: Sequence[int], degree_bound: int, start: int = 0) -> StarVector:
    """Star vector of the polynomial p of degree <= D with values[j] = p(start + j).

    The first D+1 values give the entries h_i = sum_k (-1)^k C(D+1, k) p(i-k)
    over i-k >= start.  Every further value is an overdetermination node: the
    (D+1)-th finite difference ending there must vanish, and a nonzero one
    (a miscount or a wrong degree bound) raises ValueError.
    """
    D = degree_bound
    if len(values) < D + 1:
        raise ValueError(f"need at least {D + 1} values for degree bound {D}, got {len(values)}")
    signs = [(-1) ** k * math.comb(D + 1, k) for k in range(D + 2)]

    def difference(j: int) -> int:
        return sum(signs[k] * values[j - k] for k in range(min(j, D + 1) + 1))

    for j in range(D + 1, len(values)):
        if difference(j) != 0:
            raise ValueError(
                f"value p({start + j}) = {values[j]} breaks degree bound {D}: "
                f"finite difference {difference(j)}"
            )
    return StarVector((0,) * start + tuple(difference(j) for j in range(D + 1)), D, start)


def inverse_transform(v: StarVector) -> Polynomial:
    """The polynomial p with p(n) = sum_i v_i * C(n+D-i, D).

    Exact inverse of `star_from_values` for either start convention; the
    result may have rational coefficients (it is always integer-valued),
    whose numerators over D! are summed here in integers.
    """
    D = v.degree_bound
    # numerators over D!: entry * (n+D-i)(n+D-i-1)...(n-i+1), ascending powers
    numerators = [0] * (D + 1)
    for i, entry in enumerate(v.entries):
        if entry == 0:
            continue
        basis = [1]
        for t in range(D):
            # times (n + D - i - t)
            basis = [(D - i - t) * c + prev for c, prev in zip(basis + [0], [0] + basis)]
        for k, c in enumerate(basis):
            numerators[k] += entry * c
    return Polynomial(numerators, math.factorial(D))
