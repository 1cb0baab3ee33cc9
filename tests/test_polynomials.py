import math
from fractions import Fraction
from itertools import chain
from typing import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polybinom.chromatic import chromatic_star
from polybinom.errors import PolybinomError
from polybinom.flows import flow_analysis
from polybinom.posets import omega_star, poset_classes
from polybinom.polynomials import (
    Polynomial,
    StarVector,
    binomial,
    binomial_poly_value,
    inverse_transform,
    star_from_values,
)
from polybinom.survey import connected_graph_classes

# The oracle for shown polynomials: a polynomial as its monomial
# coefficients in `Fraction`s, ascending by power, evaluated by Horner's rule
# and encoded as `Polynomial.to_json`, `pretty` and `is_integral` show it.


def evaluate(coeffs: Sequence[int | Fraction], n: int) -> int | Fraction:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * n + c
    return acc


def coefficients(p: Polynomial) -> list[Fraction]:
    return [Fraction(c, p.denominator) for c in p.numerators]


def interpolated(v: StarVector) -> list[Fraction]:
    """The coefficients of n -> v.value(n), by Newton's forward differences
    at n = 0..D: p(n) = sum_k (Delta^k p)(0) * C(n, k)."""
    D = v.degree_bound
    values = [v.value(n) for n in range(D + 1)]
    coeffs, basis = [Fraction(0)] * (D + 1), [Fraction(1)]  # basis: C(n, k)
    for k in range(D + 1):
        for power, c in enumerate(basis):
            coeffs[power] += values[0] * c
        values = [y - x for x, y in zip(values, values[1:])]
        # C(n, k + 1) = C(n, k) * (n - k) / (k + 1)
        basis = [(prev - k * c) / (k + 1) for c, prev in zip(basis + [0], [0] + basis)]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def shown_json(coeffs: Sequence[Fraction]) -> dict:
    den = math.lcm(*(c.denominator for c in coeffs))
    return {"numerators": [int(c * den) for c in coeffs], "denominator": den}


def shown_text(coeffs: Sequence[Fraction], var: str = "n") -> str:
    parts = []
    for power in range(len(coeffs) - 1, -1, -1):
        c = coeffs[power]
        if c == 0:
            continue
        mag = abs(c)
        if power == 0:
            term = str(mag)
        else:
            term = ("" if mag == 1 else f"{mag}*") + (var if power == 1 else f"{var}^{power}")
        sign = ("-" if c < 0 else "") if not parts else ("- " if c < 0 else "+ ")
        parts.append(sign + term)
    return " ".join(parts) or "0"


def transform(coeffs: Sequence[int], bound: int, start: int = 0, nodes: int = 0) -> StarVector:
    """Star vector of the polynomial with these coefficients from its values
    at start, start+1, ..., with `nodes` values beyond the D+1 that determine it."""
    return star_from_values([evaluate(coeffs, start + j) for j in range(bound + 1 + nodes)], bound, start)


class TestBinomials:
    def test_counting_convention(self):
        assert binomial(5, 2) == 10
        assert binomial(2, 5) == 0
        assert binomial(3, -1) == 0
        assert binomial(0, 0) == 1

    def test_polynomial_extension_at_negatives(self):
        # C(-1, 2) = (-1)(-2)/2 = 1, C(-1, 3) = -1
        assert binomial_poly_value(-1, 2) == 1
        assert binomial_poly_value(-1, 3) == -1
        assert binomial_poly_value(4, 2) == 6
        assert binomial_poly_value(1, 3) == 0


class TestPolynomial:
    def test_trailing_zeros_stripped(self):
        assert Polynomial([1, 2, 0, 0]).numerators == (1, 2)
        assert Polynomial([0, 0], 6) == Polynomial() == Polynomial((), 1)

    def test_lowest_terms(self):
        p = Polynomial([0, 4, 0, -4], 6)
        assert (p.numerators, p.denominator) == ((0, 2, 0, -2), 3)
        assert Polynomial([6, -12], 6) == Polynomial([1, -2])
        with pytest.raises(ValueError):
            Polynomial([1], 0)

    def test_rational_coefficients_integer_values(self):
        p = Polynomial([0, 1, 0, -1], 3)
        assert not p.is_integral
        assert evaluate(coefficients(p), 4) == -20

    def test_each_coefficient_shown_in_lowest_terms(self):
        p = Polynomial([0, 2, -3, 1], 6)  # C(n, 3)
        assert p.pretty() == "1/6*n^3 - 1/2*n^2 + 1/3*n"
        assert p.to_json() == {"numerators": [0, 2, -3, 1], "denominator": 6}
        assert Polynomial([-6, 6], 6).pretty("k") == "k - 1"
        assert Polynomial().pretty() == "0"
        assert Polynomial().to_json() == {"numerators": [], "denominator": 1}


class TestInterpolate:
    """Values to polynomial: `star_from_values`, then `inverse_transform`."""

    def test_quadratic_through_flow_counts(self):
        v = star_from_values([0, 0, 6], 2, start=1)
        assert v.entries == (0, 0, 0, 6)
        assert inverse_transform(v) == Polynomial([6, -9, 3])

    def test_identity_line(self):
        assert inverse_transform(star_from_values([0, 1], 1)) == Polynomial([0, 1])

    def test_constant(self):
        assert inverse_transform(star_from_values([1, 1, 1], 2)) == Polynomial([1])

    def test_point_count_mismatch(self):
        with pytest.raises(ValueError):
            star_from_values([0, 1], 2)
        # a further value is a node and must fit the degree bound
        assert star_from_values([0, 1, 2], 1).entries == (0, 1)
        with pytest.raises(ValueError):
            star_from_values([0, 1, 3], 1)

    def test_non_integer_rejected_unless_allowed(self):
        # C(n, 3) is integer-valued with rational monomial coefficients
        v = star_from_values([n * (n - 1) * (n - 2) // 6 for n in range(1, 6)], 3, start=1)
        p = inverse_transform(v)
        assert not p.is_integral
        assert coefficients(p)[3] == Fraction(1, 6)
        assert evaluate(coefficients(p), 10) == 120


class TestStarVector:
    def test_length_conventions(self):
        StarVector((0, 0, 0, 6), 3, start=0)
        StarVector((0, 0, 0, 2), 2, start=1)
        with pytest.raises(ValueError):
            StarVector((0, 0, 6), 3, start=0)
        with pytest.raises(ValueError):
            StarVector((1, 0, 0, 2), 2, start=1)  # nonzero constant term

    def test_degree(self):
        v = StarVector((1, 1, 0), 2, start=0)
        assert v.degree == 1
        with pytest.raises(ValueError):
            StarVector((0, 0), 1, start=0).degree

    def test_interior_reversal(self):
        v = StarVector((1, 1, 0), 2, start=0)
        assert v.interior_reversal() == StarVector((0, 0, 1, 1), 2, start=1)

    def test_value_matches_inverse_transform_at_every_integer(self):
        for v in (StarVector((1, 1, 0), 2), StarVector((0, 0, 0, 6), 2, start=1)):
            p = inverse_transform(v)
            assert [v.value(n) for n in range(-4, 5)] == [evaluate(coefficients(p), n) for n in range(-4, 5)]


class TestBinomialTransform:
    def test_cubic_start0(self):
        p = [0, 2, -3, 1]  # n(n-1)(n-2)
        assert transform(p, 3, start=0).entries == (0, 0, 0, 6)

    def test_shifted_square_start0(self):
        assert transform([1, 2, 1], 2, start=0).entries == (1, 1, 0)

    def test_start1_reaches_top_index(self):
        p = [2, -3, 1]  # (n-1)(n-2), nonzero at 0
        v = transform(p, 2, start=1)
        assert v.entries == (0, 0, 0, 2)
        assert v.start == 1

    def test_degree_bound_enforced(self):
        # n^2 breaks degree bound 1 at the first node
        with pytest.raises(ValueError):
            transform([0, 0, 1], 1, start=0, nodes=1)

    def test_inverse_examples(self):
        assert inverse_transform(StarVector((0, 0, 0, 6), 3)) == Polynomial([0, 2, -3, 1])
        assert inverse_transform(StarVector((1,), 0)) == Polynomial([1])
        assert inverse_transform(StarVector((0, 1), 1)) == Polynomial([0, 1])


@st.composite
def integer_polynomials(draw, max_degree=10, max_coeff=50):
    coeffs = draw(
        st.lists(
            st.integers(min_value=-max_coeff, max_value=max_coeff),
            min_size=1,
            max_size=max_degree + 1,
        )
    )
    return coeffs


class TestTransformProperties:
    @given(integer_polynomials(), st.sampled_from([0, 1]))
    @settings(max_examples=200)
    def test_round_trip(self, p, start):
        bound = len(p) + 1  # any bound >= deg works
        assert inverse_transform(transform(p, bound, start)) == Polynomial(p)

    @given(integer_polynomials(max_degree=6), integer_polynomials(max_degree=6), st.sampled_from([0, 1]))
    @settings(max_examples=100)
    def test_linearity(self, p, q, start):
        bound = 8
        vp = transform(p, bound, start)
        vq = transform(q, bound, start)
        vsum = star_from_values([evaluate(p, start + j) + evaluate(q, start + j) for j in range(bound + 1)], bound, start)
        assert tuple(a + b for a, b in zip(vp.entries, vq.entries)) == vsum.entries

    @given(
        integer_polynomials(max_degree=8),
        st.sampled_from([0, 1]),
        st.integers(min_value=0, max_value=3),
        st.data(),
    )
    @settings(max_examples=200)
    def test_values_give_the_transform_and_nodes_catch_changes(self, p, start, nodes, data):
        bound = 8
        values = [evaluate(p, start + j) for j in range(bound + 1 + nodes)]
        star = star_from_values(values, bound, start)
        assert star == transform(p, bound, start)
        assert inverse_transform(star) == Polynomial(p)
        if nodes:
            # every value, the first D+1 included, lies under some node
            j = data.draw(st.integers(min_value=0, max_value=len(values) - 1))
            values[j] += data.draw(st.sampled_from([-1, 1]))
            with pytest.raises(ValueError):
                star_from_values(values, bound, start)


def shown_stars() -> list[StarVector]:
    """chi* of every connected class and omega* of every poset class on
    d <= 6 elements, and phi* and f* of every bridgeless class the flow
    caps admit."""
    graphs = list(chain.from_iterable(connected_graph_classes(6)))
    stars = [chromatic_star(g) for g in graphs]
    stars += [omega_star(p) for p in chain.from_iterable(poset_classes(6))]
    for g in graphs:
        try:
            r = flow_analysis(g)
        except PolybinomError:
            continue
        stars += [r.phi_star, r.f_star]
    return stars


def test_every_shown_polynomial_matches_the_oracle():
    # numerators over D!, reduced once, show what the monomial
    # coefficients in `Fraction`s show, non-integral ones included
    stars = shown_stars()
    rational = 0
    for v in stars:
        p, coeffs = inverse_transform(v), interpolated(v)
        assert p.to_json() == shown_json(coeffs), v
        assert p.pretty() == shown_text(coeffs), v
        assert p.is_integral == all(c.denominator == 1 for c in coeffs), v
        rational += not p.is_integral
    assert (len(stars), rational) == (690, 449)
