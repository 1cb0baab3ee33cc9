from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polybinom.polynomials import (
    Polynomial,
    StarVector,
    binomial,
    binomial_poly_value,
    inverse_transform,
    star_from_values,
)


def transform(p: Polynomial, bound: int, start: int = 0, nodes: int = 0) -> StarVector:
    """Star vector of p from its values at start, start+1, ..., with `nodes`
    values beyond the D+1 that determine it."""
    return star_from_values([p(start + j) for j in range(bound + 1 + nodes)], bound, start)


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
        assert Polynomial([1, 2, 0, 0]).coeffs == (1, 2)
        assert Polynomial([0, 0]).coeffs == ()

    def test_degree_sentinel(self):
        assert Polynomial().degree == float("-inf")
        assert Polynomial([0, 1]).degree == 1

    def test_evaluate_exact(self):
        p = Polynomial([0, 2, -3, 1])  # n^3 - 3n^2 + 2n
        assert p(-1) == -6
        assert p(0) == 0
        assert p(4) == 24
        q = Polynomial([6, -9, 3])
        assert q(4) == 18

    def test_rational_coefficients_integer_values(self):
        p = Polynomial([0, Fraction(1, 3), 0, Fraction(-1, 3)])
        assert not p.is_integral
        assert p(4) == -20


class TestInterpolate:
    """Values to polynomial: `star_from_values`, then `inverse_transform`."""

    def test_quadratic_through_flow_counts(self):
        v = star_from_values([0, 0, 6], 2, start=1)
        assert v.entries == (0, 0, 0, 6)
        assert inverse_transform(v).coeffs == (6, -9, 3)

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
        assert p.coeffs[3] == Fraction(1, 6)
        assert p(10) == 120


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
            assert [v.value(n) for n in range(-4, 5)] == [p(n) for n in range(-4, 5)]


class TestBinomialTransform:
    def test_cubic_start0(self):
        p = Polynomial([0, 2, -3, 1])  # n(n-1)(n-2)
        assert transform(p, 3, start=0).entries == (0, 0, 0, 6)

    def test_shifted_square_start0(self):
        assert transform(Polynomial([1, 2, 1]), 2, start=0).entries == (1, 1, 0)

    def test_start1_reaches_top_index(self):
        p = Polynomial([2, -3, 1])  # (n-1)(n-2), nonzero at 0
        v = transform(p, 2, start=1)
        assert v.entries == (0, 0, 0, 2)
        assert v.start == 1

    def test_degree_bound_enforced(self):
        # n^2 breaks degree bound 1 at the first node
        with pytest.raises(ValueError):
            transform(Polynomial([0, 0, 1]), 1, start=0, nodes=1)

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
    return Polynomial(coeffs)


class TestTransformProperties:
    @given(integer_polynomials(), st.sampled_from([0, 1]))
    @settings(max_examples=200)
    def test_round_trip(self, p, start):
        degree = len(p.coeffs) - 1 if p.coeffs else 0
        bound = max(degree, 0) + 2  # any bound >= deg works
        assert inverse_transform(transform(p, bound, start)) == p

    @given(integer_polynomials(max_degree=6), integer_polynomials(max_degree=6), st.sampled_from([0, 1]))
    @settings(max_examples=100)
    def test_linearity(self, p, q, start):
        bound = 8
        vp = transform(p, bound, start)
        vq = transform(q, bound, start)
        vsum = star_from_values([p(start + j) + q(start + j) for j in range(bound + 1)], bound, start)
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
        values = [p(start + j) for j in range(bound + 1 + nodes)]
        star = star_from_values(values, bound, start)
        assert star == transform(p, bound, start)
        assert inverse_transform(star) == p
        if nodes:
            # every value, the first D+1 included, lies under some node
            j = data.draw(st.integers(min_value=0, max_value=len(values) - 1))
            values[j] += data.draw(st.sampled_from([-1, 1]))
            with pytest.raises(ValueError):
                star_from_values(values, bound, start)
