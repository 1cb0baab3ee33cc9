from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polybinom.decompositions import (
    _lattice_entries,
    binomial_coefficient_bound,
    ca_decomposition,
    entrywise_dominance,
    flow_mirror,
    symmetric_split,
    tail_sums,
)
from polybinom.polynomials import StarVector
from polybinom.posets import ehrhart_star, poset_classes

CA_VECTORS = [(1, 1, 0), (1, 4, 1, 0), (1, 0, 0), (1, 2, 3, 2, 1)]


# ---------------------------------------------------------------------------
# the a/b split: the oracle of the package's one route to a, `ca_decomposition`


def _poly_mul(u, w):
    out = [0] * (len(u) + len(w) - 1 or 1)
    for i, a in enumerate(u):
        for j, b in enumerate(w):
            out[i + j] += a * b
    return out


def _trim(u):
    u = list(u)
    while u and u[-1] == 0:
        u.pop()
    return tuple(u)


@dataclass(frozen=True)
class ABDecomposition:
    """a (palindromic, length D+1) and b (palindromic, length s) with

    (1 + z + ... + z^(l-1)) h(z) = a(z) + z^l b(z),  l = D+1-s.
    """

    a: tuple[int, ...]
    b: tuple[int, ...]
    s: int
    codegree: int


def ab_decomposition(h: StarVector) -> ABDecomposition:
    """Split a start=0 lattice-point star vector into its a/b pair.

    a is the p part of reversed h and b the q part of h truncated at its
    degree s (module docstring of `polybinom.decompositions`).  The defining
    identity is asserted.  The route never forms the interior reversal that
    `ca_decomposition` splits.
    """
    v = _lattice_entries(h, "a/b")
    D = h.degree_bound
    s = h.degree
    l = D + 1 - s
    a = symmetric_split(v[::-1], D).p
    b = symmetric_split(v[: s + 1], s).q
    # identity check: (1 + z + ... + z^(l-1)) h(z) == a(z) + z^l b(z)
    lhs = _trim(_poly_mul([1] * l, v))
    rhs = list(a) + [0] * max(0, l + len(b) - (D + 1))
    for j, bb in enumerate(b):
        rhs[l + j] += bb
    if lhs != _trim(rhs):
        raise AssertionError(f"a/b identity failed: {lhs} != {_trim(rhs)}")
    return ABDecomposition(a, b, s, l)


def _head(h, j):
    """h_0 + ... + h_j."""
    return sum(h[: j + 1])


def _closed_forms(h):
    """a, b and c entry by entry from the module docstring's closed forms."""
    D = len(h) - 1
    s = max(i for i, e in enumerate(h) if e)
    a = tuple(_head(h, j) - sum(h[D - j + 1 :]) for j in range(D + 1))
    b = tuple(sum(h[s - j : s + 1]) - _head(h, j) for j in range(s))
    c = (h[0],) + tuple(a[j - 1] + (h[j] if j <= D else 0) for j in range(1, D + 2))
    return a, b, c


def _lattice_stars():
    for level in poset_classes(5):
        for p in level:
            yield ehrhart_star(p)
    for entries in CA_VECTORS:
        yield StarVector(entries, len(entries) - 1)


class TestSymmetricSplit:
    @pytest.mark.parametrize(
        "v, degree, p, q",
        [
            ((0, 0, 2, 4), 3, (4, 6, 6, 4), (4, 6, 4)),
            ((0, 1, 1), 2, (1, 2, 1), (1, 1)),
            ((1,), 0, (1,), ()),
        ],
    )
    def test_known_splits(self, v, degree, p, q):
        split = symmetric_split(v, degree)
        assert split.p == p
        assert split.q == q
        assert split.difference() == v

    def test_zero_padding(self):
        split = symmetric_split((0, 0, 2), 3)
        assert split.difference() == (0, 0, 2, 0)

    def test_length_guard(self):
        with pytest.raises(ValueError):
            symmetric_split((1, 2, 3), 1)

    @given(st.lists(st.integers(-30, 30), min_size=1, max_size=9))
    @settings(max_examples=200)
    def test_reconstruction_and_symmetry(self, v):
        D = len(v) - 1
        split = symmetric_split(v, D)
        assert split.difference() == tuple(v)
        assert split.p == tuple(reversed(split.p))
        assert split.q == tuple(reversed(split.q))

    @given(st.lists(st.integers(-30, 30), min_size=1, max_size=9))
    @settings(max_examples=200)
    def test_reversal_negates_q(self, v):
        # reversing the input vector flips the sign of the q part and shifts
        # the p part by (1+z) * q
        D = len(v) - 1
        fwd = symmetric_split(v, D)
        rev = symmetric_split(tuple(reversed(v)), D)
        assert rev.q == tuple(-x for x in fwd.q)
        convolved = [0] * (D + 1)
        for i, x in enumerate(fwd.q):
            convolved[i] += x
            convolved[i + 1] += x
        assert tuple(a - b for a, b in zip(fwd.p, rev.p)) == tuple(convolved)

    @pytest.mark.parametrize("D", range(1, 9))
    def test_split_is_unique(self, D):
        # the linear map (free p params, free q params) -> vector is square
        # and of full rank, so the computed split is the only one
        free_p = (D + 1 + 1) // 2
        free_q = (D + 1) // 2
        dim = D + 1
        assert free_p + free_q == dim

        def basis_vector(kind, idx):
            p = [0] * (D + 1)
            q = [0] * D
            if kind == "p":
                p[idx] = 1
                p[D - idx] = 1
            else:
                q[idx] = 1
                q[D - 1 - idx] = 1
            return [pi - (q[i] if i < D else 0) for i, pi in enumerate(p)]

        columns = [basis_vector("p", i) for i in range(free_p)]
        columns += [basis_vector("q", i) for i in range(free_q)]
        matrix = [[Fraction(columns[c][r]) for c in range(dim)] for r in range(dim)]
        rank = 0
        for col in range(dim):
            pivot = next((r for r in range(rank, dim) if matrix[r][col] != 0), None)
            if pivot is None:
                continue
            matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
            inv = 1 / matrix[rank][col]
            matrix[rank] = [x * inv for x in matrix[rank]]
            for r in range(dim):
                if r != rank and matrix[r][col] != 0:
                    factor = matrix[r][col]
                    matrix[r] = [a - factor * b for a, b in zip(matrix[r], matrix[rank])]
            rank += 1
        assert rank == dim


class TestABDecomposition:
    def test_unit_square(self):
        ab = ab_decomposition(StarVector((1, 1, 0), 2))
        assert ab.a == (1, 2, 1)
        assert ab.b == (0,)
        assert ab.s == 1 and ab.codegree == 2

    def test_segment(self):
        ab = ab_decomposition(StarVector((1, 0), 1))
        assert ab.a == (1, 1)
        assert ab.b == ()

    def test_one_four_one(self):
        # identity oracle fixes the split: (1+z)(1+4z+z^2) = 1+5z+5z^2+z^3
        ab = ab_decomposition(StarVector((1, 4, 1, 0), 3))
        assert ab.a == (1, 5, 5, 1)
        assert ab.b == (0, 0)

    def test_rejects_zero_and_unnormalized(self):
        with pytest.raises(ValueError):
            ab_decomposition(StarVector((0, 0), 1))
        with pytest.raises(ValueError):
            ab_decomposition(StarVector((0, 1, 1), 2))

    def test_summed_vector_warns(self):
        with pytest.warns(UserWarning):
            ab_decomposition(StarVector((2, 2, 0), 2))


def interior_entries(ca) -> tuple[int, ...]:
    """c - a, with a padded to the length of c: the interior star vector the
    c/a split promises."""
    return tuple(cc - aa for cc, aa in zip(ca.c, ca.a + (0,)))


class TestCADecomposition:
    def test_unit_square(self):
        ca = ca_decomposition(StarVector((1, 1, 0), 2))
        assert ca.c == (1, 2, 2, 1)
        assert ca.a == (1, 2, 1)
        assert interior_entries(ca) == (0, 0, 1, 1)

    def test_segment(self):
        ca = ca_decomposition(StarVector((1, 0), 1))
        assert ca.c == (1, 1, 1)
        assert ca.a == (1, 1)

    def test_standard_triangle(self):
        ca = ca_decomposition(StarVector((1, 0, 0), 2))
        assert ca.a == (1, 1, 1)
        assert ca.c == (1, 1, 1, 1)

    def test_a_parts_agree_across_routes(self):
        # the checks audit a from the c/a split alone; the a/b oracle must
        # agree on the h* of every poset class with d <= 6
        stars = [ehrhart_star(p) for level in poset_classes(6) for p in level]
        assert len(stars) == 405
        for entries in CA_VECTORS:
            stars.append(StarVector(entries, len(entries) - 1))
        for h in stars:
            assert ca_decomposition(h).a == ab_decomposition(h).a, h

    def test_parts_match_closed_forms(self):
        for h in _lattice_stars():
            a, b, c = _closed_forms(h.entries)
            ab, ca = ab_decomposition(h), ca_decomposition(h)
            assert (ab.a, ab.b, ca.a, ca.c) == (a, b, a, c), h

    @pytest.mark.parametrize(
        "h",
        [StarVector((0, 0), 1), StarVector((0, 1, 1), 2), StarVector((0, 1, 0), 1, start=1)],
        ids=["zero", "h0-zero", "start-1"],
    )
    def test_rejects_bad_input(self, h):
        with pytest.raises(ValueError):
            ca_decomposition(h)

    def test_interior_cross_check(self):
        for entries in [(1, 1, 0), (1, 4, 1, 0), (1, 0, 0), (1, 2, 3, 2, 1)]:
            h = StarVector(tuple(entries), len(entries) - 1)
            assert interior_entries(ca_decomposition(h)) == h.interior_reversal().entries
        # the unit square has one interior point at n=2, not one at n=1
        ca = ca_decomposition(StarVector((1, 1, 0), 2))
        assert interior_entries(ca) != StarVector((0, 1, 1, 1), 2, start=1).entries


class TestInequalityFamilies:
    def test_tail_sums_vacuous_for_small_degree(self):
        report = tail_sums((0, 0, 0, 6), 3, "chromatic_tail_sums")
        assert report.verdict == "vacuous"

    def test_flow_mirror_theta(self):
        report = flow_mirror((0, 0, 0, 2), 2, "flow_mirror")
        assert [(r.j, r.lhs, r.rhs, r.holds) for r in report.rows] == [(1, 0, 0, True)]
        assert report.verdict == "pass"

    def test_order_tail_sums_eulerian(self):
        report = tail_sums((0, 1, 11, 11, 1), 4, "order_tail_sums")
        assert [(r.j, r.lhs, r.rhs) for r in report.rows] == [(2, 11, 11)]
        assert report.verdict == "pass"

    def test_binomial_bound_rows(self):
        # top-neighbor entry 0 forces all lower entries to 0
        report = binomial_coefficient_bound((0, 0, 0, 6), 3, "binomial_coefficient_bound")
        assert report.verdict == "pass"
        report = binomial_coefficient_bound((0, 2, 2, 4), 3, "binomial_coefficient_bound")
        assert [(r.j, r.lhs, r.rhs) for r in report.rows] == [(1, 2, 2), (2, 2, 3), (3, 0, 4)]

    def test_detects_violation_without_raising(self):
        report = tail_sums((0, 0, 9, 0, 0, 0), 5, "chromatic_tail_sums")
        assert report.verdict == "fail"
        assert report.failures

    def test_entrywise_dominance_rows(self):
        # (0, 0, 2, 0) splits as p = (0, 2, 2, 0) minus q = (0, 2, 0)
        split = symmetric_split((0, 0, 2, 0), 3)
        report = entrywise_dominance(split, 2, "modular_alpha_ge_beta")
        assert [(r.j, r.lhs, r.rhs, r.holds) for r in report.rows] == [(1, 2, 2, True), (2, 2, 0, True)]
        assert report.parameters == {"range": "1..2"}
        # (0, -2, 0, 1) splits as p = (1, 1, 1, 1) minus q = (1, 3, 1)
        report = entrywise_dominance(symmetric_split((0, -2, 0, 1), 3), 2, "integral_c_ge_d")
        assert [(r.j, r.lhs, r.rhs) for r in report.failures] == [(1, 1, 3)]

    def test_json_shape(self):
        report = tail_sums((0, 1, 11, 11, 1), 4, "order_tail_sums")
        blob = report.to_json()
        assert blob["family"] == "order_tail_sums"
        assert blob["verdict"] == "pass"
        assert blob["rows"][0] == {"j": 2, "lhs": 11, "rhs": 11, "holds": True}
