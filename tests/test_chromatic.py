import math
import random
from fractions import Fraction
from itertools import chain

import pytest

import polybinom.chromatic
import polybinom.graphs
import polybinom.posets
from polybinom.checks import graph_checks
from polybinom.errors import CapExceeded, NotApplicable
from polybinom.chromatic import (
    EXPECTED_FORMS,
    LinearForm,
    chromatic_analysis,
    chromatic_star,
    match_reference_forms,
    monomial_inequality_forms,
    star_via_order_polynomials,
)
from polybinom.graphs import (
    Multigraph,
    acyclic_orientations_up_to_reversal,
    complete_graph,
    cycle_graph,
    path_graph,
)
from polybinom.polynomials import Polynomial, StarVector, inverse_transform
from polybinom.posets import Poset, omega_star
from polybinom.survey import connected_graph_classes
from test_flows import PETERSEN
from test_graphs import enumerate_acyclic_orientations
from test_polynomials import coefficients


def wheel_graph(rim: int) -> Multigraph:
    spokes = tuple((0, i) for i in range(1, rim + 1))
    rim_edges = tuple((i, i % rim + 1) for i in range(1, rim + 1))
    return Multigraph(rim + 1, spokes + rim_edges)


def chi(g: Multigraph) -> list[Fraction]:
    """chi's monomial coefficients, ascending by power, as it is shown."""
    return coefficients(inverse_transform(chromatic_star(g)))


def random_connected_graph(rng: random.Random, d: int) -> Multigraph:
    while True:
        edges = tuple(
            (u, v) for u in range(d) for v in range(u + 1, d) if rng.random() < 0.5
        )
        g = Multigraph(d, edges)
        if g.is_connected:
            return g


class TestChromaticPolynomial:
    def test_small_fixtures(self):
        assert chi(complete_graph(3)) == [0, 2, -3, 1]
        assert chi(path_graph(3)) == [0, 1, -2, 1]
        assert chi(Multigraph(1, ((0, 0),))) == []

    def test_known_closed_forms(self):
        # complete graphs are falling factorials; cycles are (n-1)^d + (-1)^d (n-1)
        k5 = chromatic_star(complete_graph(5))
        assert [k5.value(n) for n in range(6)] == [0, 0, 0, 0, 0, 120]
        c5 = chromatic_star(cycle_graph(5))
        for n in range(1, 7):
            assert c5.value(n) == (n - 1) ** 5 - (n - 1)

    def test_disconnected_multiplies(self):
        g = Multigraph(5, ((0, 1), (1, 2), (0, 2), (3, 4)))
        k3, p2 = chromatic_star(complete_graph(3)), chromatic_star(path_graph(2))
        star = chromatic_star(g)
        for n in range(-3, 8):
            assert star.value(n) == k3.value(n) * p2.value(n)

    def test_parallel_collapse_is_sound(self):
        rng = random.Random(7)
        for _ in range(10):
            d = rng.randint(2, 5)
            base = random_connected_graph(rng, d)
            doubled = Multigraph(d, base.edges + base.edges[:1] * rng.randint(1, 3))
            assert chromatic_star(doubled) == chromatic_star(base)

    def test_cap(self):
        # K10 is the falling factorial n(n-1)...(n-9), of degree 10
        k10 = chromatic_star(complete_graph(10))
        assert [k10.value(n) for n in range(12)] == [math.perm(n, 10) for n in range(12)]
        assert chi(Multigraph(10, ())) == [0] * 10 + [1]
        with pytest.raises(CapExceeded):
            chromatic_star(Multigraph(11, ()))

    def test_shares_no_code_with_the_routes_that_check_it(self, monkeypatch):
        # acyclic orientations and order stars check chi, so computing chi
        # must reach neither, nor the canonical certificates
        def checking_route(*args, **kwargs):
            raise AssertionError("chromatic_star reached a checking route")

        modules = (polybinom.chromatic, polybinom.graphs, polybinom.posets)
        for name in (
            "graph_certificate",
            "omega_star",
            "strict_chain_code",
            "chain_code_counts",
            "acyclic_orientations_up_to_reversal",
        ):
            owners = [module for module in modules if hasattr(module, name)]
            # a renamed route must be renamed here too, not silently unguarded
            assert owners, name
            for module in owners:
                monkeypatch.setattr(module, name, checking_route)
        assert chi(complete_graph(4)) == [0, -6, 11, -6, 1]
        assert chi(cycle_graph(5)) == [0, 4, -10, 10, -5, 1]


class TestChromaticStar:
    def test_fixtures(self):
        assert chromatic_star(complete_graph(3)).entries == (0, 0, 0, 6)
        assert chromatic_star(path_graph(3)).entries == (0, 0, 2, 4)
        assert chromatic_star(Multigraph(1, ())).entries == (0, 1)

    def test_star_is_computed_in_integers(self, monkeypatch):
        # like every other route, chi* comes from integer counts; a
        # Polynomial is built only to display chi
        def refuse(self, *args):
            raise AssertionError("a Polynomial was built on the chi route")

        monkeypatch.setattr(Polynomial, "__init__", refuse)
        assert chromatic_star(complete_graph(4)).entries == (0, 0, 0, 0, 24)
        assert chromatic_star(cycle_graph(5)).entries == (0, 0, 0, 30, 60, 30)

    def test_analysis_splits(self):
        r = chromatic_analysis(path_graph(3))
        assert r.split.p == (4, 6, 6, 4)
        assert r.split.q == (4, 6, 4)
        assert r.acyclic_count == 4
        assert graph_checks(path_graph(3)).checks["constants_match_acyclic_oracle"] == "pass"
        r = chromatic_analysis(path_graph(2))
        assert r.chi_star.entries == (0, 0, 2)
        assert r.split.p == (2, 2, 2)
        assert r.split.q == (2, 2)

    def test_loop_not_applicable(self):
        with pytest.raises(NotApplicable) as err:
            chromatic_analysis(Multigraph(2, ((0, 1), (1, 1))))
        assert err.value.reason == "loop"

    def test_single_vertex(self):
        r = chromatic_analysis(Multigraph(1, ()))
        assert r.split.p == (1, 1)
        assert r.split.q == (1,)
        assert r.acyclic_count == 1

    def test_multigraph_matches_simplification(self):
        # loopless multigraphs carry the same chi and orientation data as
        # their simplifications (parallel edges must co-orient)
        rng = random.Random(3)
        for _ in range(8):
            base = random_connected_graph(rng, rng.randint(2, 5))
            if not base.edges:
                continue
            multi = Multigraph(base.vertex_count, base.edges + base.edges[:2])
            rm, rs = chromatic_analysis(multi), chromatic_analysis(base)
            assert rm.chi_star == rs.chi_star
            assert rm.acyclic_count == rs.acyclic_count
            assert rm.split == rs.split


class TestAcyclicReciprocity:
    def test_count_matches_signed_evaluation(self):
        # |acyclic orientations| = (-1)^d chi(-1), against the enumeration oracle
        rng = random.Random(17)
        graphs = [complete_graph(4), cycle_graph(5), path_graph(4), Multigraph(4, ())]
        graphs += [random_connected_graph(rng, rng.randint(2, 5)) for _ in range(8)]
        for g in graphs:
            d = g.vertex_count
            star = chromatic_star(g)
            assert (-1) ** d * star.value(-1) == len(enumerate_acyclic_orientations(g))


class TestTutteOracle:
    # an external oracle: chi_G(n) = (-1)^(d-1) n T_G(1-n, 0) for connected G,
    # and T_G(2, 0) counts the acyclic orientations (Stanley 1973)
    def test_chi_and_acyclic_count_match_networkx(self):
        nx = pytest.importorskip("networkx")
        pytest.importorskip("sympy")  # networkx builds the Tutte polynomial in sympy
        doubled = Multigraph(4, ((0, 1), (1, 2), (2, 3), (3, 0), (1, 2)))
        named = [complete_graph(6), wheel_graph(6), cycle_graph(7), doubled]
        for g in [*chain.from_iterable(connected_graph_classes(5)), *named]:
            nxg = nx.MultiGraph()
            nxg.add_nodes_from(range(g.vertex_count))
            nxg.add_edges_from(g.edges)
            tutte = nx.tutte_polynomial(nxg)
            d = g.vertex_count
            star = chromatic_star(g)
            for n in range(d + 2):
                t = int(tutte.subs({"x": 1 - n, "y": 0}))
                assert star.value(n) == (-1) ** (d - 1) * n * t, (g, n)
            acyclic = int(tutte.subs({"x": 2, "y": 0}))
            assert len(enumerate_acyclic_orientations(g)) == acyclic, g
            assert chromatic_analysis(g).acyclic_count == acyclic, g


def _order_route(g: Multigraph):
    return star_via_order_polynomials(g, acyclic_orientations_up_to_reversal(g))


class TestOrderPolynomialRoute:
    def test_fixtures(self):
        assert _order_route(complete_graph(3)).entries == (0, 0, 0, 6)
        assert _order_route(path_graph(3)).entries == (0, 0, 2, 4)
        assert _order_route(Multigraph(2, ())).entries == (0, 1, 1)

    def test_matches_chi_star_on_random_graphs(self):
        rng = random.Random(11)
        for _ in range(6):
            g = random_connected_graph(rng, rng.randint(2, 5))
            assert _order_route(g) == chromatic_star(g)

    def test_summing_counts_is_summing_order_stars(self):
        # the identity is linear in the values, so the star vector of the
        # summed counts is the entrywise sum of the per-poset order stars
        for g in chain.from_iterable(connected_graph_classes(6)):
            d = g.vertex_count
            orientations = enumerate_acyclic_orientations(g)
            total = [0] * (d + 1)
            for above in orientations:
                for i, x in enumerate(omega_star(Poset(d, above)).entries):
                    total[i] += x
            summed = star_via_order_polynomials(g, acyclic_orientations_up_to_reversal(g))
            assert summed == StarVector(tuple(total), d, start=0), g

    def test_ten_vertices_at_the_cap(self):
        # the Petersen graph: 8,340 chain codes with 40-bit fields summed
        # and doubled into one, whose fields count the surjective proper
        # colourings of all 16,680 orientations
        assert len(enumerate_acyclic_orientations(PETERSEN)) == 16680
        orientations = acyclic_orientations_up_to_reversal(PETERSEN)
        assert star_via_order_polynomials(PETERSEN, orientations) == chromatic_star(PETERSEN)

    def test_petersen_lists_one_order_per_reversal_pair(self):
        r = chromatic_analysis(PETERSEN)
        assert len(r.acyclic_orientations) == 8340
        assert r.acyclic_count == 16680


class TestSampledDegreeSevenFamily:
    # the constants and the inequality audits hold on the larger sampled
    # family as well
    @staticmethod
    def assert_holds(g: Multigraph):
        checked = graph_checks(g)
        assert checked.checks["constants_match_acyclic_oracle"] == "pass"
        assert [a.family for a in checked.audits if a.verdict == "fail"] == []

    @pytest.mark.parametrize(
        "g",
        [complete_graph(7), cycle_graph(7), wheel_graph(6)],
        ids=["K7", "C7", "W7"],
    )
    def test_named_graphs(self, g):
        self.assert_holds(g)

    def test_random_graphs(self):
        rng = random.Random(2024)
        for _ in range(12):
            self.assert_holds(random_connected_graph(rng, 7))


def forms_by_finite_differences(d: int) -> list[tuple[int, LinearForm]]:
    """Oracle for `monomial_inequality_forms`: each star entry of
    p = n^d + c_{d-1} n^{d-1} + ... + c_1 n written out as a linear form by
    its own finite difference, and the tail-sum ranges summed by hand."""

    def star_row(i: int) -> tuple[int, list[int]]:
        # star entry i of p as (constant, coeffs of c_1..c_{d-1})
        const = 0
        coeffs = [0] * (d - 1)
        for k in range(i + 1):
            sign = (-1) ** k * math.comb(d + 1, k)
            x = i - k
            const += sign * x**d
            for t in range(1, d):
                coeffs[t - 1] += sign * x**t
        return const, coeffs

    rows = [star_row(i) for i in range(d + 1)]
    out = []
    for j in range(2, d // 2 + 1):
        const = 0
        coeffs = [0] * (d - 1)
        for i in range(d - j, d - 1):  # lhs: indices d-j .. d-2
            const += rows[i][0]
            for t in range(d - 1):
                coeffs[t] += rows[i][1][t]
        for i in range(2, j + 1):  # rhs: indices 2 .. j
            const -= rows[i][0]
            for t in range(d - 1):
                coeffs[t] -= rows[i][1][t]
        out.append((j, LinearForm(const, tuple(coeffs)).normalized()))
    return out


class TestMonomialForms:
    @pytest.mark.parametrize("d", [5, 6, 7])
    def test_forms_match_the_finite_difference_oracle(self, d):
        assert monomial_inequality_forms(d) == forms_by_finite_differences(d)

    def test_degree_five(self):
        forms = monomial_inequality_forms(5)
        assert [j for j, _ in forms] == [2]
        assert forms[0][1] == LinearForm(20, (5, 1, -4, -5))

    def test_degree_six_rows_coincide(self):
        forms = monomial_inequality_forms(6)
        assert [j for j, _ in forms] == [2, 3]
        assert forms[0][1] == forms[1][1] == LinearForm(245, (-5, 5, 7, -19, -65))

    def test_degree_seven(self):
        forms = dict(monomial_inequality_forms(7))
        assert forms[2] == LinearForm(1071, (21, -1, -9, 11, -9, -301))
        assert forms[3] == LinearForm(1148, (-7, -3, 8, 15, -52, -273))

    def test_normalization_divides_gcd(self):
        assert LinearForm(40, (10, 2, -8, -10)).normalized() == LinearForm(20, (5, 1, -4, -5))

    def test_formatting(self):
        assert LinearForm(20, (5, 1, -4, -5)).format() == "5c_1 + c_2 - 4c_3 - 5c_4 + 20 >= 0"

    def test_out_of_range_degree(self):
        with pytest.raises(ValueError):
            monomial_inequality_forms(4)

    def test_reference_match_report(self):
        report = match_reference_forms()
        assert report["all_matched"]
        assert set(report["degrees"]) == set(EXPECTED_FORMS)

    def test_forms_hold_on_actual_chromatic_polynomials(self):
        # every derived form evaluates nonnegatively on real chromatic data
        rng = random.Random(5)
        for d in (5, 6, 7):
            graphs = [complete_graph(d), cycle_graph(d)] + [
                random_connected_graph(rng, d) for _ in range(5)
            ]
            for g in graphs:
                poly = chi(g)
                assert all(c.denominator == 1 for c in poly)
                coeffs = poly + [0] * (d + 1 - len(poly))
                assert coeffs[d] == 1 and coeffs[0] == 0
                for _, form in monomial_inequality_forms(d):
                    value = form.constant + sum(
                        form.coefficients[t - 1] * coeffs[t] for t in range(1, d)
                    )
                    assert value >= 0
