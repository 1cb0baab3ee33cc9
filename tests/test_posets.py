import hashlib
import math
import random
import tracemalloc
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from polybinom import caps, posets
from polybinom.decompositions import symmetric_split
from polybinom.errors import CapExceeded, InputFormatError
from polybinom.polynomials import inverse_transform
from polybinom.posets import (
    Poset,
    antichain,
    chain,
    ehrhart_star,
    format_poset_file,
    hstar_via_descents,
    interior_star,
    lattice_point_counts,
    omega_star,
    parse_poset_file,
    chain_code_counts,
    poset_certificate,
    poset_classes,
    strict_chain_code,
)
from polybinom.survey import sample_posets

from test_polynomials import coefficients, evaluate

V_POSET = Poset.from_relation(3, [(0, 1), (0, 2)])
# two costly posets for the lattice-point walks at d = 10, found by random
# search with hill-climbing: the first charges the most of any found
# (777,931 on its closed walk), the second builds 23,375 states in one step
COSTLY_10 = (
    Poset.from_relation(10, [(0, 6), (1, 8), (2, 7), (3, 9), (4, 5), (4, 6), (4, 7), (5, 8), (5, 9)]),
    Poset.from_relation(10, [(0, 6), (1, 8), (2, 6), (2, 7), (3, 5), (3, 8), (4, 9), (5, 7), (5, 9)]),
)
# the 10-crown: a_i < b_i and a_i < b_(i+1 mod 5)
CROWN_10 = Poset.from_relation(10, [(i, 5 + j % 5) for i in range(5) for j in (i, i + 1)])


def _bits(mask: int):
    return [b for b in range(mask.bit_length()) if mask >> b & 1]


def linear_extensions(p: Poset):
    """All topological orders of p, lexicographically by element sequence:
    the listing oracle of `hstar_via_descents` and of the mask scan."""
    d, below = p.element_count, p.below
    prefix: list[int] = []

    def extend(placed: int):
        if len(prefix) == d:
            yield tuple(prefix)
            return
        for v in range(d):
            if not placed >> v & 1 and below[v] & ~placed == 0:
                prefix.append(v)
                yield from extend(placed | 1 << v)
                prefix.pop()

    yield from extend(0)


def listed_descents(p: Poset) -> tuple[int, ...]:
    """The descent distribution of the listed extensions, each written as
    the word of its labels under p's natural labeling."""
    d = p.element_count
    label = {v: position for position, v in enumerate(p.natural_labeling)}
    counts = [0] * (d + 1)
    for ext in linear_extensions(p):
        counts[sum(1 for a, b in zip(ext, ext[1:]) if label[a] > label[b])] += 1
    return tuple(counts)


def relabeled(p: Poset, rng: random.Random) -> Poset:
    """p under a random relabeling of its elements."""
    d = p.element_count
    perm = rng.sample(range(d), d)
    return Poset.from_relation(d, [(perm[a], perm[b]) for a in range(d) for b in _bits(p.above[a])])


def posets_on(d: int) -> list[Poset]:
    """The classes on d elements: the last level `poset_classes(d)` yields."""
    *_, level = poset_classes(d)
    return level


def scanned_posets(d: int) -> list[Poset]:
    """The mask-scan oracle of `poset_classes`: every order compatible with
    0 < 1 < ... < d-1, in the order of its relation mask (bit k is the k-th
    pair (i, j), i < j, in lexicographic order), kept when no relabeling
    along one of its own linear extensions has a smaller mask.  So each
    class is kept once, as its smallest mask, and the classes come out in
    the order of those masks."""
    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    bit = {pair: 1 << k for k, pair in enumerate(pairs)}
    reps = []
    for mask in range(1 << len(pairs)):
        above = [0] * d
        for k, (i, j) in enumerate(pairs):
            if mask >> k & 1:
                above[i] |= 1 << j
        if all(above[b] & ~above[i] == 0 for i in range(d) for b in _bits(above[i])):
            p = Poset(d, tuple(above))
            relations = [(a, b) for a in range(d) for b in _bits(above[a])]
            if all(
                mask <= sum(bit[position[a], position[b]] for a, b in relations)
                for position in ({v: i for i, v in enumerate(ext)} for ext in linear_extensions(p))
            ):
                reps.append(p)
    return reps


def stepped_counts(above) -> list[int]:
    """The step-by-step oracle of `strict_chain_code`: the strict maps into
    {1..n} for n = 0..d+1 as the walks of length n from the empty up-set to
    P, each step adding any subset, empty or not, of the maximal elements
    left, with all walks of one length advanced together."""
    d = len(above)
    full = (1 << d) - 1
    walks = {0: 1}
    counts = [walks.get(full, 0)]
    for _ in range(d + 1):
        advanced: dict[int, int] = {}
        for upset, ways in walks.items():
            maximal = 0
            for b in range(d):
                if not upset >> b & 1 and above[b] & ~upset == 0:
                    maximal |= 1 << b
            added = maximal
            while True:
                advanced[upset | added] = advanced.get(upset | added, 0) + ways
                if not added:
                    break
                added = (added - 1) & maximal
        walks = advanced
        counts.append(walks.get(full, 0))
    return counts


def walk_counts(above) -> list[int]:
    return chain_code_counts(strict_chain_code(above), len(above))


def points_at(p: Poset, n: int, interior: bool = False) -> int:
    """The per-dilate oracle of `lattice_point_counts`: the maps into {0..n}
    (weak) or {1..n-1} (strict) of one dilate, multiplied over the components
    of the comparability graph, each backtracked in P's natural labeling with
    its predecessors' values as lower bounds and the last element's range
    counted at once."""
    low, high = (1, n - 1) if interior else (0, n)
    bump = 1 if interior else 0
    d = p.element_count
    related = [a | b for a, b in zip(p.above, p.below)]
    labeling = p.natural_labeling
    left = (1 << d) - 1
    total = 1
    while left:
        component = frontier = left & -left
        while frontier:
            step = 0
            for v in _bits(frontier):
                step |= related[v]
            frontier = step & ~component
            component |= step
        left &= ~component
        order = [v for v in labeling if component >> v & 1]
        pos = {v: i for i, v in enumerate(order)}
        preds = [[pos[b] for b in _bits(p.below[v])] for v in order]
        values = [0] * len(order)

        def count_from(i: int) -> int:
            lo = low
            for q in preds[i]:
                if values[q] + bump > lo:
                    lo = values[q] + bump
            if i == len(order) - 1:
                return max(high - lo + 1, 0)
            count = 0
            for val in range(lo, high + 1):
                values[i] = val
                count += count_from(i + 1)
            return count

        total *= count_from(0)
    return total


class TestPosetConstruction:
    def test_closure_is_computed(self):
        p = Poset.from_relation(3, [(0, 1), (1, 2)])
        assert p.above[0] >> 2 & 1
        assert p.cover_pairs() == ((0, 1), (1, 2))

    def test_cycles_rejected(self):
        with pytest.raises(ValueError):
            Poset.from_relation(3, [(0, 1), (1, 2), (2, 0)])

    def test_redundant_cover_accepted(self):
        p = Poset.from_relation(3, [(0, 1), (1, 2), (0, 2)])
        assert p.cover_pairs() == ((0, 1), (1, 2))

    def test_natural_labeling_is_lex_smallest(self):
        p = Poset.from_relation(4, [(2, 0), (3, 1)])
        assert p.natural_labeling == (2, 0, 3, 1)

    def test_linear_extension_count(self):
        assert len(list(linear_extensions(chain(4)))) == 1
        assert len(list(linear_extensions(antichain(4)))) == 24
        assert len(list(linear_extensions(V_POSET))) == 2


class TestOrderPolynomial:
    def test_chain_counts_subsets(self):
        coeffs = coefficients(inverse_transform(omega_star(chain(3))))
        assert coeffs == [0, Fraction(1, 3), Fraction(-1, 2), Fraction(1, 6)]
        assert [evaluate(coeffs, n) for n in range(1, 5)] == [0, 0, 1, 4]

    def test_antichain_unconstrained(self):
        assert coefficients(inverse_transform(omega_star(antichain(2)))) == [0, 0, 1]

    def test_single_element(self):
        assert coefficients(inverse_transform(omega_star(chain(1)))) == [0, 1]

    def test_cap(self):
        # the Eulerian row at the cap; one element more is refused
        assert omega_star(antichain(10)).entries == (
            0, 1, 1013, 47840, 455192, 1310354, 1310354, 455192, 47840, 1013, 1
        )
        with pytest.raises(CapExceeded):
            omega_star(antichain(11))

    def test_walk_counts_match_the_lattice_point_oracle(self):
        # strict maps into {1..n} are the interior points of the (n+1)-th dilate
        for d, level in enumerate(poset_classes(6), 1):
            for p in level:
                expected = lattice_point_counts(p, d + 2, interior=True)[1:]
                assert walk_counts(p.above) == expected

    def test_walk_counts_are_those_of_the_dual(self):
        # f -> n+1-f maps the strict maps of P onto those of its dual, so the
        # walk on the above masks counts the same as the walk on the below masks
        for level in poset_classes(6):
            for p in level:
                assert strict_chain_code(p.above) == strict_chain_code(p.below), p

    def test_cyclic_masks_count_nothing(self):
        # 0 < 1 < 0 is no order: neither element is ever free to be added
        assert strict_chain_code((0b010, 0b001, 0)) == 0
        assert walk_counts((0b010, 0b001, 0)) == [0] * 5

    def test_one_pass_matches_the_stepped_walk(self):
        # every acyclic orientation of the connected graphs with d <= 6, and
        # every poset class with d <= 6
        from polybinom.survey import connected_graph_classes
        from test_graphs import enumerate_acyclic_orientations

        orders = [o for level in connected_graph_classes(6) for g in level for o in enumerate_acyclic_orientations(g)]
        assert len(orders) == 19717
        posets = [p.above for level in poset_classes(6) for p in level]
        assert len(posets) == 405
        for above in orders + posets:
            assert walk_counts(above) == stepped_counts(above), above

    def test_field_width_at_the_cap(self):
        # at d = 10 a field is 10 * 4 = 40 bits wide, field k at bit 40k; the
        # chain's one strict map onto {1..10} is its only chain, and field k
        # of the antichain counts the surjections onto {1..k}
        width = 40
        assert strict_chain_code(chain(10).above) == 1 << 10 * width
        assert walk_counts(chain(10).above) == [math.comb(n, 10) for n in range(12)]
        onto = [sum((-1) ** j * math.comb(k, j) * (k - j) ** 10 for j in range(k + 1)) for k in range(11)]
        assert strict_chain_code(antichain(10).above) == sum(s << k * width for k, s in enumerate(onto))
        assert walk_counts(antichain(10).above) == [n**10 for n in range(12)]

    def test_every_field_is_expanded(self):
        # a chain longer than d, which no walk makes, still reaches the count
        # at n = d+1
        code = strict_chain_code(chain(3).above) + (1 << 4 * 3 * 2)
        assert chain_code_counts(code, 3) == [0, 0, 0, 1, 5]

    def test_order_star_shares_no_code_with_lattice_route(self, monkeypatch):
        from polybinom.chromatic import star_via_order_polynomials
        from polybinom.graphs import acyclic_orientations_up_to_reversal, complete_graph

        def lattice_route(*args, **kwargs):
            raise AssertionError("the order star reached the lattice-point route")

        monkeypatch.setattr("polybinom.posets.lattice_point_counts", lattice_route)
        monkeypatch.setattr("polybinom.posets._maps_by_largest_value", lattice_route)
        assert omega_star(antichain(4)).entries == (0, 1, 11, 11, 1)
        k4 = complete_graph(4)
        orientations = acyclic_orientations_up_to_reversal(k4)
        assert star_via_order_polynomials(k4, orientations).entries == (0, 0, 0, 0, 24)

    def test_omega_star_values(self):
        assert omega_star(chain(3)).entries == (0, 0, 0, 1)
        assert omega_star(antichain(2)).entries == (0, 1, 1)
        assert omega_star(antichain(4)).entries == (0, 1, 11, 11, 1)

    def test_split_examples(self):
        s = symmetric_split(omega_star(chain(3)).entries, 3)
        assert (s.p, s.q) == ((1, 1, 1, 1), (1, 1, 1))
        s = symmetric_split(omega_star(antichain(2)).entries, 2)
        assert (s.p, s.q) == ((1, 2, 1), (1, 1))
        s = symmetric_split(omega_star(chain(1)).entries, 1)
        assert (s.p, s.q) == ((1, 1), (1,))


class TestOrderPolytope:
    def test_closed_chain_multisets(self):
        assert lattice_point_counts(chain(3), 3) == [1, 4, 10, 20]

    def test_no_interior_point_in_first_dilate(self):
        for p in (chain(3), antichain(3), V_POSET):
            assert lattice_point_counts(p, 1, interior=True) == [0, 0]

    def test_antichain_interior(self):
        assert lattice_point_counts(antichain(2), 3, interior=True) == [0, 0, 1, 4]

    def test_empty_poset_has_one_point_in_every_dilate(self):
        empty = Poset(0, ())
        assert lattice_point_counts(empty, 3) == lattice_point_counts(empty, 3, interior=True) == [1] * 4
        with pytest.raises(ValueError):
            lattice_point_counts(empty, -1)

    def test_cap(self):
        # the unit cube at the cap: h* is the Eulerian row, and the interior
        # of its (d+2)-th dilate holds (d+1)^d points; one element more is
        # refused by every route (test_every_route_refuses_above_the_one_element_cap)
        d = caps.ORDER_POLY_ELEMENT_CAP
        assert ehrhart_star(antichain(d)) == hstar_via_descents(antichain(d))
        assert interior_star(antichain(d)).value(d + 2) == (d + 1) ** d

    def test_point_enumeration_budget(self, monkeypatch):
        # the budget is charged on the work done: chain(3) at top 3 charges
        # its 4 counts, a first step of one state by 4 values, a second of 4
        # states by 4 values, and a final pass over 4 states by 4 values
        assert lattice_point_counts(chain(3), 3) == [1, 4, 10, 20]
        monkeypatch.setattr(caps, "POINT_ENUMERATION_BUDGET", 4 + 4 + 16 + 16)
        assert lattice_point_counts(chain(3), 3) == [1, 4, 10, 20]
        monkeypatch.setattr(caps, "POINT_ENUMERATION_BUDGET", 4 + 4 + 16 + 16 - 1)
        with pytest.raises(CapExceeded, match="lattice-point budget is 39 steps, got 40"):
            lattice_point_counts(chain(3), 3)
        # the interior of the 4th dilate takes values 1..3, and an element
        # below a successor only 1..2: 5 counts, steps of one state and of
        # two by 2 values, and a final pass over one state by 3 values
        monkeypatch.setattr(caps, "POINT_ENUMERATION_BUDGET", 5 + 2 + 4 + 3)
        assert lattice_point_counts(chain(3), 4, interior=True) == [0, 0, 0, 0, 1]
        monkeypatch.setattr(caps, "POINT_ENUMERATION_BUDGET", 5 + 2 + 4 + 3 - 1)
        with pytest.raises(CapExceeded, match="budget is 13 steps, got 14"):
            lattice_point_counts(chain(3), 4, interior=True)

    def test_budget_bounds_the_whole_poset(self, monkeypatch):
        # one running total over the components: the antichain has no walk
        # steps, so its 4 counts and the final pass of each of its three
        # one-element components, one state by 4 values, are all it charges
        monkeypatch.setattr(caps, "POINT_ENUMERATION_BUDGET", 4 + 3 * 4)
        assert lattice_point_counts(antichain(3), 3) == [(n + 1) ** 3 for n in range(4)]
        monkeypatch.setattr(caps, "POINT_ENUMERATION_BUDGET", 4 + 3 * 4 - 1)
        with pytest.raises(CapExceeded, match="budget is 15 steps, got 16"):
            lattice_point_counts(antichain(3), 3)

    def test_a_refused_top_builds_nothing_of_its_size(self):
        # the counts are charged before they are built: at top 10^7 they
        # would take about 80 MB
        for p in (chain(7), antichain(10)):
            tracemalloc.start()
            try:
                with pytest.raises(CapExceeded, match="budget"):
                    lattice_point_counts(p, 10**7)
                assert tracemalloc.get_traced_memory()[1] < 1_000_000
            finally:
                tracemalloc.stop()

    def test_the_checking_routes_fit_the_budget_at_the_cap(self, monkeypatch):
        # after k of its n non-maximal elements are placed, a walk of one
        # component of s elements holds at most min(V^k, W^(s-k)) states:
        # one per partial map of the placed elements, V values each, and one
        # per tuple of bounds on the rest, W values each; closed at n = d,
        # V = W = d+1, and interior at n = d+2, V = d and W = d+1
        d = caps.ORDER_POLY_ELEMENT_CAP

        def most(s, values, bounds):
            if s == 1:  # no step; a final pass over one state
                return bounds
            return max(
                sum(values * min(values**k, bounds ** (s - k)) for k in range(n))
                + bounds * min(values**n, bounds ** (s - n))
                for n in range(1, s)
            )

        for values in (d + 1, d):
            # several components charge less than one of all d elements
            split = [0] * (d + 1)
            for size in range(1, d + 1):
                split[size] = max(most(s, values, d + 1) + split[size - s] for s in range(1, size + 1))
            assert split[d] == most(d, values, d + 1)
        closed, interior = d + 1 + most(d, d + 1, d + 1), d + 3 + most(d, d, d + 1)
        assert (closed, interior) == (2_125_871, 1_272_174)
        assert 4 * closed < caps.POINT_ENUMERATION_BUDGET

        # the costliest posets found charge about a third of that bound
        charged, real = [], posets._charged

        def recorded(spent, work):
            charged.append(real(spent, work))
            return charged[-1]

        monkeypatch.setattr(posets, "_charged", recorded)
        totals = []
        for p in (*COSTLY_10, CROWN_10):
            for route in (ehrhart_star, interior_star):
                route(p)
                totals.append(charged[-1])
        assert max(totals[0::2]) == 777_931 < closed
        assert max(totals[1::2]) == 453_553 < interior

    def test_counts_match_brute_force(self):
        # every map of the value box, kept if it respects each relation, at
        # every dilate up to d+2 and at the boundary tops 0, 1 and 2, where
        # the value range of each walk is empty or holds one or two values
        for d, posets in enumerate(poset_classes(5), 1):
            relations = [[(a, b) for a in range(d) for b in _bits(p.above[a])] for p in posets]
            tops = (0, 1, 2, d + 2)
            counts = {
                (interior, top): [lattice_point_counts(p, top, interior=interior) for p in posets]
                for interior in (False, True)
                for top in tops
            }
            for n in range(d + 3):
                for interior, values in ((False, range(n + 1)), (True, range(1, n))):
                    maps = np.array(list(product(values, repeat=d)), dtype=np.int64).reshape(-1, d)
                    for i, (p, pairs) in enumerate(zip(posets, relations)):
                        kept = np.ones(len(maps), dtype=bool)
                        for a, b in pairs:
                            kept &= maps[:, a] < maps[:, b] if interior else maps[:, a] <= maps[:, b]
                        for top in tops:
                            if n <= top:
                                points = counts[interior, top][i]
                                assert points[n] == int(kept.sum()), (p, n, top, interior)

    def test_one_pass_matches_the_per_dilate_oracle(self):
        # one walk at the top dilate, bucketed by the largest value, against
        # one backtracking per dilate: every class with d <= 6, chain7 and antichain7
        posets = [p for level in poset_classes(6) for p in level] + [chain(7), antichain(7)]
        assert len(posets) == 407
        for p in posets:
            d = p.element_count
            assert lattice_point_counts(p, d) == [points_at(p, n) for n in range(d + 1)], p
            inner = lattice_point_counts(p, d + 2, interior=True)
            assert inner[1:] == [points_at(p, n, interior=True) for n in range(1, d + 3)], p

    def test_bound_state_walk_matches_the_per_dilate_oracle_at_d7(self):
        # a seeded sample of the 2045 classes at d = 7, the two extremes, and
        # the shapes with the most maximal or most minimal elements in one
        # component: six minimal elements under one top, one bottom under six
        # tops.  Each sampled class is relabeled at random: a class's smallest
        # relabeling gives its maximal elements the top labels, so only other
        # labelings put a maximal element before a non-maximal one in the
        # natural labeling, which the walk must move last
        rng = random.Random(19)
        sample = []
        for p in rng.sample(posets_on(7), 100):
            label = rng.sample(range(7), 7)
            sample.append(Poset.from_relation(7, [(label[a], label[b]) for a in range(7) for b in _bits(p.above[a])]))
        mixed = 0
        for p in sample:
            order = p.natural_labeling
            mixed += any(not p.above[u] and p.above[v] for i, u in enumerate(order) for v in order[i + 1 :])
        assert mixed >= 50
        fan_in = Poset.from_relation(7, [(i, 6) for i in range(6)])
        fan_out = Poset.from_relation(7, [(0, i) for i in range(1, 7)])
        for p in sample + [chain(7), antichain(7), fan_in, fan_out]:
            assert lattice_point_counts(p, 7) == [points_at(p, n) for n in range(8)], p
            inner = lattice_point_counts(p, 9, interior=True)
            assert inner[1:] == [points_at(p, n, interior=True) for n in range(1, 10)], p
        assert lattice_point_counts(fan_in, 3) == [sum((v + 1) ** 6 for v in range(n + 1)) for n in range(4)]
        assert lattice_point_counts(fan_out, 3) == [sum((n - v + 1) ** 6 for v in range(n + 1)) for n in range(4)]

    def test_strict_count_is_shifted_interior(self):
        for p in (chain(3), antichain(3), V_POSET):
            poly = coefficients(inverse_transform(omega_star(p)))
            inner = lattice_point_counts(p, p.element_count + 3, interior=True)
            for n in range(1, p.element_count + 3):
                assert evaluate(poly, n) == inner[n + 1]

    def test_reciprocity(self):
        for p in (chain(4), antichain(3), V_POSET):
            d = p.element_count
            hstar = ehrhart_star(p)
            ehr = coefficients(inverse_transform(hstar))
            inner = lattice_point_counts(p, d + 2, interior=True)
            for n in range(1, d + 3):
                assert (-1) ** d * evaluate(ehr, -n) == inner[n]
                assert hstar.value(-n) == evaluate(ehr, -n)

    def test_hstar_via_descents_examples(self):
        assert hstar_via_descents(chain(3)).entries == (1, 0, 0, 0)
        assert hstar_via_descents(antichain(2)).entries == (1, 1, 0)
        assert hstar_via_descents(antichain(3)).entries == (1, 4, 1, 0)

    def test_descent_cap(self):
        d = caps.ORDER_POLY_ELEMENT_CAP
        # the antichain's extensions are all d! words: the Eulerian numbers
        eulerian = hstar_via_descents(antichain(d)).entries
        assert eulerian == (
            1, 1013, 47840, 455192, 1310354, 1310354, 455192, 47840, 1013, 1, 0
        )
        assert sum(eulerian) == math.factorial(d)
        # a chain has one linear extension and no descent
        assert hstar_via_descents(chain(d)).entries == (1,) + (0,) * d
        with pytest.raises(CapExceeded, match=f"poset cap is {d} elements, got {d + 1}"):
            hstar_via_descents(chain(d + 1))

    def test_descent_walk_matches_the_listing(self):
        rng = random.Random(26)
        for level in poset_classes(6):
            for p in level:
                assert hstar_via_descents(p).entries == listed_descents(p), p
                # `order` takes any labeling; the generated classes are all natural
                for q in (relabeled(p, rng), relabeled(p, rng)):
                    assert hstar_via_descents(q).entries == listed_descents(q), q
        for _ in range(60):
            pairs = [(i, j) for i in range(8) for j in range(i + 1, 8) if rng.random() < 0.3]
            q = relabeled(Poset.from_relation(8, pairs), rng)
            assert hstar_via_descents(q).entries == listed_descents(q), q

    def test_descent_oracle_shares_no_code_with_lattice_route(self, monkeypatch):
        def lattice_route(*args, **kwargs):
            raise AssertionError("the descent oracle reached the lattice-point route")

        monkeypatch.setattr("polybinom.posets.ehrhart_star", lattice_route)
        monkeypatch.setattr("polybinom.posets.lattice_point_counts", lattice_route)
        monkeypatch.setattr("polybinom.posets._maps_by_largest_value", lattice_route)
        assert hstar_via_descents(antichain(3)).entries == (1, 4, 1, 0)

    def test_interior_relations(self):
        for p in (chain(3), antichain(3), V_POSET, Poset.from_relation(4, [(0, 2), (1, 2), (2, 3)])):
            hstar = ehrhart_star(p)
            inner = interior_star(p)
            assert hstar.interior_reversal() == inner
            assert inner.entries[1:] == omega_star(p).entries


class TestGeneratedFamilies:
    def test_class_counts_match_reference(self):
        assert [len(level) for level in poset_classes(5)] == [1, 2, 5, 16, 63]

    def test_class_count_d6(self):
        assert len(posets_on(6)) == 318

    def test_class_count_d7(self):
        # OEIS A000112
        assert len(posets_on(7)) == 2045

    def test_growth_matches_the_mask_scan(self):
        # the same representatives (each class's smallest relation mask) in
        # the same order as the scan of every naturally labeled order
        for d, level in enumerate(poset_classes(6), 1):
            assert [p.above for p in level] == [p.above for p in scanned_posets(d)], d

    def test_classes_and_certificates_are_pinned_to_d7(self):
        # the class counts and a digest of every certificate, in order, as
        # the generator gave them when the smallest relabeling became the
        # certificate: a faster canonical form must give the same classes
        pinned = {
            1: (1, "fcbd8f2ee97e86ea"),
            2: (2, "58ab0b36ac1bd749"),
            3: (5, "4f42c78781509ea5"),
            4: (16, "578b3888e9de119f"),
            5: (63, "784a5d9f96bbe16b"),
            6: (318, "b4e6e6d8b8d2b932"),
            7: (2045, "785a1921f5c7f13f"),
        }
        for d, level in enumerate(poset_classes(7), 1):
            count, digest = pinned[d]
            certificates = [poset_certificate(p) for p in level]
            assert len(certificates) == count, d
            assert hashlib.sha256(repr(certificates).encode()).hexdigest()[:16] == digest, d

    def test_certificates_separate_classes(self):
        posets = posets_on(4)
        certs = {poset_certificate(p) for p in posets}
        assert len(certs) == len(posets)

    def test_certificate_is_relabeling_invariant(self):
        p = Poset.from_relation(4, [(0, 1), (1, 3), (2, 3)])
        q = Poset.from_relation(4, [(3, 2), (2, 0), (1, 0)])
        assert poset_certificate(p) == poset_certificate(q)

    def test_certificate_is_relabeling_invariant_at_d7(self):
        # a random relabeling of each sampled class has the class's
        # certificate, which packs the representative's own rows, row i at
        # bit 7i
        rng = random.Random(7)
        for p in rng.sample(posets_on(7), 200):
            label = rng.sample(range(7), 7)
            q = Poset.from_relation(7, [(label[a], label[b]) for a in range(7) for b in _bits(p.above[a])])
            packed = sum(row << (7 * i) for i, row in enumerate(p.above))
            assert poset_certificate(q) == poset_certificate(p) == (7, packed), p

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_top_entry_is_always_one(self, d):
        for p in posets_on(d):
            assert omega_star(p).entries[d] == 1

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_first_entry_zero_unless_antichain(self, d):
        for p in posets_on(d):
            if not p.is_antichain:
                assert omega_star(p).entries[1] == 0


class TestExhaustiveSplitsD6:
    def test_order_splits_hold_for_all_318_classes(self):
        from polybinom.decompositions import (
            binomial_coefficient_bound,
            chain_report,
            nonnegativity_report,
            tail_sums,
        )

        posets = posets_on(6)
        assert len(posets) == 318
        for p in posets:
            d = p.element_count
            star = omega_star(p)
            split = symmetric_split(star.entries, d)
            assert split.difference() == star.entries
            assert star.entries[d] == 1
            assert split.p[0] == 1 and split.q[0] == 1
            assert chain_report(split.p, d - 1, "a").verdict == "pass"
            assert chain_report(split.q, d - 2, "b").verdict == "pass"
            assert nonnegativity_report(split.p, "a", minimum=1).verdict == "pass"
            assert nonnegativity_report(split.q, "b", minimum=1).verdict == "pass"
            assert tail_sums(star.entries, d, "order_tail_sums").verdict in ("pass", "vacuous")
            assert binomial_coefficient_bound(star.entries, d, "binomial_coefficient_bound").verdict == "pass"


class TestPosetFile:
    def test_round_trip(self):
        text = "elements 3\ncover 0 1\ncover 1 2\n"
        p = parse_poset_file(text)
        assert p.above == chain(3).above
        assert parse_poset_file(format_poset_file(p)).above == p.above

    def test_rejects_non_poset(self):
        with pytest.raises(InputFormatError):
            parse_poset_file("elements 2\ncover 0 1\ncover 1 0\n")
        with pytest.raises(InputFormatError) as err:
            parse_poset_file("elements 2\ncover 0 0\n")
        assert err.value.line == 2
        with pytest.raises(InputFormatError):
            parse_poset_file("cover 0 1\n")


@pytest.mark.parametrize(
    "route",
    [
        lambda d: lattice_point_counts(antichain(d), 1),
        lambda d: ehrhart_star(antichain(d)),
        lambda d: interior_star(antichain(d)),
        lambda d: omega_star(antichain(d)),
        lambda d: hstar_via_descents(antichain(d)),
        lambda d: parse_poset_file(f"elements {d}\n"),
        lambda d: sample_posets(0, 1, d),
    ],
    ids=[
        "lattice_point_counts",
        "ehrhart_star",
        "interior_star",
        "omega_star",
        "hstar_via_descents",
        "parse_poset_file",
        "sample_posets",
    ],
)
def test_every_route_refuses_above_the_one_element_cap(route):
    d = caps.ORDER_POLY_ELEMENT_CAP
    with pytest.raises(CapExceeded) as refused:
        route(d + 1)
    assert str(refused.value) == f"poset cap is {d} elements, got {d + 1}"
