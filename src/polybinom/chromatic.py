"""Chromatic polynomials, their star vectors, and their palindromic splits.

chi_G is summed in the falling-factorial basis, with coefficients counted by
a dynamic program over vertex bitmasks: the number of partitions of the
vertices into k independent sets (Read 1968).  Its integer values at
n = 0..d+1 give the star vector over degree bound d (the vertex count) by
finite differences, as for every other route.  No check reads chi as a
polynomial, so the analysis keeps only its star vector, and the `Polynomial`
chi is rebuilt from it by `inverse_transform` only where it is shown: in
`ChromaticResult.to_json` and the text of the `chromatic` command.  A
survey builds none.  The route shares no code with
the orientation and order-star routes that check it.  The star vector
splits into palindromic parts; their positivity, chains and constant terms
are audited, against the acyclic-orientation oracle, in `polybinom.checks`,
which builds every audit.  This module only computes.

The same star vector also arises as the star vector of the summed strict
counts of the orders induced by the acyclic orientations (Stanley 1973);
that cross-route, `star_via_order_polynomials`, is the central consistency
check of `graph_checks`.  An orientation and its reverse induce dual orders,
which have the same strict counts, so the route walks one order per
reversal pair and doubles the sum.  Each order's
walk packs its chain counts into one integer, the graph adds those, and the
total is expanded and differenced once, so its overdetermination node
n = d+1 sits on the sum, not on each orientation.  The orientation search
hands over each of those orders as its tuple of ``above`` masks, already
transitively closed, and the walks read the masks as they are, so the
cross-route builds no orientation, no `Poset` and no second closure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from . import caps
from .decompositions import SymmetricSplit, symmetric_split, tail_sums
from .errors import CapExceeded, NotApplicable
from .graphs import Multigraph, acyclic_orientations_up_to_reversal
from .polynomials import StarVector, inverse_transform, star_from_values
from .posets import chain_code_counts, strict_chain_code

__all__ = [
    "ChromaticResult",
    "LinearForm",
    "EXPECTED_FORMS",
    "chromatic_analysis",
    "chromatic_star",
    "match_reference_forms",
    "monomial_inequality_forms",
    "star_via_order_polynomials",
]

def chromatic_star(g: Multigraph) -> StarVector:
    """Star vector of chi_G over degree bound d = vertex count (start=0).

    chi_G(n) = sum_k a_k n(n-1)...(n-k+1), where a_k counts the partitions of
    the vertices into k independent sets, is evaluated in integers at
    n = 0..d+1; the value at d+1 is an overdetermination node.  Loops force
    the zero vector; parallel edges fold into the adjacency masks.
    """
    d = g.vertex_count
    if d > caps.CHROMATIC_VERTEX_CAP:
        raise CapExceeded(f"chromatic cap is {caps.CHROMATIC_VERTEX_CAP} vertices, got {d}")
    if g.has_loops:
        return star_from_values([0] * (d + 2), d)
    adj = [0] * d
    for u, v in g.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    full = 1 << d
    independent = [True] * full
    # parts[s][k]: partitions of the vertex set s into k independent sets;
    # the block holding the lowest vertex of s is split off first
    parts = [[1]] + [[]] * (full - 1)
    for s in range(1, full):
        low = s & -s
        rest = s ^ low
        v = low.bit_length() - 1
        independent[s] = independent[rest] and not adj[v] & rest
        free = rest & ~adj[v]  # the other members of that block
        counts = [0] * (len(parts[rest]) + 1)
        sub = free
        while True:
            if independent[sub]:
                for k, c in enumerate(parts[rest ^ sub]):
                    counts[k + 1] += c
            if not sub:
                break
            sub = (sub - 1) & free
        parts[s] = counts
    values = []
    for n in range(d + 2):
        chi = 0
        falling = 1  # n(n-1)...(n-k+1)
        for k, a_k in enumerate(parts[full - 1]):
            chi += a_k * falling
            falling *= n - k
        values.append(chi)
    return star_from_values(values, d)


def star_via_order_polynomials(g: Multigraph, orientations: Sequence[tuple[int, ...]]) -> StarVector:
    """Star vector of the summed strict counts of the acyclic-orientation orders.

    ``orientations`` are the acyclic orientations of g up to reversal, each
    as the ``above`` masks of the order it induces on all d vertices
    (`acyclic_orientations_up_to_reversal`); no `Poset` is built for them.
    The strict counts of all acyclic orientations add up to chi_G(n)
    (Stanley 1973).  The reverse of an orientation induces the dual order,
    and f -> n+1-f maps the strict maps of an order onto those of its dual,
    so for m >= 1 each listed order stands for two orientations with the
    same counts; an edgeless graph's one orientation stands for itself.  The
    identity is linear in the chain counts, so each order's chain code
    (`strict_chain_code`, one walk per listed order) is added to one total,
    which is doubled when g has edges, expanded once into the counts at
    n = 0..d+1 and turned into one star vector per graph; it must reproduce
    `chromatic_star` exactly.  A miscounted walk is therefore counted twice.
    n = d+1 is the node on the sum: a total that does not fit degree d
    raises ValueError from `star_from_values`.
    """
    if g.has_loops:
        raise NotApplicable("loop", "graphs with loops have no acyclic orientations")
    d = g.vertex_count
    total = 0
    for above in orientations:
        total += strict_chain_code(above)
    if g.edges:
        total *= 2
    return star_from_values(chain_code_counts(total, d), d)


@dataclass(frozen=True)
class ChromaticResult:
    graph: Multigraph
    chi_star: StarVector
    split: SymmetricSplit
    # one per reversal pair, each as its above masks
    acyclic_orientations: tuple[tuple[int, ...], ...] = field(repr=False)

    @property
    def acyclic_count(self) -> int:
        """Every listed orientation but an edgeless graph's stands for two."""
        return len(self.acyclic_orientations) * (2 if self.graph.edges else 1)

    def to_json(self) -> dict:
        return {
            "graph": self.graph.to_json(),
            "chi": inverse_transform(self.chi_star).to_json(),
            "chi_star": self.chi_star.to_json(),
            "a": list(self.split.p),
            "b": list(self.split.q),
            "acyclic_orientations": self.acyclic_count,
        }


def chromatic_analysis(g: Multigraph) -> ChromaticResult:
    """Star vector, palindromic split, and the acyclic orientations up to
    reversal.

    The orientations are kept as their orders, one per reversal pair, for
    the constant-term oracle and the order-polynomial cross-route of
    `polybinom.checks`; `ChromaticResult.acyclic_count` counts them all.
    Their number is |chi(-1)| (Stanley 1973), which is checked against
    `caps.ACYCLIC_ORIENTATION_CAP` before any orientation is enumerated; it
    only sizes the cap.  chi itself is not built (module docstring).
    """
    if g.vertex_count == 0:
        raise NotApplicable("empty", "no vertices")
    if g.has_loops:
        raise NotApplicable("loop", "chi vanishes identically on graphs with loops")
    star = chromatic_star(g)
    if star.value(0) != 0:
        raise AssertionError("chromatic polynomial must have zero constant term")
    count = abs(star.value(-1))
    if count > caps.ACYCLIC_ORIENTATION_CAP:
        raise CapExceeded(
            f"graph has {count} acyclic orientations; cap is {caps.ACYCLIC_ORIENTATION_CAP}"
        )
    split = symmetric_split(star.entries, g.vertex_count)
    orientations = tuple(acyclic_orientations_up_to_reversal(g))
    return ChromaticResult(g, star, split, orientations)


# ---------------------------------------------------------------------------
# monomial-basis inequality forms for monic chromatic-shaped polynomials


@dataclass(frozen=True)
class LinearForm:
    """constant + sum_t coefficients[t] * c_t >= 0, for c_1..c_{d-1}."""

    constant: int
    coefficients: tuple[int, ...]  # index 0 is the coefficient of c_1

    def normalized(self) -> "LinearForm":
        values = [self.constant, *self.coefficients]
        g = math.gcd(*(abs(v) for v in values)) or 1
        return LinearForm(self.constant // g, tuple(c // g for c in self.coefficients))

    def format(self) -> str:
        parts = []
        for t, c in enumerate(self.coefficients, start=1):
            if c == 0:
                continue
            mag = "" if abs(c) == 1 else str(abs(c))
            term = f"{mag}c_{t}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        if self.constant or not parts:
            if not parts:
                parts.append(str(self.constant))
            else:
                parts.append(
                    f"+ {self.constant}" if self.constant > 0 else f"- {-self.constant}"
                )
        return " ".join(parts) + " >= 0"

    def to_json(self) -> dict:
        return {"constant": self.constant, "coefficients": list(self.coefficients)}


def monomial_inequality_forms(d: int) -> list[tuple[int, LinearForm]]:
    """Tail-sum inequalities rewritten against monomial coefficients.

    For a monic degree-d polynomial with zero constant term,
    p = n^d + c_{d-1} n^{d-1} + ... + c_1 n, each star entry is an integer
    linear form in (1, c_1, ..., c_{d-1}); the tail-sum inequality for each
    j in 2..floor(d/2) becomes one normalized linear form that must be
    nonnegative for every valid chromatic-shaped input.
    """
    if d not in (5, 6, 7):
        raise ValueError(f"supported degrees are 5..7, got {d}")

    # the rule is linear in the star vector, so the coefficient of c_t, and
    # for t = d the constant, is lhs - rhs on the star vector of n^t
    reports = [
        tail_sums(star_from_values([x**t for x in range(d + 1)], d).entries, d, "tail_sums")
        for t in range(1, d + 1)
    ]
    forms = []
    for rows in zip(*(report.rows for report in reports)):
        *coeffs, const = (row.lhs - row.rhs for row in rows)
        forms.append((rows[0].j, LinearForm(const, tuple(coeffs)).normalized()))
    return forms


# Frozen reference rows for the supported degrees (regression goldens).
EXPECTED_FORMS: dict[int, tuple[LinearForm, ...]] = {
    5: (LinearForm(20, (5, 1, -4, -5)),),
    6: (LinearForm(245, (-5, 5, 7, -19, -65)),),
    7: (
        LinearForm(1071, (21, -1, -9, 11, -9, -301)),
        LinearForm(1148, (-7, -3, 8, 15, -52, -273)),
    ),
}


def match_reference_forms() -> dict:
    """Derive all forms for d = 5..7 and match them against the goldens.

    Returns per-degree derivations plus a verdict that every golden row was
    produced by some j (several j can map to the same normalized form).
    """
    report: dict = {"degrees": {}, "all_matched": True}
    for d, expected in sorted(EXPECTED_FORMS.items()):
        derived = monomial_inequality_forms(d)
        matches = {}
        for idx, golden in enumerate(expected):
            js = [j for j, form in derived if form == golden]
            matches[idx] = js
            if not js:
                report["all_matched"] = False
        report["degrees"][d] = {
            "derived": [(j, form.format()) for j, form in derived],
            "matches": {
                str(idx): {"golden": expected[idx].format(), "derived_j": js}
                for idx, js in matches.items()
            },
        }
    return report
