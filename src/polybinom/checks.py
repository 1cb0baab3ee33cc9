"""One check table per instance kind, shared by the surveys and the CLI.

`graph_checks`, `poset_checks` and `flow_checks` each compute every quantity
of one instance once and return it with a ``checks`` table: check name ->
"pass", "fail" or "vacuous".  A survey records the table and a CLI command
takes its verdict and exit code from it, so both judge an instance alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chromatic import ChromaticResult, chromatic_analysis, star_via_order_polynomials
from .decompositions import (
    InequalityReport,
    SymmetricSplit,
    ab_decomposition,
    ca_decomposition,
    chain_report,
    check_partial_sum_inequalities,
    nonnegativity_report,
    symmetric_split,
)
from .errors import NotApplicable
from .flows import FlowResult, flow_analysis
from .graphs import Multigraph
from .polynomials import StarVector
from .posets import Poset, ehrhart_star, hstar_via_descents, interior_star, omega_star

__all__ = [
    "FlowChecks",
    "GraphChecks",
    "PosetChecks",
    "flow_checks",
    "graph_checks",
    "poset_checks",
]


def _verdict(ok: bool) -> str:
    return "pass" if ok else "fail"


@dataclass(frozen=True)
class Checked:
    """The check table of one instance: check name -> pass/fail/vacuous."""

    checks: dict[str, str]

    @property
    def failures(self) -> list[str]:
        return [name for name, verdict in self.checks.items() if verdict == "fail"]


@dataclass(frozen=True)
class GraphChecks(Checked):
    result: ChromaticResult


@dataclass(frozen=True)
class FlowChecks(Checked):
    result: FlowResult


@dataclass(frozen=True)
class PosetChecks(Checked):
    poset: Poset
    star: StarVector
    split: SymmetricSplit
    hstar: StarVector
    audits: tuple[InequalityReport, ...]  # partial-sum audits of the order star


def graph_checks(g: Multigraph) -> GraphChecks:
    """Chromatic split, acyclic-orientation oracle, inequality audits, and the
    order-polynomial cross-route."""
    r = chromatic_analysis(g)
    checks = {
        "split_reconstructs": _verdict(r.split.difference() == r.chi_star.entries),
        "constants_match_acyclic_oracle": _verdict(r.constants_match_oracle),
        "top_entry_is_acyclic_count": _verdict(r.chi_star.entries[-1] == r.acyclic_count),
        "reciprocity_at_minus_one": _verdict(
            (-1) ** g.vertex_count * r.chi_star.value(-1) == r.acyclic_count
        ),
        **{audit.family: audit.verdict for audit in r.audits},
        "order_polynomial_sum_matches": _verdict(_order_sum_matches(r)),
    }
    return GraphChecks(checks, r)


def _order_sum_matches(r: ChromaticResult) -> bool:
    """chi = sum_o Omega(P_o): the summed strict counts fit degree <= d, with
    n = d+1 as the node, and their star vector is chi*.  A miscounted
    orientation either breaks the node or changes the star vector."""
    try:
        star = star_via_order_polynomials(r.graph, r.acyclic_orientations)
    except ValueError:
        return False
    return star == r.chi_star


def poset_checks(p: Poset) -> PosetChecks:
    """Order star split, both order-polytope oracles, reciprocity, and the
    lattice-point decompositions."""
    d = p.element_count
    if d == 0:
        raise NotApplicable("empty", "the empty poset is excluded from verification")
    # the lattice-point route has the lowest cap, so it is hit before any work
    hstar = ehrhart_star(p)
    star = omega_star(p)
    split = symmetric_split(star.entries, d)
    inner = interior_star(p)
    audits = tuple(
        check_partial_sum_inequalities(star.entries, d, family)
        for family in ("order_tail_sums", "binomial_coefficient_bound")
    )
    checks = {
        "split_reconstructs": _verdict(split.difference() == star.entries),
        "top_entry_is_one": _verdict(star.entries[d] == 1),
        "constants_are_one": _verdict(split.p[0] == 1 and (not split.q or split.q[0] == 1)),
        "first_entry_zero_unless_antichain": _verdict(p.is_antichain or star.entries[1] == 0),
    }
    for vec, hi, family in ((split.p, d - 1, "order_chain_a"), (split.q, d - 2, "order_chain_b")):
        checks[family] = chain_report(vec, hi, family).verdict
        checks[family + "_positive"] = nonnegativity_report(vec, family, minimum=1).verdict
    checks.update({audit.family: audit.verdict for audit in audits})
    checks["descents_match_lattice_hstar"] = _verdict(hstar_via_descents(p) == hstar)
    # inner reproduces the interior counts at n = 1..d+2 it was built from
    checks["reciprocity"] = _verdict(
        all((-1) ** d * hstar.value(-n) == inner.value(n) for n in range(1, d + 3))
    )
    checks["hstar_reversal_is_interior"] = _verdict(hstar.interior_reversal() == inner)
    checks["interior_shift_is_order_star"] = _verdict(inner.entries[1:] == star.entries)
    checks["hstar_ab_chain"] = ab_decomposition(hstar).audit.verdict
    ca = ca_decomposition(hstar)
    checks.update({audit.family: audit.verdict for audit in ca.audits})
    for family in ("hstar_tail_vs_head", "hstar_top_vs_head"):
        checks[family] = check_partial_sum_inequalities(hstar.entries, d, family).verdict
    return PosetChecks(checks, p, star, split, hstar, audits)


def _orientation_columns_fit(r: FlowResult) -> bool:
    """f = sum_o P_o as polynomials: the column P_o(1..xi+2) of every totally
    cyclic orientation fits degree <= xi, with n = xi+2 as the node, and its
    star vector is nonnegative.  A flow counted under the wrong orientation
    leaves every sum unchanged but breaks two columns.

    All columns are checked in one product with the matrix of (xi+1)-th
    differences: column j of ``columns @ steps`` is the star entry h_j of
    `star_from_values` (start 1) for j <= xi and the node's difference at
    j = xi+1.  Every value is at most `caps.FLOW_CANDIDATE_BUDGET` (3e7) and
    each difference sums at most xi+2 = 8 values times C(7, k) <= 35, so the
    int64 sums stay below 8 * 35 * 3e7, about 1e10.
    """
    D = r.xi
    columns = np.array(
        [[table.get(o, 0) for table in r.kochol.values()] for o in r.tc_orientation_set],
        dtype=np.int64,
    ).reshape(-1, D + 2)
    steps = np.array(
        [[(-1) ** (j - i) * math.comb(D + 1, j - i) if j >= i else 0 for j in range(D + 2)]
         for i in range(D + 2)],
        dtype=np.int64,
    )
    star = columns @ steps
    return not star[:, D + 1].any() and bool((star[:, :D + 1] >= 0).all())


def flow_checks(g: Multigraph) -> FlowChecks:
    """Flow splits, orientation oracles, inequality audits, and the
    per-orientation polynomials of the Kochol table."""
    r = flow_analysis(g)
    xi = r.xi
    checks = {
        "phi_split_reconstructs": _verdict(r.phi_split.difference() == r.phi_star.entries),
        "f_split_reconstructs": _verdict(r.f_split.difference() == r.f_star.entries),
        "constants_match_oracles": _verdict(r.constants_match_oracle),
        "phi_degree_is_xi": _verdict(r.phi.degree == xi),
        "f_degree_is_xi": _verdict(r.f.degree == xi),
        **{audit.family: audit.verdict for audit in r.audits},
        # the frozen flow references fix this name; it checks f = sum_o P_o termwise
        "kochol_sums_match_f": _verdict(_orientation_columns_fit(r)),
        # an open flow polytope of dimension xi has interior points from n = xi+1
        "kochol_keys_totally_cyclic": _verdict(
            all(set(table) <= r.tc_orientation_set for table in r.kochol.values())
            and set(r.kochol[xi + 2]) == r.tc_orientation_set
        ),
    }
    return FlowChecks(checks, r)
