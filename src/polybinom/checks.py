"""One check table per instance kind, shared by the surveys and the CLI.

`graph_checks`, `poset_checks` and `flow_checks` are the only judges of an
instance.  Each takes the quantities that `chromatic_analysis`,
`flow_analysis` or the poset routes compute, builds every inequality audit
of the instance by calling the rules of `polybinom.decompositions`, compares
the constant terms and the other computed values with their oracles, and
returns a ``checks`` table: check name -> "pass", "fail" or "vacuous".
Every audit report is kept on ``audits`` and sits in the table under its
family name; every other entry is an oracle check.  A survey records the
table and a CLI command takes its verdict, exit code and audit rows from it,
so both judge an instance alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chromatic import ChromaticResult, chromatic_analysis, star_via_order_polynomials
from .decompositions import (
    InequalityReport,
    SymmetricSplit,
    binomial_coefficient_bound,
    ca_decomposition,
    chain_report,
    chromatic_mirror,
    entrywise_dominance,
    flow_mirror,
    flow_tail_sums_base,
    flow_tail_sums_shifted,
    hstar_tail_vs_head,
    hstar_top_vs_head,
    nonnegativity_report,
    symmetric_split,
    tail_sums,
)
from .errors import NotApplicable
from .flows import FlowResult, flow_analysis
from .graphs import Multigraph
from .polynomials import StarVector, inverse_transform
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


def _verdicts(audits: tuple[InequalityReport, ...]) -> dict[str, str]:
    return {audit.family: audit.verdict for audit in audits}


@dataclass(frozen=True)
class Checked:
    """The check table of one instance, check name -> pass/fail/vacuous, and
    its audit reports, each in the table under its family name."""

    checks: dict[str, str]
    audits: tuple[InequalityReport, ...]

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


def graph_checks(g: Multigraph) -> GraphChecks:
    """Chromatic split, acyclic-orientation oracle, inequality audits, and the
    order-polynomial cross-route."""
    r = chromatic_analysis(g)
    d, star, split, acyclic = g.vertex_count, r.chi_star.entries, r.split, r.acyclic_count
    audits = (
        nonnegativity_report(star, "chromatic_star_nonnegative"),
        chain_report(split.p, d - 1, "chromatic_chain_a"),
        chain_report(split.q, d - 2, "chromatic_chain_b"),
        nonnegativity_report(split.p, "chromatic_a_positive", minimum=1),
        nonnegativity_report(split.q, "chromatic_b_positive", minimum=1),
        tail_sums(star, d, "chromatic_tail_sums"),
        chromatic_mirror(star, d, "chromatic_mirror"),
        binomial_coefficient_bound(star, d, "binomial_coefficient_bound"),
    )
    checks = {
        "split_reconstructs": _verdict(split.difference() == star),
        # d = 1 has an empty b part; only the a constant can be compared then
        "constants_match_acyclic_oracle": _verdict(
            split.p[0] == acyclic and (not split.q or split.q[0] == acyclic)
        ),
        "top_entry_is_acyclic_count": _verdict(star[-1] == acyclic),
        "reciprocity_at_minus_one": _verdict((-1) ** d * r.chi_star.value(-1) == acyclic),
        **_verdicts(audits),
        "order_polynomial_sum_matches": _verdict(_order_sum_matches(r)),
    }
    return GraphChecks(checks, audits, r)


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
    # every route has the one element cap, checked before any work
    hstar = ehrhart_star(p)
    star = omega_star(p)
    split = symmetric_split(star.entries, d)
    inner = interior_star(p)
    star_audits = (
        chain_report(split.p, d - 1, "order_chain_a"),
        nonnegativity_report(split.p, "order_chain_a_positive", minimum=1),
        chain_report(split.q, d - 2, "order_chain_b"),
        nonnegativity_report(split.q, "order_chain_b_positive", minimum=1),
        tail_sums(star.entries, d, "order_tail_sums"),
        binomial_coefficient_bound(star.entries, d, "binomial_coefficient_bound"),
    )
    ca = ca_decomposition(hstar)
    hstar_audits = (
        # Stapledon's a is one vector, audited under both frozen names until
        # the re-freeze merges them (ROADMAP item 2)
        chain_report(ca.a, d - 1, "hstar_ab_chain"),
        chain_report(ca.a, d - 1, "ca_chain_a"),
        chain_report(ca.c, d, "ca_chain_c"),
        hstar_tail_vs_head(hstar.entries, d, "hstar_tail_vs_head"),
        hstar_top_vs_head(hstar.entries, d, "hstar_top_vs_head"),
    )
    checks = {
        "split_reconstructs": _verdict(split.difference() == star.entries),
        "top_entry_is_one": _verdict(star.entries[d] == 1),
        "constants_are_one": _verdict(split.p[0] == 1 and (not split.q or split.q[0] == 1)),
        "first_entry_zero_unless_antichain": _verdict(p.is_antichain or star.entries[1] == 0),
        **_verdicts(star_audits),
        "descents_match_lattice_hstar": _verdict(hstar_via_descents(p) == hstar),
        # inner reproduces the interior counts at n = 1..d+2 it was built from
        "reciprocity": _verdict(
            all((-1) ** d * hstar.value(-n) == inner.value(n) for n in range(1, d + 3))
        ),
        "hstar_reversal_is_interior": _verdict(hstar.interior_reversal() == inner),
        "interior_shift_is_order_star": _verdict(inner.entries[1:] == star.entries),
        **_verdicts(hstar_audits),
    }
    return PosetChecks(checks, star_audits + hstar_audits, p, star, split, hstar)


def _orientation_columns_fit(r: FlowResult) -> bool:
    """f = sum_o P_o as polynomials: every column P_o(1..xi+2) of the Kochol
    table fits degree <= xi, with n = xi+2 as the node, and its star vector
    is nonnegative.  A flow counted under the wrong orientation leaves every
    sum unchanged but breaks two columns.

    All columns are checked in one product with the matrix of (xi+1)-th
    differences: column j of ``columns @ steps`` is the star entry h_j of
    `star_from_values` (start 1) for j <= xi and the node's difference at
    j = xi+1.  Every value is at most `caps.FLOW_CANDIDATE_BUDGET` (3e8) and
    each difference sums at most xi+2 = 9 values times C(8, k) <= 70, so the
    int64 sums stay below 9 * 70 * 3e8, about 2e11.
    """
    D = r.xi
    columns = np.array(list(r.kochol.values()), dtype=np.int64).reshape(-1, D + 2)
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
    xi, phi_star, f_star = r.xi, r.phi_star.entries, r.f_star.entries
    phi_split, f_split = r.phi_split, r.f_split
    indegrees, tc = r.indegree_sequence_count, r.tc_orientation_count
    audits = (
        nonnegativity_report(phi_star, "modular_star_nonnegative"),
        nonnegativity_report(f_star, "integral_star_nonnegative"),
        chain_report(phi_split.p, xi, "modular_chain_alpha"),
        chain_report(phi_split.q, xi - 1, "modular_chain_beta"),
        chain_report(f_split.p, xi, "integral_chain_c"),
        chain_report(f_split.q, xi - 1, "integral_chain_d"),
        nonnegativity_report(phi_split.p, "modular_alpha_positive", minimum=1),
        nonnegativity_report(phi_split.q, "modular_beta_positive", minimum=1),
        nonnegativity_report(f_split.p, "integral_c_positive", minimum=1),
        nonnegativity_report(f_split.q, "integral_d_positive", minimum=1),
        entrywise_dominance(phi_split, xi, "modular_alpha_ge_beta"),
        entrywise_dominance(f_split, xi, "integral_c_ge_d"),
        flow_tail_sums_base(phi_star, xi, "flow_tail_sums_base[phi]"),
        flow_tail_sums_shifted(phi_star, xi, "flow_tail_sums_shifted[phi]"),
        flow_tail_sums_base(f_star, xi, "flow_tail_sums_base[f]"),
        flow_tail_sums_shifted(f_star, xi, "flow_tail_sums_shifted[f]"),
        flow_mirror(phi_star, xi, "flow_mirror"),
    )
    checks = {
        "phi_split_reconstructs": _verdict(phi_split.difference() == phi_star),
        "f_split_reconstructs": _verdict(f_split.difference() == f_star),
        # both constants and the top entry count in-degree sequences (phi)
        # and totally cyclic orientations (f)
        "constants_match_oracles": _verdict(
            phi_split.p[0] == phi_split.q[0] == phi_star[xi + 1] == indegrees
            and f_split.p[0] == f_split.q[0] == f_star[xi + 1] == tc
        ),
        # each polynomial has degree xi and fits its count at the node
        # n = xi+2; phi has integer coefficients, while f, a sum of Ehrhart
        # polynomials of open polytopes, is only integer-valued in general.
        # The n^xi coefficient of sum_i v_i C(n+xi-i, xi) is sum_i v_i / xi!
        "phi_degree_is_xi": _verdict(
            sum(phi_star) != 0
            and inverse_transform(r.phi_star).is_integral
            and r.phi_star.value(xi + 2) == r.phi_node
        ),
        "f_degree_is_xi": _verdict(sum(f_star) != 0 and r.f_star.value(xi + 2) == r.f_node),
        **_verdicts(audits),
        # the frozen flow references fix this name; it checks f = sum_o P_o termwise
        "kochol_sums_match_f": _verdict(_orientation_columns_fit(r)),
        # an open flow polytope of dimension xi has interior points from n = xi+1
        "kochol_keys_totally_cyclic": _verdict(
            {o for o, column in r.kochol.items() if column[-1]} == r.tc_orientation_set
        ),
    }
    return FlowChecks(checks, audits, r)
