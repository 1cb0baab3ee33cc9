"""Symmetric decompositions of star vectors and the inequality audits on them.

Every integer vector v of length D+1 splits uniquely as v = p - q with
p palindromic of length D+1 (p_j = p_{D-j}) and q palindromic of length D
(q_j = q_{D-1-j}, padded with a zero at index D).  The closed form is

    p_j = (v_D + v_{D-1} + ... + v_{D-j}) - (v_0 + v_1 + ... + v_{j-1}),
    q_j = p_j - v_j.

Positivity and the monotonicity chains of these parts are the substance of
the theorems verified by this package, so they are *audited* and reported,
never assumed: a failed audit is a "fail" verdict in a report, not an error.
This module holds the parts and the inequality rules, one plain function
per rule; every audit is built in `polybinom.checks`, which calls them.

For a start=0 star vector h of lattice-point counts, with degree s and
l = D+1-s, Stapledon's parts are symmetric splits of reversed, truncated
and interior-reversed h:

* a = p of (h_D, ..., h_0) over D:
      a_j = (h_0 + ... + h_j) - (h_D + ... + h_{D-j+1});
* b = q of (h_0, ..., h_s) over s:
      b_j = (h_s + ... + h_{s-j}) - (h_0 + ... + h_j),
  so that (1 + z + ... + z^(l-1)) h(z) = a(z) + z^l b(z);
* (c, a) = (p, q) of the interior reversal (0, h_D, ..., h_0) over D+1:
      c_0 = h_0,  c_j = a_{j-1} + h_j,
  so that h(z) = c(z) - z a(z), degree-free.

The same a is both the p part of the a/b split and the q part of the c/a
split, so the package computes it once, from `ca_decomposition`, and every
audit of a reads that copy.  No audit reads b; the a/b split, with b and
its identity, is kept in the tests as the oracle that ``ca.a`` is checked
against.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Sequence

from .polynomials import StarVector, binomial

__all__ = [
    "CADecomposition",
    "InequalityReport",
    "InequalityRow",
    "SymmetricSplit",
    "binomial_coefficient_bound",
    "ca_decomposition",
    "chain_report",
    "chromatic_mirror",
    "entrywise_dominance",
    "flow_mirror",
    "flow_tail_sums_base",
    "flow_tail_sums_shifted",
    "hstar_tail_vs_head",
    "hstar_top_vs_head",
    "nonnegativity_report",
    "symmetric_split",
    "tail_sums",
]


# ---------------------------------------------------------------------------
# audit reports


@dataclass(frozen=True)
class InequalityRow:
    j: int
    lhs: int
    rhs: int
    holds: bool


@dataclass(frozen=True)
class InequalityReport:
    family: str
    relation: str  # printed as "lhs <relation> rhs"
    parameters: dict
    rows: tuple[InequalityRow, ...]

    @property
    def verdict(self) -> str:
        if not self.rows:
            return "vacuous"
        return "pass" if all(r.holds for r in self.rows) else "fail"

    @property
    def failures(self) -> tuple[InequalityRow, ...]:
        return tuple(r for r in self.rows if not r.holds)

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "relation": self.relation,
            "parameters": self.parameters,
            "rows": [
                {"j": r.j, "lhs": r.lhs, "rhs": r.rhs, "holds": r.holds} for r in self.rows
            ],
            "verdict": self.verdict,
        }


def _entry(v: Sequence[int], i: int) -> int:
    return v[i] if 0 <= i < len(v) else 0


def _span(v: Sequence[int], lo: int, hi: int) -> int:
    """Inclusive sum v[lo] + ... + v[hi]; empty when lo > hi."""
    return sum(_entry(v, i) for i in range(lo, hi + 1))


_HOLDS = {">=": operator.ge, "<=": operator.le}


def _report(family: str, relation: str, parameters: dict, rows) -> InequalityReport:
    """A report of (j, lhs, rhs) rows, each holding when lhs <relation> rhs."""
    holds = _HOLDS[relation]
    rows = tuple(InequalityRow(j, lhs, rhs, holds(lhs, rhs)) for j, lhs, rhs in rows)
    return InequalityReport(family, relation, parameters, rows)


# ---------------------------------------------------------------------------
# inequality rules
#
# Each rule returns one report under the family name its caller gives.  The
# partial-sum, mirror and binomial rules are called as rule(v, degree,
# family), where ``degree`` is the structural index bound: the vertex/element
# count d for the chromatic, order and h* rules, the cyclomatic number xi for
# the flow rules.  Violations become failing rows, never exceptions; an empty
# index range yields a "vacuous" verdict.


def chain_report(v: Sequence[int], max_j: int, family: str) -> InequalityReport:
    """v_0 <= v_1 <= v_j for 1 <= j <= max_j (rows are lhs >= rhs)."""
    rows = []
    if max_j >= 1 and len(v) > 1:
        rows.append((1, _entry(v, 1), _entry(v, 0)))
        rows += [(j, _entry(v, j), _entry(v, 1)) for j in range(2, max_j + 1)]
    return _report(family, ">=", {"max_j": max_j}, rows)


def nonnegativity_report(v: Sequence[int], family: str, *, minimum: int = 0) -> InequalityReport:
    """v_i >= minimum for every i."""
    return _report(family, ">=", {"minimum": minimum}, ((i, x, minimum) for i, x in enumerate(v)))


def entrywise_dominance(split: SymmetricSplit, hi: int, family: str) -> InequalityReport:
    """p_j >= q_j for 1 <= j <= hi, with q padded by zeros."""
    rows = ((j, _entry(split.p, j), _entry(split.q, j)) for j in range(1, hi + 1))
    return _report(family, ">=", {"range": f"1..{hi}"}, rows)


def tail_sums(v: Sequence[int], d: int, family: str) -> InequalityReport:
    """sum v[d-2 .. d-j] >= sum v[2 .. j] for 2 <= j <= floor(d/2)."""
    rows = ((j, _span(v, d - j, d - 2), _span(v, 2, j)) for j in range(2, d // 2 + 1))
    return _report(family, ">=", {"d": d}, rows)


def flow_tail_sums_base(v: Sequence[int], xi: int, family: str) -> InequalityReport:
    """sum v[xi-j .. xi-1] >= sum v[1 .. j] for 1 <= j <= floor((xi-1)/2)."""
    rows = ((j, _span(v, xi - j, xi - 1), _span(v, 1, j)) for j in range(1, (xi - 1) // 2 + 1))
    return _report(family, ">=", {"xi": xi}, rows)


def flow_tail_sums_shifted(v: Sequence[int], xi: int, family: str) -> InequalityReport:
    """sum v[xi-j .. xi-1] >= sum v[2 .. j+1] for 1 <= j <= floor((xi-1)/2)."""
    rows = ((j, _span(v, xi - j, xi - 1), _span(v, 2, j + 1)) for j in range(1, (xi - 1) // 2 + 1))
    return _report(family, ">=", {"xi": xi}, rows)


def hstar_tail_vs_head(v: Sequence[int], d: int, family: str) -> InequalityReport:
    """sum v[d-j .. d-1] <= sum v[2 .. j+1] for 1 <= j <= floor(d/2) - 1."""
    rows = ((j, _span(v, d - j, d - 1), _span(v, 2, j + 1)) for j in range(1, d // 2))
    return _report(family, "<=", {"d": d}, rows)


def hstar_top_vs_head(v: Sequence[int], d: int, family: str) -> InequalityReport:
    """sum v[d-j+1 .. d] <= sum v[2 .. j+1] for 1 <= j <= floor(d/2) - 1."""
    rows = ((j, _span(v, d - j + 1, d), _span(v, 2, j + 1)) for j in range(1, d // 2))
    return _report(family, "<=", {"d": d}, rows)


def chromatic_mirror(v: Sequence[int], d: int, family: str) -> InequalityReport:
    """v[d-j] >= v[j] for 2 <= j <= floor((d-1)/2)."""
    rows = ((j, _entry(v, d - j), _entry(v, j)) for j in range(2, (d - 1) // 2 + 1))
    return _report(family, ">=", {"d": d}, rows)


def flow_mirror(v: Sequence[int], xi: int, family: str) -> InequalityReport:
    """v[xi-j] >= v[j] over the mirror-nonredundant range 1 <= j <= floor(xi/2).

    Larger j would compare the same pairs reversed (and can genuinely fail),
    so the audited range is recorded in the parameters.
    """
    rows = ((j, _entry(v, xi - j), _entry(v, j)) for j in range(1, xi // 2 + 1))
    return _report(family, ">=", {"xi": xi, "range": "1..floor(xi/2)"}, rows)


def binomial_coefficient_bound(v: Sequence[int], d: int, family: str) -> InequalityReport:
    """v[d-j] <= C(v[d-1] + j - 1, j) for 1 <= j <= d."""
    top = _entry(v, d - 1)
    rows = ((j, _entry(v, d - j), binomial(top + j - 1, j)) for j in range(1, d + 1))
    return _report(family, "<=", {"d": d}, rows)


# ---------------------------------------------------------------------------
# symmetric split v = p - q


@dataclass(frozen=True)
class SymmetricSplit:
    """The unique palindromic pair p (length D+1) and q (length D) with v = p - q."""

    p: tuple[int, ...]
    q: tuple[int, ...]
    degree: int

    def __post_init__(self):
        D = self.degree
        if len(self.p) != D + 1 or len(self.q) != D:
            raise ValueError(f"split over degree {D} needs |p|={D + 1}, |q|={D}")
        for j in range(D + 1):
            if self.p[j] != self.p[D - j]:
                raise ValueError(f"p is not palindromic at index {j}: {self.p}")
        for j in range(D):
            if self.q[j] != self.q[D - 1 - j]:
                raise ValueError(f"q is not palindromic at index {j}: {self.q}")

    def difference(self) -> tuple[int, ...]:
        """p - q with q padded by a zero at index D; reconstructs the input."""
        padded_q = self.q + (0,)
        return tuple(a - b for a, b in zip(self.p, padded_q))


def symmetric_split(v: Sequence[int], degree: int) -> SymmetricSplit:
    """Split v (length <= degree+1, zero-padded) into its palindromic parts.

    Positivity of the parts is intentionally not checked here: it is the
    claim under test, audited by callers.
    """
    D = degree
    if len(v) > D + 1:
        raise ValueError(f"vector of length {len(v)} exceeds degree bound {D}")
    w = list(v) + [0] * (D + 1 - len(v))
    suffix = 0  # v_D + ... + v_{D-j}
    prefix = 0  # v_0 + ... + v_{j-1}
    p = []
    for j in range(D + 1):
        suffix += w[D - j]
        p.append(suffix - prefix)
        prefix += w[j]
    q = tuple(p[j] - w[j] for j in range(D))
    split = SymmetricSplit(tuple(p), q, D)
    if split.difference() != tuple(w):
        raise AssertionError("symmetric split failed to reconstruct its input")
    return split


# ---------------------------------------------------------------------------
# c/a decomposition of lattice-point star vectors


def _lattice_entries(h: StarVector, name: str) -> tuple[int, ...]:
    """Entries of a start=0 star vector with h_0 >= 1."""
    if h.start != 0:
        raise ValueError(f"{name} decomposition expects a start=0 star vector")
    v = h.entries
    if all(e == 0 for e in v):
        raise ValueError(f"{name} decomposition of the zero vector is undefined")
    if v[0] < 1:
        raise ValueError(f"expected constant term >= 1, got {v[0]}")
    return v


@dataclass(frozen=True)
class CADecomposition:
    """c (palindromic, length D+2) and a (palindromic, length D+1) with

    h(z) = c(z) - z a(z);  the interior star vector equals c - a.
    """

    c: tuple[int, ...]
    a: tuple[int, ...]


def ca_decomposition(h: StarVector) -> CADecomposition:
    """Degree-independent c/a split: c and a are the p and q parts of the
    interior reversal of h, so c - a equals ``h.interior_reversal()`` and
    h(z) = c(z) - z a(z).  Comparing that reversal with the interior counts
    is the `hstar_reversal_is_interior` check.

    This is the package's one route to Stapledon's a: its q part is the p
    part of reversed h (module docstring), which the a/b oracle of the tests
    computes the other way, with b and its identity.
    """
    _lattice_entries(h, "c/a")
    split = symmetric_split(h.interior_reversal().entries, h.degree_bound + 1)
    return CADecomposition(split.p, split.q)
