"""Exhaustive and sampled verification surveys over small instance families.

Families are deterministic: connected simple graphs grow one vertex at a
time, each new vertex joined to every nonempty subset of the old ones, and
are deduplicated by canonical certificate; posets grow one element at a
time, flow instances are the bridgeless graphs plus a fixed multigraph
fixture set.  Each level is grown once, from the one before, and checked as
it is read; only the records outlive it.  A family with no instance is
rejected, so a run that verifies nothing never reads as a pass.  Every
skipped instance carries a machine-readable reason; every failed check
lands in the counterexample list (expected empty).
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import dataclass, field
from itertools import chain, combinations
from typing import Iterable, Iterator

from . import __version__, caps
from .checks import FlowChecks, GraphChecks, PosetChecks, flow_checks, graph_checks, poset_checks
from .errors import CapExceeded, NotApplicable
from .graphs import Multigraph, complete_graph, cyclomatic_number, dipole, graph_certificate
from .posets import Poset, _check_element_cap, poset_classes

__all__ = [
    "SurveyReport",
    "connected_graph_classes",
    "flow_fixture_set",
    "run_flow_survey",
    "run_graph_survey",
    "run_poset_survey",
]

# ---------------------------------------------------------------------------
# instance families


def connected_graph_classes(max_d: int) -> Iterator[list[Multigraph]]:
    """Connected simple graphs, one per isomorphism class: a list per d = 1..max_d.

    The classes on d vertices grow once, from the list on d-1 yielded before
    them: a new vertex d-1 is joined to every nonempty subset of 0..d-2, and
    the results are deduplicated by `graph_certificate`.  That reaches every
    class, because a connected graph on d >= 2 vertices has a vertex whose
    removal leaves it connected (a leaf of a spanning tree).  Each class is
    represented by its certificate's edge list, the smallest sorted edge
    list over the relabelings that sort the vertices by their refined degree
    classes, and the classes are listed by (m, edges).  Both depend only on
    the class, so the output is independent of the order of growth, and the
    certificate's refinement search finds the same list that trying every
    such relabeling would.
    """
    level = [Multigraph(1, ())]
    for d in range(1, max_d + 1):
        if d > 1:
            certificates = set()
            for g in level:
                for mask in range(1, 1 << (d - 1)):
                    edges = g.edges + tuple((u, d - 1) for u in range(d - 1) if mask >> u & 1)
                    certificates.add(graph_certificate(Multigraph(d, edges)))
            level = sorted((Multigraph(d, edges) for _, edges in certificates), key=lambda g: (g.edge_count, g.edges))
        yield level


def flow_fixture_set() -> list[tuple[str, Multigraph]]:
    """Fixed multigraph fixtures exercised by every flow survey."""
    k4_doubled = Multigraph(4, complete_graph(4).edges + ((0, 1),))
    fixtures = [(f"dipole{k}", dipole(k)) for k in range(2, 6)]
    fixtures.append(("theta", dipole(3)))
    fixtures.append(("k4_doubled_edge", k4_doubled))
    return fixtures


def _random_graph(rng: random.Random, max_d: int) -> Multigraph:
    d = rng.randint(2, max_d)
    edges = tuple(pair for pair in combinations(range(d), 2) if rng.random() < 0.5)
    return Multigraph(d, edges)


def sample_graphs(seed: int, count: int, max_d: int, *, bridgeless: bool = False) -> list[Multigraph]:
    if max_d < 2:
        raise NotApplicable("max-size", f"sampled graphs need max-size >= 2, got {max_d}")
    # each draw lists all d(d-1)/2 vertex pairs, so the size is refused first
    if max_d > caps.CHROMATIC_VERTEX_CAP:
        raise CapExceeded(f"sampled graph cap is {caps.CHROMATIC_VERTEX_CAP} vertices, got {max_d}")
    rng = random.Random(seed)
    out = []
    attempts = 0
    while len(out) < count and attempts < count * 200:
        attempts += 1
        g = _random_graph(rng, max_d)
        if not g.is_connected:
            continue
        if bridgeless and (not g.is_bridgeless or cyclomatic_number(g) > caps.FLOW_XI_SURVEY_CAP):
            continue
        out.append(g)
    return out


def sample_posets(seed: int, count: int, max_d: int) -> list[Poset]:
    if max_d < 1:
        raise NotApplicable("max-size", f"sampled posets need max-size >= 1, got {max_d}")
    # every draw is checked by `poset_checks`, so a size it would refuse is
    # refused before any draw
    _check_element_cap(max_d)
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        d = rng.randint(1, max_d)
        pairs = [(i, j) for i in range(d) for j in range(i + 1, d) if rng.random() < 0.4]
        out.append(Poset.from_relation(d, pairs))
    return out


def _graph_id(g: Multigraph) -> str:
    edges = ",".join(f"{u}-{v}" for u, v in g.edges)
    return f"d{g.vertex_count}:{edges}" if edges else f"d{g.vertex_count}:-"


def _poset_id(p: Poset) -> str:
    covers = ",".join(f"{a}<{b}" for a, b in p.cover_pairs())
    return f"d{p.element_count}:{covers}" if covers else f"d{p.element_count}:-"


# ---------------------------------------------------------------------------
# report plumbing


@dataclass
class SurveyReport:
    kind: str
    scope: dict
    instances: list[dict] = field(default_factory=list)
    skipped: list[dict] = field(default_factory=list)
    counterexamples: list[dict] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    started: float = field(
        init=False, repr=False, compare=False, default_factory=time.perf_counter
    )

    def record(self, instance_id: str, payload: dict, checks: dict[str, str]) -> None:
        self.instances.append({"id": instance_id, "checks": checks, **payload})
        for name, verdict in checks.items():
            if verdict == "fail":
                self.counterexamples.append({"id": instance_id, "check": name})

    def skip(self, instance_id: str, reason: str) -> None:
        self.skipped.append({"id": instance_id, "reason": reason})

    @property
    def ok(self) -> bool:
        return not self.counterexamples

    def to_json(self, *, timestamp: str | None = None) -> dict:
        body = {
            "schema": 1,
            "tool": "polybinom",
            "version": __version__,
            "kind": self.kind,
            "scope": self.scope,
            "scope_hash": hashlib.sha256(
                json.dumps(self.scope, sort_keys=True).encode()
            ).hexdigest(),
            "instance_count": len(self.instances),
            "instances": sorted(self.instances, key=lambda r: r["id"]),
            "skipped": sorted(self.skipped, key=lambda r: r["id"]),
            "counterexamples": sorted(
                self.counterexamples, key=lambda r: (r["id"], r["check"])
            ),
            "verdict": "pass" if self.ok else "fail",
        }
        if timestamp is not None:
            # volatile fields live under one key so reports stay byte-identical
            # across reruns once this key is dropped
            body["run"] = {"timestamp": timestamp, "elapsed_seconds": self.elapsed_seconds}
        return body

    def run(self, instances: Iterable[tuple[str, object]], check, record) -> "SurveyReport":
        """Check each (id, instance) as it is read: record its table, or skip it as out of scope.

        An instance above an enumeration cap is skipped with reason ``cap``.
        An empty family is rejected: a run that checks nothing verifies nothing.
        """
        for instance_id, instance in instances:
            try:
                checked = check(instance)
            except NotApplicable as exc:
                self.skip(instance_id, exc.reason)
                continue
            except CapExceeded:
                self.skip(instance_id, "cap")
                continue
            self.record(instance_id, record(checked), checked.checks)
        if not self.instances and not self.skipped:
            raise NotApplicable(
                "max-size",
                f"no {self.kind} instance to verify at max-size {self.scope['max_size']} "
                f"({self.scope['mode']} mode)",
            )
        self.elapsed_seconds = time.perf_counter() - self.started
        return self


def _graph_record(checked: GraphChecks) -> dict:
    r = checked.result
    return {
        "d": r.graph.vertex_count,
        "m": r.graph.edge_count,
        "chi_star": list(r.chi_star.entries),
        "a": list(r.split.p),
        "b": list(r.split.q),
        "acyclic_orientations": r.acyclic_count,
    }


def _poset_record(checked: PosetChecks) -> dict:
    return {
        "d": checked.poset.element_count,
        "omega_star": list(checked.star.entries),
        "a": list(checked.split.p),
        "b": list(checked.split.q),
        "hstar": list(checked.hstar.entries),
    }


def _flow_record(checked: FlowChecks) -> dict:
    r = checked.result
    return {
        "d": r.graph.vertex_count,
        "m": r.graph.edge_count,
        "xi": r.xi,
        "phi_star": list(r.phi_star.entries),
        "f_star": list(r.f_star.entries),
        "alpha": list(r.phi_split.p),
        "beta": list(r.phi_split.q),
        "c": list(r.f_split.p),
        "dvec": list(r.f_split.q),
        "totally_cyclic": r.tc_orientation_count,
        "indegree_sequences": r.indegree_sequence_count,
    }


# ---------------------------------------------------------------------------
# survey drivers: one shared check loop over a family read a level at a time


def _graph_family(max_size: int) -> Iterator[Multigraph]:
    """The exhaustive graph family, read lazily; refused above `caps.GRAPH_SURVEY_CAP` first."""
    if max_size > caps.GRAPH_SURVEY_CAP:
        raise CapExceeded(f"graph survey cap is {caps.GRAPH_SURVEY_CAP} vertices, got {max_size}")
    return chain.from_iterable(connected_graph_classes(max_size))


def run_graph_survey(max_size: int, mode: str = "exhaustive", seed: int = 0) -> SurveyReport:
    """`graph_checks` over connected loopless simple graphs (see `_graph_family`)."""
    report = SurveyReport("graphs", {"max_size": max_size, "mode": mode, "seed": seed})
    if mode == "exhaustive":
        graphs = _graph_family(max_size)
    elif mode == "sample":
        graphs = sample_graphs(seed, count=25, max_d=max_size)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return report.run(((_graph_id(g), g) for g in graphs), graph_checks, _graph_record)


def run_poset_survey(max_size: int, mode: str = "exhaustive", seed: int = 0) -> SurveyReport:
    """`poset_checks` over poset isomorphism classes, each level checked before the next is grown.

    An exhaustive run above `caps.POSET_SURVEY_CAP` elements is refused before
    any poset is generated, rather than checking fewer sizes than asked.
    """
    report = SurveyReport("posets", {"max_size": max_size, "mode": mode, "seed": seed})
    if mode == "exhaustive":
        if max_size > caps.POSET_SURVEY_CAP:
            raise CapExceeded(f"poset survey cap is {caps.POSET_SURVEY_CAP} elements, got {max_size}")
        counts = report.scope["class_counts"] = []

        def levels() -> Iterator[Poset]:
            for level in poset_classes(max_size):
                counts.append(len(level))
                yield from level

        posets = levels()
    elif mode == "sample":
        posets = sample_posets(seed, count=25, max_d=max_size)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return report.run(((_poset_id(p), p) for p in posets), poset_checks, _poset_record)


def run_flow_survey(max_size: int, mode: str = "exhaustive", seed: int = 0) -> SurveyReport:
    """`flow_checks` over bridgeless instances with 1 <= xi <= `caps.FLOW_XI_SURVEY_CAP`
    (exhaustive family: see `_graph_family`)."""
    report = SurveyReport(
        "flows", {"max_size": max_size, "mode": mode, "seed": seed, "max_xi": caps.FLOW_XI_SURVEY_CAP}
    )
    if mode == "exhaustive":
        instances = chain(((_graph_id(g), g) for g in _graph_family(max_size)), flow_fixture_set())
    elif mode == "sample":
        instances = [
            (_graph_id(g), g) for g in sample_graphs(seed, 15, max_size, bridgeless=True)
        ]
    else:
        raise ValueError(f"unknown mode {mode!r}")

    def check(g: Multigraph) -> FlowChecks:
        # flow_analysis skips bridges and xi = 0 itself, in that order
        if cyclomatic_number(g) > caps.FLOW_XI_SURVEY_CAP and g.is_bridgeless:
            raise NotApplicable("cap")
        return flow_checks(g)

    return report.run(instances, check, _flow_record)
