import hashlib
import json
import weakref
from itertools import chain, combinations

import pytest

import polybinom.posets
import polybinom.survey
from polybinom import caps
from polybinom.errors import CapExceeded, NotApplicable
from polybinom.graphs import Multigraph, graph_certificate
from polybinom.posets import Poset
from polybinom.survey import (
    SurveyReport,
    _graph_id,
    connected_graph_classes,
    flow_fixture_set,
    run_flow_survey,
    run_graph_survey,
    run_poset_survey,
    sample_graphs,
    sample_posets,
)


def classes_by_subset_scan(max_d: int) -> list[Multigraph]:
    """Oracle: every edge subset of K_d, kept if connected and new by certificate."""
    out: list[Multigraph] = []
    for d in range(1, max_d + 1):
        pairs = list(combinations(range(d), 2))
        seen: set[tuple] = set()
        reps = []
        for mask in range(1 << len(pairs)):
            g = Multigraph(d, tuple(pairs[k] for k in range(len(pairs)) if (mask >> k) & 1))
            if not g.is_connected:
                continue
            cert = graph_certificate(g)
            if cert not in seen:
                seen.add(cert)
                reps.append(Multigraph(d, cert[1]))
        reps.sort(key=lambda g: (g.edge_count, g.edges))
        out.extend(reps)
    return out


class TestFamilyOracles:
    def test_subset_scan_gives_the_identical_list(self):
        assert list(chain.from_iterable(connected_graph_classes(5))) == classes_by_subset_scan(5)

    def test_networkx_atlas_up_to_seven_vertices(self):
        nx = pytest.importorskip("networkx")
        grown: dict[int, set] = {}
        for g in chain.from_iterable(connected_graph_classes(7)):
            grown.setdefault(g.vertex_count, set()).add(graph_certificate(g))
        atlas: dict[int, set] = {}
        for h in nx.graph_atlas_g()[1:]:  # entry 0 is the graph on no vertices
            if nx.is_connected(h):
                g = Multigraph(h.number_of_nodes(), tuple(h.edges()))
                atlas.setdefault(g.vertex_count, set()).add(graph_certificate(g))
        assert [len(grown[d]) for d in range(1, 8)] == [1, 1, 2, 6, 21, 112, 853]
        assert grown == atlas

    def test_seven_vertex_family_is_frozen(self):
        # the representatives and their order, as listed at d <= 7; the
        # frozen survey references cover only d <= 6
        classes = list(chain.from_iterable(connected_graph_classes(7)))
        assert len(classes) == 996
        listing = repr([(g.vertex_count, g.edges) for g in classes]).encode()
        assert hashlib.sha256(listing).hexdigest() == "4c81b750223f0d76b3d34eedeecf17104ef395b7f96c22caae56a189efb98fbb"


class TestFamilies:
    def test_connected_class_counts(self):
        counts = {}
        for g in chain.from_iterable(connected_graph_classes(4)):
            counts[g.vertex_count] = counts.get(g.vertex_count, 0) + 1
        assert counts == {1: 1, 2: 1, 3: 2, 4: 6}

    def test_representatives_are_connected_and_simple(self):
        for g in chain.from_iterable(connected_graph_classes(4)):
            assert g.is_connected
            assert not g.has_loops
            assert len({frozenset(e) for e in g.edges}) == g.edge_count

    def test_fixture_set(self):
        names = [name for name, _ in flow_fixture_set()]
        assert names == ["dipole2", "dipole3", "dipole4", "dipole5", "theta", "k4_doubled_edge"]
        for _, g in flow_fixture_set():
            assert g.is_bridgeless

    def test_sampling_is_seeded(self):
        a = sample_graphs(42, 10, 5)
        b = sample_graphs(42, 10, 5)
        assert a == b
        assert sample_posets(1, 5, 4)[0].above == sample_posets(1, 5, 4)[0].above


class TestGraphSurvey:
    def test_small_run_passes(self):
        report = run_graph_survey(4)
        assert len(report.instances) == 10
        assert report.ok
        assert not report.skipped

    def test_sample_mode(self):
        report = run_graph_survey(5, mode="sample", seed=3)
        assert report.instances
        assert report.ok

    def test_report_json_is_deterministic_modulo_run_key(self):
        a = run_graph_survey(3).to_json(timestamp="now-a")
        b = run_graph_survey(3).to_json(timestamp="now-b")
        a.pop("run")
        b.pop("run")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            run_graph_survey(3, mode="everything")

    def test_empty_family_is_rejected(self):
        with pytest.raises(NotApplicable) as err:
            run_graph_survey(0)
        assert err.value.reason == "max-size"
        assert len(run_graph_survey(1).instances) == 1


class TestPosetSurvey:
    def test_small_run_passes(self):
        report = run_poset_survey(4)
        assert len(report.instances) == 1 + 2 + 5 + 16
        assert report.scope["class_counts"] == [1, 2, 5, 16]
        assert report.ok

    def test_sample_mode(self):
        report = run_poset_survey(5, mode="sample", seed=8)
        assert report.instances
        assert report.ok

    def test_sample_above_the_lattice_point_cap_is_refused(self):
        # the lattice-point oracles stop at the cap, so every draw up to it is
        # checked, and a larger size is refused rather than skipped draw by draw
        d = caps.LATTICE_POINT_ELEMENT_CAP
        report = run_poset_survey(d, mode="sample", seed=0)
        assert len(report.instances) == 25
        assert report.skipped == []
        assert report.ok
        with pytest.raises(CapExceeded, match=f"sampled poset cap is {d} elements, got {d + 1}"):
            run_poset_survey(d + 1, mode="sample", seed=0)


class TestFlowSurvey:
    def test_small_run_skips_and_passes(self):
        report = run_flow_survey(4)
        assert report.ok
        reasons = {s["reason"] for s in report.skipped}
        assert "bridge" in reasons and "xi=0" in reasons
        ids = {i["id"] for i in report.instances}
        assert "theta" in ids and "dipole5" in ids

    def test_trees_all_skip(self):
        fixtures = {name for name, _ in flow_fixture_set()}
        report = run_flow_survey(3)
        skips = {s["id"]: s["reason"] for s in report.skipped if s["id"] not in fixtures}
        # the trees on 1, 2 and 3 vertices; the triangle is recorded
        assert skips == {"d1:-": "xi=0", "d2:0-1": "bridge", "d3:0-2,1-2": "bridge"}
        assert [i["id"] for i in report.instances if i["id"] not in fixtures] == ["d3:0-1,0-2,1-2"]

    def test_xi_cap_skips(self):
        assert caps.FLOW_XI_SURVEY_CAP == 5
        d5 = [g for g in chain.from_iterable(connected_graph_classes(5)) if g.vertex_count == 5]
        (k5_minus_edge,) = [g for g in d5 if g.edge_count == 9]  # xi = 5
        (k5,) = [g for g in d5 if g.edge_count == 10]  # xi = 6
        report = run_flow_survey(5)
        assert report.scope["max_xi"] == caps.FLOW_XI_SURVEY_CAP
        assert _graph_id(k5_minus_edge) in {i["id"] for i in report.instances}
        assert {"id": _graph_id(k5), "reason": "cap"} in report.skipped
        assert [s["reason"] for s in report.skipped].count("cap") == 1
        assert report.ok

    def test_sample_mode(self):
        report = run_flow_survey(5, mode="sample", seed=12)
        assert report.ok


def live_at_each_check(monkeypatch, cls, check_name: str) -> list[int]:
    """Wrap `survey.<check_name>`; the returned list gets, at each call, the
    number of `cls` instances then alive, counted by a weakref to each one
    built since."""
    refs = []
    post_init = cls.__post_init__

    def tracked(self):
        post_init(self)
        refs.append(weakref.ref(self))

    check = getattr(polybinom.survey, check_name)
    live = []

    def counted(instance):
        live.append(sum(ref() is not None for ref in refs))
        return check(instance)

    monkeypatch.setattr(cls, "__post_init__", tracked)
    monkeypatch.setattr(polybinom.survey, check_name, counted)
    return live


class TestOneLevelAtATime:
    def test_each_poset_level_is_grown_once(self, monkeypatch):
        grow = polybinom.posets._grow
        levels = []

        def counted(level, k):
            levels.append(k)
            return grow(level, k)

        monkeypatch.setattr(polybinom.posets, "_grow", counted)
        assert run_poset_survey(6).scope["class_counts"] == [1, 2, 5, 16, 63, 318]
        assert levels == [1, 2, 3, 4, 5, 6]

    def test_poset_survey_holds_one_level(self, monkeypatch):
        # the level being checked, and the last poset of the level before,
        # which the report's check loop still names
        live = live_at_each_check(monkeypatch, Poset, "poset_checks")
        assert len(run_poset_survey(6).instances) == 405
        assert len(live) == 405
        assert max(live) <= 318 + 1

    def test_graph_survey_holds_one_level(self, monkeypatch):
        live = live_at_each_check(monkeypatch, Multigraph, "graph_checks")
        assert len(run_graph_survey(6).instances) == 143
        assert len(live) == 143
        assert max(live) <= 112 + 1


class TestSurveyReport:
    def test_start_time_is_not_a_parameter_and_not_compared(self):
        with pytest.raises(TypeError):
            SurveyReport("graphs", {}, started=0.0)
        assert SurveyReport("graphs", {"max_size": 1}) == SurveyReport("graphs", {"max_size": 1})
