import json
import os
import string
import subprocess
import sys
import time
import tracemalloc
import types
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import polybinom.cli
import polybinom.flows
import polybinom.survey
from polybinom import caps
from polybinom.cli import main
from polybinom.graphs import (
    Multigraph,
    complete_graph,
    cycle_graph,
    cyclomatic_number,
    dipole,
    format_graph_file,
)
from polybinom.polynomials import StarVector
from polybinom.posets import Poset, format_poset_file
from polybinom.survey import flow_fixture_set, run_poset_survey

from test_flows import PETERSEN, kochol_table_at
from test_posets import COSTLY_10, CROWN_10

K3 = "vertices 3\nedge 0 1\nedge 0 2\nedge 1 2\n"
P3 = "vertices 3\nedge 0 1\nedge 1 2\n"
THETA = "vertices 2\nedge 0 1\nedge 0 1\nedge 0 1\n"
LOOP = "vertices 1\nedge 0 0\n"
CHAIN3 = "elements 3\ncover 0 1\ncover 1 2\n"
ANTICHAIN4 = "elements 4\n"


@pytest.fixture
def write(tmp_path):
    def _write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return _write


class TestChromaticCommand:
    def test_k3_text(self, write, capsys):
        assert main(["chromatic", write("k3.graph", K3)]) == 0
        out = capsys.readouterr().out
        assert "chi_star: (0, 0, 0, 6)" in out

    def test_p3_json(self, write, capsys):
        assert main(["chromatic", "--json", write("p3.graph", P3)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["a"] == [4, 6, 6, 4]
        assert payload["b"] == [4, 6, 4]
        assert payload["verdict"] == "pass"
        assert payload["schema"] == 1

    def test_loop_rejected(self, write, capsys):
        assert main(["chromatic", write("loop.graph", LOOP)]) == 2
        assert "loop" in capsys.readouterr().err

    def test_parse_error_has_line(self, write, capsys):
        assert main(["chromatic", write("bad.graph", "vertices 2\nedge 0 9\n")]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["chromatic", "/nonexistent/file.graph"]) == 2

    def test_non_decimal_vertex_count_is_rejected(self, write, capsys):
        # str.isdigit accepts superscripts, which int() refuses
        assert main(["chromatic", write("sup.graph", "vertices \u00b2\n")]) == 2
        assert capsys.readouterr().err == "rejected (parse-error): line 1: expected 'vertices <n>'\n"

    def test_vertex_cap(self, write, capsys):
        for d in (8, 10):
            assert main(["chromatic", "--json", write(f"c{d}.graph", format_graph_file(cycle_graph(d)))]) == 0
            payload = json.loads(capsys.readouterr().out)
        # the top entry counts the 2^10 - 2 acyclic orientations of C10
        assert payload["chi_star"]["entries"] == [
            0, 0, 2, 1004, 47876, 455108, 1310480, 1310228, 455276, 47804, 1022
        ]
        assert main(["chromatic", write("c11.graph", format_graph_file(cycle_graph(11)))]) == 3
        assert "chromatic cap is 10 vertices, got 11" in capsys.readouterr().err

    def test_acyclic_orientation_cap_exits_3(self, write, capsys):
        # K9 is within the vertex cap, but its 9! acyclic orientations are not
        assert main(["chromatic", write("k9.graph", format_graph_file(complete_graph(9)))]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "cap exceeded: graph has 362880 acyclic orientations; cap is 50000\n"

    def test_edge_cap_exits_3(self, write, capsys):
        assert main(["chromatic", "--cap-edges", "2", write("k3.graph", K3)]) == 3
        assert "cap exceeded" in capsys.readouterr().err

    def test_csv_export(self, write, tmp_path):
        csv_path = tmp_path / "audit.csv"
        assert main(["chromatic", "--csv", str(csv_path), write("k3.graph", K3)]) == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "instance,family,j,lhs,rhs,holds"
        assert len(lines) > 1


class TestFlowCommand:
    def test_theta(self, write, capsys):
        assert main(["flow", write("theta.graph", THETA)]) == 0
        out = capsys.readouterr().out
        assert "c: (6, 6, 6, 6)" in out
        assert "totally cyclic orientations: 6" in out

    def test_double_edge_json(self, write, capsys):
        double = "vertices 2\nedge 0 1\nedge 0 1\n"
        assert main(["flow", "--json", write("d2.graph", double)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["phi_star"]["entries"] == [0, 0, 1]
        assert payload["f_star"]["entries"] == [0, 0, 2]

    @pytest.mark.parametrize("counts", [(0, 0, 3, 8), (0, 0, 1, 3)])
    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    def test_modular_miscount_is_a_failed_check(self, write, capsys, monkeypatch, counts, json_flag):
        # phi of the theta graph is (n-1)(n-2), with counts 0, 0, 2, 6 at
        # n = 1..4.  The first counts break the node n = 4 (and make phi
        # non-integral); the second fit 1/2 (n-1)(n-2), which has no integer
        # coefficients.  Both are a failed check and exit 1, not a traceback
        monkeypatch.setattr(polybinom.flows, "modular_flow_count", lambda g, n: counts[n - 1])
        assert main(["flow", *json_flag, write("theta.graph", THETA)]) == 1
        assert capsys.readouterr().err == "failed checks: constants_match_oracles, phi_degree_is_xi\n"

    def test_bridge_rejected(self, write, capsys):
        assert main(["flow", write("p3.graph", P3)]) == 2
        assert "bridge" in capsys.readouterr().err

    def test_xi_above_cap_exits_3(self, write, capsys):
        assert main(["flow", write("dipole9.graph", format_graph_file(dipole(9)))]) == 3
        assert "cyclomatic number 8 exceeds cap 7" in capsys.readouterr().err

    def test_octahedron_at_the_xi_cap(self, write, capsys):
        # K6 less a perfect matching: xi = 7, the cap, with 1,862 totally
        # cyclic orientations; its integral scan is the largest grid the
        # candidate budget admits
        matching = ((0, 1), (2, 3), (4, 5))
        octahedron = Multigraph(6, tuple(e for e in complete_graph(6).edges if e not in matching))
        assert cyclomatic_number(octahedron) == caps.FLOW_XI_CAP == 7
        assert main(["flow", "--json", write("octahedron.graph", format_graph_file(octahedron))]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["totally_cyclic_orientations"] == len(payload["kochol_table"]["9"]) == 1862

    def test_json_keys_are_the_oracle_directions(self, write, capsys):
        # each key is its orientation's direction string, edge 0 first, the
        # join of the oracle's direction tuple, in the oracle's order
        for name, g in flow_fixture_set():
            assert main(["flow", "--json", write(f"{name}.graph", format_graph_file(g))]) == 0
            table = json.loads(capsys.readouterr().out)["kochol_table"]
            oracle = {
                str(n): {"".join(map(str, o)): k for o, k in kochol_table_at(g, n).items()}
                for n in range(1, cyclomatic_number(g) + 3)
            }
            assert [list(t.items()) for t in table.values()] == [
                list(t.items()) for t in oracle.values()
            ], name

    def test_edge_cap_exits_3_before_any_scan(self, write, capsys, monkeypatch):
        def scan(*args, **kwargs):
            raise AssertionError("a flow scan ran above the edge cap")

        monkeypatch.setattr(polybinom.flows, "modular_flow_count", scan)
        monkeypatch.setattr(polybinom.flows, "kochol_tables", scan)
        # C20 with five chords: bridgeless, xi = 6 within its cap, m = 25 above the edge cap
        g = Multigraph(20, cycle_graph(20).edges + ((0, 10), (2, 12), (4, 14), (6, 16), (8, 18)))
        assert (g.edge_count, cyclomatic_number(g)) == (25, 6)
        assert main(["flow", write("c20_chords.graph", format_graph_file(g))]) == 3
        captured = capsys.readouterr()
        assert captured.err == "cap exceeded: orientation enumeration needs 2^25 candidates; cap is m <= 24\n"
        # over both caps, the xi cap is reported
        assert main(["flow", write("dipole25.graph", format_graph_file(dipole(25)))]) == 3
        assert "cyclomatic number 24 exceeds cap 7" in capsys.readouterr().err

    def test_huge_vertex_count_is_refused_before_any_vertex_pass(self, write, monkeypatch, capsys):
        def refuse(self):
            raise AssertionError("a pass over the vertices ran before the vertex count was checked")

        monkeypatch.setattr(Multigraph, "_search", property(refuse))
        for text in ("vertices 100000000\n", "vertices 100000000\nedge 0 1\n"):
            assert main(["flow", write("huge.graph", text)]) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"cap exceeded: flow cap is {caps.FLOW_VERTEX_CAP} vertices, got 100000000\n"

    def test_many_parallel_edges_are_refused_quickly(self, write, capsys):
        # the bridge test runs before the xi cap; one linear search over the
        # 4000 edges keeps the refusal fast
        text = "vertices 2\n" + "edge 0 1\n" * 4000
        start = time.perf_counter()
        assert main(["flow", write("dipole4000.graph", text)]) == 3
        assert time.perf_counter() - start < 0.5
        assert "cyclomatic number 3999 exceeds cap 7" in capsys.readouterr().err


class TestOrderCommand:
    def test_chain(self, write, capsys):
        assert main(["order", write("chain3.poset", CHAIN3)]) == 0
        out = capsys.readouterr().out
        assert "omega_star: (0, 0, 0, 1)" in out

    def test_antichain_json(self, write, capsys):
        assert main(["order", "--json", write("a4.poset", ANTICHAIN4)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["omega_star"]["entries"] == [0, 1, 11, 11, 1]

    def test_two_antichain_split(self, write, capsys):
        assert main(["order", write("a2.poset", "elements 2\n")]) == 0
        assert "a: (1, 2, 1)" in capsys.readouterr().out

    def test_element_cap(self, write, capsys):
        d = caps.ORDER_POLY_ELEMENT_CAP
        assert main(["order", write("a10.poset", f"elements {d}\n")]) == 0
        capsys.readouterr()
        assert main(["order", write("a11.poset", f"elements {d + 1}\n")]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"cap exceeded: poset cap is {d} elements, got {d + 1}\n"

    @pytest.mark.parametrize("p", [*COSTLY_10, CROWN_10], ids=["costliest", "widest_step", "crown"])
    def test_costly_posets_at_the_cap(self, p, write, capsys):
        assert p.element_count == caps.ORDER_POLY_ELEMENT_CAP
        assert main(["order", "--json", write("p10.poset", format_poset_file(p))]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "pass"
        assert all(payload["checks"].values())
        assert [r["verdict"] for r in payload["audits"]] == ["pass"] * len(payload["audits"])

    def test_huge_element_count_is_refused_before_any_element_is_built(self, write, monkeypatch, capsys):
        def refuse(cls, d, pairs):
            raise AssertionError("a poset was built before its element count was checked")

        monkeypatch.setattr(Poset, "from_relation", classmethod(refuse))
        assert main(["order", write("huge.poset", "elements 100000000\ncover 0 1\n")]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "cap exceeded: poset cap is 10 elements, got 100000000\n"

    def test_non_decimal_element_count_is_rejected(self, write, capsys):
        assert main(["order", write("sup.poset", "# header\nelements \u00b2\n")]) == 2
        assert capsys.readouterr().err == "rejected (parse-error): line 2: expected 'elements <d>'\n"

    def test_non_poset_rejected(self, write, capsys):
        bad = "elements 2\ncover 0 1\ncover 1 0\n"
        assert main(["order", write("bad.poset", bad)]) == 2


def _refuse_draws(monkeypatch):
    """Make any sampled draw fail at once: above the cap a draw would list
    d(d-1)/2 vertex pairs, too many to hold in memory at a huge size."""

    def refuse(seed):
        raise AssertionError("a sample was drawn above the sample cap")

    monkeypatch.setattr(polybinom.survey, "random", types.SimpleNamespace(Random=refuse))


class TestSurveyCommand:
    def test_graphs_exhaustive(self, capsys):
        assert main(["survey", "graphs", "--max-size", "4"]) == 0
        out = capsys.readouterr().out
        assert "instances: 10" in out
        assert "counterexamples: 0" in out

    def test_json_deterministic_modulo_run(self, capsys):
        assert main(["survey", "posets", "--max-size", "3", "--json"]) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(["survey", "posets", "--max-size", "3", "--json"]) == 0
        second = json.loads(capsys.readouterr().out)
        first.pop("run")
        second.pop("run")
        assert first == second
        assert first["schema"] == 1
        assert first["verdict"] == "pass"

    def test_sample_above_the_element_cap_is_refused(self, monkeypatch, capsys):
        # every sampled poset is checked by `poset_checks`, so a size it
        # would skip is refused before any draw
        _refuse_draws(monkeypatch)
        d = caps.ORDER_POLY_ELEMENT_CAP + 1
        assert main(["survey", "posets", "--mode", "sample", "--max-size", str(d)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"cap exceeded: poset cap is {d - 1} elements, got {d}\n"

    def test_sample_at_the_element_cap(self, capsys):
        assert main(["survey", "posets", "--mode", "sample", "--max-size", "10", "--seed", "3", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "pass"
        assert report["skipped"] == []
        assert report["instance_count"] == 25
        assert max(i["d"] for i in report["instances"]) == 10

    @pytest.mark.parametrize(
        "kind, cap, noun",
        [
            ("graphs", "CHROMATIC_VERTEX_CAP", "graph cap is 4 vertices"),
            ("flows", "CHROMATIC_VERTEX_CAP", "graph cap is 4 vertices"),
            ("posets", "ORDER_POLY_ELEMENT_CAP", "poset cap is 4 elements"),
        ],
    )
    def test_sample_size_cap(self, kind, cap, noun, monkeypatch, capsys):
        monkeypatch.setattr(caps, cap, 4)
        assert main(["survey", kind, "--mode", "sample", "--max-size", "4"]) == 0
        capsys.readouterr()

        _refuse_draws(monkeypatch)
        assert main(["survey", kind, "--mode", "sample", "--max-size", "5"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        # the poset cap is one message on every poset route
        message = noun if kind == "posets" else f"sampled {noun}"
        assert captured.err == f"cap exceeded: {message}, got 5\n"

    @pytest.mark.parametrize("kind", ["graphs", "posets", "flows"])
    def test_huge_sample_size_is_refused_at_once(self, kind, monkeypatch, capsys):
        _refuse_draws(monkeypatch)
        start = time.perf_counter()
        assert main(["survey", kind, "--mode", "sample", "--max-size", "100000000"]) == 3
        assert time.perf_counter() - start < 1
        err = capsys.readouterr().err
        assert err.startswith("cap exceeded: ")
        assert err.endswith(f" cap is 10 {'elements' if kind == 'posets' else 'vertices'}, got 100000000\n")

    # sampling draws sizes from 2..max-size (graphs) or 1..max-size (posets)
    @pytest.mark.parametrize(
        "kind, max_size, message",
        [
            ("graphs", "1", "sampled graphs need max-size >= 2, got 1"),
            ("flows", "1", "sampled graphs need max-size >= 2, got 1"),
            ("posets", "0", "sampled posets need max-size >= 1, got 0"),
        ],
    )
    def test_sample_below_the_smallest_size_is_rejected(self, kind, max_size, message, capsys):
        assert main(["survey", kind, "--mode", "sample", "--max-size", max_size]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"rejected (max-size): {message}\n"

    # a family with no instance verifies nothing, so it must not read as a pass
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["graphs", "--max-size", "0"], "no graphs instance to verify at max-size 0 (exhaustive mode)"),
            (["posets", "--max-size", "-1"], "no posets instance to verify at max-size -1 (exhaustive mode)"),
            (
                ["flows", "--mode", "sample", "--max-size", "2"],
                "no flows instance to verify at max-size 2 (sample mode)",
            ),
        ],
        ids=["graphs", "posets", "flows-sample"],
    )
    def test_empty_family_is_rejected(self, argv, message, capsys):
        assert main(["survey", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"rejected (max-size): {message}\n"

    def test_exhaustive_poset_survey_cap(self, monkeypatch, capsys):
        # above the cap the survey is refused, not cut short to the cap
        cap = caps.POSET_SURVEY_CAP
        assert main(["survey", "posets", "--max-size", str(cap + 1)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"cap exceeded: poset survey cap is {cap} elements, got {cap + 1}\n"
        monkeypatch.setattr(caps, "POSET_SURVEY_CAP", 3)
        assert main(["survey", "posets", "--max-size", "3"]) == 0
        assert "instances: 8  skipped: 0" in capsys.readouterr().out
        assert main(["survey", "posets", "--max-size", "4"]) == 3
        assert capsys.readouterr().err == "cap exceeded: poset survey cap is 3 elements, got 4\n"

    @pytest.mark.parametrize("kind", ["graphs", "flows"])
    def test_exhaustive_graph_survey_cap(self, kind, monkeypatch, capsys):
        # above the cap the survey is refused before any class is generated
        def refuse(max_d):
            raise AssertionError("generated a graph family above the cap")

        monkeypatch.setattr(polybinom.survey, "connected_graph_classes", refuse)
        assert caps.GRAPH_SURVEY_CAP == 7
        assert main(["survey", kind, "--max-size", "8"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "cap exceeded: graph survey cap is 7 vertices, got 8\n"

    def test_json_report_is_streamed(self, monkeypatch):
        # the indented encoder's chunks are written as they come, not joined
        # into one string first
        payload = run_poset_survey(5).to_json()
        size = len(json.dumps(payload, indent=2, sort_keys=True))
        monkeypatch.setattr(sys, "stdout", types.SimpleNamespace(write=len))
        tracemalloc.start()
        try:
            polybinom.cli._emit_json(payload)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < size / 2, (peak, size)

    def test_flows_with_fixtures(self, capsys):
        assert main(["survey", "flows", "--max-size", "3"]) == 0
        out = capsys.readouterr().out
        assert "verdict: pass" in out

    def test_survey_csv(self, tmp_path, capsys):
        path = tmp_path / "rows.csv"
        assert main(["survey", "graphs", "--max-size", "3", "--csv", str(path)]) == 0
        assert path.read_text().startswith("instance,check,verdict")


class TestTable1Command:
    def test_all_rows_match(self, capsys):
        assert main(["table1"]) == 0
        assert "all golden rows matched: True" in capsys.readouterr().out

    def test_csv_is_not_an_option(self, tmp_path, capsys):
        # table1 writes no audit rows, so --csv is refused rather than ignored
        with pytest.raises(SystemExit) as exc:
            main(["table1", "--csv", str(tmp_path / "rows.csv")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --csv" in capsys.readouterr().err
        assert not (tmp_path / "rows.csv").exists()

    def test_json(self, capsys):
        assert main(["table1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["all_matched"] is True
        assert set(payload["degrees"]) == {"5", "6", "7"}


@pytest.mark.parametrize(
    "command, header, noun",
    [("chromatic", "vertices", "vertex"), ("flow", "vertices", "vertex"), ("order", "elements", "element")],
)
def test_header_count_too_long_for_int_is_rejected(write, capsys, command, header, noun):
    # int() refuses more than 4300 digits although isdecimal() accepts them
    path = write("huge.input", f"{header} {'9' * 5000}\n")
    assert main([command, path]) == 2
    assert capsys.readouterr().err == f"rejected (parse-error): line 1: {noun} count is too large\n"


class TestUnreadableFiles:
    @pytest.mark.parametrize("command", ["chromatic", "flow", "order"])
    @pytest.mark.parametrize("kind", ["directory", "binary"])
    def test_unreadable_file_is_rejected(self, tmp_path, command, kind, capsys):
        path = tmp_path / "input"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(b"\xff\xfe vertices 3\n")
        assert main([command, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("rejected (file-error): ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [["chromatic", "--csv", "{dir}", "{k3}"], ["survey", "graphs", "--max-size", "3", "--csv", "{dir}"]],
        ids=["chromatic", "survey"],
    )
    def test_csv_path_that_is_a_directory_is_rejected(self, write, tmp_path, argv, capsys):
        paths = {"dir": str(tmp_path), "k3": write("k3.graph", K3)}
        assert main([arg.format(**paths) for arg in argv]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("rejected (file-error): ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("command, text", [("chromatic", K3), ("flow", THETA), ("order", CHAIN3)])
    @pytest.mark.parametrize("spelling", ["input.txt", "./input.txt", "link.txt"])
    def test_csv_that_names_the_input_is_refused(self, tmp_path, monkeypatch, capsys, command, text, spelling):
        # opening the CSV for writing would empty FILE before it is read
        path = tmp_path / "input.txt"
        path.write_text(text)
        (tmp_path / "link.txt").symlink_to(path)
        monkeypatch.chdir(tmp_path)
        assert main([command, "--csv", spelling, "input.txt"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"rejected (file-error): --csv {spelling} names the input FILE input.txt\n"
        assert path.read_text() == text

    def test_unwritable_csv_of_a_file_command_fails_before_any_work(self, write, tmp_path, monkeypatch, capsys):
        def refuse(g):
            raise AssertionError("the instance was checked before --csv was opened")

        monkeypatch.setattr(polybinom.cli, "graph_checks", refuse)
        assert main(["chromatic", "--csv", str(tmp_path), write("k3.graph", K3)]) == 2
        assert capsys.readouterr().err.startswith("rejected (file-error): ")

    def test_unwritable_csv_fails_before_any_work(self, tmp_path, monkeypatch, capsys):
        def refuse(*args):
            raise AssertionError("the survey ran before --csv was opened")

        monkeypatch.setattr(polybinom.cli, "run_poset_survey", refuse)
        assert main(["survey", "posets", "--max-size", "6", "--csv", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("rejected (file-error): ")
        assert captured.err.count("\n") == 1


# The text and CSV layout of each file command, recorded on K4, the theta
# graph and a 5-element poset (two minimal elements below one element below
# two maximal ones).  The CSV rows are written with the input path first.
K4 = format_graph_file(complete_graph(4))
P5 = "elements 5\ncover 0 2\ncover 1 2\ncover 2 3\ncover 2 4\n"

PINNED_TEXT_CHROMATIC = """\
graph: 4 vertices, 6 edges
chi: n^4 - 6*n^3 + 11*n^2 - 6*n
chi_star: (0, 0, 0, 0, 24)
a: (24, 24, 24, 24, 24)
b: (24, 24, 24, 24)
acyclic orientations: 24
constants match oracle: True
order-polynomial sum matches: True
audits:
  chromatic_star_nonnegative: pass
  chromatic_chain_a: pass
  chromatic_chain_b: pass
  chromatic_a_positive: pass
  chromatic_b_positive: pass
  chromatic_tail_sums: pass
  chromatic_mirror: vacuous
  binomial_coefficient_bound: pass
"""

PINNED_TEXT_FLOW = """\
graph: 2 vertices, 3 edges, xi = 2
phi: n^2 - 3*n + 2
f: 3*n^2 - 9*n + 6
phi_star: (0, 0, 0, 2)
f_star: (0, 0, 0, 6)
alpha: (2, 2, 2, 2)
beta: (2, 2, 2)
c: (6, 6, 6, 6)
d: (6, 6, 6)
totally cyclic orientations: 6
in-degree sequences: 2
constants match oracles: True
orientation-sum identity (n=1..4): True
orientation table at n=4: 6 orientations, total 18
audits:
  modular_star_nonnegative: pass
  integral_star_nonnegative: pass
  modular_chain_alpha: pass
  modular_chain_beta: pass
  integral_chain_c: pass
  integral_chain_d: pass
  modular_alpha_positive: pass
  modular_beta_positive: pass
  integral_c_positive: pass
  integral_d_positive: pass
  modular_alpha_ge_beta: pass
  integral_c_ge_d: pass
  flow_tail_sums_base[phi]: vacuous
  flow_tail_sums_shifted[phi]: vacuous
  flow_tail_sums_base[f]: vacuous
  flow_tail_sums_shifted[f]: vacuous
  flow_mirror: pass
"""

# the full `flow` text of two graphs with xi = 6, where f has fractional
# coefficients and the orientation table has hundreds of keys
PINNED_TEXT_FLOW_LARGER = {
    "K5": (format_graph_file(complete_graph(5)), """\
graph: 5 vertices, 10 edges, xi = 6
phi: n^6 - 10*n^5 + 45*n^4 - 115*n^3 + 175*n^2 - 147*n + 51
f: 16*n^6 - 146*n^5 + 1820/3*n^4 - 4310/3*n^3 + 6124/3*n^2 - 4876/3*n + 544
phi_star: (0, 0, 1, 17, 132, 332, 187, 51)
f_star: (0, 0, 24, 408, 2568, 5368, 2608, 544)
alpha: (51, 238, 570, 701, 701, 570, 238, 51)
beta: (51, 238, 569, 684, 569, 238, 51)
c: (544, 3152, 8520, 11064, 11064, 8520, 3152, 544)
d: (544, 3152, 8496, 10656, 8496, 3152, 544)
totally cyclic orientations: 544
in-degree sequences: 51
constants match oracles: True
orientation-sum identity (n=1..8): True
orientation table at n=8: 544 orientations, total 1277696
audits:
  modular_star_nonnegative: pass
  integral_star_nonnegative: pass
  modular_chain_alpha: pass
  modular_chain_beta: pass
  integral_chain_c: pass
  integral_chain_d: pass
  modular_alpha_positive: pass
  modular_beta_positive: pass
  integral_c_positive: pass
  integral_d_positive: pass
  modular_alpha_ge_beta: pass
  integral_c_ge_d: pass
  flow_tail_sums_base[phi]: pass
  flow_tail_sums_shifted[phi]: pass
  flow_tail_sums_base[f]: pass
  flow_tail_sums_shifted[f]: pass
  flow_mirror: pass
"""),
    "petersen": (format_graph_file(PETERSEN), """\
graph: 10 vertices, 15 edges, xi = 6
phi: n^6 - 15*n^5 + 95*n^4 - 325*n^3 + 624*n^2 - 620*n + 240
f: 55/6*n^6 - 267/2*n^5 + 4915/6*n^4 - 5445/2*n^3 + 15335/3*n^2 - 5004*n + 1920
phi_star: (0, 0, 0, 0, 0, 240, 240, 240)
f_star: (0, 0, 0, 0, 0, 2400, 2280, 1920)
alpha: (240, 480, 720, 720, 720, 720, 480, 240)
beta: (240, 480, 720, 720, 720, 480, 240)
c: (1920, 4200, 6600, 6600, 6600, 6600, 4200, 1920)
d: (1920, 4200, 6600, 6600, 6600, 4200, 1920)
totally cyclic orientations: 1920
in-degree sequences: 240
constants match oracles: True
orientation-sum identity (n=1..8): True
orientation table at n=8: 1920 orientations, total 278880
audits:
  modular_star_nonnegative: pass
  integral_star_nonnegative: pass
  modular_chain_alpha: pass
  modular_chain_beta: pass
  integral_chain_c: pass
  integral_chain_d: pass
  modular_alpha_positive: pass
  modular_beta_positive: pass
  integral_c_positive: pass
  integral_d_positive: pass
  modular_alpha_ge_beta: pass
  integral_c_ge_d: pass
  flow_tail_sums_base[phi]: pass
  flow_tail_sums_shifted[phi]: pass
  flow_tail_sums_base[f]: pass
  flow_tail_sums_shifted[f]: pass
  flow_mirror: pass
"""),
}

PINNED_TEXT_ORDER = """\
poset: 5 elements, covers [(0, 2), (1, 2), (2, 3), (2, 4)]
order polynomial: 1/30*n^5 - 1/6*n^4 + 1/3*n^3 - 1/3*n^2 + 2/15*n
omega_star: (0, 0, 0, 1, 2, 1)
a: (1, 3, 4, 4, 3, 1)
b: (1, 3, 4, 3, 1)
hstar (order polytope): (1, 2, 1, 0, 0, 0)
top_entry_is_one: True
reciprocity: True
hstar_reversal_is_interior: True
interior_shift_is_order_star: True
descents_match_lattice_hstar: True
audits:
  order_tail_sums: pass
  binomial_coefficient_bound: pass
"""

PINNED_CSV_CHROMATIC = """\
chromatic_star_nonnegative,0,0,0,True
chromatic_star_nonnegative,1,0,0,True
chromatic_star_nonnegative,2,0,0,True
chromatic_star_nonnegative,3,0,0,True
chromatic_star_nonnegative,4,24,0,True
chromatic_chain_a,1,24,24,True
chromatic_chain_a,2,24,24,True
chromatic_chain_a,3,24,24,True
chromatic_chain_b,1,24,24,True
chromatic_chain_b,2,24,24,True
chromatic_a_positive,0,24,1,True
chromatic_a_positive,1,24,1,True
chromatic_a_positive,2,24,1,True
chromatic_a_positive,3,24,1,True
chromatic_a_positive,4,24,1,True
chromatic_b_positive,0,24,1,True
chromatic_b_positive,1,24,1,True
chromatic_b_positive,2,24,1,True
chromatic_b_positive,3,24,1,True
chromatic_tail_sums,2,0,0,True
binomial_coefficient_bound,1,0,0,True
binomial_coefficient_bound,2,0,0,True
binomial_coefficient_bound,3,0,0,True
binomial_coefficient_bound,4,0,0,True
"""

PINNED_CSV_FLOW = """\
modular_star_nonnegative,0,0,0,True
modular_star_nonnegative,1,0,0,True
modular_star_nonnegative,2,0,0,True
modular_star_nonnegative,3,2,0,True
integral_star_nonnegative,0,0,0,True
integral_star_nonnegative,1,0,0,True
integral_star_nonnegative,2,0,0,True
integral_star_nonnegative,3,6,0,True
modular_chain_alpha,1,2,2,True
modular_chain_alpha,2,2,2,True
modular_chain_beta,1,2,2,True
integral_chain_c,1,6,6,True
integral_chain_c,2,6,6,True
integral_chain_d,1,6,6,True
modular_alpha_positive,0,2,1,True
modular_alpha_positive,1,2,1,True
modular_alpha_positive,2,2,1,True
modular_alpha_positive,3,2,1,True
modular_beta_positive,0,2,1,True
modular_beta_positive,1,2,1,True
modular_beta_positive,2,2,1,True
integral_c_positive,0,6,1,True
integral_c_positive,1,6,1,True
integral_c_positive,2,6,1,True
integral_c_positive,3,6,1,True
integral_d_positive,0,6,1,True
integral_d_positive,1,6,1,True
integral_d_positive,2,6,1,True
modular_alpha_ge_beta,1,2,2,True
modular_alpha_ge_beta,2,2,2,True
integral_c_ge_d,1,6,6,True
integral_c_ge_d,2,6,6,True
flow_mirror,1,0,0,True
"""

PINNED_CSV_ORDER = """\
order_tail_sums,2,1,0,True
binomial_coefficient_bound,1,2,2,True
binomial_coefficient_bound,2,1,3,True
binomial_coefficient_bound,3,0,4,True
binomial_coefficient_bound,4,0,5,True
binomial_coefficient_bound,5,0,6,True
"""

PINNED = {
    "chromatic": (K4, PINNED_TEXT_CHROMATIC, PINNED_CSV_CHROMATIC),
    "flow": (THETA, PINNED_TEXT_FLOW, PINNED_CSV_FLOW),
    "order": (P5, PINNED_TEXT_ORDER, PINNED_CSV_ORDER),
}

# one injected fault per command, the stderr line it must produce, and the
# audit lines of the text output that show the failing rows
INJECTED = {
    "chromatic": (
        "polybinom.chromatic.chromatic_star",
        lambda g: StarVector((0, 0, 6, 0, 18), 4),
        "failed checks: constants_match_acyclic_oracle, top_entry_is_acyclic_count, "
        "reciprocity_at_minus_one, binomial_coefficient_bound, order_polynomial_sum_matches\n",
        "  binomial_coefficient_bound: fail\n    j=2: 6 !<= 0\n",
    ),
    "flow": (
        "polybinom.flows.modular_flow_count",
        lambda g, n: [0, 2, 6, 12][n - 1],
        "failed checks: constants_match_oracles, modular_alpha_positive, modular_beta_positive\n",
        "  modular_alpha_positive: fail\n    j=0: 0 !>= 1\n    j=3: 0 !>= 1\n"
        "  modular_beta_positive: fail\n    j=0: 0 !>= 1\n    j=2: 0 !>= 1\n",
    ),
    "order": (
        "polybinom.checks.omega_star",
        lambda p: StarVector((0, 0, 1, 0, 2, 1), 5),
        "failed checks: order_chain_b, order_tail_sums, interior_shift_is_order_star\n",
        "  order_tail_sums: fail\n    j=2: 0 !>= 1\n",
    ),
}


class TestPinnedOutput:
    @pytest.mark.parametrize("command", sorted(PINNED))
    def test_text(self, write, capsys, command):
        text, expected, _ = PINNED[command]
        assert main([command, write("input.txt", text)]) == 0
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("name", sorted(PINNED_TEXT_FLOW_LARGER))
    def test_flow_text_of_larger_graphs(self, write, capsys, name):
        text, expected = PINNED_TEXT_FLOW_LARGER[name]
        assert main(["flow", write(f"{name}.graph", text)]) == 0
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("command", sorted(PINNED))
    def test_csv(self, write, tmp_path, command):
        text, _, rows = PINNED[command]
        path, csv_path = write("input.txt", text), tmp_path / "audit.csv"
        assert main([command, "--csv", str(csv_path), path]) == 0
        expected = "".join(f"{path},{row}\r\n" for row in rows.splitlines())
        assert csv_path.read_bytes().decode() == "instance,family,j,lhs,rhs,holds\r\n" + expected

    @pytest.mark.parametrize("command", sorted(INJECTED))
    def test_failed_checks_line(self, write, capsys, monkeypatch, command):
        target, fault, err, audit_lines = INJECTED[command]
        monkeypatch.setattr(target, fault)
        assert main([command, write("input.txt", PINNED[command][0])]) == 1
        captured = capsys.readouterr()
        assert captured.err == err
        assert audit_lines in captured.out


# counts and endpoints as a file may spell them: small, negative, huge, more
# digits than int() converts, digits of other scripts (Arabic-Indic three and
# fullwidth three are decimal; superscript two and Roman numeral eight are
# not), or any short text
NUMERALS = st.one_of(
    st.integers(0, 6).map(str),
    st.integers(-(10**12), -1).map(str),
    st.sampled_from(["1000", "1001", "100000000"]),
    st.integers(4301, 5000).map(lambda k: "9" * k),
    st.text(alphabet="0123456789\u0663\uff13\u00b2\u2167", min_size=1, max_size=3),
    st.text(max_size=3),
)
DIRECTIVES = ("vertices", "elements", "edge", "cover")


def file_texts(header: str, pair: str):
    """A header, up to 7 lines of the command's own pair directive, each
    with small endpoints or one odd one, then at most one line of noise: a
    repeated header, another directive or a comment."""
    small = st.integers(0, 2).map(str)
    # one_of flattens nested one_ofs, so each header is built on its own to
    # keep the small counts at half the draws
    head = st.builds(lambda c: f"{header} {c}", st.integers(3, 6)) | st.builds(
        lambda c: f"{header} {c}", NUMERALS
    )
    pairs = st.one_of(
        st.builds(lambda u, v: f"{pair} {u} {v}", small, small),
        st.builds(lambda u, v: f"{pair} {u} {v}", small, NUMERALS),
        st.builds(lambda u, v: f"{pair} {u} {v}", NUMERALS, small),
    )
    noise = st.one_of(
        head,
        st.builds(
            lambda word, fields: " ".join([word, *fields]),
            st.sampled_from(DIRECTIVES) | st.text(alphabet=string.ascii_letters, min_size=1, max_size=6),
            st.lists(NUMERALS, max_size=3),
        ),
        st.sampled_from(["", "# comment", f"{header} 3 # trailing comment"]),
    )
    return st.builds(
        lambda first, middle, last: "\n".join([first, *middle, *last]),
        head, st.lists(pairs, max_size=7), st.lists(noise, max_size=1),
    )


@pytest.mark.parametrize(
    "command, header, pair",
    [("chromatic", "vertices", "edge"), ("flow", "vertices", "edge"), ("order", "elements", "cover")],
)
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_every_file_text_ends_in_an_exit_code(tmp_path, capsys, command, header, pair, data):
    path = tmp_path / "input"
    path.write_text(data.draw(file_texts(header, pair)))
    assert main([command, str(path)]) in (0, 1, 2, 3)
    assert "Traceback" not in capsys.readouterr().err


class TestModuleEntryPoint:
    """`python -m polybinom` from a checkout, with only ``src`` on the path."""

    SRC = str(Path(__file__).resolve().parents[1] / "src")

    def run(self, tmp_path, *argv):
        env = {**os.environ, "PYTHONPATH": self.SRC}
        return subprocess.run(
            [sys.executable, *argv], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
        )

    def test_survey_exits_0(self, tmp_path):
        proc = self.run(tmp_path, "-m", "polybinom", "survey", "graphs", "--max-size", "3", "--json")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["counterexamples"] == []

    def test_cap_exits_3(self, tmp_path):
        proc = self.run(tmp_path, "-m", "polybinom", "survey", "graphs", "--max-size", "8")
        assert proc.returncode == 3
        assert proc.stderr.startswith("cap exceeded: ")

    def test_cli_does_not_import_it(self, tmp_path):
        proc = self.run(tmp_path, "-c", "import sys, polybinom.cli; print('polybinom.__main__' in sys.modules)")
        assert proc.stdout == "False\n", proc.stderr
