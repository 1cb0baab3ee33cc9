"""Acceptance suite: one test per exit criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every expected value asserted here was recomputed by the in-repo
brute-force oracles (orientation enumeration, lattice-point counting, dense
flow scans) before being frozen.
"""

import json
import random
import time
from pathlib import Path

import pytest

from polybinom.cli import main
from polybinom.chromatic import chromatic_analysis, chromatic_star, match_reference_forms
from polybinom.decompositions import ca_decomposition
from polybinom.flows import flow_analysis
from polybinom.graphs import complete_graph, cycle_graph, dipole, format_graph_file, path_graph
from polybinom.polynomials import Polynomial, inverse_transform, star_from_values
from polybinom.posets import antichain, ehrhart_star
from polybinom.survey import run_flow_survey, run_graph_survey, run_poset_survey
from test_chromatic import wheel_graph
from test_flows import PETERSEN
from test_polynomials import evaluate

REFERENCE_DIR = Path(__file__).resolve().parents[1] / "perfbench" / "reference"

GRAPH_LIMIT_S = 300.0
POSET_LIMIT_S = 120.0
FLOW_LIMIT_S = 600.0
TABLE_LIMIT_S = 1.0


def _verdict(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {criterion}: {status}{suffix}")


@pytest.fixture(scope="module")
def graph_survey():
    t0 = time.perf_counter()
    report = run_graph_survey(6)
    report.elapsed_seconds = time.perf_counter() - t0
    return report


@pytest.fixture(scope="module")
def poset_survey():
    t0 = time.perf_counter()
    report = run_poset_survey(5)
    report.elapsed_seconds = time.perf_counter() - t0
    return report


@pytest.fixture(scope="module")
def flow_survey():
    t0 = time.perf_counter()
    report = run_flow_survey(6)
    report.elapsed_seconds = time.perf_counter() - t0
    return report


def check_column(report, name: str) -> list[str]:
    """One check's verdict on every instance of a survey, "absent" where the
    instance has no such check."""
    return [inst["checks"].get(name, "absent") for inst in report.instances]


def _columns_clean(report, names) -> bool:
    return all(
        all(v in ("pass", "vacuous") for v in check_column(report, name)) for name in names
    )


def test_criterion_1_monomial_basis_table():
    t0 = time.perf_counter()
    report = match_reference_forms()
    elapsed = time.perf_counter() - t0
    ok = report["all_matched"] and elapsed < TABLE_LIMIT_S
    _verdict("1 monomial-basis table d=5..7", ok, f"{elapsed:.3f}s")
    assert report["all_matched"], report
    assert elapsed < TABLE_LIMIT_S


def test_criterion_2_chromatic_split_exhaustive(graph_survey):
    checks = [
        "split_reconstructs",
        "constants_match_acyclic_oracle",
        "chromatic_chain_a",
        "chromatic_chain_b",
        "chromatic_a_positive",
        "chromatic_b_positive",
    ]
    count_ok = len(graph_survey.instances) == 143
    clean = _columns_clean(graph_survey, checks)
    time_ok = graph_survey.elapsed_seconds < GRAPH_LIMIT_S
    ok = count_ok and clean and not graph_survey.counterexamples and time_ok
    _verdict(
        "2 chromatic split on 143 connected graphs",
        ok,
        f"{len(graph_survey.instances)} instances, {graph_survey.elapsed_seconds:.1f}s",
    )
    assert count_ok
    assert clean
    assert graph_survey.counterexamples == []
    assert time_ok


def test_criterion_3_order_polynomial_sum_exhaustive(graph_survey):
    column = check_column(graph_survey, "order_polynomial_sum_matches")
    ok = len(column) == 143 and all(v == "pass" for v in column)
    _verdict("3 order-polynomial sum equals chi star on 143 graphs", ok)
    assert ok


def test_criterion_4_poset_splits_exhaustive(poset_survey):
    counts_ok = poset_survey.scope.get("class_counts") == [1, 2, 5, 16, 63]
    count_ok = len(poset_survey.instances) == 87
    checks = [
        "split_reconstructs",
        "top_entry_is_one",
        "constants_are_one",
        "order_chain_a",
        "order_chain_b",
        "order_chain_a_positive",
        "order_chain_b_positive",
        "order_tail_sums",
        "binomial_coefficient_bound",
    ]
    clean = _columns_clean(poset_survey, checks)
    time_ok = poset_survey.elapsed_seconds < POSET_LIMIT_S
    ok = counts_ok and count_ok and clean and not poset_survey.counterexamples and time_ok
    _verdict(
        "4 order splits on 87 poset classes",
        ok,
        f"{len(poset_survey.instances)} classes, {poset_survey.elapsed_seconds:.1f}s",
    )
    assert counts_ok, poset_survey.scope
    assert count_ok
    assert clean
    assert poset_survey.counterexamples == []
    assert time_ok


def test_criterion_5_order_polytope_oracles(poset_survey):
    checks = [
        "descents_match_lattice_hstar",
        "reciprocity",
        "hstar_reversal_is_interior",
        "interior_shift_is_order_star",
    ]
    clean = _columns_clean(poset_survey, checks)
    counted = all(len(check_column(poset_survey, name)) == 87 for name in checks)
    ok = clean and counted
    _verdict("5 order-polytope oracle agreement on 87 classes", ok)
    assert ok


def test_criterion_6_flow_splits_with_fixtures(flow_survey):
    fixture_ids = {"dipole2", "dipole3", "dipole4", "dipole5", "theta", "k4_doubled_edge"}
    present = fixture_ids <= {inst["id"] for inst in flow_survey.instances}
    xi_ok = all(1 <= inst["xi"] <= 5 for inst in flow_survey.instances)
    checks = [
        "phi_split_reconstructs",
        "f_split_reconstructs",
        "constants_match_oracles",
        "modular_chain_alpha",
        "modular_chain_beta",
        "integral_chain_c",
        "integral_chain_d",
        "modular_alpha_positive",
        "modular_beta_positive",
        "integral_c_positive",
        "integral_d_positive",
        "flow_tail_sums_base[phi]",
        "flow_tail_sums_shifted[phi]",
        "flow_tail_sums_base[f]",
        "flow_tail_sums_shifted[f]",
        "flow_mirror",
        "kochol_sums_match_f",
        "kochol_keys_totally_cyclic",
    ]
    clean = _columns_clean(flow_survey, checks)
    time_ok = flow_survey.elapsed_seconds < FLOW_LIMIT_S
    ok = present and xi_ok and clean and not flow_survey.counterexamples and time_ok
    _verdict(
        "6 flow splits on bridgeless graphs and fixtures",
        ok,
        f"{len(flow_survey.instances)} instances, {flow_survey.elapsed_seconds:.1f}s",
    )
    assert present
    assert xi_ok
    assert clean
    assert flow_survey.counterexamples == []
    assert time_ok


def test_criterion_7_fixture_regressions():
    k3 = chromatic_star(complete_graph(3))
    p3 = chromatic_analysis(path_graph(3))
    double = flow_analysis(dipole(2))
    theta = flow_analysis(dipole(3))
    square_hstar = ehrhart_star(antichain(2))
    square_ca = ca_decomposition(square_hstar)
    checks = {
        "K3 chi_star": k3.entries == (0, 0, 0, 6),
        "P3 a": p3.split.p == (4, 6, 6, 4),
        "P3 b": p3.split.q == (4, 6, 4),
        "double edge phi_star": double.phi_star.entries == (0, 0, 1),
        "double edge f_star": double.f_star.entries == (0, 0, 2),
        "theta c": theta.f_split.p == (6, 6, 6, 6),
        "theta |T|": theta.tc_orientation_count == 6,
        "unit square hstar": square_hstar.entries == (1, 1, 0),
        "unit square a": square_ca.a == (1, 2, 1),
        "unit square c": square_ca.c == (1, 2, 2, 1),
    }
    ok = all(checks.values())
    _verdict("7 fixture regressions", ok, "" if ok else str([k for k, v in checks.items() if not v]))
    assert ok, checks


def test_criterion_8_transform_round_trip():
    rng = random.Random(20240815)
    t0 = time.perf_counter()
    for trial in range(1000):
        degree = rng.randint(0, 10)
        coeffs = [rng.randint(-999, 999) for _ in range(degree + 1)]
        actual_degree = max((k for k, c in enumerate(coeffs) if c), default=0)
        bound = actual_degree + rng.randint(0, 3)
        for start in (0, 1):
            v = star_from_values([evaluate(coeffs, start + j) for j in range(bound + 1)], bound, start)
            assert inverse_transform(v) == Polynomial(coeffs), (trial, coeffs, bound, start)
    elapsed = time.perf_counter() - t0
    _verdict("8 transform round trip, 1000 random polynomials", True, f"{elapsed:.1f}s")


def _reference(name: str) -> dict:
    return json.loads((REFERENCE_DIR / f"{name}.json").read_text())


def _by_id(records) -> dict[str, str]:
    return {r["id"]: json.dumps(r, sort_keys=True) for r in records}


def test_surveys_match_frozen_references(graph_survey, poset_survey):
    graphs = _reference("survey-graphs-d6")
    got = graph_survey.to_json()
    assert _by_id(got["instances"]) == _by_id(graphs["instances"])
    assert _by_id(got["skipped"]) == _by_id(graphs["skipped"])
    posets = _reference("survey-posets-d6")
    expected = [r for r in posets["instances"] if r["d"] <= 5]
    assert _by_id(poset_survey.to_json()["instances"]) == _by_id(expected)
    _verdict("9 graph (d<=6) and poset (d<=5) survey records match the frozen references", True)


@pytest.mark.parametrize(
    "name, text",
    [
        ("order-antichain7", "elements 7\n"),
        ("order-chain7", "elements 7\n" + "".join(f"cover {i} {i + 1}\n" for i in range(6))),
    ],
)
def test_order_json_matches_frozen_reference(name, text, tmp_path, capsys):
    path = tmp_path / f"{name}.txt"
    path.write_text(text)
    assert main(["order", "--json", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    payload.pop("run")
    assert payload == _reference(name)


@pytest.mark.parametrize(
    "name, command, g",
    [
        ("chromatic-K6", "chromatic", complete_graph(6)),
        ("chromatic-W7", "chromatic", wheel_graph(6)),
        ("chromatic-C7", "chromatic", cycle_graph(7)),
        ("flow-K5", "flow", complete_graph(5)),
        ("flow-petersen", "flow", PETERSEN),
    ],
)
def test_graph_json_matches_frozen_reference(name, command, g, tmp_path, capsys):
    path = tmp_path / f"{name}.txt"
    path.write_text(format_graph_file(g))
    assert main([command, "--json", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    payload.pop("run")
    assert payload == _reference(name)
