"""The shared check tables: CLI/survey parity and failures reported, not raised."""

import dataclasses
import json
import math

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from polybinom.checks import flow_checks, graph_checks, poset_checks
from polybinom.chromatic import chromatic_analysis
from polybinom.cli import EXIT_COUNTEREXAMPLE, main
from polybinom.decompositions import InequalityReport, ca_decomposition
from polybinom.flows import flow_analysis
from polybinom.graphs import (
    Multigraph,
    acyclic_orientations_up_to_reversal,
    complete_graph,
    cycle_graph,
    cyclomatic_number,
    format_graph_file,
)
from polybinom.polynomials import Polynomial
from polybinom.posets import (
    Poset,
    chain,
    ehrhart_star,
    format_poset_file,
    hstar_via_descents,
    lattice_point_counts,
    omega_star,
    poset_classes,
    strict_chain_code,
)
from polybinom.survey import (
    _graph_id,
    _poset_id,
    connected_graph_classes,
    flow_fixture_set,
    run_flow_survey,
    run_graph_survey,
    run_poset_survey,
)
from test_flows import per_bound
from test_graphs import as_direction, enumerate_acyclic_orientations
from test_posets import posets_on

# survey record field -> the CLI JSON path of the same vector
SHARED = {
    "chromatic": {"chi_star": ("chi_star", "entries"), "a": ("a",), "b": ("b",)},
    "order": {
        "omega_star": ("omega_star", "entries"),
        "hstar": ("hstar", "entries"),
        "a": ("a",),
        "b": ("b",),
    },
    "flow": {
        "phi_star": ("phi_star", "entries"),
        "f_star": ("f_star", "entries"),
        "alpha": ("alpha",),
        "beta": ("beta",),
        "c": ("c",),
        "dvec": ("d",),
    },
}


def _survey_cases():
    graphs = {_graph_id(g): g for level in connected_graph_classes(4) for g in level}
    posets = {_poset_id(p): p for level in poset_classes(4) for p in level}
    flow_instances = {**graphs, **dict(flow_fixture_set())}
    return [
        ("chromatic", run_graph_survey(4), graphs, format_graph_file),
        ("order", run_poset_survey(4), posets, format_poset_file),
        ("flow", run_flow_survey(4), flow_instances, format_graph_file),
    ]


def _lookup(payload, path):
    for key in path:
        payload = payload[key]
    return payload


def test_cli_and_survey_agree_on_every_instance(tmp_path, capsys):
    for command, report, instances, formatter in _survey_cases():
        records = {r["id"]: r for r in report.instances}
        skipped = {r["id"] for r in report.skipped}
        assert set(records) | skipped == set(instances)
        for k, (instance_id, instance) in enumerate(sorted(instances.items())):
            path = tmp_path / f"{command}-{k}.txt"
            path.write_text(formatter(instance))
            code = main([command, "--json", str(path)])
            out = capsys.readouterr().out
            if instance_id in skipped:
                assert code == 2, (command, instance_id)
                continue
            record = records[instance_id]
            verdict = "fail" if "fail" in record["checks"].values() else "pass"
            payload = json.loads(out)
            assert payload["verdict"] == verdict, (command, instance_id)
            assert code == (1 if verdict == "fail" else 0), (command, instance_id)
            for field, cli_path in SHARED[command].items():
                assert _lookup(payload, cli_path) == record[field], (command, instance_id, field)


# the table entries of each kind that are not audit reports
ORACLE_CHECKS = {
    "graph": {
        "split_reconstructs",
        "constants_match_acyclic_oracle",
        "top_entry_is_acyclic_count",
        "reciprocity_at_minus_one",
        "order_polynomial_sum_matches",
    },
    "flow": {
        "phi_split_reconstructs",
        "f_split_reconstructs",
        "constants_match_oracles",
        "phi_degree_is_xi",
        "f_degree_is_xi",
        "kochol_sums_match_f",
        "kochol_keys_totally_cyclic",
    },
    "poset": {
        "split_reconstructs",
        "top_entry_is_one",
        "constants_are_one",
        "first_entry_zero_unless_antichain",
        "descents_match_lattice_hstar",
        "reciprocity",
        "hstar_reversal_is_interior",
        "interior_shift_is_order_star",
    },
}


def _checked_instances(kind):
    if kind == "graph":
        graphs = [g for level in connected_graph_classes(4) for g in level]
        return [graph_checks(g) for g in [*graphs, complete_graph(5), cycle_graph(6)]]
    if kind == "flow":
        return [flow_checks(g) for _, g in [*flow_fixture_set(), ("K4", complete_graph(4))]]
    return [poset_checks(p) for level in poset_classes(4) for p in level]


@pytest.mark.parametrize("kind", sorted(ORACLE_CHECKS))
def test_every_audit_is_in_the_table_under_its_family(kind):
    verdicts = set()
    for checked in _checked_instances(kind):
        families = [audit.family for audit in checked.audits]
        assert len(set(families)) == len(families)
        for audit in checked.audits:
            assert checked.checks[audit.family] == audit.verdict
            verdicts.add(audit.verdict)
        assert set(checked.checks) - set(families) == ORACLE_CHECKS[kind]
    # the instances reach more than one verdict
    assert len(verdicts) > 1


def test_analyses_only_compute(monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError("an analysis built an audit report")

    h = ehrhart_star(chain(3))
    monkeypatch.setattr(InequalityReport, "__init__", refuse)
    chromatic_analysis(complete_graph(4))
    flow_analysis(complete_graph(4))
    ca_decomposition(h)
    # the checks build the reports, so the patch bites there
    with pytest.raises(AssertionError, match="audit report"):
        graph_checks(complete_graph(4))


def test_flow_checks_find_the_bridges_once(computed):
    calls, spaces = computed(Multigraph, "_search"), computed(Multigraph, "cycle_space")
    flow_checks(complete_graph(4))
    assert len(calls) == 1
    assert len(spaces) == 1
    # the flow survey asks first whether a graph above the xi cap is
    # bridgeless; each graph is still searched once, and each checked
    # instance builds one cycle space
    calls.clear()
    spaces.clear()
    report = run_flow_survey(6)
    assert any(skip["reason"] == "cap" for skip in report.skipped)
    assert len(calls) == len({id(g) for g in calls})
    assert len(calls) == len(report.instances) + len(report.skipped)
    assert len(spaces) == len({id(g) for g in spaces}) == len(report.instances)


def test_order_exit_code_follows_the_whole_table(monkeypatch, tmp_path, capsys):
    # a c part that drops after c_0 breaks the chain c_0 <= c_1 <= c_j
    split = ca_decomposition
    monkeypatch.setattr(
        "polybinom.checks.ca_decomposition",
        lambda h: dataclasses.replace(split(h), c=(1, 0, 0, 0, 1)),
    )
    path = tmp_path / "chain3.poset"
    path.write_text(format_poset_file(chain(3)))
    assert main(["order", str(path)]) == 1
    assert "failed checks: ca_chain_c" in capsys.readouterr().err
    assert main(["order", "--json", str(path)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "fail"
    assert all(payload["checks"].values())


def test_descent_disagreement_is_a_reported_failure(monkeypatch):
    # the walk loses the extension with no descent, the natural labeling itself
    def one_extension_short(p):
        h = hstar_via_descents(p)
        return dataclasses.replace(h, entries=(h.entries[0] - 1,) + h.entries[1:])

    monkeypatch.setattr("polybinom.checks.hstar_via_descents", one_extension_short)
    report = run_poset_survey(3)
    assert {inst["checks"].get("descents_match_lattice_hstar") for inst in report.instances} == {"fail"}
    assert {ce["check"] for ce in report.counterexamples} == {"descents_match_lattice_hstar"}


def test_wrong_interior_counts_are_a_reported_failure(monkeypatch, tmp_path, capsys):
    def one_too_many(p, top, *, interior=False):
        counts = lattice_point_counts(p, top, interior=interior)
        return [count + 1 for count in counts] if interior else counts

    monkeypatch.setattr("polybinom.posets.lattice_point_counts", one_too_many)
    path = tmp_path / "chain3.poset"
    path.write_text(format_poset_file(chain(3)))
    assert main(["order", str(path)]) == 1
    assert "hstar_reversal_is_interior" in capsys.readouterr().err


def test_order_route_builds_no_polynomial(monkeypatch):
    def refuse(self, coeffs=()):
        raise AssertionError("a Polynomial was built on the order route")

    monkeypatch.setattr(Polynomial, "__init__", refuse)
    assert omega_star(chain(3)).entries == (0, 0, 0, 1)
    report = run_poset_survey(4)
    assert report.ok and len(report.instances) == 24


def test_graph_survey_builds_no_polynomial(monkeypatch):
    # chi is built only where it is shown, and a survey shows none
    def refuse(self, coeffs=()):
        raise AssertionError("a Polynomial was built on the graph survey")

    monkeypatch.setattr(Polynomial, "__init__", refuse)
    report = run_graph_survey(4)
    assert report.ok and len(report.instances) == 10


def test_flow_survey_builds_one_polynomial_per_instance(monkeypatch):
    # phi and f are shown by no survey: only phi's integer-coefficient test
    # builds a polynomial
    built = []
    init = Polynomial.__init__

    def counted(self, coeffs=()):
        built.append(self)
        init(self, coeffs)

    monkeypatch.setattr(Polynomial, "__init__", counted)
    report = run_flow_survey(5)
    assert report.ok and report.instances
    assert len(built) == len(report.instances)


def test_poset_checks_plan_each_walk_once(computed):
    # both lattice walks, closed and interior, read one plan per poset
    planned = computed(Poset, "_walk_plan")
    for p in posets_on(4):
        planned.clear()
        assert not poset_checks(p).failures
        assert planned == [p]


def test_poset_checks_label_each_poset_once(computed):
    # both lattice walks and the descent walk read one natural labeling
    labeled = computed(Poset, "natural_labeling")
    for p in posets_on(4):
        labeled.clear()
        assert not poset_checks(p).failures
        assert labeled == [p]


def test_flow_checks_scan_once(monkeypatch):
    import polybinom.flows as flows
    from polybinom.graphs import complete_graph
    from test_flows import integral_halves, scan_halves

    calls, widths, pairs = [], [], []
    tables, halves, kept = flows.kochol_tables, flows._half_sums, flows._kept_pairs

    def counted(g, top):
        calls.append(top)
        return tables(g, top)

    def counted_halves(rows, split, values, keep):
        widths.append(len(values))
        return halves(rows, split, values, keep)

    def counted_pairs(a, b, top):
        pairs.append(0)
        for start, ok, peak in kept(a, b, top):
            pairs[-1] += ok.size
            yield start, ok, peak

    monkeypatch.setattr(flows, "kochol_tables", counted)
    monkeypatch.setattr(flows, "_half_sums", counted_halves)
    monkeypatch.setattr(flows, "_kept_pairs", counted_pairs)
    g = complete_graph(4)
    checked = flow_checks(g)
    assert calls == [5]  # one scan at the top bound n = xi+2 with xi = 3
    # n = 1 needs no scan; then one modular grid of width n-1 for each
    # n = 2..5 and exactly one integral grid, of width 2(xi+1)
    assert sorted(widths) == [n - 1 for n in range(2, 6)] + [8]
    # each scan tests the pairs of the combinations its halves keep on their
    # local rows: off 0 mod n in the modular scans; in the integral scan,
    # 0 < |s| < 5, and only the flows positive on half b's last coordinate
    modular = [scan_halves(g, range(1, n), lambda s, n=n: s % n != 0) for n in range(2, 6)]
    _, kept_a, kept_b = integral_halves(g, 5)
    assert pairs == [a * b for _, a, b in modular] + [kept_a * kept_b]
    assert not checked.failures


def _flow_cli_verdicts(tmp_path, capsys, g):
    """Exit code and failed checks of `flow` on g, and its JSON flags."""
    path = tmp_path / "instance.graph"
    path.write_text(format_graph_file(g))
    code = main(["flow", str(path)])
    err = capsys.readouterr().err
    assert main(["flow", "--json", str(path)]) == code
    payload = json.loads(capsys.readouterr().out)
    flags = {name: payload[name] for name in ("kochol_sums_match_f", "kochol_keys_totally_cyclic")}
    return code, err, flags


def test_unmirrored_tables_are_a_reported_failure(monkeypatch, tmp_path, capsys):
    # the scan credits each flow's orientation and its reverse; a table that
    # keeps one of each pair misses half the totally cyclic orientations
    import polybinom.flows as flows

    scan = flows.kochol_tables

    def halved(g, top):
        m = g.edge_count
        columns = scan(g, top)
        kept = [o for o in per_bound(columns, top)[top] if as_direction(o, m) < as_direction(o ^ (1 << m) - 1, m)]
        return {o: columns[o] for o in kept}

    monkeypatch.setattr(flows, "kochol_tables", halved)
    code, err, flags = _flow_cli_verdicts(tmp_path, capsys, complete_graph(4))
    assert code == EXIT_COUNTEREXAMPLE
    assert "kochol_keys_totally_cyclic" in err
    assert flags["kochol_keys_totally_cyclic"] is False


def test_column_with_a_negative_star_entry_is_a_reported_failure(monkeypatch, tmp_path, capsys):
    # moving c * C(n+xi-i, xi) between two columns keeps every column of
    # degree <= xi and every sum, so f is unchanged and the node holds; only
    # the sign of star entry i of the first column sees it
    import polybinom.flows as flows
    from polybinom.polynomials import star_from_values

    scan = flows.kochol_tables

    def shifted(g, top):
        columns = scan(g, top)
        xi = cyclomatic_number(g)
        first, second = list(per_bound(columns, top)[top])[:2]
        star = star_from_values(columns[first], xi, start=1)
        i = 2
        c = star.entries[i] + 1
        moved = [c * math.comb(n + xi - i, xi) for n in range(1, top + 1)]
        columns[first] = tuple(k - x for k, x in zip(columns[first], moved))
        columns[second] = tuple(k + x for k, x in zip(columns[second], moved))
        assert star_from_values(columns[first], xi, start=1).entries[i] == -1
        return columns

    monkeypatch.setattr(flows, "kochol_tables", shifted)
    code, err, flags = _flow_cli_verdicts(tmp_path, capsys, complete_graph(4))
    assert code == EXIT_COUNTEREXAMPLE
    assert err == "failed checks: kochol_sums_match_f\n"
    assert flags == {"kochol_sums_match_f": False, "kochol_keys_totally_cyclic": True}


def test_misbucketed_flow_is_a_reported_failure(monkeypatch, tmp_path, capsys):
    # moving one flow between two orientations at n = xi+2 leaves every
    # bucket sum, and so f, unchanged; only the per-orientation columns see it
    import polybinom.flows as flows
    from polybinom.graphs import complete_graph

    scan = flows.kochol_tables

    def moved(g, top):
        columns = scan(g, top)
        assert top == cyclomatic_number(g) + 2
        first, second = list(per_bound(columns, top)[top])[:2]
        *below, at_top = columns[first]
        columns[first] = (*below, at_top - 1)
        *below, at_top = columns[second]
        columns[second] = (*below, at_top + 1)
        return columns

    monkeypatch.setattr(flows, "kochol_tables", moved)
    path = tmp_path / "k4.graph"
    path.write_text(format_graph_file(complete_graph(4)))
    assert main(["flow", str(path)]) == 1
    assert "failed checks: kochol_sums_match_f\n" in capsys.readouterr().err
    assert main(["flow", "--json", str(path)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["kochol_sums_match_f"] is False
    assert payload["kochol_keys_totally_cyclic"] is True


def test_empty_table_is_a_reported_failure(monkeypatch, tmp_path, capsys):
    # f is summed over all xi+2 bounds even when no column is left, so a
    # scan that loses every flow fails checks instead of raising
    import polybinom.flows as flows

    monkeypatch.setattr(flows, "kochol_tables", lambda g, top: {})
    code, err, flags = _flow_cli_verdicts(tmp_path, capsys, complete_graph(4))
    assert code == EXIT_COUNTEREXAMPLE
    assert "f_degree_is_xi" in err and "kochol_keys_totally_cyclic" in err
    assert flags == {"kochol_sums_match_f": True, "kochol_keys_totally_cyclic": False}


def test_graph_checks_enumerate_acyclic_orientations_once(monkeypatch):
    import polybinom.chromatic as chromatic
    from polybinom.checks import graph_checks
    from polybinom.graphs import complete_graph

    calls = []
    enumerate_once = chromatic.acyclic_orientations_up_to_reversal

    def counted(g):
        calls.append(g)
        return enumerate_once(g)

    monkeypatch.setattr(chromatic, "acyclic_orientations_up_to_reversal", counted)
    checked = graph_checks(complete_graph(4))
    assert len(calls) == 1
    assert checked.checks["order_polynomial_sum_matches"] == "pass"
    assert checked.result.acyclic_count == 24


def _field(k: int, d: int) -> int:
    # field k of a chain code on d elements sits at bit k * d * d.bit_length()
    return 1 << k * d * d.bit_length()


# two ways to miscount one orientation's chain code: a chain of length d+1,
# which no walk on d elements has and which moves only the count at the node
# n = d+1, which no degree-d polynomial then fits; and one more chain of
# length 1, which adds n at every n, fits degree d, but changes the star vector
MISCOUNTS = {
    "breaks_node": lambda code, d: code + _field(d + 1, d),
    "fits_degree": lambda code, d: code + _field(1, d),
}


def _miscount_first_orientation(monkeypatch, miscount):
    import polybinom.chromatic as chromatic

    calls = []

    def miscounted(above):
        calls.append(above)
        code = strict_chain_code(above)
        return miscount(code, len(above)) if len(calls) == 1 else code

    monkeypatch.setattr(chromatic, "strict_chain_code", miscounted)


@pytest.mark.parametrize("miscount", MISCOUNTS.values(), ids=MISCOUNTS.keys())
def test_miscounted_orientation_is_a_reported_failure(monkeypatch, tmp_path, capsys, miscount):
    _miscount_first_orientation(monkeypatch, miscount)
    checked = graph_checks(complete_graph(4))
    assert checked.failures == ["order_polynomial_sum_matches"]

    _miscount_first_orientation(monkeypatch, miscount)
    report = run_graph_survey(4)
    assert [ce["check"] for ce in report.counterexamples] == ["order_polynomial_sum_matches"]

    _miscount_first_orientation(monkeypatch, miscount)
    path = tmp_path / "k4.graph"
    path.write_text(format_graph_file(complete_graph(4)))
    assert main(["chromatic", str(path)]) == EXIT_COUNTEREXAMPLE
    assert capsys.readouterr().err == "failed checks: order_polynomial_sum_matches\n"


def _corrupt_first_orientation(monkeypatch):
    import polybinom.chromatic as chromatic

    enumerate_orders = chromatic.acyclic_orientations_up_to_reversal

    def corrupted(g):
        # on K4 only, 0 < 1 < 0: the masks of no order, which no runtime
        # validation refuses
        orders = enumerate_orders(g)
        if g != complete_graph(4):
            return orders
        first, *rest = orders
        return [(0b010, 0b001, *first[2:]), *rest]

    monkeypatch.setattr(chromatic, "acyclic_orientations_up_to_reversal", corrupted)


def test_corrupted_orientation_is_a_reported_failure(monkeypatch, tmp_path, capsys):
    # the walk needs no closed order, and a cyclic one counts 0 at every n,
    # so the cross-route sum misses chi and the check fails
    _corrupt_first_orientation(monkeypatch)
    checked = graph_checks(complete_graph(4))
    assert checked.failures == ["order_polynomial_sum_matches"]

    report = run_graph_survey(4)
    assert report.counterexamples == [
        {"id": _graph_id(complete_graph(4)), "check": "order_polynomial_sum_matches"}
    ]

    path = tmp_path / "k4.graph"
    path.write_text(format_graph_file(complete_graph(4)))
    assert main(["chromatic", str(path)]) == EXIT_COUNTEREXAMPLE
    assert capsys.readouterr().err == "failed checks: order_polynomial_sum_matches\n"


# two ways to get the halving wrong: lose one order of the halved list, or
# forget to fix edge 0 and list every orientation, each then counted twice
WRONG_HALVES = {
    "one_order_dropped": lambda g: acyclic_orientations_up_to_reversal(g)[1:],
    "edge_0_free": enumerate_acyclic_orientations,
}


@pytest.mark.parametrize("search", WRONG_HALVES.values(), ids=WRONG_HALVES.keys())
@pytest.mark.parametrize("g", [complete_graph(4), cycle_graph(5)], ids=["K4", "C5"])
def test_wrong_halving_is_a_reported_failure(monkeypatch, g, search):
    monkeypatch.setattr("polybinom.chromatic.acyclic_orientations_up_to_reversal", search)
    assert graph_checks(g).failures == [
        "constants_match_acyclic_oracle",
        "top_entry_is_acyclic_count",
        "reciprocity_at_minus_one",
        "order_polynomial_sum_matches",
    ]


@pytest.mark.parametrize("g", [complete_graph(4), cycle_graph(5)], ids=["K4", "C5"])
def test_graph_checks_close_no_order_twice(monkeypatch, g):
    # the orientation search hands over each order already closed, so the
    # order-polynomial cross-route walks each one once, as the search left it
    walked = []

    def counting(above):
        walked.append(above)
        return strict_chain_code(above)

    monkeypatch.setattr("polybinom.chromatic.strict_chain_code", counting)
    checked = graph_checks(g)
    assert checked.failures == []
    assert checked.checks["order_polynomial_sum_matches"] == "pass"
    orders = checked.result.acyclic_orientations
    assert len(walked) == len(orders)
    assert all(seen is order for seen, order in zip(walked, orders))


@st.composite
def relabeled_multigraphs(draw, max_d=5, max_m=8):
    """A loopless multigraph and a copy with its vertices permuted and the
    reference orientation of some edges reversed."""
    d = draw(st.integers(min_value=2, max_value=max_d))
    pairs = st.tuples(st.integers(0, d - 1), st.integers(1, d - 1)).map(
        lambda e: (e[0], (e[0] + e[1]) % d)
    )
    edges = draw(st.lists(pairs, max_size=max_m))
    perm = draw(st.permutations(range(d)))
    flips = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    moved = tuple(
        (perm[v], perm[u]) if flip else (perm[u], perm[v]) for (u, v), flip in zip(edges, flips)
    )
    return Multigraph(d, tuple(edges)), Multigraph(d, moved)


@given(relabeled_multigraphs())
@settings(max_examples=100, deadline=None)
def test_chromatic_checks_ignore_labels_and_reference_orientations(graphs):
    g, moved = graphs
    before, after = graph_checks(g), graph_checks(moved)
    assert after.result.chi_star == before.result.chi_star
    assert after.checks == before.checks


@given(relabeled_multigraphs(max_d=4, max_m=7))
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
def test_flow_checks_ignore_labels_and_reference_orientations(graphs):
    g, moved = graphs
    assume(not g.bridges and 1 <= cyclomatic_number(g) <= 3)
    # the Kochol tables are keyed on edge directions, which the reversals
    # change, so only their verdicts are compared
    before, after = flow_checks(g), flow_checks(moved)
    assert after.result.phi_star == before.result.phi_star
    assert after.result.f_star == before.result.f_star
    assert after.checks == before.checks
