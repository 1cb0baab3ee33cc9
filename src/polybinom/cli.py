"""Command-line interface.

    polybinom chromatic FILE     chi, star vector, split, audits
    polybinom flow FILE          both flow polynomials, splits, orientation table
    polybinom order FILE         order polynomial, split, polytope oracles
    polybinom survey KIND        exhaustive/sampled theorem verification
    polybinom table1             monomial-basis inequality rows for degrees 5-7

Exit codes: 0 all checks pass, 1 counterexample found, 2 input rejected,
3 cap exceeded.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .checks import flow_checks, graph_checks, poset_checks
from .chromatic import match_reference_forms
from .errors import CapExceeded, InputFormatError, NotApplicable, PolybinomError
from .graphs import parse_graph_file
from .polynomials import inverse_transform
from .posets import parse_poset_file
from .survey import run_flow_survey, run_graph_survey, run_poset_survey

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_REJECTED = 2
EXIT_CAP = 3

# checks each command's JSON shows as booleans, in print order; the frozen
# references in perfbench/reference/ fix these names and this order
CHROMATIC_FLAGS = ("order_polynomial_sum_matches",)
FLOW_FLAGS = ("kochol_sums_match_f", "kochol_keys_totally_cyclic")
ORDER_FLAGS = (
    "top_entry_is_one",
    "reciprocity",
    "hstar_reversal_is_interior",
    "interior_shift_is_order_star",
    "descents_match_lattice_hstar",
)
# the audits `order` shows of its table, in table order
ORDER_AUDITS = ("order_tail_sums", "binomial_coefficient_bound")


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat()


def _emit_json(payload: dict) -> None:
    # streamed: joining the indented encoder's chunks would hold the report twice
    json.dump(payload, sys.stdout, indent=2, sort_keys=True)
    print()


def _audit_lines(audits) -> list[str]:
    lines = []
    for report in audits:
        lines.append(f"  {report.family}: {report.verdict}")
        for row in report.rows:
            if not row.holds:
                lines.append(f"    j={row.j}: {row.lhs} !{report.relation} {row.rhs}")
    return lines


def _write_audit_csv(handle, instance: str, audits) -> None:
    writer = csv.writer(handle)
    writer.writerow(["instance", "family", "j", "lhs", "rhs", "holds"])
    for report in audits:
        for row in report.rows:
            writer.writerow([instance, report.family, row.j, row.lhs, row.rhs, row.holds])


def _read_file(path: str) -> tuple[str, str]:
    text = Path(path).read_text()
    return text, hashlib.sha256(text.encode()).hexdigest()


def _check_edge_cap(g, cap: int | None) -> None:
    if cap is not None and g.edge_count > cap:
        raise CapExceeded(f"graph has {g.edge_count} edges, --cap-edges is {cap}")


def _flags(checked, names: tuple[str, ...]) -> dict[str, bool]:
    return {name: checked.checks[name] == "pass" for name in names}


def _graph_payload(checked, constants: str, flags: tuple[str, ...]) -> dict:
    """A graph command's JSON body: its computed quantities, whether the
    constants check `constants` passed, its audits and its flags."""
    return {
        **checked.result.to_json(),
        "constants_match_oracle": checked.checks[constants] == "pass",
        "audits": [r.to_json() for r in checked.audits],
        **_flags(checked, flags),
    }


def _exit_code(checked) -> int:
    """Exit code from the whole check table; failing checks are named on stderr."""
    if checked.failures:
        print(f"failed checks: {', '.join(checked.failures)}", file=sys.stderr)
        return EXIT_COUNTEREXAMPLE
    return EXIT_OK


def _header(digest: str, checked) -> dict:
    return {
        "schema": 1,
        "version": __version__,
        "input_sha256": digest,
        "verdict": "fail" if checked.failures else "pass",
        "run": {"timestamp": _timestamp()},
    }


def _cmd_chromatic(args) -> int:
    text, digest = _read_file(args.file)
    g = parse_graph_file(text)
    _check_edge_cap(g, args.cap_edges)
    checked = graph_checks(g)
    result = checked.result
    if args.csv:
        _write_audit_csv(args.csv, args.file, checked.audits)
    if args.json:
        payload = _graph_payload(checked, "constants_match_acyclic_oracle", CHROMATIC_FLAGS)
        _emit_json({**payload, **_header(digest, checked)})
    else:
        constants_ok = checked.checks["constants_match_acyclic_oracle"] == "pass"
        order_sum_ok = checked.checks["order_polynomial_sum_matches"] == "pass"
        print(f"graph: {g.vertex_count} vertices, {g.edge_count} edges")
        print(f"chi: {inverse_transform(result.chi_star).pretty()}")
        print(f"chi_star: {tuple(result.chi_star.entries)}")
        print(f"a: {result.split.p}")
        print(f"b: {result.split.q}")
        print(f"acyclic orientations: {result.acyclic_count}")
        print(f"constants match oracle: {constants_ok}")
        print(f"order-polynomial sum matches: {order_sum_ok}")
        print("audits:")
        print("\n".join(_audit_lines(checked.audits)))
    return _exit_code(checked)


def _cmd_flow(args) -> int:
    text, digest = _read_file(args.file)
    g = parse_graph_file(text)
    _check_edge_cap(g, args.cap_edges)
    checked = flow_checks(g)
    result = checked.result
    kochol, xi = result.kochol, result.xi
    if args.csv:
        _write_audit_csv(args.csv, args.file, checked.audits)
    if args.json:
        # the table at each bound n, its nonzero entries keyed by each
        # orientation's direction string, edge 0 first, formatted once
        m = g.edge_count
        columns = [(format(o, f"0{m}b")[::-1], column) for o, column in kochol.items()]
        table = {
            str(n): {direction: column[n - 1] for direction, column in columns if column[n - 1]}
            for n in range(1, xi + 3)
        }
        payload = {**_graph_payload(checked, "constants_match_oracles", FLOW_FLAGS), "kochol_table": table}
        _emit_json({**payload, **_header(digest, checked)})
    else:
        constants_ok = checked.checks["constants_match_oracles"] == "pass"
        kochol_ok = checked.checks["kochol_sums_match_f"] == "pass"
        print(f"graph: {g.vertex_count} vertices, {g.edge_count} edges, xi = {xi}")
        print(f"phi: {inverse_transform(result.phi_star).pretty()}")
        print(f"f: {inverse_transform(result.f_star).pretty()}")
        print(f"phi_star: {tuple(result.phi_star.entries)}")
        print(f"f_star: {tuple(result.f_star.entries)}")
        print(f"alpha: {result.phi_split.p}")
        print(f"beta: {result.phi_split.q}")
        print(f"c: {result.f_split.p}")
        print(f"d: {result.f_split.q}")
        print(f"totally cyclic orientations: {result.tc_orientation_count}")
        print(f"in-degree sequences: {result.indegree_sequence_count}")
        print(f"constants match oracles: {constants_ok}")
        print(f"orientation-sum identity (n=1..{xi + 2}): {kochol_ok}")
        top = [column[-1] for column in kochol.values() if column[-1]]
        print(f"orientation table at n={xi + 2}: {len(top)} orientations, total {sum(top)}")
        print("audits:")
        print("\n".join(_audit_lines(checked.audits)))
    return _exit_code(checked)


def _cmd_order(args) -> int:
    text, digest = _read_file(args.file)
    p = parse_poset_file(text)
    checked = poset_checks(p)
    order_poly = inverse_transform(checked.star)
    audits = [r for r in checked.audits if r.family in ORDER_AUDITS]
    if args.csv:
        _write_audit_csv(args.csv, args.file, audits)
    if args.json:
        payload = {
            "poset": p.to_json(),
            "order_polynomial": order_poly.to_json(),
            "omega_star": checked.star.to_json(),
            "a": list(checked.split.p),
            "b": list(checked.split.q),
            "hstar": checked.hstar.to_json(),
            "checks": _flags(checked, ORDER_FLAGS),
            "audits": [r.to_json() for r in audits],
        }
        _emit_json({**payload, **_header(digest, checked)})
    else:
        print(f"poset: {p.element_count} elements, covers {list(p.cover_pairs())}")
        print(f"order polynomial: {order_poly.pretty()}")
        print(f"omega_star: {tuple(checked.star.entries)}")
        print(f"a: {checked.split.p}")
        print(f"b: {checked.split.q}")
        print(f"hstar (order polytope): {tuple(checked.hstar.entries)}")
        for name, value in _flags(checked, ORDER_FLAGS).items():
            print(f"{name}: {value}")
        print("audits:")
        print("\n".join(_audit_lines(audits)))
    return _exit_code(checked)


def _cmd_survey(args) -> int:
    runners = {
        "graphs": run_graph_survey,
        "posets": run_poset_survey,
        "flows": run_flow_survey,
    }
    runner = runners[args.kind]
    report = runner(args.max_size, args.mode, args.seed)
    payload = report.to_json(timestamp=_timestamp())
    if args.csv:
        writer = csv.writer(args.csv)
        writer.writerow(["instance", "check", "verdict"])
        for inst in payload["instances"]:
            for name, verdict in sorted(inst["checks"].items()):
                writer.writerow([inst["id"], name, verdict])
    if args.json:
        _emit_json(payload)
    else:
        print(f"survey kind={args.kind} mode={args.mode} max_size={args.max_size} seed={args.seed}")
        print(f"instances: {len(report.instances)}  skipped: {len(report.skipped)}")
        for skip in report.skipped:
            print(f"  skipped {skip['id']}: {skip['reason']}")
        print(f"counterexamples: {len(report.counterexamples)}")
        for ce in report.counterexamples:
            print(f"  {ce['id']}: {ce['check']}")
        print(f"verdict: {payload['verdict']}  ({report.elapsed_seconds:.1f}s)")
    return EXIT_OK if report.ok else EXIT_COUNTEREXAMPLE


def _cmd_table1(args) -> int:
    report = match_reference_forms()
    if args.json:
        report.update({"schema": 1, "version": __version__, "run": {"timestamp": _timestamp()}})
        _emit_json(report)
    else:
        for d, block in sorted(report["degrees"].items()):
            print(f"degree {d}:")
            for j, text in block["derived"]:
                print(f"  j={j}: {text}")
            for idx, match in sorted(block["matches"].items()):
                print(f"  golden[{idx}] {match['golden']} <- derived j={match['derived_j']}")
        print(f"all golden rows matched: {report['all_matched']}")
    return EXIT_OK if report["all_matched"] else EXIT_COUNTEREXAMPLE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polybinom",
        description="Exact graph/poset counting polynomials and their decompositions.",
    )
    parser.add_argument("--version", action="version", version=f"polybinom {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_file: bool, with_edge_cap: bool = False):
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("--csv", metavar="PATH", help="write audit rows as CSV")
        if with_edge_cap:
            p.add_argument(
                "--cap-edges",
                type=int,
                metavar="M",
                default=None,
                help="reject graphs with more than M edges (exit 3)",
            )
        if with_file:
            p.add_argument("file", metavar="FILE", help="input file")

    p = sub.add_parser("chromatic", help="chromatic polynomial analysis of a graph file")
    add_common(p, with_file=True, with_edge_cap=True)
    p.set_defaults(func=_cmd_chromatic)

    p = sub.add_parser("flow", help="flow polynomial analysis of a graph file")
    add_common(p, with_file=True, with_edge_cap=True)
    p.set_defaults(func=_cmd_flow)

    p = sub.add_parser("order", help="order polynomial analysis of a poset file")
    add_common(p, with_file=True)
    p.set_defaults(func=_cmd_order)

    p = sub.add_parser("survey", help="run a verification survey")
    p.add_argument("kind", choices=["graphs", "posets", "flows"])
    p.add_argument("--max-size", type=int, default=5)
    p.add_argument("--mode", choices=["exhaustive", "sample"], default="exhaustive")
    p.add_argument("--seed", type=int, default=0)
    add_common(p, with_file=False)
    p.set_defaults(func=_cmd_survey)

    p = sub.add_parser("table1", help="derive and match the monomial-basis inequality rows")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=_cmd_table1)

    return parser


def _same_file(csv_path: str, file: str | None) -> bool:
    """Whether --csv names FILE, through any spelling or link; opening it for
    writing would empty the input before it is read."""
    try:
        return file is not None and os.path.samefile(csv_path, file)
    except OSError:  # either path missing or unreadable: not the same file
        return False


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "csv", None):
            if _same_file(args.csv, getattr(args, "file", None)):
                raise OSError(f"--csv {args.csv} names the input FILE {args.file}")
            # opened before any work, so an unwritable path fails fast; the
            # command writes its rows to the open handle
            with open(args.csv, "w", newline="") as args.csv:
                return args.func(args)
        return args.func(args)
    except (InputFormatError, NotApplicable) as exc:
        reason = getattr(exc, "reason", "parse-error")
        print(f"rejected ({reason}): {exc}", file=sys.stderr)
        return EXIT_REJECTED
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except FileNotFoundError as exc:
        print(f"rejected (missing-file): {exc}", file=sys.stderr)
        return EXIT_REJECTED
    except (OSError, UnicodeDecodeError) as exc:
        # a directory, an unreadable or non-UTF-8 FILE, or an unwritable --csv PATH
        print(f"rejected (file-error): {exc}", file=sys.stderr)
        return EXIT_REJECTED
    except PolybinomError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_REJECTED


if __name__ == "__main__":
    sys.exit(main())
