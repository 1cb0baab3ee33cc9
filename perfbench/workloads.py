"""Workload table, generated inputs and frozen-reference checks.

An op is one survey instance (a computed record or a verified skip) or one
single-instance CLI command.  Inputs are generated here as plain text in the
package's file formats, so polybinom is driven only through `cli.main`.
"""

from __future__ import annotations

import json
import random
from itertools import combinations
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Exhaustive surveys ignore their --seed apart from echoing it in `scope`, so
# the survey seed is pinned and the benchmark seed only orders CLI commands.
SURVEYS = {
    "survey-graphs-d6": ["survey", "graphs", "--max-size", "6", "--json"],
    "survey-posets-d6": ["survey", "posets", "--max-size", "6", "--json"],
}


def _graph_text(d: int, edges) -> str:
    return "".join([f"vertices {d}\n", *(f"edge {u} {v}\n" for u, v in edges)])


def _poset_text(d: int, covers) -> str:
    return "".join([f"elements {d}\n", *(f"cover {a} {b}\n" for a, b in covers)])


def _complete(d: int):
    return list(combinations(range(d), 2))


def _cycle(d: int):
    return [(i, (i + 1) % d) for i in range(d)]


def _wheel(d: int):
    """Hub 0 joined to a cycle on 1..d-1."""
    rim = d - 1
    return [(0, i) for i in range(1, d)] + [(1 + i, 1 + (i + 1) % rim) for i in range(rim)]


def _petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return outer + spokes + inner


# op name -> (subcommand, input file text)
CLI_COMMANDS = {
    "chromatic-K6": ("chromatic", _graph_text(6, _complete(6))),
    "chromatic-W7": ("chromatic", _graph_text(7, _wheel(7))),
    "chromatic-C7": ("chromatic", _graph_text(7, _cycle(7))),
    "flow-K5": ("flow", _graph_text(5, _complete(5))),
    "flow-petersen": ("flow", _graph_text(10, _petersen())),
    "order-antichain7": ("order", _poset_text(7, [])),
    "order-chain7": ("order", _poset_text(7, [(i, i + 1) for i in range(6)])),
}

WORKLOADS = (*SURVEYS, "cli-instances")


def workload_ops(workload: str, seed: int) -> list[str]:
    """Op names of one pass of the workload; the seed permutes CLI commands."""
    if workload in SURVEYS:
        return [workload]
    if workload == "cli-instances":
        ops = sorted(CLI_COMMANDS)
        random.Random(seed).shuffle(ops)
        return ops
    raise KeyError(workload)


def op_argv(op: str, inputs_dir: Path) -> list[str]:
    """The CLI arguments of an op; writes its input file when it has one."""
    if op in SURVEYS:
        return list(SURVEYS[op])
    command, text = CLI_COMMANDS[op]
    path = inputs_dir / f"{op}.txt"
    path.write_text(text)
    return [command, "--json", str(path)]


def op_count(op: str) -> int:
    """Ops that one invocation stands for, as fixed by its reference."""
    if op in SURVEYS:
        ref = load_reference(op)
        return len(ref["instances"]) + len(ref["skipped"])
    return 1


def load_reference(op: str) -> dict:
    return json.loads((REFERENCE_DIR / f"{op}.json").read_text())


def canonical(payload: dict) -> dict:
    """Drop the volatile `run` block; every other byte is part of the result."""
    return {k: v for k, v in payload.items() if k != "run"}


def _by_id(records: list[dict]) -> dict[str, str]:
    return {r["id"]: json.dumps(r, sort_keys=True) for r in records}


def failed_ops(op: str, exit_code: int | None, stdout: str) -> list[str]:
    """Names of the ops of one invocation that did not match their reference.

    A non-zero exit, an exception (exit_code None) or unparsable output fails
    every op of the invocation.  A survey whose summary fields differ from the
    reference also fails every op; otherwise each instance or skip record is
    compared by id.  CLI commands must match their reference JSON exactly.
    """
    ref = load_reference(op)
    if op in SURVEYS:
        every = sorted(r["id"] for r in ref["instances"] + ref["skipped"])
    else:
        every = [op]
    if exit_code != 0:
        return every
    try:
        out = canonical(json.loads(stdout))
    except ValueError:
        return every
    if op not in SURVEYS:
        return [] if out == ref else every
    summary = {k: v for k, v in out.items() if k not in ("instances", "skipped")}
    ref_summary = {k: v for k, v in ref.items() if k not in ("instances", "skipped")}
    if summary != ref_summary:
        return every
    got = {**_by_id(out.get("instances", [])), **_by_id(out.get("skipped", []))}
    want = {**_by_id(ref["instances"]), **_by_id(ref["skipped"])}
    if set(got) - set(want):
        return every
    return sorted(k for k, v in want.items() if got.get(k) != v)
