"""End-to-end and per-layer benchmark of polybinom.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every op runs `polybinom.cli.main`
in-process in a fresh interpreter (worker.py), one at a time, so the
chromatic memo and any later cache start cold, as for a user's command.  Ops
repeat in whole passes of the workload until S seconds have passed; each op
is checked against the frozen references in perfbench/reference.

--trace 0 prints the end-to-end metrics:
  verified_per_s  ops that matched their reference, per second inside cli.main
  setup_s         median time from spawning an interpreter to its first
                  cli.main call (imports and input files), over five set-up
                  probes plus every op
  peak_rss_mb     largest peak resident set of any op's process
  cpu_per_wall    user plus system CPU seconds per wall second inside cli.main

--trace 1 runs one untraced pass, then traced passes until S seconds have
passed, and prints the per-layer metrics: calls, self and total seconds of the
wrapped functions (medians over traced passes), work counts (which must repeat
exactly from pass to pass) and the tracing overhead, traced minus untraced
wall time.  Spans and the full per-function table are written to
.perfbench_work/trace-<workload>/.

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  The seed only permutes the order of the
cli-instances commands; no reference depends on it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
SETUP_PROBES = 5
OP_TIMEOUT_S = 170

# (metric name, wrapped function, statistic) for the per-layer block.
LAYER_STATS = [
    ("posets.omega_star.calls", "posets.omega_star", "calls"),
    ("posets.omega_star.total_s", "posets.omega_star", "total_s"),
    ("posets.strict_order_poly.self_s", "posets.strict_order_poly", "self_s"),
    ("polynomials.interpolate.self_s", "polynomials.interpolate", "self_s"),
    ("polynomials.binomial_transform.self_s", "polynomials.binomial_transform", "self_s"),
    ("graphs.orientation_to_poset.self_s", "graphs.orientation_to_poset", "self_s"),
    ("chromatic.star_via_order_polynomials.total_s", "chromatic.star_via_order_polynomials", "total_s"),
    ("graphs.enumerate_acyclic_orientations.calls", "graphs.enumerate_acyclic_orientations", "calls"),
    ("graphs.enumerate_acyclic_orientations.self_s", "graphs.enumerate_acyclic_orientations", "self_s"),
    ("graphs.enumerate_acyclic_orientations.tried", "graphs.enumerate_acyclic_orientations", "tried"),
    ("graphs.enumerate_acyclic_orientations.kept", "graphs.enumerate_acyclic_orientations", "kept"),
    ("graphs.enumerate_totally_cyclic_orientations.calls", "graphs.enumerate_totally_cyclic_orientations", "calls"),
    ("graphs.enumerate_totally_cyclic_orientations.self_s", "graphs.enumerate_totally_cyclic_orientations", "self_s"),
    ("graphs.enumerate_totally_cyclic_orientations.tried", "graphs.enumerate_totally_cyclic_orientations", "tried"),
    ("graphs.enumerate_totally_cyclic_orientations.kept", "graphs.enumerate_totally_cyclic_orientations", "kept"),
    ("survey.connected_graph_classes.total_s", "survey.connected_graph_classes", "total_s"),
    ("survey.graph_family.tried", "survey.connected_graph_classes", "tried"),
    ("survey.graph_family.kept", "survey.connected_graph_classes", "kept"),
    ("graphs.graph_certificate.calls", "graphs.graph_certificate", "calls"),
    ("graphs.graph_certificate.self_s", "graphs.graph_certificate", "self_s"),
    ("graphs.graph_certificate.total_s", "graphs.graph_certificate", "total_s"),
    ("posets.generate_posets.calls", "posets.generate_posets", "calls"),
    ("posets.generate_posets.total_s", "posets.generate_posets", "total_s"),
    ("posets.generate_posets.tried", "posets.generate_posets", "tried"),
    ("posets.generate_posets.kept", "posets.generate_posets", "kept"),
    ("posets.poset_certificate.calls", "posets.poset_certificate", "calls"),
    ("posets.poset_certificate.self_s", "posets.poset_certificate", "self_s"),
    # the two lattice-point oracles count through order_polytope_points, so
    # their own self time is near zero; their totals and its self time move
    ("posets.ehrhart_polynomial.total_s", "posets.ehrhart_polynomial", "total_s"),
    ("posets.interior_point_count.total_s", "posets.interior_point_count", "total_s"),
    ("posets.order_polytope_points.self_s", "posets.order_polytope_points", "self_s"),
    ("posets.hstar_via_descents.self_s", "posets.hstar_via_descents", "self_s"),
    ("flows.flow_analysis.total_s", "flows.flow_analysis", "total_s"),
    ("chromatic.chromatic_polynomial.total_s", "chromatic.chromatic_polynomial", "total_s"),
    ("cli.main.self_s", "cli.main", "self_s"),
    ("cli.main.total_s", "cli.main", "total_s"),
]
for _fn in ("flows.modular_flow_count", "flows.integral_flow_count", "flows.kochol_orientation_counts"):
    LAYER_STATS += [(f"{_fn}.{stat}", _fn, key) for stat, key in
                    (("self_s", "self_s"), ("candidates", "tried"), ("kept", "kept"))]

# (metric name, numerator metric, denominator metric)
LAYER_RATIOS = [
    ("graphs.enumerate_acyclic_orientations.kept_ratio",
     "graphs.enumerate_acyclic_orientations.kept", "graphs.enumerate_acyclic_orientations.tried"),
    ("graphs.enumerate_totally_cyclic_orientations.kept_ratio",
     "graphs.enumerate_totally_cyclic_orientations.kept", "graphs.enumerate_totally_cyclic_orientations.tried"),
    ("survey.graph_family.kept_ratio", "survey.graph_family.kept", "survey.graph_family.tried"),
    ("posets.generate_posets.kept_ratio", "posets.generate_posets.kept", "posets.generate_posets.tried"),
] + [
    (f"{fn}.kept_ratio", f"{fn}.kept", f"{fn}.candidates")
    for fn in ("flows.modular_flow_count", "flows.integral_flow_count", "flows.kochol_orientation_counts")
]

SURVEY_DRIVERS = ("survey.run_graph_survey", "survey.run_poset_survey")


def child_env() -> dict:
    return dict(
        os.environ,
        PYTHONPATH=str(ROOT / "src"),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
    )


class Runner:
    """Spawns worker interpreters one at a time and collects their records."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.env = child_env()
        self.count = 0
        self.setups: list[float] = []

    def spawn(self, mode: str, op: str, spans: Path | None = None) -> dict:
        self.count += 1
        result = self.workdir / f"result-{self.count}.json"
        cmd = [sys.executable, str(HERE / "worker.py"), mode, op, str(self.workdir), str(result)]
        if spans is not None:
            cmd.append(str(spans))
        spawned = time.perf_counter()
        proc = subprocess.run(
            cmd, cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, timeout=OP_TIMEOUT_S, check=False,
        )
        if proc.returncode != 0 or not result.exists():
            raise RuntimeError(f"worker {mode} {op} exited {proc.returncode}: {proc.stderr[-2000:]}")
        record = json.loads(result.read_text())
        if mode != "trace":
            self.setups.append(record["ready"] - spawned)
        return record

    def run_pass(self, ops: list[str], mode: str, spans_dir: Path | None = None) -> list[dict]:
        records = []
        for op in ops:
            spans = spans_dir / f"spans-{op}.csv" if spans_dir is not None else None
            record = self.spawn(mode, op, spans)
            for name in record["failed_ops"]:
                print(f"FAILED {op}: {name} (exit {record['exit']}) {record['stderr'].strip()}",
                      file=sys.stderr)
            records.append(record)
        return records


def end_to_end(runner: Runner, ops: list[str], seconds: float) -> tuple[list[dict], dict]:
    for _ in range(SETUP_PROBES):
        runner.spawn("setup", ops[0])
    records: list[dict] = []
    start = time.perf_counter()
    while not records or time.perf_counter() - start < seconds:
        records += runner.run_pass(ops, "run")
    wall = sum(r["wall_s"] for r in records)
    verified = sum(r["attempted"] - len(r["failed_ops"]) for r in records)
    metrics = {
        "verified_per_s": (verified / wall, "1/s"),
        "setup_s": (statistics.median(runner.setups), "s"),
        "peak_rss_mb": (max(r["maxrss_kb"] for r in records) / 1024, "MB"),
        "cpu_per_wall": (sum(r["cpu_s"] for r in records) / wall, "ratio"),
    }
    return records, metrics


def _sum_layers(records: list[dict]) -> tuple[dict, int]:
    """Sum one pass's per-function tables; count distinct omega_star classes."""
    table: dict[str, dict] = {}
    certificates: set[tuple] = set()
    for r in records:
        for name, stats in r["layers"].items():
            row = table.setdefault(name, {})
            for key, value in stats.items():
                if key == "certificates":
                    certificates.update(tuple(c) for c in value)
                else:
                    row[key] = row.get(key, 0) + value
    return table, len(certificates)


def _layer_metrics(records: list[dict]) -> tuple[dict[str, float], dict]:
    table, distinct = _sum_layers(records)
    out = {}
    for metric, fn, key in LAYER_STATS:
        out[metric] = table.get(fn, {}).get(key, 0)
    for metric, num, den in LAYER_RATIOS:
        out[metric] = out[num] / out[den] if out[den] else 0.0
    calls = out["posets.omega_star.calls"]
    out["posets.omega_star.distinct_ratio"] = distinct / calls if calls else 0.0
    out["decompositions.audits.self_s"] = sum(
        row["self_s"] for name, row in table.items() if name.startswith("decompositions.")
    )
    driver = sum(table.get(fn, {}).get("self_s", 0.0) for fn in SURVEY_DRIVERS)
    out["survey.driver.self_s"] = driver
    out["survey.driver.self_share"] = driver / sum(r["wall_s"] for r in records)
    out["trace.spans"] = sum(r["spans"] for r in records)
    return out, table


# Work counts and ratios of counts must repeat exactly from pass to pass.
COUNT_SUFFIXES = (".calls", ".tried", ".kept", ".candidates", "_ratio", ".spans")


def traced(runner: Runner, workload: str, ops: list[str], seconds: float) -> tuple[list[dict], dict, bool]:
    trace_dir = WORK / f"trace-{workload}"
    shutil.rmtree(trace_dir, ignore_errors=True)
    trace_dir.mkdir(parents=True)
    plain = runner.run_pass(ops, "run")
    passes: list[list[dict]] = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(runner.run_pass(ops, "trace", trace_dir))
    results = [_layer_metrics(records) for records in passes]
    per_pass = [m for m, _ in results]
    first, table = results[0]
    counts = [k for k in first if k.endswith(COUNT_SUFFIXES)]
    repeat_ok = all(m[k] == first[k] for m in per_pass for k in counts)
    if not repeat_ok:
        print("work counts differ between traced passes", file=sys.stderr)
    metrics = {k: first[k] if k in counts else statistics.median(m[k] for m in per_pass) for k in first}
    untraced_wall = sum(r["wall_s"] for r in plain)
    traced_wall = statistics.median(sum(r["wall_s"] for r in records) for records in passes)
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    metrics["trace.overhead_share"] = metrics["trace.overhead_s"] / untraced_wall
    (trace_dir / "layers.json").write_text(json.dumps(
        {"workload": workload, "ops": ops, "passes": len(passes),
         "untraced_wall_s": untraced_wall, "traced_wall_s": traced_wall, "metrics": metrics,
         "fired": sorted({name for records in passes for r in records for name in r["fired"]}),
         "wrapped": passes[0][0]["wrapped"], "functions": table},
        indent=1, sort_keys=True,
    ))
    return plain + [r for records in passes for r in records], metrics, repeat_ok


def _layer_unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_ratio", "_share")):
        return "ratio"
    return "count"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "polybinom" / "cli.py").is_file():
        print(f"no polybinom sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    ops = workloads.workload_ops(args.workload, args.seed)
    workdir = WORK / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(workdir)
        if args.trace:
            records, metrics, correct = traced(runner, args.workload, ops, args.seconds)
            units = {k: _layer_unit(k) for k in metrics}
        else:
            records, timed = end_to_end(runner, ops, args.seconds)
            metrics = {k: v for k, (v, _) in timed.items()}
            units = {k: u for k, (_, u) in timed.items()}
            correct = True
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(r["attempted"] for r in records)
    failed = sum(len(r["failed_ops"]) for r in records)
    print(json.dumps({
        "correct": correct and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
