"""Freeze the reference outputs the benchmark checks every op against.

    python3 perfbench/freeze.py

Run from the repository root.  Each op runs once in a fresh interpreter
through `python3 -m polybinom.cli` and must exit 0; its JSON, minus the
volatile `run` block, is written to perfbench/reference/<op>.json.  Several
references are first cross-checked against closed forms that share no code
with polybinom.  Also records the machine in perfbench/env.json.

References describe correct output, so regenerate them only in a change that
redefines the benchmark, never in a change that is judged by it.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from math import comb, factorial
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent


def star_vector(values: dict[int, int], d: int) -> list[int]:
    """Numerator of (1-z)^(d+1) * sum_{n>=0} p(n) z^n from p(0..d)."""
    return [
        sum((-1) ** k * comb(d + 1, k) * values[i - k] for k in range(i + 1))
        for i in range(d + 1)
    ]


def falling(n: int, d: int) -> int:
    return factorial(n) // factorial(n - d) if n >= d else 0


# Closed forms: chi(K_d)(k) is the falling factorial, chi(C_d)(k) is
# (k-1)^d + (-1)^d (k-1), an antichain of d elements has n^d strict maps into
# [n] and a chain has C(n, d).
CLOSED_FORMS = {
    "chromatic-K6": ("chi_star", star_vector({n: falling(n, 6) for n in range(7)}, 6)),
    "chromatic-C7": (
        "chi_star",
        star_vector({n: (n - 1) ** 7 - (n - 1) for n in range(8)}, 7),
    ),
    "order-antichain7": ("omega_star", star_vector({n: n**7 for n in range(8)}, 7)),
    "order-chain7": ("omega_star", star_vector({n: comb(n, 7) for n in range(8)}, 7)),
}


def run_op(op: str, inputs: Path) -> dict:
    argv = workloads.op_argv(op, inputs)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-m", "polybinom.cli", *argv],
        cwd=ROOT, env=env, capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{op}: exit {proc.returncode}: {proc.stderr.strip()}")
    return workloads.canonical(json.loads(proc.stdout))


def machine() -> dict:
    model = ""
    with open("/proc/cpuinfo") as handle:
        for line in handle:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "threads": {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"},
    }


def main() -> None:
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    inputs = ROOT / ".perfbench_work" / "freeze"
    inputs.mkdir(parents=True, exist_ok=True)
    for op in [*workloads.SURVEYS, *sorted(workloads.CLI_COMMANDS)]:
        payload = run_op(op, inputs)
        if op in CLOSED_FORMS:
            key, expected = CLOSED_FORMS[op]
            if payload[key]["entries"] != expected:
                raise SystemExit(f"{op}: {key} {payload[key]['entries']} != closed form {expected}")
        if payload.get("verdict") != "pass":
            raise SystemExit(f"{op}: verdict {payload.get('verdict')}")
        path = workloads.REFERENCE_DIR / f"{op}.json"
        path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
        print(f"froze {path.relative_to(ROOT)}")
    env_path = Path(__file__).resolve().parent / "env.json"
    env_path.write_text(json.dumps(machine(), indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
