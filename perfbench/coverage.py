"""Check that every wrapped function fires on at least one workload.

    python3 perfbench/coverage.py

Run from the repository root.  Makes one short traced run of each workload
and fails, listing the names, if some wrapped function never fired: that
means a binding the tracer did not patch (a re-import it missed) or a
function no workload reaches, which then belongs in tracer.OFF_PATH.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent


def main() -> int:
    fired: set[str] = set()
    wrapped: set[str] = set()
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", "0", "--seconds", "1", "--trace", "1"],
            cwd=HERE.parent, stdout=subprocess.DEVNULL, check=False,
        )
        if proc.returncode != 0:
            print(f"traced run of {workload} exited {proc.returncode}", file=sys.stderr)
            return 1
        layers = json.loads((HERE.parent / ".perfbench_work" / f"trace-{workload}" / "layers.json").read_text())
        fired.update(layers["fired"])
        wrapped.update(layers["wrapped"])
        print(f"{workload}: {len(layers['fired'])} of {len(layers['wrapped'])} wrapped functions fired")
    never = sorted(wrapped - fired)
    if never:
        print("wrapped but fired on no workload: " + ", ".join(never), file=sys.stderr)
        return 1
    print(f"all {len(wrapped)} wrapped functions fired on at least one workload")
    return 0


if __name__ == "__main__":
    sys.exit(main())
