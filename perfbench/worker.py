"""One benchmark op in a fresh interpreter, so caches start cold.

    python3 perfbench/worker.py MODE OP WORKDIR RESULT_JSON [SPANS_CSV]

Imports polybinom and writes the op's input file; that is set-up, and the
moment it ends is recorded as `ready`.  MODE `setup` stops there.  MODE `run`
then calls `polybinom.cli.main` in-process with stdout captured, checks the
output against the frozen reference and writes a result record.  MODE
`trace` does the same under the outside-in tracer and writes the spans to
SPANS_CSV.  The package is found through PYTHONPATH, which run.py points at
`src`.
"""

import json
import resource
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import workloads
from polybinom import cli


def main(mode: str, op: str, workdir: str, result_path: str, spans_path: str = "") -> None:
    argv = workloads.op_argv(op, Path(workdir))
    ready = time.perf_counter()
    if mode == "setup":
        Path(result_path).write_text(json.dumps({"op": op, "ready": ready}))
        return
    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    out, err = StringIO(), StringIO()
    exit_code = None
    before = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            exit_code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects arguments this way
        exit_code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # an exception fails the op; the run goes on
        err.write(f"{type(exc).__name__}: {exc}\n")
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_SELF)
    record = {
        "op": op,
        "ready": ready,
        "wall_s": wall,
        "cpu_s": (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime),
        "maxrss_kb": after.ru_maxrss,
        "exit": exit_code,
        "stderr": err.getvalue()[-2000:],
    }
    if tracer is not None:
        tracer.restore()
        record["fired"] = tracer.fired()
        record["wrapped"] = sorted(tracer.names)
        record["layers"] = tracer.layers()
        record["spans"] = len(tracer.span_fn)
        tracer.write_spans(spans_path)
    record["attempted"] = workloads.op_count(op)
    record["failed_ops"] = workloads.failed_ops(op, exit_code, out.getvalue())
    Path(result_path).write_text(json.dumps(record))


if __name__ == "__main__":
    main(*sys.argv[1:])
