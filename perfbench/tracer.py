"""Outside-in tracer for polybinom.

Wraps the public module-level functions of the package from outside: every
binding of a function is patched, including names re-imported into other
modules (``survey.chromatic_analysis``, ``chromatic.omega_star``, the package
``__init__``), and every one is restored afterwards.  Spans are kept in memory
as parallel lists (function, parent span, start, end); a function's self time
is its span's duration minus the durations of its direct child spans.

Work counts are derived only from arguments and return values, never from
program internals, and are computed after the op has finished, outside any
span: orientation masks tried (2^m) against kept, flow candidates scanned
(the product of the value-set sizes for the cycle-space dimension xi and the
bound n) against kept, edge subsets and relation masks scanned against the
isomorphism classes kept, and distinct poset classes reaching ``omega_star``
(certificates computed through the unwrapped ``poset_certificate``).
"""

from __future__ import annotations

import importlib
import inspect
import sys
from time import perf_counter

# Public functions that no workload reaches: test-only oracles, sampling mode,
# the table1 command, the flow survey and its fixtures, file formatters and
# small constructors.  They are left unwrapped so that the coverage check
# (coverage.py) can require every wrapped function to fire on some workload.
OFF_PATH = frozenset(
    {
        "chromatic.chromatic_star",
        "chromatic.match_reference_forms",
        "chromatic.monomial_inequality_forms",
        "decompositions.require_pass",
        "flows.modular_flow_count_dense",
        "flows.positive_flow_count",
        "graphs.complete_graph",
        "graphs.cycle_graph",
        "graphs.dipole",
        "graphs.format_graph_file",
        "graphs.path_graph",
        "polynomials.binomial_poly_value",
        "polynomials.inverse_transform",
        "posets.antichain",
        "posets.chain",
        "posets.format_poset_file",
        "survey.flow_fixture_set",
        "survey.run_flow_survey",
        "survey.sample_graphs",
        "survey.sample_posets",
    }
)


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _components(d: int, edges) -> int:
    parent = list(range(d))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        parent[find(u)] = find(v)
    return len({find(v) for v in range(d)})


def _xi(g) -> int:
    return len(g.edges) - g.vertex_count + _components(g.vertex_count, g.edges)


def _pairs(d: int) -> int:
    return d * (d - 1) // 2


# Work counters: function name -> (args, kwargs, result) -> (tried, kept).
# Each maps one call to the candidates it had to examine and the ones it kept.
def _orientations(args, kwargs, result):
    g = _arg(args, kwargs, 0, "g")
    # a graph with a loop is answered without scanning any mask
    loops = any(u == v for u, v in g.edges)
    return (0 if loops else 1 << len(g.edges)), len(result)


def _totally_cyclic(args, kwargs, result):
    g = _arg(args, kwargs, 0, "g")
    return 1 << len(g.edges), len(result)


def _flow_counter(width, kept_of):
    def count(args, kwargs, result):
        g = _arg(args, kwargs, 0, "g")
        n = _arg(args, kwargs, 1, "n")
        if not g.edges or n == 1:
            return 0, kept_of(result)
        return width(n) ** _xi(g), kept_of(result)

    return count


def _graph_family(args, kwargs, result):
    max_d = _arg(args, kwargs, 0, "max_d")
    return sum(1 << _pairs(d) for d in range(1, max_d + 1)), len(result)


def _poset_family(args, kwargs, result):
    d = _arg(args, kwargs, 0, "d")
    return (1 << _pairs(d) if d > 0 else 0), len(result)


COUNTERS = {
    "graphs.enumerate_acyclic_orientations": _orientations,
    "graphs.enumerate_totally_cyclic_orientations": _totally_cyclic,
    "flows.modular_flow_count": _flow_counter(lambda n: n - 1, int),
    "flows.integral_flow_count": _flow_counter(lambda n: 2 * (n - 1), int),
    "flows.kochol_orientation_counts": _flow_counter(
        lambda n: 2 * (n - 1), lambda table: sum(table.values())
    ),
    "survey.connected_graph_classes": _graph_family,
    "posets.generate_posets": _poset_family,
}

DISTINCT = "posets.omega_star"


class Tracer:
    """Patches the package on `install`, records spans, restores on `restore`.

    Work counts and certificates are computed by `layers`, which must be
    called after `restore`.
    """

    def __init__(self):
        self.names: list[str] = []
        self.span_fn: list[int] = []
        self.span_parent: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []
        self._originals: dict[int, object] = {}
        self._wrappers: dict[int, object] = {}
        self._calls: dict[str, list] = {name: [] for name in (*COUNTERS, DISTINCT)}

    # -- patching ---------------------------------------------------------

    @staticmethod
    def _package_modules() -> list:
        """The package and every submodule loaded so far, by name."""
        importlib.import_module("polybinom.cli")  # loads every module the CLI uses
        return [
            module for name, module in sorted(sys.modules.items())
            if name == "polybinom" or name.startswith("polybinom.")
        ]

    def install(self) -> None:
        modules = self._package_modules()
        for mod in modules[1:]:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, fn in sorted(vars(mod).items()):
                name = f"{short}.{attr}"
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__
                    or inspect.isgeneratorfunction(fn)
                    or name in OFF_PATH
                ):
                    continue
                self._originals[id(fn)] = fn
                self._wrappers[id(fn)] = self._wrap(len(self.names), name, fn)
                self.names.append(name)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in self._originals:
                    setattr(mod, attr, self._wrappers[id(value)])
                    self._patched.append((mod, attr, value))
        leftover = self._bindings(set(self._originals))
        if leftover:
            raise RuntimeError(f"unpatched bindings remain: {leftover}")

    def restore(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        leftover = self._bindings({id(w) for w in self._wrappers.values()})
        if leftover:
            raise RuntimeError(f"wrappers left in place after restore: {leftover}")

    def _bindings(self, ids: set[int]) -> list[str]:
        return sorted(
            f"{mod.__name__}.{attr}"
            for mod in self._package_modules()
            for attr, value in vars(mod).items()
            if id(value) in ids
        )

    def _wrap(self, fid: int, name: str, fn):
        span_fn, span_parent = self.span_fn, self.span_parent
        span_start, span_end, stack = self.span_start, self.span_end, self._stack
        calls = self._calls.get(name)

        def wrapper(*args, **kwargs):
            i = len(span_fn)
            span_fn.append(fid)
            span_parent.append(stack[-1])
            span_end.append(0.0)
            stack.append(i)
            span_start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                span_end[i] = perf_counter()
                stack.pop()
            if calls is not None:
                calls.append((args, kwargs, result))
            return result

        return wrapper

    # -- results ----------------------------------------------------------

    def fired(self) -> list[str]:
        return sorted({self.names[f] for f in self.span_fn})

    def layers(self) -> dict:
        """Per-function calls, self and total time, plus the work counts.

        total_s counts only outermost spans of a function, so recursion is
        not double counted; self_s sums over every span.
        """
        n = len(self.span_fn)
        child = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += self.span_end[i] - self.span_start[i]
        out: dict[str, dict] = {}
        for i in range(n):
            fid = self.span_fn[i]
            dur = self.span_end[i] - self.span_start[i]
            rec = out.setdefault(self.names[fid], {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            rec["calls"] += 1
            rec["self_s"] += dur - child[i]
            p = self.span_parent[i]
            while p >= 0 and self.span_fn[p] != fid:
                p = self.span_parent[p]
            if p < 0:
                rec["total_s"] += dur
        for name, counter in COUNTERS.items():
            tried = kept = 0
            for args, kwargs, result in self._calls[name]:
                t, k = counter(args, kwargs, result)
                tried += t
                kept += k
            if name in out:
                out[name].update(tried=tried, kept=kept)
        if DISTINCT in out:
            # called after `restore`, so this is the unwrapped function
            from polybinom.posets import poset_certificate

            certs = {poset_certificate(_arg(a, k, 0, "p")) for a, k, _ in self._calls[DISTINCT]}
            out[DISTINCT]["certificates"] = sorted([list(c) for c in certs])
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as handle:
            handle.write("span,parent,function,start_s,end_s\n")
            for i, fid in enumerate(self.span_fn):
                handle.write(
                    f"{i},{self.span_parent[i]},{self.names[fid]},"
                    f"{self.span_start[i]:.9f},{self.span_end[i]:.9f}\n"
                )
