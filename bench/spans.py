"""Spans recorded from outside the package, around the benchmark's calls into it.

Nothing inside `src/` is instrumented: `layers()` hands each workload the
package functions it may call, wrapped in a span when a Tracer is given.
Spans stay in memory as (name, start_ns, end_ns, op_id) and are written out
once the run ends.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import sys
import time
from types import SimpleNamespace

# (module, function) pairs a workload may call; the span is "<module>.<function>".
LAYER_FUNCTIONS = (
    ("parser", "tokenize"),
    ("parser", "parse"),
    ("scopes", "resolve_scopes"),
    ("logic", "build_logic_tree"),
    ("logic", "check_nondegenerate"),
    ("logic", "lt_equal"),
    ("diagram", "build_diagram"),
    ("diagram", "diagram_to_json"),
    ("diagram", "diagram_from_json"),
    ("diagram", "diagram_isomorphic"),
    ("dot", "emit_dot"),
    ("recovery", "diagram_to_graph"),
    ("recovery", "recover_depths"),
    ("recovery", "brute_force_depths"),
)
SPAN_NAMES = tuple(f"{module}.{name}" for module, name in LAYER_FUNCTIONS) + ("cli.run",)


def cli_run(argv: list[str], stdin: str) -> tuple[int, str]:
    """One CLI command run in this process on `stdin`: (exit code, stdout text)."""
    from sqldiagram.cli import run  # late: run.main() puts src/ on sys.path

    out = io.StringIO()
    saved, sys.stdin = sys.stdin, io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out):
            code = run(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue()


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, int, int, int]] = []
        self.op_id = 0

    def wrap(self, name: str, fn):
        spans = self.spans
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans.append((name, start, clock(), self.op_id))

        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            out.write("name\tstart_ns\tend_ns\top_id\n")
            out.writelines(f"{n}\t{s}\t{e}\t{o}\n" for n, s, e, o in self.spans)


def layers(tracer: Tracer | None = None) -> SimpleNamespace:
    """The package functions by bare name, plus `cli_run` for the CLI; with a
    tracer every one records a span."""
    fns = {name: getattr(importlib.import_module(f"sqldiagram.{module}"), name)
           for module, name in LAYER_FUNCTIONS}
    fns["cli_run"] = cli_run
    spans = {name: f"{module}.{name}" for module, name in LAYER_FUNCTIONS}
    spans["cli_run"] = "cli.run"
    if tracer is not None:
        fns = {name: tracer.wrap(spans[name], fn) for name, fn in fns.items()}
    return SimpleNamespace(**fns)
