"""Command-line interface.

Commands: viz (SQL -> DOT or JSON diagram), lt (SQL -> logic tree JSON),
trc (SQL -> tuple calculus text), check (SQL -> validation report),
recover (diagram JSON -> depth assignment), roundtrip (SQL -> diagram ->
recovered structure, compared against the source) and metrics (element and
word counts).

Exit codes: 0 success, 1 validation failure (degenerate query, invalid
diagram, failed round trip), 2 parse, usage or I/O error, including a failed
renderer.
"""

from __future__ import annotations

import argparse
import functools
import os
import shutil
import subprocess
import sys

from .diagram import (
    build_diagram,
    count_elements,
    count_words,
    diagram_from_json,
    diagram_to_json,
)
from .dot import emit_dot
from .errors import DegenerateQueryError, SqlDiagramError
from .logic import (
    MAX_DEPTH,
    ViolationKind,
    build_logic_tree,
    check_nondegenerate,
    lt_to_json,
    render_trc,
    simplify_forall,
)
from .parser import parse
from .recovery import brute_force_depths, diagram_to_graph, recover_depths
from .scopes import resolve_scopes

RENDERER_ENV = "SQLDIAGRAM_RENDERER"


@functools.cache  # built once per process; parse_args leaves it unchanged
def _build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sqldiagram",
        description="Translate nested conjunctive SQL into logic-based diagrams.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, simplify=True):
        p.add_argument("input", nargs="?", default="-",
                       help="input file, or - for standard input (default)")
        p.add_argument("-o", "--output", default=None, help="output file (default: stdout)")
        if simplify:
            p.add_argument("--no-simplify", action="store_true",
                           help="keep the raw not-exists form instead of forall boxes")

    viz = sub.add_parser("viz", help="SQL to diagram (DOT or JSON)")
    add_common(viz)
    viz.add_argument("--format", choices=("dot", "json"), default="dot")
    viz.add_argument("--render", metavar="FMT",
                     help=f"also run the external renderer named by ${RENDERER_ENV}")

    lt = sub.add_parser("lt", help="SQL to logic tree JSON")
    add_common(lt)

    trc = sub.add_parser("trc", help="SQL to tuple calculus text")
    add_common(trc)

    check = sub.add_parser("check", help="validate a query")
    add_common(check, simplify=False)

    recover = sub.add_parser("recover", help="diagram JSON to depth assignment JSON")
    add_common(recover, simplify=False)

    roundtrip = sub.add_parser("roundtrip", help="build a diagram, recover it, compare")
    add_common(roundtrip, simplify=False)

    metrics = sub.add_parser("metrics", help="element and word counts")
    add_common(metrics)
    return parser


def _read_input(source: str) -> str:
    if source == "-":
        return sys.stdin.read()
    with open(source, "r", encoding="utf-8") as handle:
        return handle.read()


def _write_output(args, text: str) -> None:
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _logic_tree(sql_text: str):
    return build_logic_tree(resolve_scopes(parse(sql_text)))


def _validated_diagram(lt, simplified: bool):
    """Build the diagram; degeneracy is fatal, excess depth only warns."""
    report = check_nondegenerate(lt)
    hard = [v for v in report.violations if v.kind is not ViolationKind.DEPTH_EXCEEDED]
    if hard:
        raise DegenerateQueryError(report)
    if not report.depth_ok:
        print(f"warning: nesting depth exceeds {MAX_DEPTH}; "
              "structure recovery is not guaranteed", file=sys.stderr)
    return build_diagram(lt, simplified=simplified, allow_invalid=True)


def _cmd_viz(args) -> int:
    lt = _logic_tree(_read_input(args.input))
    diagram = _validated_diagram(lt, not args.no_simplify)
    if args.format == "json":
        _write_output(args, diagram_to_json(diagram))
        return 0
    _write_output(args, emit_dot(diagram))
    return _render(args) if args.render else 0


def _render(args) -> int:
    """Run the external renderer on the DOT file just written."""
    renderer = os.environ.get(RENDERER_ENV)
    if not renderer or shutil.which(renderer) is None:
        print(f"warning: no renderer available (set ${RENDERER_ENV}); skipping render",
              file=sys.stderr)
        return 0
    if not args.output:
        print("warning: --render needs --output to name the rendered file", file=sys.stderr)
        return 0
    target = os.path.splitext(args.output)[0] + "." + args.render
    status = subprocess.run([renderer, f"-T{args.render}", args.output, "-o", target]).returncode
    if status:
        print(f"error: renderer {renderer} exited with status {status}", file=sys.stderr)
        return 2
    return 0


def _cmd_lt(args) -> int:
    lt = _logic_tree(_read_input(args.input))
    if not args.no_simplify:
        lt = simplify_forall(lt)
    _write_output(args, lt_to_json(lt))
    return 0


def _cmd_trc(args) -> int:
    lt = _logic_tree(_read_input(args.input))
    if not args.no_simplify:
        lt = simplify_forall(lt)
    _write_output(args, render_trc(lt) + "\n")
    return 0


def _cmd_check(args) -> int:
    lt = _logic_tree(_read_input(args.input))
    report = check_nondegenerate(lt)
    if report.ok:
        _write_output(args, "ok: query is non-degenerate and within the depth bound\n")
        return 0
    lines = [f"violation: {v}" for v in report.violations]
    _write_output(args, "\n".join(lines) + "\n")
    return 1


def _cmd_recover(args) -> int:
    text = _read_input(args.input)
    try:
        diagram = diagram_from_json(text)
        assignment = recover_depths(diagram_to_graph(diagram))
        mismatch = _structure_mismatch(diagram, assignment)
        if mismatch:
            print(f"error: {mismatch}", file=sys.stderr)
            return 1
        _write_output(args, assignment.to_json())
    except (ValueError, LookupError, TypeError, RecursionError) as exc:  # see diagram_from_json
        print(f"error: malformed input ({exc})", file=sys.stderr)
        return 2
    return 0


def _structure_mismatch(diagram, recovered) -> str | None:
    """The first group whose depth or parent, as the diagram records it,
    differs from the recovered structure, or None when all agree."""
    for group in diagram.groups:
        if recovered.depths[group.id] != group.depth:
            return (f"group {group.id} recovered at depth {recovered.depths[group.id]}, "
                    f"expected {group.depth!r}")
    parent_of = {group.id: group.parent for group in diagram.groups}
    for gid in recovered.depths:
        parent_gid = recovered.parents.get(gid)
        if parent_of[gid] != parent_gid:
            where = f"under {parent_gid}" if parent_gid else "as the root"
            return f"group {gid} recovered {where}"
    return None


def _cmd_roundtrip(args) -> int:
    lt = _logic_tree(_read_input(args.input))
    # Recovery reads nothing that the forall rewrite changes.
    diagram = _validated_diagram(lt, simplified=True)
    graph = diagram_to_graph(diagram)
    # Each group records its query block's depth and parent in the source.
    mismatch = _structure_mismatch(diagram, recover_depths(graph))
    if mismatch:
        print(f"round trip failed: {mismatch}", file=sys.stderr)
        return 1
    oracle = brute_force_depths(graph)
    if len(oracle) != 1:
        print(f"round trip failed: {len(oracle)} consistent structures exist",
              file=sys.stderr)
        return 1
    _write_output(args, f"round trip ok: {len(diagram.groups)} groups recovered "
                        "exactly, unique by exhaustive search\n")
    return 0


def _cmd_metrics(args) -> int:
    sql_text = _read_input(args.input)
    lt = _logic_tree(sql_text)
    diagram = _validated_diagram(lt, not args.no_simplify)
    _write_output(args, f"elements: {count_elements(diagram)}\n"
                        f"words: {count_words(sql_text)}\n")
    return 0


_COMMANDS = {
    "viz": _cmd_viz,
    "lt": _cmd_lt,
    "trc": _cmd_trc,
    "check": _cmd_check,
    "recover": _cmd_recover,
    "roundtrip": _cmd_roundtrip,
    "metrics": _cmd_metrics,
}


def run(argv: list[str]) -> int:
    parser = _build_arg_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except SqlDiagramError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
