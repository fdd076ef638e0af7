"""Command-line interface.

`_COMMANDS` is the registry: each entry declares one command's name, body,
help text and whether it takes --no-simplify, and the argument parser is
built from it.  `run` reads the input once and hands the text to the body;
the SQL commands lower it through `_logic_tree`.

Exit codes: 0 success, 1 validation failure (degenerate query, invalid
diagram, failed round trip), 2 parse, usage or I/O error, including a failed
renderer.
"""

from __future__ import annotations

import argparse
import functools
import os
import shutil
import sys
from collections.abc import Callable
from typing import NamedTuple

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


def _cmd_viz(args, text: str) -> int:
    diagram = _validated_diagram(_logic_tree(text), not args.no_simplify)
    if args.format == "json":
        _write_output(args, diagram_to_json(diagram))
        if args.render:
            print("warning: --render applies only to DOT output; skipping render",
                  file=sys.stderr)
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
    import subprocess  # only --render starts a process

    target = os.path.splitext(args.output)[0] + "." + args.render
    status = subprocess.run([renderer, f"-T{args.render}", args.output, "-o", target]).returncode
    if status:
        print(f"error: renderer {renderer} exited with status {status}", file=sys.stderr)
        return 2
    return 0


def _cmd_tree(render, args, text: str) -> int:
    """`lt` and `trc`: the logic tree, printed by `render`."""
    lt = _logic_tree(text)
    if not args.no_simplify:
        lt = simplify_forall(lt)
    _write_output(args, render(lt))
    return 0


def _cmd_check(args, text: str) -> int:
    report = check_nondegenerate(_logic_tree(text))
    if report.ok:
        _write_output(args, "ok: query is non-degenerate and within the depth bound\n")
        return 0
    _write_output(args, "".join(f"violation: {v}\n" for v in report.violations))
    return 1


def _cmd_recover(args, text: str) -> int:
    try:
        diagram = diagram_from_json(text)
    except (ValueError, LookupError, TypeError, RecursionError) as exc:  # see diagram_from_json
        print(f"error: malformed input ({exc})", file=sys.stderr)
        return 2
    assignment = recover_depths(diagram_to_graph(diagram))
    mismatch = _structure_mismatch(diagram, assignment)
    if mismatch:
        print(f"error: {mismatch}", file=sys.stderr)
        return 1
    _write_output(args, assignment.to_json())
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


def _cmd_roundtrip(args, text: str) -> int:
    # Recovery reads nothing that the forall rewrite changes.
    diagram = _validated_diagram(_logic_tree(text), simplified=True)
    graph = diagram_to_graph(diagram)
    # Each group records its query block's depth and parent in the source.
    recovered = recover_depths(graph)
    mismatch = _structure_mismatch(diagram, recovered)
    if mismatch:
        print(f"round trip failed: {mismatch}", file=sys.stderr)
        return 1
    oracle = brute_force_depths(graph)
    if oracle != [recovered]:
        why = (f"{len(oracle)} consistent structures exist" if len(oracle) != 1
               else "the one consistent structure is not the recovered one")
        print(f"round trip failed: {why}", file=sys.stderr)
        return 1
    _write_output(args, f"round trip ok: {len(diagram.groups)} groups recovered "
                        "exactly, unique by exhaustive search\n")
    return 0


def _cmd_metrics(args, text: str) -> int:
    diagram = _validated_diagram(_logic_tree(text), not args.no_simplify)
    _write_output(args, f"elements: {count_elements(diagram)}\n"
                        f"words: {count_words(text)}\n")
    return 0


class _Command(NamedTuple):
    body: Callable[[argparse.Namespace, str], int]  # (parsed arguments, input text) -> exit code
    help: str
    simplify: bool  # takes --no-simplify


# The one place a command is declared; `--help` lists them in this order.
_COMMANDS = {
    "viz": _Command(_cmd_viz, "SQL to diagram (DOT or JSON)", True),
    "lt": _Command(functools.partial(_cmd_tree, lt_to_json), "SQL to logic tree JSON", True),
    "trc": _Command(functools.partial(_cmd_tree, lambda lt: render_trc(lt) + "\n"),
                    "SQL to tuple calculus text", True),
    "check": _Command(_cmd_check, "validate a query", False),
    "recover": _Command(_cmd_recover, "diagram JSON to depth assignment JSON", False),
    "roundtrip": _Command(_cmd_roundtrip, "build a diagram, recover it, compare", False),
    "metrics": _Command(_cmd_metrics, "element and word counts", True),
}


@functools.cache  # built once per process; parse_args leaves it unchanged
def _build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sqldiagram",
        description="Translate nested conjunctive SQL into logic-based diagrams.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("input", nargs="?", default="-",
                       help="input file, or - for standard input (default)")
        p.add_argument("-o", "--output", default=None, help="output file (default: stdout)")
        if command.simplify:
            p.add_argument("--no-simplify", action="store_true",
                           help="keep the raw not-exists form instead of forall boxes")
        if name == "viz":
            p.add_argument("--format", choices=("dot", "json"), default="dot")
            p.add_argument("--render", metavar="FMT",
                           help=f"also run the external renderer named by ${RENDERER_ENV}")
    return parser


def run(argv: list[str]) -> int:
    parser = _build_arg_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command].body(args, _read_input(args.input))
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
