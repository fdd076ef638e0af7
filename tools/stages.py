"""Per-stage timings of the package, written to one JSON file.

    PYTHONPATH=src python tools/stages.py -o stages.json
    PYTHONPATH=src python tools/stages.py --tiny -o /tmp/stages.json   # a few seconds

Each stage is one library call, timed in process on inputs built before any
timing starts, so that no stage's speed-up shifts another's time: tokenize,
parse (which tokenizes), scopes, lower, validate, simplify, diagram, dot,
json, load, to_graph, recover, oracle and isomorphism (lt_equal and
diagram_isomorphic on one pair).  The inputs of an input class are the
12 fixtures, seeded trees of 4, 8 and 12 groups, the wide queries of 31,
301 and 901 groups, and for isomorphism the pattern-grid pairs that are not
isomorphic (grid-non), those that are (grid-iso) and the k = 4..6 symmetric
pairs of the `symmetric_iso` benchmark workload (k-pair).  The generators
are the benchmark's own (`bench/inputs.py`).

One sample of a (stage, class) cell times `loops` passes over the class's
inputs, with `loops` set once so that a sample takes about `target_ms`
(5 ms; 0.2 ms with --tiny).  The repeats are interleaved: each round takes
one sample of every cell.
Each row gives the median and the interquartile range of the samples, in
microseconds per input.  Cold start runs fresh interpreters on a copy of
the package whose bytecode caches are written first, interleaving
`import sqldiagram.cli` with `pass`; it gives the difference per pair,
and the median `-X importtime` self time of each sqldiagram module.

The script gates nothing: the benchmark (`bench/run.py`) judges changes.
It imports the package from PYTHONPATH, else from this checkout's src/.
"""

from __future__ import annotations

import argparse
import compileall
import gc
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.append(str(ROOT / "src"))  # after PYTHONPATH, which may name another copy
sys.path.append(str(ROOT / "bench"))

from inputs import (  # noqa: E402
    exact_size_tree,
    relabelled,
    symmetric_tree,
    wide_tree,
    with_one_lt,
)

import sqldiagram  # noqa: E402
from sqldiagram import (  # noqa: E402
    brute_force_depths,
    build_diagram,
    build_logic_tree,
    check_nondegenerate,
    diagram_from_json,
    diagram_isomorphic,
    diagram_to_graph,
    diagram_to_json,
    emit_dot,
    lt_equal,
    lt_to_sql,
    parse,
    recover_depths,
    resolve_scopes,
    simplify_forall,
)
from sqldiagram.fixtures import PATTERN_GRID, VALID_QUERIES  # noqa: E402
from sqldiagram.parser import tokenize  # noqa: E402

SCHEMA = "sqldiagram-stages/1"
SEED = 1  # picks the generated trees and the labels of the symmetric pairs
ORACLE_MAX_GROUPS = 31  # the oracle searches labelings; it is timed up to this size


def _corpus(seed: int, tiny: bool) -> dict[str, list[str]]:
    """SQL text per input class."""
    rng = random.Random(f"stages:{seed}")
    fixtures = list(VALID_QUERIES.values())
    if tiny:
        return {"fixtures": fixtures[:2], "tree4": [lt_to_sql(exact_size_tree(rng, 4))],
                "wide31": [lt_to_sql(wide_tree(rng, 10))]}
    classes = {"fixtures": fixtures}
    for groups in (4, 8, 12):
        classes[f"tree{groups}"] = [lt_to_sql(exact_size_tree(rng, groups)) for _ in range(8)]
    for k in (10, 100, 300):
        classes[f"wide{3 * k + 1}"] = [lt_to_sql(wide_tree(rng, k))]
    return classes


def _pairs(seed: int, tiny: bool) -> dict[str, list[tuple]]:
    """(tree a, tree b, diagram a, diagram b) per isomorphism class."""
    rng = random.Random(f"stages:iso:{seed}")
    grid = [(column, build_logic_tree(resolve_scopes(parse(sql))))
            for column, queries in PATTERN_GRID.items() for sql in queries]
    classes: dict[str, list[tuple]] = {"grid-non": [], "grid-iso": [], "k-pair": []}
    for i, (column_a, a) in enumerate(grid):
        for column_b, b in grid[i + 1:]:
            kind = "grid-iso" if column_a == column_b else "grid-non"
            classes[kind].append((a, b, build_diagram(a), build_diagram(b)))
    for k in (4,) if tiny else (4, 5, 6):
        base = symmetric_tree(rng, k)
        for other in (relabelled(rng, base), relabelled(rng, with_one_lt(rng, base))):
            classes["k-pair"].append((base, other, build_diagram(base), build_diagram(other)))
    if tiny:
        classes = {kind: pairs[:2] for kind, pairs in classes.items()}
    return classes


def _cells(seed: int, tiny: bool) -> list[tuple[str, str, object, list]]:
    """(stage, class, call, inputs): each stage's inputs are the outputs of
    the stages before it, built here, before any timing."""
    cells = []
    for kind, texts in _corpus(seed, tiny).items():
        asts = [parse(text) for text in texts]
        resolved = [resolve_scopes(ast) for ast in asts]
        trees = [build_logic_tree(ast) for ast in resolved]
        simplified = [simplify_forall(lt) for lt in trees]
        diagrams = [build_diagram(lt, simplified=False, allow_invalid=True) for lt in simplified]
        documents = [diagram_to_json(d) for d in diagrams]
        graphs = [diagram_to_graph(d) for d in diagrams]
        cells += [
            ("tokenize", kind, tokenize, texts),
            ("parse", kind, parse, texts),
            ("scopes", kind, resolve_scopes, asts),
            ("lower", kind, build_logic_tree, resolved),
            ("validate", kind, check_nondegenerate, trees),
            ("simplify", kind, simplify_forall, trees),
            ("diagram", kind, lambda lt: build_diagram(lt, simplified=False, allow_invalid=True),
             simplified),
            ("dot", kind, emit_dot, diagrams),
            ("json", kind, diagram_to_json, diagrams),
            ("load", kind, diagram_from_json, documents),
            ("to_graph", kind, diagram_to_graph, diagrams),
            ("recover", kind, recover_depths, graphs),
        ]
        if max(len(d.groups) for d in diagrams) <= ORACLE_MAX_GROUPS:
            cells.append(("oracle", kind, brute_force_depths, graphs))
    for kind, pairs in _pairs(seed, tiny).items():
        cells.append(("isomorphism", kind, _isomorphism, pairs))
    return cells


def _isomorphism(pair: tuple) -> tuple[bool, bool]:
    lt_a, lt_b, d_a, d_b = pair
    return lt_equal(lt_a, lt_b, modulo_renaming=True), diagram_isomorphic(d_a, d_b)


def _sample(call, inputs: list, loops: int) -> float:
    """Seconds per input over `loops` passes."""
    clock = time.perf_counter
    start = clock()
    for _ in range(loops):
        for item in inputs:
            call(item)
    return (clock() - start) / (loops * len(inputs))


def _spread(samples: list[float]) -> dict[str, float]:
    """Median, quartiles and IQR; a lone sample is all three."""
    if len(samples) == 1:
        samples = samples * 2
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def time_stages(cells, repeats: int, target_s: float) -> list[dict]:
    loops = []
    for _, _, call, inputs in cells:
        once = _sample(call, inputs, 1)  # also the warm-up
        loops.append(max(1, min(10_000, round(target_s / (once * len(inputs))))))
    samples: list[list[float]] = [[] for _ in cells]
    for _ in range(repeats):
        gc.collect()
        for i, (_, _, call, inputs) in enumerate(cells):
            samples[i].append(_sample(call, inputs, loops[i]) * 1e6)
    return [{"stage": stage, "class": kind, "inputs": len(inputs), "loops": loops[i],
             **{key: round(value, 3) for key, value in _spread(samples[i]).items()}}
            for i, (stage, kind, _, inputs) in enumerate(cells)]


def cold_start(runs: int) -> dict:
    """Interpreter start plus `import sqldiagram.cli`, less a bare start, in
    milliseconds, from a copy whose bytecode caches are written first."""
    with tempfile.TemporaryDirectory(prefix="stages-") as tmp:
        shutil.copytree(Path(sqldiagram.__file__).parent, Path(tmp, "sqldiagram"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        compileall.compile_dir(tmp, quiet=1)  # writes the caches whatever the environment says
        env = {**os.environ, "PYTHONPATH": tmp}

        def started(code: str, *flags: str) -> tuple[float, str]:
            start = time.perf_counter()
            done = subprocess.run([sys.executable, *flags, "-c", code], env=env, check=True,
                                  capture_output=True, text=True)
            return time.perf_counter() - start, done.stderr

        differences, self_us = [], {}
        for _ in range(runs):
            bare, _ = started("pass")
            loaded, _ = started("import sqldiagram.cli")
            differences.append((loaded - bare) * 1e3)
            _, report = started("import sqldiagram.cli", "-X", "importtime")
            for line in report.splitlines():  # import time: self | cumulative | name
                fields = line.removeprefix("import time:").split("|")
                if len(fields) == 3 and fields[2].strip().startswith("sqldiagram"):
                    self_us.setdefault(fields[2].strip(), []).append(int(fields[0]))
    return {"runs": runs, "unit": "ms",
            "import_cli_minus_pass": {key: round(value, 3)
                                      for key, value in _spread(differences).items()},
            "importtime_self_us": {name: statistics.median(values)
                                   for name, values in sorted(self_us.items())}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("-o", "--output", required=True, help="the JSON file to write")
    parser.add_argument("--tiny", action="store_true",
                        help="a few inputs, 3 repeats and 1 cold start: a check of the script")
    args = parser.parse_args(argv)
    repeats, target_ms, cold_runs = (3, 0.2, 1) if args.tiny else (15, 5.0, 15)
    cells = _cells(SEED, args.tiny)
    doc = {"schema": SCHEMA, "python": platform.python_version(), "cpus": os.cpu_count(),
           "seed": SEED, "repeats": repeats, "target_ms": target_ms, "unit": "us per input",
           "stages": time_stages(cells, repeats, target_ms / 1e3),
           "cold_start": cold_start(cold_runs)}
    Path(args.output).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    for row in doc["stages"]:
        print(f"{row['stage']:<12} {row['class']:<9} {row['median']:>12.3f} us  "
              f"IQR {row['iqr']:.3f}")
    spread = doc["cold_start"]["import_cli_minus_pass"]
    print(f"cold start   import sqldiagram.cli - pass: {spread['median']:.1f} ms  "
          f"IQR {spread['iqr']:.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
