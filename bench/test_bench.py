"""Self-tests for the benchmark harness: python3 -m pytest -q bench"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import inputs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import layers  # noqa: E402
from sqldiagram import (  # noqa: E402
    build_diagram,
    check_nondegenerate,
    diagram_isomorphic,
    diagram_to_json,
    lt_equal,
    lt_to_sql,
)
from sqldiagram.errors import SqlDiagramError  # noqa: E402

ERRORS = (SqlDiagramError, ValueError)


def _text(value) -> str:
    """A byte-exact rendering of one op input."""
    if isinstance(value, (str, bytes)):
        return repr(value)
    if isinstance(value, tuple):
        return "|".join(_text(v) for v in value)
    if hasattr(value, "groups"):
        return diagram_to_json(value)
    return lt_to_sql(value)


def _fingerprint(rounds) -> list[str]:
    return [f"{case.kind}:{_text(case.payload)}" for rnd in rounds for case in rnd]


def test_generators_are_deterministic_per_seed():
    for workload in workloads.WORKLOADS.values():
        assert _fingerprint(workload.build(7)) == _fingerprint(workload.build(7)), workload.name
        assert _fingerprint(workload.build(7)) != _fingerprint(workload.build(8))


def test_wide_and_symmetric_trees_are_valid():
    rng = random.Random(3)
    for k in (1, 2, 10, 50):
        assert check_nondegenerate(inputs.wide_tree(rng, k)).ok
        assert inputs.count_blocks(inputs.wide_tree(rng, k)) == 3 * k + 1
    for k in range(1, 8):
        assert check_nondegenerate(inputs.symmetric_tree(rng, k)).ok


def test_pair_verdicts_match_their_construction():
    rng = random.Random(5)
    for k in (2, 3, 4):
        base = inputs.symmetric_tree(rng, k)
        same = inputs.relabelled(rng, base)
        other = inputs.relabelled(rng, inputs.with_one_lt(rng, base))
        assert lt_to_sql(same) != lt_to_sql(base)
        assert lt_equal(base, same, modulo_renaming=True)
        assert diagram_isomorphic(build_diagram(base), build_diagram(same))
        assert not lt_equal(base, other, modulo_renaming=True)
        assert not diagram_isomorphic(build_diagram(base), build_diagram(other))


def test_sql_scanner_agrees_with_generated_trees():
    rng = random.Random(11)
    for groups in range(1, 13):
        lt = inputs.exact_size_tree(rng, groups)
        assert inputs.count_blocks(lt) == groups
        assert inputs.sql_nesting(lt_to_sql(lt)) == inputs.tree_truth(lt)


def test_every_workload_passes_its_checks():
    for workload in workloads.WORKLOADS.values():
        rounds = workload.build(2)
        L = layers()
        for case in rounds[0]:
            assert workload.check(case, workload.op(L, case)), (workload.name, case.kind)


def test_corrupted_reference_is_counted_as_failure():
    workload = workloads.WORKLOADS["corpus_compile"]
    rounds = workload.build(1)
    case = rounds[0][1]
    wrong = {alias: (depth + 1, parent) for alias, (depth, parent) in case.expect.truth.items()}
    rounds = [[replace(case, expect=replace(case.expect, truth=wrong))] + rounds[0][2:]]
    loop = run.run_loop(workload, layers(), rounds, 0.01, ERRORS)
    assert 0 < loop["failed"] < loop["attempted"]


def _run(args, cwd):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=120, check=False)


def test_size_counts_repeat_across_runs():
    args = ["--workload", "corpus_compile", "--seed", "4", "--seconds", "0.2", "--trace", "1"]
    results = []
    for _ in range(2):
        done = _run(args, ROOT)
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        results.append({k: v for k, v in result["metrics"].items() if k.startswith("size.")})
    assert len(results[0]) == len(run.SIZE_KEYS)
    assert results[0] == results[1]


def test_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _run(["--workload", "corpus_compile", "--seed", "1", "--seconds", "1", "--trace", "0"],
                tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
