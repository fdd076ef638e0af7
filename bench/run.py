#!/usr/bin/env python3
"""sqldiagram benchmark: one workload per run, closed loop, one client.

    python3 bench/run.py --workload corpus_compile --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all            # every workload, one after another

Run it from a checkout: the package is imported from `src/` beside this
directory.  Each op starts only after the previous one finished, in a single
thread.  With `--trace 0` it reports the end-to-end metrics; with `--trace 1`
it splits the run into an untraced and a traced half and reports the
per-layer metrics.  Every metric is printed as `name value unit`, and the
last line of standard output is one JSON object.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import SPAN_NAMES, Tracer, layers

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_REPEATS = 5
SIZE_KEYS = ("tokens", "blocks", "predicates", "groups", "edges", "dot_bytes", "json_bytes")
WIDE_CLASSES = ("g31", "g301", "g901")


# The reference host's two vCPUs each run the same work at one speed or at
# about half of it, flipping every few to few hundred milliseconds, and the
# share of slow time drifts from run to run; thread CPU time swings alike.
# So a run first settles on the vCPU that is fastest now, and the loop times
# a fixed calibration unit between ops every CALIBRATE_EVERY_S.  Each op time
# is multiplied by NOMINAL_CALIBRATION_S (the unit's time at full speed) over
# the calibration it ran under: for an op much shorter than
# CALIBRATE_EVERY_S, the calibrations just before and after it; for a much
# longer op, which spans many flips, the mean calibration within NEAR_S of
# it; in between, a mix weighted by the op's length.  Slow phases can last
# seconds, so the run's mean calibration would misscale long ops.  Each
# reported time is what the op takes at full speed.  `machine.speed` in the
# traced run shows the factor.
CALIBRATE_EVERY_S = 0.05
NEAR_S = 0.5
NOMINAL_CALIBRATION_S = 0.0005


def _calibration_unit():
    """Fixed interpreter work of the kind the package does: tuples, dict
    lookups, str conversion and a sort."""
    table: dict[tuple[str, int], int] = {}
    for i in range(2000):
        key = ("k", i % 97)
        table[key] = table.get(key, 0) + len(str(i))
    return sorted(table.values())


def calibrate() -> float:
    """Seconds one calibration unit takes now, with the collector off."""
    gc.disable()
    try:
        start = time.perf_counter()
        _calibration_unit()
        return time.perf_counter() - start
    finally:
        gc.enable()


def pin_to_fastest_cpu() -> None:
    """Stay on the allowed CPU where the calibration unit runs fastest now;
    child processes inherit the choice."""
    if not hasattr(os, "sched_setaffinity"):
        return
    timings = {}
    for cpu in sorted(os.sched_getaffinity(0)):
        os.sched_setaffinity(0, {cpu})
        timings[cpu] = statistics.median(calibrate() for _ in range(20))
    os.sched_setaffinity(0, {min(timings, key=timings.get)})


def full_speed_times(ops: list[tuple[int, int]], calibrations: list[tuple[int, float]]):
    """Each op's time scaled to full speed; ops are (start ns, elapsed ns) and
    calibrations (time ns, seconds), both in time order."""
    times = [t for t, _ in calibrations]
    tau = CALIBRATE_EVERY_S * 1e9
    near = NEAR_S * 1e9
    scaled = []
    for start, elapsed in ops:
        before = bisect.bisect_right(times, start) - 1
        after = min(bisect.bisect_left(times, start + elapsed), len(times) - 1)
        first = min(bisect.bisect_left(times, start - near), before)
        last = max(bisect.bisect_right(times, start + elapsed + near), after + 1)
        mean = statistics.fmean(c for _, c in calibrations[first:last])
        weight = elapsed / (elapsed + tau)
        local = (1 - weight) * (calibrations[before][1] + calibrations[after][1]) / 2 + weight * mean
        scaled.append(elapsed * NOMINAL_CALIBRATION_S / local)
    return scaled


FAILED = object()  # the outcome of an op that raised


def run_loop(workload, L, rounds, seconds, errors, tracer=None):
    """Play rounds in a cycle until `seconds` have passed, finishing the
    current round, and in a traced run at least one pass over all rounds.
    Failures are counted, never skipped or retried."""
    ops: list[tuple[int, int]] = []  # (start ns, elapsed ns) per op
    played: list[tuple[int, int]] = []  # per round: (index of its first op, correct ops)
    kinds: list[str] = []  # case kind per op id
    sizes: dict[tuple[int, int], dict] = {}
    size_mismatch = False
    failed = 0
    clock = time.perf_counter_ns
    calibrations = [(clock(), calibrate())]
    deadline = clock() + seconds * 1e9
    i = 0
    while clock() < deadline or (tracer is not None and i < len(rounds)):
        r = i % len(rounds)
        i += 1
        first, correct = len(ops), 0
        for j, case in enumerate(rounds[r]):
            if clock() - calibrations[-1][0] >= CALIBRATE_EVERY_S * 1e9:
                calibrations.append((clock(), calibrate()))
            if tracer is not None:
                tracer.op_id = len(ops)
                if workload.probe is not None:
                    workload.probe(L, case)
            start = clock()
            try:
                out = workload.op(L, case)
            except errors:
                out = FAILED
            ops.append((start, clock() - start))
            kinds.append(case.kind)
            if out is not FAILED and workload.check(case, out):
                correct += 1
            else:
                failed += 1
            if tracer is not None and out is not FAILED:
                counted = workload.sizes(case, out)
                size_mismatch |= sizes.setdefault((r, j), counted) != counted
        played.append((first, correct))
    calibrations.append((clock(), calibrate()))
    return {"op_ns": sum(elapsed for _, elapsed in ops),
            "scaled": full_speed_times(ops, calibrations), "played": played,
            "speed": NOMINAL_CALIBRATION_S / statistics.fmean(c for _, c in calibrations),
            "kinds": kinds, "sizes": sizes, "size_mismatch": size_mismatch,
            "attempted": len(ops), "failed": failed}


def per_round(loop) -> list[tuple[list[float], int]]:
    """Each played round's op times at full speed and its count of correct ops."""
    scaled = loop["scaled"]
    ends = [first for first, _ in loop["played"][1:]] + [len(scaled)]
    return [(scaled[first:end], correct) for (first, correct), end in zip(loop["played"], ends)]


def ops_per_s(loop) -> float:
    """Correct ops per second of op time at full speed, in the median round.
    A sum over the whole run would let a few misscaled long ops move it."""
    return statistics.median(correct / (sum(times) / 1e9) for times, correct in per_round(loop))


def setup(workload, seed: int, errors):
    """Build the inputs and warm up by playing the first round once."""
    rounds = workload.build(seed)
    L = layers()
    for case in rounds[0]:
        try:
            workload.op(L, case)
        except errors:
            pass
    return rounds, L


def end_to_end(loop, setup_s: float) -> dict:
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    rounds = [times for times, _ in per_round(loop)]
    # The slow end is the slowest op of each round (its largest input), as a
    # median over rounds.  A percentile over every op of the run picks up the
    # host's slow bursts that the calibration misses, not the program.
    return {
        "ops_per_s": (ops_per_s(loop), "1/s"),
        "p50_ms": (statistics.median(statistics.median(r) for r in rounds) / 1e6, "ms"),
        "tail_ms": (statistics.median(max(r) for r in rounds) / 1e6, "ms"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
        "setup_s": (setup_s, "s"),
    }


def per_layer(workload, plain, traced, tracer) -> dict:
    op_ns = traced["op_ns"]
    metrics = {}
    busy = {name: [] for name in SPAN_NAMES}
    for name, start, end, _ in tracer.spans:
        busy[name].append(end - start)
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = (len(busy[name]), "count")
        metrics[f"{name}.busy_ms"] = (sum(busy[name]) / 1e6, "ms")
        metrics[f"{name}.share"] = (sum(busy[name]) / op_ns, "frac")
    kinds = traced["kinds"]
    for kind in WIDE_CLASSES:
        spans = [end - start for name, start, end, op in tracer.spans
                 if name == "recovery.recover_depths" and kinds[op] == kind]
        metrics[f"recovery.recover_depths.p50_ms.{kind}"] = (
            statistics.median(spans) / 1e6 if spans else 0.0, "ms")
    counted = list(traced["sizes"].values())
    survivors = [c["survivors"] for c in counted if "survivors" in c]
    metrics["recovery.brute_force_depths.survivors"] = (
        statistics.fmean(survivors) if survivors else 0.0, "count")
    for key in SIZE_KEYS:
        metrics[f"size.{key}"] = (statistics.fmean(c.get(key, 0) for c in counted), "count")
    metrics["trace.overhead_frac"] = (1 - ops_per_s(traced) / ops_per_s(plain), "frac")
    metrics["machine.speed"] = (statistics.fmean((plain["speed"], traced["speed"])), "ratio")
    return metrics


def _timed(fn):
    """fn() and its run time at full speed, calibrated just before and after."""
    before = [calibrate() for _ in range(3)]
    start = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - start
    after = [calibrate() for _ in range(3)]
    return result, elapsed * NOMINAL_CALIBRATION_S / statistics.fmean(before + after)


def run_one(args) -> int:
    pin_to_fastest_cpu()

    def load():
        import workloads
        from sqldiagram.errors import SqlDiagramError
        return workloads, SqlDiagramError

    (workloads, SqlDiagramError), import_s = _timed(load)
    errors = (SqlDiagramError, ValueError)
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]

    setup_times = []
    for _ in range(SETUP_REPEATS):
        (rounds, L), elapsed = _timed(lambda: setup(workload, args.seed, errors))
        setup_times.append(elapsed)
    setup_s = import_s + statistics.median(setup_times)
    # Keep the collector off the benchmark's own inputs, so collection pauses
    # in the loop come from what the ops allocate.
    gc.collect()
    gc.freeze()

    if not args.trace:
        loop = run_loop(workload, L, rounds, args.seconds, errors)
        metrics = end_to_end(loop, setup_s)
        attempted, failed, correct = loop["attempted"], loop["failed"], True
    else:
        plain = run_loop(workload, L, rounds, args.seconds / 2, errors)
        tracer = Tracer()
        traced = run_loop(workload, layers(tracer), rounds, args.seconds / 2, errors, tracer)
        out_dir = BENCH_DIR / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{args.workload}-seed{args.seed}.tsv")
        metrics = per_layer(workload, plain, traced, tracer)
        attempted = plain["attempted"] + traced["attempted"]
        failed = plain["failed"] + traced["failed"]
        correct = not traced["size_mismatch"]
        if traced["size_mismatch"]:
            print("error: size counts differ between two ops on the same input", file=sys.stderr)

    correct = correct and failed == 0
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, one after another; the last line
    merges their results, with metrics named `<workload>.<metric>`."""
    import workloads
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        lines = done.stdout.splitlines()
        if done.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {done.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update((f"{name}.{metric}", value)
                                 for metric, value in result["metrics"].items())
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "sqldiagram" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'sqldiagram'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
