"""tools/stages.py runs on a tiny corpus and writes a file of the documented
schema, with a number for every stage."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_stage_timer_writes_every_stage(tmp_path):
    out = tmp_path / "stages.json"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    subprocess.run([sys.executable, str(ROOT / "tools" / "stages.py"), "--tiny", "-o", str(out)],
                   env=env, check=True, capture_output=True)
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["schema"] == "sqldiagram-stages/1"
    assert doc["unit"] == "us per input" and doc["repeats"] == 3
    rows = doc["stages"]
    assert {row["stage"] for row in rows} == {
        "tokenize", "parse", "scopes", "lower", "validate", "simplify", "diagram", "dot",
        "json", "load", "to_graph", "recover", "oracle", "isomorphism"}
    assert {row["class"] for row in rows if row["stage"] == "isomorphism"} == {
        "grid-non", "grid-iso", "k-pair"}
    assert {row["class"] for row in rows if row["stage"] == "parse"} == {
        "fixtures", "tree4", "wide31"}
    for row in rows:
        assert row["inputs"] >= 1 and row["loops"] >= 1
        assert 0 < row["q1"] <= row["median"] <= row["q3"]
        assert abs(row["iqr"] - (row["q3"] - row["q1"])) <= 0.002  # each rounded to 0.001
    cold = doc["cold_start"]
    assert cold["runs"] == 1 and cold["unit"] == "ms"
    assert set(cold["import_cli_minus_pass"]) == {"median", "q1", "q3", "iqr"}
    assert {"sqldiagram", "sqldiagram.cli", "sqldiagram.logic"} <= set(cold["importtime_self_us"])
