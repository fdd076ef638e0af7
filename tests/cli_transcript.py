"""The CLI contract as a transcript: exit code, stderr and stdout of every call.

The inputs are rebuilt from fixed seeds: the twelve fixtures and
OWL_SELECTION_BURIED, GENERATED seeded generated queries and MUTANTS
word-level mutants (one word dropped, duplicated or swapped) of those.  Each
input goes through the nine command forms of acceptance criterion 10 on
standard input.  Each successful `viz --format json` output then goes to
`recover` as it is and in three edited copies: one group's depth changed,
the document cut in half, and `[` nested 5 000 deep.  Every call runs
through `cli.run` in process.

Exit code and stderr are stored in full.  Stdout is stored in full for the
fixtures and as a 16-hex sha256 for the rest, which keeps the file near
0.5 MB.  A change that alters output on purpose rewrites the file and lists
the changed calls.

    python tests/cli_transcript.py           # compare with the committed file
    python tests/cli_transcript.py --write   # rewrite the committed file
"""

import contextlib
import difflib
import hashlib
import io
import json
import random
import re
import sys
from pathlib import Path

from sqldiagram.cli import run
from sqldiagram.corpus import random_logic_tree
from sqldiagram.fixtures import OWL_SELECTION_BURIED, VALID_QUERIES
from sqldiagram.logic import lt_to_sql

GOLDEN = Path(__file__).parent / "golden" / "cli_transcript.jsonl"
SEED = 16
GENERATED = 60
MUTANTS = 300
NESTING = 5000

FIELDS = ("input", "argv", "code", "stdout", "stderr")  # one JSON array per line
FORMS = (["viz"], ["viz", "--no-simplify"], ["viz", "--format", "json"], ["lt"],
         ["lt", "--no-simplify"], ["trc"], ["check"], ["metrics"], ["roundtrip"])


def _sha16(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _mutant(rng: random.Random, sql: str) -> str:
    words = sql.split()
    i = rng.randrange(len(words))
    action = rng.choice(("drop", "duplicate", "swap"))
    if action == "drop":
        del words[i]
    elif action == "duplicate":
        words.insert(i, words[i])
    else:
        j = rng.randrange(len(words))
        words[i], words[j] = words[j], words[i]
    return " ".join(words)


def inputs() -> list[tuple[str, str]]:
    """(name, SQL text) for every input, in transcript order."""
    named = [(f"fixture:{name}", sql) for name, sql in VALID_QUERIES.items()]
    named.append(("fixture:owl_selection_buried", OWL_SELECTION_BURIED))
    rng = random.Random(SEED)
    for i in range(GENERATED):
        tree = random_logic_tree(rng, max_nodes=rng.randint(1, 12))
        named.append((f"generated:{i}", lt_to_sql(tree)))
    sources = [sql for _, sql in named]
    named += [(f"mutant:{i}", _mutant(rng, rng.choice(sources))) for i in range(MUTANTS)]
    return named


def _edited(doc: str) -> list[tuple[str, str]]:
    """The three broken copies of a diagram JSON document that `recover` reads."""
    last = list(re.finditer(r'"depth": (\d+)', doc))[-1]
    depth = f'"depth": {int(last.group(1)) + 1}'
    return [("depth", doc[:last.start()] + depth + doc[last.end():]),
            ("truncated", doc[:len(doc) // 2]),
            ("nested", doc.replace('"edges": [', '"edges": ' + "[" * NESTING, 1))]


def _call(argv: list[str], text: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    saved, sys.stdin = sys.stdin, io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def transcript() -> list[dict]:
    """One record per call: input name, argv, exit code, stdout, stderr."""
    records = []

    def record(name: str, argv: list[str], text: str) -> tuple[int, str]:
        code, out, err = _call(argv, text)
        stdout = out if name.startswith("fixture:") else _sha16(out)
        records.append(dict(zip(FIELDS, (name, argv, code, stdout, err))))
        return code, out

    for name, sql in inputs():
        diagrams = []
        for argv in FORMS:
            code, out = record(name, argv, sql)
            if code == 0 and argv[-1] == "json":
                diagrams.append(out)
        for doc in diagrams:
            record(f"{name}/json", ["recover"], doc)
            for edit, text in _edited(doc):
                record(f"{name}/json-{edit}", ["recover"], text)
    return records


def _line(rec: dict) -> str:
    return json.dumps([rec[key] for key in FIELDS], ensure_ascii=False, separators=(",", ":"))


def first_difference(records: list[dict], golden: list[str]) -> str | None:
    """A report of the first call whose line differs from the committed
    one: its input, argv and a short diff; None when all lines agree."""
    for i, (rec, expected) in enumerate(zip(records, golden)):
        if _line(rec) == expected:
            continue
        old = dict(zip(FIELDS, json.loads(expected)))
        lines = []
        for key in FIELDS:
            if old[key] != rec[key]:
                lines += difflib.unified_diff(
                    str(old[key]).splitlines(), str(rec[key]).splitlines(),
                    f"committed {key}", f"current {key}", n=1, lineterm="")
        return (f"call {i}: input {rec['input']}, argv {rec['argv']}\n"
                + "\n".join(lines[:24]))
    if len(records) != len(golden):
        return f"{len(records)} calls made, {len(golden)} committed"
    return None


def main(argv: list[str]) -> int:
    records = transcript()
    if argv == ["--write"]:
        GOLDEN.write_text("".join(_line(rec) + "\n" for rec in records), encoding="utf-8")
        print(f"wrote {len(records)} calls to {GOLDEN}")
        return 0
    difference = first_difference(records, GOLDEN.read_text(encoding="utf-8").splitlines())
    print(difference or f"all {len(records)} calls match")
    return 1 if difference else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
