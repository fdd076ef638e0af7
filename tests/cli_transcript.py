"""The CLI contract as a transcript: exit code, stderr and stdout of every call.

The inputs are rebuilt from fixed seeds: the twelve fixtures and
OWL_SELECTION_BURIED, GENERATED seeded generated queries, the IN, ANY and
ALL forms of test_fuzz.SUBQUERY_SEEDS, the HAND_WRITTEN queries and MUTANTS
word-level mutants (one word dropped, duplicated or swapped) of the
fixtures and generated queries.  Each input goes through the nine command
forms of acceptance criterion 10 on standard input.  Each successful `viz
--format json` output then goes to `recover` as it is and in three edited
copies: one group's depth changed, the document cut in half, and `[` nested
5 000 deep.  `recover` also reads the BROKEN_GRAPHS diagrams and the
FIXTURE_EDITS copies of one fixture's diagram, one for each diagnostic it
can print.  Every call runs through `cli.run` in process.

Exit code and stderr are stored in full.  Stdout is stored in full for the
fixtures and the hand-written inputs and as a 16-hex sha256 for the rest,
which keeps the file near 0.6 MB.  A change that alters output on purpose
rewrites the file and lists the changed calls.

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
from sqldiagram.fixtures import OWL_SELECTION_BURIED, SAILORS_NO_RED, VALID_QUERIES
from sqldiagram.logic import lt_to_sql
from test_fuzz import SUBQUERY_SEEDS

GOLDEN = Path(__file__).parent / "golden" / "cli_transcript.jsonl"
SEED = 16
GENERATED = 60
MUTANTS = 300
NESTING = 20000

FIELDS = ("input", "argv", "code", "stdout", "stderr")  # one JSON array per line
FORMS = (["viz"], ["viz", "--no-simplify"], ["viz", "--format", "json"], ["lt"],
         ["lt", "--no-simplify"], ["trc"], ["check"], ["metrics"], ["roundtrip"])


# Queries for the paths that generated queries and their mutants miss: each
# front-end rejection, accepted spellings the generator never prints, each
# violation kind and nesting past MAX_DEPTH.
HAND_WRITTEN = {
    "reject:union": "SELECT T.a FROM T UNION SELECT S.a FROM S",
    "reject:union-after-semicolon": "SELECT T.a FROM T; UNION SELECT S.a FROM S",
    "reject:join": "SELECT T.a FROM T JOIN S ON T.a = S.a",
    "reject:outer-join": "SELECT T.a FROM T LEFT OUTER JOIN S ON T.a = S.a",
    "reject:distinct": "SELECT DISTINCT T.a FROM T",
    "reject:group-by": "SELECT T.a FROM T WHERE T.b = 1\nGROUP BY T.a",
    "reject:having": "SELECT T.a FROM T HAVING T.a = 1",
    "reject:order-by": "SELECT T.a FROM T ORDER BY T.a",
    "reject:limit": "SELECT T.a FROM T LIMIT 1",
    "reject:or": "SELECT T.a FROM T WHERE T.a = 1 OR T.a = 2",
    "reject:aggregate": "SELECT COUNT(T.a) FROM T",
    "reject:arithmetic": "SELECT T.a FROM T WHERE T.a = T.b + 1",
    "reject:signed-column": "SELECT T.a FROM T WHERE T.a = - T.b",
    "reject:select-star": "SELECT * FROM T",
    "reject:scalar-subquery": "SELECT T.a FROM T WHERE T.a = (SELECT S.a FROM S)",
    "reject:not-comparison": "SELECT T.a FROM T WHERE NOT T.a = 1",
    "reject:two-constants": "SELECT T.a FROM T WHERE 1 = 2",
    "reject:missing-from": "SELECT T.a WHERE T.a = 1",
    "reject:trailing-input": "SELECT T.a FROM T)",
    "reject:unterminated-string": "SELECT T.a FROM T WHERE T.a = 'x",
    "reject:unterminated-comment": "SELECT T.a FROM T /* x",
    "reject:unexpected-character": "SELECT T.a FROM T WHERE T.a = 1 # x",
    "reject:identifier-character": "SELECT T.a FROM T WHERE T.\u00b2a = 1",
    "reject:in-two-columns": "SELECT T.a FROM T WHERE T.a IN (SELECT S.a, S.b FROM S)",
    "reject:in-select-star": "SELECT T.a FROM T WHERE T.a IN (SELECT * FROM S)",
    "reject:repeated-alias": "SELECT T.a FROM T, S T",
    "reject:unknown-alias": "SELECT X.a FROM T",
    "reject:ambiguous-column": "SELECT a FROM T, S",
    "reject:nesting": ("SELECT T.a FROM T WHERE " + "EXISTS (SELECT * FROM T WHERE " * 201
                       + "T.a = 1" + ")" * 201),
    "form:as-alias": ("SELECT S.sname FROM Sailor AS S WHERE NOT EXISTS\n"
                      "(SELECT * FROM Reserves AS R WHERE R.sid = S.sid)"),
    "form:constant-first": "SELECT T.a FROM T WHERE 5 < T.b AND - 7 >= T.c AND 'x' = T.d",
    "form:unqualified": ("SELECT a FROM T WHERE b = 1 AND NOT EXISTS"
                         " (SELECT * FROM S WHERE S.b = T.b)"),
    "form:renamed-aliases": ("SELECT T.a FROM T, T2 WHERE T.a = T2.a AND NOT EXISTS"
                             " (SELECT * FROM T, T3 WHERE T.b = T2.b AND T3.c = T.c)"),
    "violation:no-predicates": "SELECT T.a FROM T WHERE NOT EXISTS (SELECT * FROM B)",
    "violation:local-attributes": ("SELECT T.a FROM T WHERE NOT EXISTS"
                                   " (SELECT * FROM S WHERE S.a = T.a AND T.b = 1)"),
    "violation:connected-subqueries": ("SELECT T.a FROM T WHERE NOT EXISTS"
                                       " (SELECT * FROM S WHERE S.b = 1)"),
    "violation:depth-4-chain": ("SELECT A.x FROM A WHERE NOT EXISTS (SELECT * FROM B WHERE"
                                " B.x = A.x AND NOT EXISTS (SELECT * FROM C WHERE C.x = B.x"
                                " AND NOT EXISTS (SELECT * FROM D WHERE D.x = C.x AND NOT"
                                " EXISTS (SELECT * FROM E WHERE E.x = D.x))))"),
}

# Group graphs that recovery rejects, one per diagnostic, in the notation of
# _graph_doc.
BROKEN_GRAPHS = {
    "undirected": "r-a",
    "disconnected": "r>a b",
    "too-deep": "r>a a>b b>c c>d",
    "several-direct": "r>a r>b a>b",
    "no-mediated": "a>r",
    "arrow": "r>a a>r",
    "connected-subqueries": "a>t t>r a>u",
}


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
    named += [(f"subquery:{i}", sql) for i, sql in enumerate(SUBQUERY_SEEDS)]
    named += [(f"hand:{name}", sql) for name, sql in HAND_WRITTEN.items()]
    return named


def _graph_doc(spec: str) -> str:
    """Diagram JSON of a bare group graph written like "r>a a-b c": each name
    is a group holding one box of that alias (table T, row x), ">" is a
    directed and "-" an undirected edge between two x rows, and the SELECT
    box links r.x.  Depths are 0 and parents null; recovery fails before it
    reads them."""
    groups, edges = {}, []
    for word in spec.split():
        ends = re.split("[>-]", word)
        for name in ends:
            groups.setdefault(name, {"id": name, "quantifier": "EXISTS", "depth": 0,
                                     "parent": None, "tables": [
                                         {"alias": name, "table_name": "T",
                                          "rows": [{"attribute": "x"}]}]})
        if len(ends) == 2:
            edges.append({"from": [ends[0], "x"], "to": [ends[1], "x"],
                          "directed": ">" in word, "label": None})
    edges.append({"from": ["SELECT", "x"], "to": ["r", "x"], "directed": False, "label": None})
    doc = {"groups": list(groups.values()), "edges": edges, "select_box": {"rows": ["x"]}}
    return json.dumps(doc, indent=2) + "\n"


# Hand edits of the sailors_no_red diagram, each a list of (path, value)
# replacements: groups g0_1 (box S), g1_1 (R) and g2_1 (B) on one path,
# edges R.bid -> B.bid and S.sid -> R.sid, then the SELECT link to S.sname.
FIXTURE_EDITS = {
    "group-id": [(("groups", 2, "id"), "g1_1")],
    "alias": [(("groups", 2, "tables", 0, "alias"), "R")],
    "endpoint": [(("edges", 0, "to", 0), "X")],
    "undirected": [(("edges", 0, "directed"), False)],
    "select-unknown": [(("edges", 2, "to", 0), "X")],
    "select-none": [(("edges", 2, "from", 0), "S"), (("select_box", "rows"), [])],
    "parent": [(("groups", 2, "parent"), "g0_1")],
    "root-parent": [(("groups", 0, "parent"), "g1_1")],
    "rows": [(("select_box", "rows"), ["sid"])],
    "select-from": [(("edges", 2, "from", 1), "sid")],
    "select-directed": [(("edges", 2, "directed"), True)],
    "select-label": [(("edges", 2, "label"), "<")],
}


def _fixture_edits(doc: str) -> list[tuple[str, str]]:
    copies = []
    for name, replacements in FIXTURE_EDITS.items():
        edited = json.loads(doc)
        for (*parents, last), value in replacements:
            field = edited
            for key in parents:
                field = field[key]
            field[last] = value
        copies.append((name, json.dumps(edited, indent=2, ensure_ascii=False) + "\n"))
    return copies


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
        stdout = out if name.startswith(("fixture:", "hand:", "graph:", "edit:")) else _sha16(out)
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
    for name, spec in BROKEN_GRAPHS.items():
        record(f"graph:{name}", ["recover"], _graph_doc(spec))
    for name, text in _fixture_edits(_call(["viz", "--format", "json"], SAILORS_NO_RED)[1]):
        record(f"edit:{name}", ["recover"], text)
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
